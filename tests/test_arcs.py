import pytest
from hypothesis import given, strategies as st

from monobrick.arcs import (
    Algebra,
    Arc,
    Crossing,
    HomKind,
    arc_length,
    crossing_kind,
    hom_kind,
    socle_series,
    submodule_arcs,
)
from literal_arcs import literal_crossing_kind, literal_hom_kind


def test_socle_series_examples():
    assert socle_series(Arc(2, 3), 3) == (2,)
    assert socle_series(Arc(3, 2), 3) == (3, 1)
    assert socle_series(Arc(1, 1), 3) == (1, 2, 3)


def test_arc_counts():
    assert len(Algebra.linear_a(3).arcs()) == 6
    assert len(Algebra.linear_a(1).arcs()) == 1
    assert len(Algebra.linear_a(0).arcs()) == 0
    assert len(Algebra.cyclic_b(3).arcs()) == 9
    assert len(Algebra.cyclic_b(1).arcs()) == 1


def test_arc_order_is_start_then_length():
    assert Algebra.cyclic_b(3).arcs()[:3] == [Arc(1, 2), Arc(1, 3), Arc(1, 1)]
    assert Algebra.linear_a(2).arcs() == [Arc(1, 2), Arc(1, 3), Arc(2, 3)]


def test_arc_validity():
    a3 = Algebra.linear_a(3)
    assert a3.is_valid_arc(Arc(1, 4))
    assert not a3.is_valid_arc(Arc(4, 1))
    assert not a3.is_valid_arc(Arc(2, 2))
    assert not a3.is_valid_arc(Arc(0, 2))
    b2 = Algebra.cyclic_b(2)
    assert b2.is_valid_arc(Arc(2, 1))
    assert b2.is_valid_arc(Arc(2, 2))
    assert not b2.is_valid_arc(Arc(2, 3))
    with pytest.raises(ValueError):
        a3.check_arc(Arc(3, 2))


def test_bad_algebra_parameters():
    with pytest.raises(ValueError):
        Algebra("C", 2)
    with pytest.raises(ValueError):
        Algebra.cyclic_b(0)
    with pytest.raises(ValueError):
        Algebra.linear_a(-1)
    assert Algebra.linear_a(0).marks == 1


@pytest.mark.parametrize(
    "a, b, n, kind",
    [
        (Arc(1, 3), Arc(2, 4), 4, Crossing.STRICTLY_CROSSING),
        (Arc(3, 1), Arc(3, 2), 3, Crossing.MONO_CROSSING),
        (Arc(1, 2), Arc(3, 4), 4, Crossing.NON_CROSSING),
        (Arc(3, 2), Arc(1, 1), 3, Crossing.STRICTLY_CROSSING),
        (Arc(1, 3), Arc(2, 3), 3, Crossing.EPI_CROSSING),
        (Arc(1, 4), Arc(2, 3), 4, Crossing.NON_CROSSING),
        # All pair kinds inside the diagram {(1,1),(2,3),(3,1),(3,2)} on 3 marks.
        (Arc(1, 1), Arc(2, 3), 3, Crossing.NON_CROSSING),
        (Arc(1, 1), Arc(3, 1), 3, Crossing.EPI_CROSSING),
        (Arc(2, 3), Arc(3, 1), 3, Crossing.NON_CROSSING),
        (Arc(2, 3), Arc(3, 2), 3, Crossing.NON_CROSSING),
    ],
)
def test_crossing_examples(a, b, n, kind):
    assert crossing_kind(a, b, n) == kind


def test_crossing_needs_distinct_arcs():
    with pytest.raises(ValueError):
        crossing_kind(Arc(1, 2), Arc(1, 2), 3)


@pytest.mark.parametrize(
    "a, b, algebra, kind",
    [
        (Arc(1, 3), Arc(2, 3), Algebra.linear_a(2), HomKind.NONZERO_NON_INJECTION),
        (Arc(1, 2), Arc(1, 4), Algebra.linear_a(3), HomKind.INJECTION),
        (Arc(1, 2), Arc(2, 3), Algebra.linear_a(2), HomKind.ZERO),
        (Arc(1, 1), Arc(2, 2), Algebra.cyclic_b(2), HomKind.NONZERO_NON_INJECTION),
        (Arc(2, 4), Arc(2, 4), Algebra.linear_a(3), HomKind.ISO),
        (Arc(1, 4), Arc(1, 2), Algebra.linear_a(3), HomKind.ZERO),
        (Arc(1, 4), Arc(3, 4), Algebra.linear_a(3), HomKind.NONZERO_NON_INJECTION),
    ],
)
def test_hom_kind_examples(a, b, algebra, kind):
    assert hom_kind(a, b, algebra) == kind


def test_submodule_arcs_examples():
    assert submodule_arcs(Arc(1, 4), Algebra.linear_a(3)) == [
        Arc(1, 2),
        Arc(1, 3),
        Arc(1, 4),
    ]
    assert submodule_arcs(Arc(3, 2), Algebra.cyclic_b(3)) == [Arc(3, 1), Arc(3, 2)]


@st.composite
def algebra_with_arcs(draw, count):
    kind = draw(st.sampled_from(["A", "B"]))
    rank = draw(st.integers(min_value=1, max_value=7))
    algebra = Algebra(kind, rank)
    picked = draw(
        st.lists(st.sampled_from(algebra.arcs()), min_size=count, max_size=count)
    )
    return algebra, picked


@given(algebra_with_arcs(count=1))
def test_socle_series_shape(case):
    algebra, (a,) = case
    series = socle_series(a, algebra.marks)
    assert series[0] == a.start
    assert len(series) == arc_length(a, algebra.marks)
    assert len(set(series)) == len(series)


@given(algebra_with_arcs(count=2))
def test_crossing_is_symmetric(case):
    algebra, (a, b) = case
    if a == b:
        return
    assert crossing_kind(a, b, algebra.marks) == crossing_kind(b, a, algebra.marks)


@given(algebra_with_arcs(count=2))
def test_shared_endpoint_pairs_never_strictly_cross(case):
    algebra, (a, b) = case
    if a == b:
        return
    kind = crossing_kind(a, b, algebra.marks)
    if a.start == b.start:
        assert kind == Crossing.MONO_CROSSING
    elif a.end == b.end:
        assert kind == Crossing.EPI_CROSSING
    else:
        assert kind in (Crossing.NON_CROSSING, Crossing.STRICTLY_CROSSING)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_strict_crossing_of_admissible_arcs_interleaves(rank, data):
    # On admissible arcs, strict crossing is the classical interleaving
    # condition a < c < b < d (in one order or the other).
    algebra = Algebra.linear_a(rank)
    arcs = algebra.arcs()
    a = data.draw(st.sampled_from(arcs))
    b = data.draw(st.sampled_from(arcs))
    if a == b:
        return
    interleaved = (a.start < b.start < a.end < b.end) or (
        b.start < a.start < b.end < a.end
    )
    strict = crossing_kind(a, b, algebra.marks) == Crossing.STRICTLY_CROSSING
    assert strict == interleaved


@given(algebra_with_arcs(count=1))
def test_hom_kind_identity_is_iso(case):
    algebra, (a,) = case
    assert hom_kind(a, a, algebra) == HomKind.ISO


@given(algebra_with_arcs(count=2))
def test_no_mutual_proper_injections(case):
    algebra, (a, b) = case
    if a == b:
        return
    forward = hom_kind(a, b, algebra)
    backward = hom_kind(b, a, algebra)
    assert not (forward == HomKind.INJECTION and backward == HomKind.INJECTION)


@given(algebra_with_arcs(count=2))
def test_submodule_arcs_match_injections(case):
    # The prefixes of a are exactly the arcs mapping into a by injection/iso.
    algebra, (a, _) = case
    subs = submodule_arcs(a, algebra)
    assert subs[-1] == a
    assert [arc_length(s, algebra.marks) for s in subs] == list(
        range(1, arc_length(a, algebra.marks) + 1)
    )
    expected = {
        x
        for x in algebra.arcs()
        if hom_kind(x, a, algebra) in (HomKind.INJECTION, HomKind.ISO)
    }
    assert set(subs) == expected


SMALL_ALGEBRAS = [Algebra.linear_a(r) for r in range(13)] + [
    Algebra.cyclic_b(r) for r in range(1, 13)
]


@pytest.mark.parametrize("algebra", SMALL_ALGEBRAS, ids=str)
def test_closed_forms_match_socle_series_definitions(algebra):
    # Every ordered pair of A0-A12 and B1-B12 (78,078 distinct pairs in all).
    n = algebra.marks
    arcs = algebra.arcs()
    for a in arcs:
        assert hom_kind(a, a, algebra) is literal_hom_kind(a, a, algebra)
        for b in arcs:
            if a == b:
                continue
            assert crossing_kind(a, b, n) is literal_crossing_kind(a, b, n), (a, b)
            assert hom_kind(a, b, algebra) is literal_hom_kind(a, b, algebra), (a, b)
