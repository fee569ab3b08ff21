from itertools import combinations, islice

import pytest
from hypothesis import given, strategies as st

from monobrick.arcs import Algebra, Arc, Crossing, HomKind, crossing_kind, hom_kind
from monobrick.diagrams import (
    BudgetExceeded,
    Diagram,
    DiagramKind,
    arc_table,
    catalan,
    central_binomial,
    count_closed_form,
    count_diagrams,
    crossing_violation,
    cyclic_count_from_recurrence,
    diagram_from_json,
    diagram_to_json,
    enumerate_diagrams,
    is_monobrick,
    is_semibrick,
    iter_index_cliques,
    schroder,
)
from monobrick.poset import cofinal_closure, is_cofinally_closed

A3 = Algebra.linear_a(3)
B2 = Algebra.cyclic_b(2)
B3 = Algebra.cyclic_b(3)


def test_schroder_sequence():
    assert [schroder(n) for n in range(8)] == [1, 2, 6, 22, 90, 394, 1806, 8558]


def test_catalan_and_central_binomial():
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [central_binomial(n) for n in range(5)] == [1, 2, 6, 20, 70]


@pytest.mark.parametrize(
    "algebra, kind, expected",
    [
        (Algebra.linear_a(0), DiagramKind.MONOBRICK, 1),
        (Algebra.linear_a(1), DiagramKind.MONOBRICK, 2),
        (A3, DiagramKind.MONOBRICK, 22),
        (B2, DiagramKind.MONOBRICK, 8),
        (B3, DiagramKind.MONOBRICK, 38),
        (Algebra.linear_a(2), DiagramKind.SEMIBRICK, 5),
        (A3, DiagramKind.SEMIBRICK, 14),
        (B2, DiagramKind.SEMIBRICK, 6),
        (B3, DiagramKind.SEMIBRICK, 20),
        (A3, DiagramKind.COFINALLY_CLOSED, 14),
        (B2, DiagramKind.COFINALLY_CLOSED, 6),
        (B3, DiagramKind.COFINALLY_CLOSED, 20),
    ],
)
def test_frozen_enumeration_counts(algebra, kind, expected):
    assert count_diagrams(algebra, kind) == expected


@pytest.mark.parametrize("rank", range(6))
def test_closed_forms_match_enumeration_linear(rank):
    algebra = Algebra.linear_a(rank)
    for kind in (DiagramKind.MONOBRICK, DiagramKind.SEMIBRICK):
        assert count_diagrams(algebra, kind) == count_closed_form(algebra, kind)


@pytest.mark.parametrize("rank", range(1, 5))
def test_closed_forms_match_enumeration_cyclic(rank):
    algebra = Algebra.cyclic_b(rank)
    for kind in (DiagramKind.MONOBRICK, DiagramKind.SEMIBRICK):
        assert count_diagrams(algebra, kind) == count_closed_form(algebra, kind)


def test_recurrence_agrees_with_closed_form():
    for n in range(1, 9):
        expected = count_closed_form(Algebra.cyclic_b(n), DiagramKind.MONOBRICK)
        assert cyclic_count_from_recurrence(n) == expected


def test_enumeration_order_is_lex_on_arc_indices():
    a2 = Algebra.linear_a(2)
    listed = [d.sorted_arcs() for d in enumerate_diagrams(a2, DiagramKind.MONOBRICK)]
    assert listed == [
        [],
        [Arc(1, 2)],
        [Arc(1, 2), Arc(1, 3)],
        [Arc(1, 2), Arc(2, 3)],
        [Arc(1, 3)],
        [Arc(2, 3)],
    ]


def test_enumeration_matches_subset_filter():
    # Second route: filter every arc subset by the pairwise predicate.
    for algebra, kind, check in [
        (Algebra.linear_a(2), DiagramKind.MONOBRICK, is_monobrick),
        (B2, DiagramKind.MONOBRICK, is_monobrick),
        (B2, DiagramKind.SEMIBRICK, is_semibrick),
    ]:
        arcs = algebra.arcs()
        brute = {
            frozenset(sub)
            for r in range(len(arcs) + 1)
            for sub in combinations(arcs, r)
            if check(Diagram(algebra, frozenset(sub)))
        }
        fast = {d.arcs for d in enumerate_diagrams(algebra, kind)}
        assert fast == brute


def test_iter_index_cliques_on_triangle_with_pendant():
    # Vertices 0-1-2 form a triangle, 3 attaches to 2 only.
    adjacency = [0b0110, 0b0101, 0b1011, 0b0100]
    cliques = list(iter_index_cliques(adjacency))
    assert (0, 1, 2) in cliques
    assert (2, 3) in cliques
    assert (0, 3) not in cliques
    assert cliques[0] == ()
    assert len(cliques) == len(set(cliques))


def test_budget_enforcement():
    with pytest.raises(BudgetExceeded, match="11"):
        next(iter(enumerate_diagrams(Algebra.linear_a(11), DiagramKind.MONOBRICK)))
    with pytest.raises(BudgetExceeded):
        next(iter(enumerate_diagrams(Algebra.cyclic_b(8), DiagramKind.MONOBRICK)))
    # Explicit override lifts the cap; just probe the stream, no full run.
    stream = enumerate_diagrams(Algebra.linear_a(11), DiagramKind.MONOBRICK, budget=11)
    assert len(list(islice(stream, 3))) == 3


def test_monobrick_membership_examples():
    bad = Diagram(B3, frozenset({Arc(1, 1), Arc(2, 3), Arc(3, 1), Arc(3, 2)}))
    assert not is_monobrick(bad)
    violation = crossing_violation(bad, DiagramKind.MONOBRICK)
    assert violation == (Arc(1, 1), Arc(3, 1), Crossing.EPI_CROSSING)

    # Admissible and pairwise weakly non-crossing, but (1,4)/(3,4) share an
    # ending point, so the shorter arc is a proper quotient of the longer one.
    shared_end = Diagram(A3, frozenset({Arc(1, 2), Arc(1, 4), Arc(3, 4)}))
    assert not is_monobrick(shared_end)
    assert crossing_violation(shared_end, DiagramKind.MONOBRICK) == (
        Arc(1, 4),
        Arc(3, 4),
        Crossing.EPI_CROSSING,
    )

    good = Diagram(A3, frozenset({Arc(1, 2), Arc(1, 4), Arc(2, 3)}))
    assert is_monobrick(good)
    assert not is_semibrick(good)
    assert crossing_violation(good, DiagramKind.SEMIBRICK) == (
        Arc(1, 2),
        Arc(1, 4),
        Crossing.MONO_CROSSING,
    )


def test_diagram_validates_arcs():
    with pytest.raises(ValueError):
        Diagram(A3, frozenset({Arc(4, 1)}))


def test_json_roundtrip_examples():
    diagram = Diagram(B3, frozenset({Arc(1, 1), Arc(2, 3)}))
    data = diagram_to_json(diagram)
    assert data == {"n": 3, "algebra": "B", "arcs": [[1, 1], [2, 3]]}
    assert diagram_from_json(data) == diagram


def test_json_rejects_bad_input():
    with pytest.raises(ValueError):
        diagram_from_json({"n": 3, "algebra": "B", "arcs": [[1, 2], [1, 2]]})
    with pytest.raises(ValueError):
        diagram_from_json({"n": 3, "algebra": "A", "arcs": [[3, 2]]})
    with pytest.raises(ValueError, match='"n"'):
        diagram_from_json({"algebra": "B", "arcs": []})
    with pytest.raises(ValueError, match="JSON object"):
        diagram_from_json([3, "B", []])


@given(st.sampled_from([Algebra.linear_a(2), A3, B2, B3]), st.data())
def test_json_roundtrip_random(algebra, data):
    arcs = algebra.arcs()
    size = data.draw(st.integers(min_value=0, max_value=len(arcs)))
    chosen = frozenset(data.draw(st.permutations(arcs))[:size])
    diagram = Diagram(algebra, chosen)
    assert diagram_from_json(diagram_to_json(diagram)) == diagram


# -- arc table kernel --------------------------------------------------

def _mask(indices):
    return sum(1 << i for i in indices)


@pytest.mark.parametrize(
    "algebra",
    [Algebra.linear_a(r) for r in range(7)] + [Algebra.cyclic_b(r) for r in range(1, 6)],
    ids=str,
)
def test_mask_closure_matches_diagram_closure(algebra):
    table = arc_table(algebra)
    for diagram in enumerate_diagrams(algebra, DiagramKind.MONOBRICK):
        got = table.closure(table.index[a] for a in diagram.arcs)
        want = cofinal_closure(diagram)
        assert got == _mask(table.index[a] for a in want.arcs), diagram


@pytest.mark.parametrize(
    "algebra",
    [Algebra.linear_a(r) for r in range(8)] + [Algebra.cyclic_b(r) for r in range(1, 7)],
    ids=str,
)
def test_cofinally_closed_routes_agree(algebra):
    # Production closes the semibricks; the mask filter and the Diagram-level
    # filter both screen every monobrick.  All three lists must be identical,
    # order included.
    table = arc_table(algebra)
    produced = list(table.diagrams(DiagramKind.COFINALLY_CLOSED))
    mask_filter = [
        clique
        for clique in iter_index_cliques(table.adjacency[DiagramKind.MONOBRICK])
        if table.closure(clique) == _mask(clique)
    ]
    diagram_filter = [
        tuple(table.index[a] for a in d.sorted_arcs())
        for d in enumerate_diagrams(algebra, DiagramKind.MONOBRICK)
        if is_cofinally_closed(d)
    ]
    assert produced == mask_filter == diagram_filter
    assert len(produced) == count_closed_form(algebra, DiagramKind.COFINALLY_CLOSED)


@pytest.mark.parametrize("family", ["A", "B"])
def test_arc_table_masks_match_literal_kinds(family):
    # Pins every adjacency, prefix and bad mask to the literal crossing_kind
    # and hom_kind, so a faster route to the table has to reproduce them.
    ranks = range(13) if family == "A" else range(1, 13)
    for rank in ranks:
        algebra = Algebra(family, rank)
        table = arc_table(algebra)
        arcs = table.arcs
        mono = [0] * len(arcs)
        semi = [0] * len(arcs)
        prefixes = [0] * len(arcs)
        bad = [0] * len(arcs)
        for i, a in enumerate(arcs):
            for j, b in enumerate(arcs):
                kind = hom_kind(a, b, algebra)
                if kind in (HomKind.INJECTION, HomKind.ISO):
                    prefixes[j] |= 1 << i
                if kind is HomKind.NONZERO_NON_INJECTION:
                    bad[i] |= 1 << j
                if j <= i:
                    continue
                crossing = crossing_kind(a, b, algebra.marks)
                if crossing in (Crossing.MONO_CROSSING, Crossing.NON_CROSSING):
                    mono[i] |= 1 << j
                    mono[j] |= 1 << i
                if crossing is Crossing.NON_CROSSING:
                    semi[i] |= 1 << j
                    semi[j] |= 1 << i
        assert table.adjacency[DiagramKind.MONOBRICK] == tuple(mono), algebra
        assert table.adjacency[DiagramKind.SEMIBRICK] == tuple(semi), algebra
        assert table.prefixes == tuple(prefixes), algebra
        assert table.bad == tuple(bad), algebra
