import pytest
from hypothesis import given, settings, strategies as st

from monobrick.arcs import Algebra, Arc, HomKind, arc_length, hom_kind, submodule_arcs
from monobrick.diagrams import (
    Diagram,
    DiagramKind,
    crossing_violation,
    enumerate_diagrams,
)
from monobrick.poset import cofinal_closure, hasse_covers, is_cofinally_closed, mmax
from literal_arcs import (
    covering_pairs,
    is_monobrick,
    is_semibrick,
    maximal_elements,
    submodule_leq,
)

A3 = Algebra.linear_a(3)
B2 = Algebra.cyclic_b(2)
B3 = Algebra.cyclic_b(3)


def D(algebra, *arcs):
    return Diagram(algebra, frozenset(Arc(*a) for a in arcs))


def all_monobricks(algebra):
    return list(enumerate_diagrams(algebra, DiagramKind.MONOBRICK))


def is_cofinal_extension(small: Diagram, large: Diagram) -> bool:
    """``large`` contains ``small`` and every arc of ``large`` sits under some arc of ``small``."""
    if small.algebra != large.algebra:
        raise ValueError("diagrams live over different algebras")
    if not small.arcs <= large.arcs:
        return False
    algebra = small.algebra
    return all(
        any(submodule_leq(x, m, algebra) for m in small.arcs)
        for x in large.arcs
    )


def test_closure_examples():
    assert cofinal_closure(D(A3, (1, 2), (2, 4))) == D(A3, (1, 2), (2, 3), (2, 4))
    assert cofinal_closure(D(A3, (1, 4))) == D(A3, (1, 2), (1, 3), (1, 4))
    # Cyclic rank 2: closing a full arc adds its one-mark prefix.
    assert cofinal_closure(D(B2, (1, 1))) == D(B2, (1, 2), (1, 1))
    assert cofinal_closure(D(B2, (2, 2))) == D(B2, (2, 1), (2, 2))


def test_mmax_examples():
    chain = D(A3, (1, 2), (1, 3), (1, 4))
    assert mmax(chain) == D(A3, (1, 4))
    spread = D(A3, (1, 2), (2, 3), (3, 4))
    assert mmax(spread) == spread


def test_hasse_of_chain_is_consecutive():
    chain = D(A3, (1, 2), (1, 3), (1, 4))
    assert hasse_covers(chain) == [
        (Arc(1, 2), Arc(1, 3)),
        (Arc(1, 3), Arc(1, 4)),
    ]


def test_generic_poset_helpers():
    divides = lambda a, b: b % a == 0
    elements = [1, 2, 3, 6]
    assert maximal_elements(elements, divides) == [6]
    assert set(covering_pairs(elements, divides)) == {(1, 2), (1, 3), (2, 6), (3, 6)}


def test_cofinal_extension_examples():
    base = D(A3, (1, 4))
    closed = cofinal_closure(base)
    assert is_cofinal_extension(base, closed)
    assert not is_cofinal_extension(closed, base)  # not a superset
    other = D(Algebra.linear_a(2), (1, 2))
    bigger = D(Algebra.linear_a(2), (1, 2), (2, 3))
    assert not is_cofinal_extension(other, bigger)  # (2,3) sits under nothing
    with pytest.raises(ValueError):
        is_cofinal_extension(base, D(B3, (1, 1)))


@pytest.mark.parametrize("algebra", [A3, B3])
def test_closure_properties_exhaustive(algebra):
    for diagram in all_monobricks(algebra):
        closed = cofinal_closure(diagram)
        assert diagram.arcs <= closed.arcs
        assert is_monobrick(closed)
        assert cofinal_closure(closed) == closed
        assert mmax(closed) == mmax(diagram)
        assert is_cofinal_extension(diagram, closed)
        assert is_cofinally_closed(diagram) == (closed == diagram)


@pytest.mark.parametrize("algebra", [A3, B3])
def test_mmax_is_always_a_semibrick(algebra):
    for diagram in all_monobricks(algebra):
        top = mmax(diagram)
        assert is_semibrick(top)
        # Every member sits under some maximal member.
        assert all(
            any(submodule_leq(a, m, algebra) for m in top.arcs)
            for a in diagram.arcs
        )


@pytest.mark.parametrize("algebra", [A3, B3])
def test_discrete_order_characterizes_semibricks(algebra):
    for diagram in all_monobricks(algebra):
        discrete = mmax(diagram) == diagram
        assert discrete == is_semibrick(diagram)


def test_down_sets_are_chains():
    # Arcs below a fixed arc share its start, so they are totally ordered.
    for algebra in (A3, B3):
        for diagram in all_monobricks(algebra):
            for target in diagram.arcs:
                below = [
                    a for a in diagram.arcs if submodule_leq(a, target, algebra)
                ]
                for a in below:
                    for b in below:
                        assert submodule_leq(a, b, algebra) or submodule_leq(
                            b, a, algebra
                        )


def test_closed_diagrams_count_matches_semibricks():
    for algebra in (A3, B2, B3):
        monobricks = all_monobricks(algebra)
        closed = [d for d in monobricks if is_cofinally_closed(d)]
        semis = [d for d in monobricks if is_semibrick(d)]
        assert len(closed) == len(semis)
        # Closure restricted to semibricks hits every closed diagram once.
        assert {cofinal_closure(s).arcs for s in semis} == {d.arcs for d in closed}


# -- closed forms against the pairwise routes ----------------------------


def literal_cofinal_closure(diagram):
    """Reference: admit each submodule arc of a member whose hom to every
    member is zero or injective, deciding each pair through ``hom_kind``."""
    algebra = diagram.algebra
    members = set(diagram.arcs)
    candidates = set()
    for member in diagram.arcs:
        candidates.update(submodule_arcs(member, algebra))
    admitted = {
        cand
        for cand in candidates - members
        if all(
            hom_kind(cand, member, algebra)
            in (HomKind.ZERO, HomKind.INJECTION, HomKind.ISO)
            for member in members
        )
    }
    return Diagram(algebra, frozenset(members | admitted))


def assert_closed_forms_match_literal_routes(diagram):
    algebra = diagram.algebra
    leq = lambda a, b: submodule_leq(a, b, algebra)
    arcs = diagram.sorted_arcs()
    assert mmax(diagram) == Diagram(algebra, frozenset(maximal_elements(arcs, leq)))
    assert hasse_covers(diagram) == covering_pairs(arcs, leq)
    assert cofinal_closure(diagram) == literal_cofinal_closure(diagram)


SMALL_ALGEBRAS = [Algebra.linear_a(r) for r in range(7)] + [
    Algebra.cyclic_b(r) for r in range(1, 6)
]


@pytest.mark.parametrize("algebra", SMALL_ALGEBRAS, ids=str)
def test_closed_forms_match_literal_routes_exhaustive(algebra):
    for diagram in all_monobricks(algebra):
        assert_closed_forms_match_literal_routes(diagram)


@pytest.mark.parametrize("kind", ["A", "B"])
def test_submodule_order_is_same_start_and_not_longer(kind):
    for rank in range(1, 13):
        algebra = Algebra(kind, rank)
        n = algebra.marks
        arcs = algebra.arcs()
        for a in arcs:
            for b in arcs:
                closed_form = (
                    a.start == b.start and arc_length(a, n) <= arc_length(b, n)
                )
                assert submodule_leq(a, b, algebra) == closed_form, (algebra, a, b)


@st.composite
def random_monobricks(draw, max_rank):
    """Random arcs, each kept when the diagram stays a monobrick."""
    kind = draw(st.sampled_from(["A", "B"]))
    algebra = Algebra(kind, draw(st.integers(min_value=1, max_value=max_rank)))
    n = algebra.marks
    diagram = Diagram(algebra, frozenset())
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        if kind == "A":
            start = draw(st.integers(min_value=1, max_value=n - 1))
            end = draw(st.integers(min_value=start + 1, max_value=n))
        else:
            start = draw(st.integers(min_value=1, max_value=n))
            end = draw(st.integers(min_value=1, max_value=n))
        grown = Diagram(algebra, diagram.arcs | {Arc(start, end)})
        if crossing_violation(grown, DiagramKind.MONOBRICK) is None:
            diagram = grown
    return diagram


@settings(max_examples=60, deadline=None)
@given(random_monobricks(max_rank=150))
def test_closure_is_idempotent_and_keeps_mmax(diagram):
    closed = cofinal_closure(diagram)
    assert diagram.arcs <= closed.arcs
    assert cofinal_closure(closed) == closed
    assert mmax(closed) == mmax(diagram)


@settings(max_examples=100, deadline=None)
@given(random_monobricks(max_rank=30))
def test_closed_forms_match_literal_routes_random(diagram):
    assert_closed_forms_match_literal_routes(diagram)
