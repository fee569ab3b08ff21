import time
from itertools import combinations, islice

import pytest
from hypothesis import given, strategies as st

from monobrick.arcs import Algebra, Arc, Crossing, HomKind, submodule_arcs
from monobrick.diagrams import (
    ArcTable,
    BudgetExceeded,
    Diagram,
    DiagramKind,
    arc_table,
    bit_indices,
    catalan,
    central_binomial,
    clique_lines,
    count_cliques,
    count_closed_form,
    count_diagrams,
    crossing_violation,
    cyclic_count_from_recurrence,
    diagram_from_json,
    diagram_to_json,
    enumerate_diagrams,
    iter_index_cliques,
    json_lines,
    schroder,
)
from monobrick.poset import cofinal_closure, is_cofinally_closed
from literal_arcs import (
    is_monobrick,
    is_semibrick,
    literal_crossing_kind,
    literal_hom_kind,
    literal_violation,
)

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


STREAM_ALGEBRAS = [Algebra.linear_a(r) for r in range(11)] + [
    Algebra.cyclic_b(r) for r in range(1, 8)
]


@pytest.mark.parametrize("algebra", STREAM_ALGEBRAS, ids=str)
def test_clique_count_is_the_length_of_the_clique_stream(algebra):
    # The memoised count skips listing, and the cofinally closed count takes
    # the distinct closures of the semibricks, which the pruned search of
    # the stream never builds; the streams list every diagram.
    table = arc_table(algebra)
    for kind in (DiagramKind.MONOBRICK, DiagramKind.SEMIBRICK):
        listed = sum(1 for _ in iter_index_cliques(table.adjacency[kind]))
        assert count_diagrams(algebra, kind) == listed, kind
    kind = DiagramKind.COFINALLY_CLOSED
    listed = sum(1 for _ in table.diagrams(kind))
    assert count_diagrams(algebra, kind) == listed


@st.composite
def symmetric_graphs(draw):
    size = draw(st.integers(min_value=0, max_value=14))
    adjacency = [0] * size
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return adjacency


@given(symmetric_graphs())
def test_clique_search_accumulates_any_items(adjacency):
    # The template kernel against the per-clique join of the index search:
    # at limit 1 only leaves are templates, at 2 and 3 templates mix with
    # nodes expanded one by one, and the default is the command's own.
    cliques = list(iter_index_cliques(adjacency))
    assert count_cliques(adjacency) == len(cliques)
    fragments = [f"<{i}>" for i in range(len(adjacency))]
    expected = "".join(
        "#" + ",".join([fragments[i] for i in clique]) + ";\n" for clique in cliques
    )
    for limit in (1, 2, 3, None):
        args = (adjacency, "#", fragments, ";\n") + ((limit,) if limit else ())
        pieces = list(clique_lines(*args))
        assert "".join(text for text, _ in pieces) == expected, limit
        assert [text.count("\n") for text, _ in pieces] == [n for _, n in pieces]


def literal_json_lines(table, cliques):
    """Each index tuple's line joined from per-arc fragments."""
    algebra = table.algebra
    head = f'{{"n":{algebra.rank},"algebra":"{algebra.kind}","arcs":['
    fragments = [f"[{a.start},{a.end}]" for a in table.arcs]
    for clique in cliques:
        yield head + ",".join([fragments[i] for i in clique]) + "]}\n"


# Every route of json_lines runs by A9; A10's million lines add only time.
@pytest.mark.parametrize(
    "algebra", [a for a in STREAM_ALGEBRAS if a != Algebra.linear_a(10)], ids=str
)
def test_json_lines_match_the_per_line_join(algebra):
    table = arc_table(algebra)
    for kind in DiagramKind:
        expected = "".join(literal_json_lines(table, table.diagrams(kind)))
        pieces = list(json_lines(table, kind))
        assert "".join(text for text, _ in pieces) == expected, kind
        assert sum(n for _, n in pieces) == expected.count("\n"), kind


def literal_submodule_masks(algebra):
    """``prefixes`` from ``submodule_arcs`` and ``bad`` from the socle-series
    ``literal_hom_kind`` on every ordered arc pair."""
    arcs = algebra.arcs()
    index = {arc: i for i, arc in enumerate(arcs)}
    prefixes = tuple(
        sum(1 << index[sub] for sub in submodule_arcs(p, algebra)) for p in arcs
    )
    bad = tuple(
        sum(
            1 << j
            for j, m in enumerate(arcs)
            if literal_hom_kind(p, m, algebra) is HomKind.NONZERO_NON_INJECTION
        )
        for p in arcs
    )
    return prefixes, bad


@pytest.mark.parametrize("algebra", STREAM_ALGEBRAS, ids=str)
def test_submodule_masks_match_the_pairwise_loops(algebra):
    table = ArcTable(algebra)
    assert (table.prefixes, table.bad) == literal_submodule_masks(algebra)


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


def mask_closure(table, indices):
    """Mask of the cofinal closure of the arcs at ``indices``, one clique at
    a time: with ``C`` the member mask,
    ``C | {p in OR(prefixes[C]) & ~C : bad[p] & C == 0}``, the mask form of
    :func:`cofinal_closure` and the reference for the closures that
    ``closed_masks`` and ``closed_lines`` carry down their searches."""
    members = _mask(indices)
    reach = 0
    for i in bit_indices(members):
        reach |= table.prefixes[i]
    closed = members
    for p in bit_indices(reach & ~members):
        if not table.bad[p] & members:
            closed |= 1 << p
    return closed


@pytest.mark.parametrize(
    "algebra",
    [Algebra.linear_a(r) for r in range(7)] + [Algebra.cyclic_b(r) for r in range(1, 6)],
    ids=str,
)
def test_mask_closure_matches_diagram_closure(algebra):
    table = arc_table(algebra)
    for diagram in enumerate_diagrams(algebra, DiagramKind.MONOBRICK):
        got = mask_closure(table, [table.index[a] for a in diagram.arcs])
        want = cofinal_closure(diagram)
        assert got == _mask(table.index[a] for a in want.arcs), diagram


@pytest.mark.parametrize(
    "algebra",
    [Algebra.linear_a(r) for r in range(8)] + [Algebra.cyclic_b(r) for r in range(1, 7)],
    ids=str,
)
def test_cofinally_closed_routes_agree(algebra):
    # Production lists the closed diagrams by the pruned monobrick search.
    # The closures of the semibricks (decoded and sorted), the mask filter
    # and the Diagram-level filter over every monobrick are the references.
    # All four lists must be identical, order included, and the count's
    # carried closures must be the semibricks' closures.
    table = arc_table(algebra)
    pruned = list(table.diagrams(DiagramKind.COFINALLY_CLOSED))
    closures = {
        mask_closure(table, clique)
        for clique in iter_index_cliques(table.adjacency[DiagramKind.SEMIBRICK])
    }
    semibrick_closures = sorted(map(bit_indices, closures))
    mask_filter = [
        clique
        for clique in iter_index_cliques(table.adjacency[DiagramKind.MONOBRICK])
        if mask_closure(table, clique) == _mask(clique)
    ]
    diagram_filter = [
        tuple(table.index[a] for a in d.sorted_arcs())
        for d in enumerate_diagrams(algebra, DiagramKind.MONOBRICK)
        if is_cofinally_closed(d)
    ]
    assert pruned == semibrick_closures == mask_filter == diagram_filter
    assert table.closed_masks() == closures
    assert len(pruned) == count_closed_form(algebra, DiagramKind.COFINALLY_CLOSED)


class CountingPieces:
    """Index-tuple pieces that count their reads: the pruned search reads one
    piece for every node it pushes, so the nodes it visits are the reads
    plus the root."""

    def __init__(self):
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return (i,)


# (closed diagrams, nodes visited) of the pruned search.  Unpruned, the
# search would visit every monobrick: 41,586 at A8, 28,814 at B7 and
# 1,037,718 at A10.
CLOSED_SEARCH_WORK = {
    "A8": (Algebra.linear_a(8), 4862, 7073),
    "B7": (Algebra.cyclic_b(7), 3432, 5668),
    "A10": (Algebra.linear_a(10), 58786, 90441),
}


@pytest.mark.parametrize("name", sorted(CLOSED_SEARCH_WORK))
def test_closed_search_work_is_pinned(name):
    # A search that stops cutting subtrees still lists the same diagrams, in
    # the same order, only far slower; this pin is what catches it.
    algebra, closed, visited = CLOSED_SEARCH_WORK[name]
    pieces = CountingPieces()
    lines = arc_table(algebra).closed_lines((), pieces, pieces, ())
    assert (sum(1 for _ in lines), 1 + pieces.reads) == (closed, visited)


@pytest.mark.parametrize("family", ["A", "B"])
def test_arc_table_masks_match_literal_kinds(family):
    # Pins every adjacency, prefix and bad mask to the socle-series
    # definitions, independent of the closed forms the table is built from.
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
                kind = literal_hom_kind(a, b, algebra)
                if kind in (HomKind.INJECTION, HomKind.ISO):
                    prefixes[j] |= 1 << i
                if kind is HomKind.NONZERO_NON_INJECTION:
                    bad[i] |= 1 << j
                if j <= i:
                    continue
                crossing = literal_crossing_kind(a, b, algebra.marks)
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


@pytest.mark.parametrize("family", ["A", "B"])
def test_crossing_violation_matches_literal_scan_on_arc_pairs(family):
    for rank in range(9) if family == "A" else range(1, 9):
        algebra = Algebra(family, rank)
        for a, b in combinations(algebra.arcs(), 2):
            diagram = Diagram(algebra, frozenset({a, b}))
            for kind in DiagramKind:
                expected = literal_violation(diagram, kind)
                assert crossing_violation(diagram, kind) == expected, (a, b, kind)


@st.composite
def random_arc_sets(draw):
    algebra = Algebra(
        draw(st.sampled_from(["A", "B"])), draw(st.integers(min_value=1, max_value=40))
    )
    arcs = algebra.arcs()
    picked = draw(st.lists(st.sampled_from(arcs), max_size=12))
    return Diagram(algebra, frozenset(picked))


@given(random_arc_sets(), st.sampled_from(list(DiagramKind)))
def test_crossing_violation_reports_the_first_bad_pair(diagram, kind):
    assert crossing_violation(diagram, kind) == literal_violation(diagram, kind)


@pytest.mark.parametrize(
    "diagram",
    [
        # 3,000 nested arcs: distinct starts, every pair plain non-crossing.
        Diagram(Algebra.linear_a(6000), {Arc(i, 6002 - i) for i in range(1, 3001)}),
        # 3,000 arcs at one start: every pair mono-crossing.
        Diagram(Algebra.cyclic_b(10000), {Arc(1, j) for j in range(2, 3002)}),
    ],
    ids=["nested-A6000", "same-start-B10000"],
)
def test_crossing_violation_scans_large_query_diagrams_quickly(diagram):
    # The inline span test takes about 0.2 s on each; a crossing_kind call on
    # each of the 4.5 million pairs takes several seconds.
    began = time.perf_counter()
    assert crossing_violation(diagram, DiagramKind.MONOBRICK) is None
    assert time.perf_counter() - began < 1.5
