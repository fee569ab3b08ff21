import time
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from monobrick.arcs import Algebra, Arc
from monobrick.diagrams import Diagram, DiagramKind, enumerate_diagrams, schroder
from monobrick.ncl import (
    NclPartition,
    _pair_violation,
    count_partitions,
    enumerate_partitions,
    from_diagram,
    partition_from_json,
    partition_to_json,
    to_diagram,
    violation,
)


def P(n, *blocks):
    return NclPartition(n, frozenset(frozenset(b) for b in blocks))


def D(rank, *arcs):
    return Diagram(Algebra.linear_a(rank), frozenset(Arc(*a) for a in arcs))


def test_validate_examples():
    assert violation(P(4, {1, 2, 4}, {2, 3})) is None
    assert violation(P(3, {1}, {2}, {3})) is None
    assert violation(P(4, {1, 3}, {2, 4})).startswith("NCL2")


def test_violation_messages_name_the_condition():
    assert violation(P(3, {1, 2})).startswith("NCL1")
    assert "[3]" in violation(P(3, {1, 2}))
    assert violation(P(3, {1, 2, 3}, {2, 3})).startswith("NCL3")
    # A shared mark must not be the minimum of both blocks.
    assert violation(P(3, {1, 2}, {1, 3})).startswith("NCL3")
    # A shared mark must not sit in a singleton block.
    assert violation(P(2, {1, 2}, {2})).startswith("NCL3")


def test_shared_mark_as_second_minimum_is_fine():
    assert violation(P(3, {1, 2}, {2, 3})) is None


def test_malformed_partitions_rejected():
    with pytest.raises(ValueError):
        P(3, {1, 2, 4})
    with pytest.raises(ValueError):
        P(3, set())
    with pytest.raises(ValueError):
        NclPartition(0, frozenset())


def test_to_diagram_examples():
    assert to_diagram(P(4, {1, 2, 4}, {2, 3})) == D(3, (1, 2), (1, 4), (2, 3))
    assert to_diagram(P(3, {1}, {2}, {3})) == D(2)
    assert to_diagram(P(4, {1, 2}, {3, 4})) == D(3, (1, 2), (3, 4))
    with pytest.raises(ValueError, match="NCL2"):
        to_diagram(P(4, {1, 3}, {2, 4}))


def test_from_diagram_examples():
    assert from_diagram(D(3, (1, 2), (1, 4), (2, 3))) == P(4, {1, 2, 4}, {2, 3})
    assert from_diagram(D(2)) == P(3, {1}, {2}, {3})
    assert from_diagram(D(3, (1, 2), (3, 4))) == P(4, {1, 2}, {3, 4})


def test_from_diagram_rejects_bad_input():
    with pytest.raises(ValueError, match="EpiCrossing"):
        from_diagram(D(3, (1, 4), (3, 4)))
    with pytest.raises(ValueError, match="linear"):
        from_diagram(Diagram(Algebra.cyclic_b(3), frozenset({Arc(1, 1)})))


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_counts(n):
    assert count_partitions(n) == schroder(n - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_roundtrip_both_ways(n):
    partitions = list(enumerate_partitions(n))
    assert len(partitions) == len({p.blocks for p in partitions})
    for p in partitions:
        assert from_diagram(to_diagram(p)) == p
    diagrams = list(enumerate_diagrams(Algebra.linear_a(n - 1), DiagramKind.MONOBRICK))
    for d in diagrams:
        assert to_diagram(from_diagram(d)) == d
    # The bijection is onto: partition images exhaust the diagrams.
    assert {to_diagram(p).arcs for p in partitions} == {d.arcs for d in diagrams}


def test_block_minima_are_distinct():
    for p in enumerate_partitions(5):
        minima = [min(b) for b in p.blocks]
        assert len(minima) == len(set(minima))


def test_json_roundtrip():
    p = P(4, {2, 3}, {1, 2, 4})
    data = partition_to_json(p)
    assert data == {"n": 4, "blocks": [[1, 2, 4], [2, 3]]}
    assert partition_from_json(data) == p
    with pytest.raises(ValueError):
        partition_from_json({"blocks": [[1]]})
    with pytest.raises(ValueError):
        partition_from_json({"n": 2, "blocks": [[1, 3]]})


def literal_pair_violation(e, f):
    """The pair check with every pair of marks of one block tried against
    every pair of the other, as a reference."""
    for x, y in ((e, f), (f, e)):
        for a, c in combinations(x, 2):
            for b, d in combinations(y, 2):
                if a < b < c < d:
                    return (
                        f"NCL2: blocks {list(x)} and {list(y)} interleave "
                        f"at {a}<{b}<{c}<{d}"
                    )
    shared = set(e) & set(f)
    if len(shared) > 1:
        return f"NCL3: blocks {list(e)} and {list(f)} share {sorted(shared)}"
    if shared:
        j = next(iter(shared))
        ok = (j == e[0] and len(e) > 1 and j != f[0]) or (
            j == f[0] and len(f) > 1 and j != e[0]
        )
        if not ok:
            return (
                f"NCL3: shared mark {j} of blocks {list(e)} and {list(f)} "
                "must be the minimum of exactly one of them, not a singleton"
            )
    return None


def literal_violation(partition):
    """The NCL check with every pair of blocks scanned, as a reference."""
    covered = set().union(*partition.blocks)
    ground = set(range(1, partition.n + 1))
    if covered != ground:
        return f"NCL1: marks {sorted(ground - covered)} are not covered by any block"
    for e, f in combinations(partition.canonical(), 2):
        message = literal_pair_violation(e, f)
        if message:
            return message
    return None


def test_pair_violation_matches_the_literal_scan_on_all_small_blocks():
    marks = range(1, 8)
    blocks = [c for k in range(1, 8) for c in combinations(marks, k)]
    for e in blocks:
        for f in blocks:
            assert _pair_violation(e, f) == literal_pair_violation(e, f), (e, f)


def one_mark_more(partition):
    """Each way to add one mark to one block: mostly invalid partitions."""
    for block in partition.blocks:
        for mark in range(1, partition.n + 1):
            if mark not in block:
                yield NclPartition(
                    partition.n, (partition.blocks - {block}) | {block | {mark}}
                )


@pytest.mark.parametrize("n", range(1, 8))
def test_violation_matches_all_pairs_scan(n):
    for partition in enumerate_partitions(n):
        assert violation(partition) is None
        for variant in one_mark_more(partition):
            assert violation(variant) == literal_violation(variant), variant


@st.composite
def random_partitions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    blocks = draw(
        st.lists(
            st.frozensets(st.integers(min_value=1, max_value=n), min_size=1),
            max_size=8,
        )
    )
    return NclPartition(n, frozenset(blocks))


@given(random_partitions())
def test_violation_matches_all_pairs_scan_on_random_partitions(partition):
    assert violation(partition) == literal_violation(partition)


def test_one_long_block_against_many_nested_singletons_is_linear():
    # The odd marks form one block and every even mark is a singleton inside
    # it: 10,000 pairs that share no mark.  Building both blocks' sets per
    # pair made this quadratic (about 2 s on two cores).
    n = 20_000
    partition = NclPartition(
        n, [range(1, n + 1, 2)] + [{j} for j in range(2, n + 1, 2)]
    )
    started = time.perf_counter()
    assert violation(partition) is None
    assert time.perf_counter() - started < 1.0


def nested_pairs(n):
    """The blocks ``{i, n + 1 - i}`` for even ``n``: every block nests in the
    one before it."""
    return [{i, n + 1 - i} for i in range(1, n // 2 + 1)]


def test_violation_matches_all_pairs_scan_around_nested_blocks():
    partition = NclPartition(20, nested_pairs(20))
    assert violation(partition) is None
    for variant in one_mark_more(partition):
        assert violation(variant) == literal_violation(variant), variant


def test_many_nested_blocks_are_checked_in_near_linear_time():
    # 5,000 blocks {i, 10001 - i}: every pair is nested, so checking each
    # block against every later block it overlaps took half a minute.
    n = 10_000
    started = time.perf_counter()
    assert violation(NclPartition(n, nested_pairs(n))) is None
    assert time.perf_counter() - started < 1.0


def test_a_crossing_pair_inside_many_nested_blocks_is_found_fast():
    n = 10_000
    blocks = nested_pairs(n)[:-2] + [{4999, 5001}, {5000, 5002}]
    started = time.perf_counter()
    assert violation(NclPartition(n, blocks)) == (
        "NCL2: blocks [4999, 5001] and [5000, 5002] interleave "
        "at 4999<5000<5001<5002"
    )
    assert time.perf_counter() - started < 1.0
