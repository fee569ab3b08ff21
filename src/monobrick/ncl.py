"""Non-crossing linked partitions of ``1..n`` and their arc-diagram bijection.

A linked partition relaxes ordinary partitions: two blocks may share one
element, provided the shared element is the minimum of exactly one of them
(and that block is not a singleton).  Three conditions police this:

* NCL1: the blocks cover ``1..n``,
* NCL2: no two blocks interleave as ``a < b < c < d`` with ``a, c`` in one
  block and ``b, d`` in the other,
* NCL3: pairwise intersections have size at most one, with the shared-minimum
  rule above.

Each such partition corresponds to the mono-crossing diagram over the linear
family drawing ``(min E, j)`` for every non-minimal ``j`` of every block.
:func:`enumerate_partitions` deliberately does NOT go through that bijection;
it grows blocks directly by their minima so counts can cross-check the
diagram enumeration.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import combinations
from typing import Iterator

from monobrick.arcs import Algebra, Arc, Record
from monobrick.diagrams import (
    Diagram,
    DiagramKind,
    crossing_violation,
    json_field,
    json_int,
    json_list,
)


class NclPartition(Record):
    """Blocks over the ground set ``1..n``; construction checks that every
    block is nonempty and inside it, :func:`violation` the NCL conditions."""

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks: frozenset[frozenset[int]]) -> None:
        blocks = frozenset(frozenset(b) for b in blocks)
        if n < 1:
            raise ValueError("partition ground set needs n >= 1")
        for block in blocks:
            if not block:
                raise ValueError("partition contains an empty block")
            if not all(1 <= x <= n for x in block):
                raise ValueError(
                    f"block {sorted(block)} leaves the ground set 1..{n}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    def canonical(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(b)) for b in self.blocks)


def _interleave(
    x: tuple[int, ...], y: tuple[int, ...]
) -> tuple[int, int, int, int] | None:
    """Least ``(a, c, b, d)``, lexicographically, with ``a < b < c < d``,
    ``a, c`` in sorted ``x`` and ``b, d`` in sorted ``y``, or None.

    Any interleaving survives lowering ``a`` to ``x[0]``.  Then ``b`` is the
    least ``y`` above ``a``, ``c`` the least ``x`` above ``b`` (which must
    lie below ``y[-1]``) and ``d`` the least ``y`` above ``c``.
    """
    a = x[0]
    i = bisect_right(y, a)
    if i == len(y):
        return None
    b = y[i]
    j = bisect_right(x, b)
    if j == len(x) or x[j] >= y[-1]:
        return None
    c = x[j]
    return a, b, c, y[bisect_right(y, c)]


def _pair_violation(e: tuple[int, ...], f: tuple[int, ...]) -> str | None:
    """NCL2/NCL3 check for one unordered pair of sorted blocks."""
    for x, y in ((e, f), (f, e)):
        found = _interleave(x, y)
        if found:
            a, b, c, d = found
            return (
                f"NCL2: blocks {list(x)} and {list(y)} interleave "
                f"at {a}<{b}<{c}<{d}"
            )
    # Bisect the longer block for each mark of the shorter one, so a long
    # block costs only a logarithm against each of the many it can nest.
    short, long = sorted((e, f), key=len)
    shared = []
    for x in short:
        k = bisect_left(long, x)
        if k < len(long) and long[k] == x:
            shared.append(x)
    if len(shared) > 1:
        return f"NCL3: blocks {list(e)} and {list(f)} share {shared}"
    if shared:
        j = shared[0]
        ok = (j == e[0] and len(e) > 1 and j != f[0]) or (
            j == f[0] and len(f) > 1 and j != e[0]
        )
        if not ok:
            return (
                f"NCL3: shared mark {j} of blocks {list(e)} and {list(f)} "
                "must be the minimum of exactly one of them, not a singleton"
            )
    return None


def _first_reaching(ends: list[int]):
    """``first(lo, hi, t)``: the least ``k`` in ``lo..hi-1`` with
    ``ends[k] >= t``, or ``hi``.

    ``levels[h][k]`` is the largest of ``ends[k : k + 2**h]``, so a run of
    ends below ``t`` is skipped in at most one stride per level.
    """
    levels = [ends]
    width = 1
    while 2 * width <= len(ends):
        prev = levels[-1]
        levels.append([max(prev[k], prev[k + width]) for k in range(len(prev) - width)])
        width *= 2

    def first(lo: int, hi: int, t: int) -> int:
        for h in range(len(levels) - 1, -1, -1):
            if lo + (1 << h) <= hi and levels[h][lo] < t:
                lo += 1 << h
        return lo

    return first


def violation(partition: NclPartition) -> str | None:
    """First broken condition as a message starting with NCL1/NCL2/NCL3, or None.

    Blocks are checked pairwise in canonical order, but a block ``e`` is
    checked only against the later blocks ``f`` that can fail with it.  A
    later block starts at or after ``e`` does.  If it starts past the end of
    ``e`` or inside a gap between two marks of ``e`` and ends before the
    gap's right end, the two share no mark and cannot interleave.  If it
    starts inside a gap and reaches its right end, it interleaves with
    ``e`` or shares that end as a mark neither block starts at, so only the
    first such block of a gap is needed.  The rest start at a mark of ``e``,
    at most one per mark unless the partition is broken.
    """
    covered: set[int] = set()
    for block in partition.blocks:
        covered |= block
    ground = set(range(1, partition.n + 1))
    if covered != ground:
        missing = sorted(ground - covered)
        return f"NCL1: marks {missing} are not covered by any block"
    blocks = partition.canonical()
    starts = [b[0] for b in blocks]
    reaching = _first_reaching([b[-1] for b in blocks])
    for i, e in enumerate(blocks):
        lo = i + 1
        for j, mark in enumerate(e):
            # the later blocks that start at this mark
            hi = bisect_right(starts, mark, lo)
            for k in range(lo, hi):
                message = _pair_violation(e, blocks[k])
                if message:
                    return message
            if j + 1 == len(e):
                break
            # the blocks that start in the gap up to the next mark
            right = e[j + 1]
            gap_end = bisect_left(starts, right, hi)
            k = reaching(hi, gap_end, right)
            if k < gap_end:
                return _pair_violation(e, blocks[k])
            lo = gap_end
    return None


def to_diagram(partition: NclPartition) -> Diagram:
    """Arcs ``(min E, j)`` for every block ``E`` and non-minimal ``j`` of ``E``."""
    problem = violation(partition)
    if problem:
        raise ValueError(problem)
    algebra = Algebra.linear_a(partition.n - 1)
    arcs = set()
    for block in partition.blocks:
        low = min(block)
        arcs.update(Arc(low, j) for j in block if j != low)
    return Diagram(algebra, frozenset(arcs))


def from_diagram(diagram: Diagram) -> NclPartition:
    """Inverse of :func:`to_diagram`.

    Mark ``i`` heads the block of its outgoing arc ends, stays a singleton if
    no arc touches it, and contributes no block if arcs only end there.
    """
    if diagram.algebra.kind != "A":
        raise ValueError("partitions correspond to diagrams over the linear family")
    bad = crossing_violation(diagram, DiagramKind.MONOBRICK)
    if bad is not None:
        a, b, kind = bad
        raise ValueError(
            f"diagram is not mono-crossing: arcs {tuple(a)} and {tuple(b)} "
            f"form a {kind.value} pair"
        )
    n = diagram.algebra.marks
    ends_from: dict[int, set[int]] = {}
    arc_ends: set[int] = set()
    for arc in diagram.arcs:
        ends_from.setdefault(arc.start, set()).add(arc.end)
        arc_ends.add(arc.end)
    blocks = []
    for i in range(1, n + 1):
        if i in ends_from:
            blocks.append(frozenset({i} | ends_from[i]))
        elif i not in arc_ends:
            blocks.append(frozenset({i}))
    return NclPartition(n, frozenset(blocks))


def enumerate_partitions(n: int) -> Iterator[NclPartition]:
    """All non-crossing linked partitions of ``1..n``, by block minima.

    At mark ``i`` either ``i`` is already covered (we may pass), or a new
    block with minimum ``i`` starts; candidate members come from ``i+1..n``
    and each candidate is screened pairwise against the blocks chosen so far.
    Later blocks have larger minima, so an uncovered ``i`` must start a block
    now.  Two blocks can never share a minimum (NCL3 forbids it), hence one
    start per mark suffices.
    """
    if n < 1:
        raise ValueError("partition ground set needs n >= 1")
    rest_of = {i: tuple(range(i + 1, n + 1)) for i in range(1, n + 2)}

    def rec(
        i: int, blocks: tuple[tuple[int, ...], ...], covered: frozenset[int]
    ) -> Iterator[NclPartition]:
        if i > n:
            yield NclPartition(n, frozenset(frozenset(b) for b in blocks))
            return
        if i in covered:
            yield from rec(i + 1, blocks, covered)
        for size in range(0, n - i + 1):
            for extra in combinations(rest_of[i], size):
                candidate = (i,) + extra
                if all(_pair_violation(candidate, b) is None for b in blocks):
                    yield from rec(
                        i + 1, blocks + (candidate,), covered | set(candidate)
                    )

    yield from rec(1, (), frozenset())


def count_partitions(n: int) -> int:
    return sum(1 for _ in enumerate_partitions(n))


def partition_to_json(partition: NclPartition) -> dict:
    return {
        "n": partition.n,
        "blocks": [list(block) for block in partition.canonical()],
    }


def partition_from_json(data: dict) -> NclPartition:
    n = json_int(json_field(data, "n"), "n")
    blocks = []
    for k, block in enumerate(json_list(json_field(data, "blocks"), "blocks")):
        field = f"blocks[{k}]"
        marks = [json_int(x, field) for x in json_list(block, field)]
        if len(set(marks)) != len(marks):
            raise ValueError(f'field "{field}" repeats a mark')
        blocks.append(frozenset(marks))
    if len(set(blocks)) != len(blocks):
        raise ValueError("partition lists a duplicate block")
    return NclPartition(n, frozenset(blocks))
