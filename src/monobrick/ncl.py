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

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from monobrick.arcs import Algebra, Arc
from monobrick.diagrams import (
    Diagram,
    DiagramKind,
    crossing_violation,
    json_field,
    json_int,
    json_list,
)


@dataclass(frozen=True)
class NclPartition:
    n: int
    blocks: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "blocks", frozenset(frozenset(b) for b in self.blocks)
        )
        if self.n < 1:
            raise ValueError("partition ground set needs n >= 1")
        for block in self.blocks:
            if not block:
                raise ValueError("partition contains an empty block")
            if not all(1 <= x <= self.n for x in block):
                raise ValueError(
                    f"block {sorted(block)} leaves the ground set 1..{self.n}"
                )

    def canonical(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(b)) for b in self.blocks)


def _pair_violation(e: tuple[int, ...], f: tuple[int, ...]) -> str | None:
    """NCL2/NCL3 check for one unordered pair of sorted blocks."""
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


def violation(partition: NclPartition) -> str | None:
    """First broken condition as a message starting with NCL1/NCL2/NCL3, or None."""
    covered: set[int] = set()
    for block in partition.blocks:
        covered |= block
    ground = set(range(1, partition.n + 1))
    if covered != ground:
        missing = sorted(ground - covered)
        return f"NCL1: marks {missing} are not covered by any block"
    blocks = partition.canonical()
    for e, f in combinations(blocks, 2):
        message = _pair_violation(e, f)
        if message:
            return message
    return None


def is_valid(partition: NclPartition) -> bool:
    return violation(partition) is None


def to_diagram(partition: NclPartition) -> Diagram:
    """Arcs ``(min E, j)`` for every block ``E`` and non-minimal ``j`` of ``E``."""
    problem = violation(partition)
    if problem:
        raise ValueError(problem)
    algebra = Algebra.linear_a(partition.n - 1)
    arcs = {
        Arc(min(block), j)
        for block in partition.blocks
        for j in block
        if j != min(block)
    }
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
