"""Arc diagrams: pairwise-compatible arc sets, enumeration, exact counts.

A diagram collects arcs over one algebra.  The three diagram kinds differ in
which crossing kinds a pair of member arcs may have:

* monobrick diagrams allow mono-crossing and non-crossing pairs,
* semibrick diagrams allow non-crossing pairs only,
* cofinally closed diagrams are the monobrick diagrams fixed by cofinal
  closure, so they allow the monobrick pairs.  They are listed by a
  monobrick clique search that carries each node's closure and cuts every
  subtree that holds none, and counted as the distinct cofinal closures of
  the semibrick diagrams (the paper's semibrick / cofinally-closed
  bijection), so the count is an independent check that the bijection is
  injective.

:func:`crossing_violation` states that rule pair by pair, and
:class:`ArcTable` reads the same rules off maps, one :func:`hom_kind` call
per ordered pair of an algebra's arcs.

Enumeration works in arc-index space over one :class:`ArcTable` per algebra:
a diagram is an ascending tuple of indices into the (start, length)-sorted
arcs, found by clique search over a compatibility graph and emitted in lex
order, so output order is deterministic and independent of set iteration
order.  :func:`iter_index_cliques` lists the cliques as index tuples.  One
count, memoised on the candidate mask that many search nodes share, serves
both :func:`count_cliques` and :func:`clique_lines`, which writes the
``enumerate`` text of a whole small subtree from one template per mask
instead of a line at a time.  :func:`count_diagrams` lists no clique.
Neither cofinally closed route calls a closure per clique: both carry
the closure down their search, :meth:`ArcTable.closed_lines` writes its
lines in lex order as it finds them, and no mask is decoded or sorted.
The single-diagram queries in :mod:`monobrick.poset` work on
:class:`Diagram` objects and never build a table.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterator, Sequence

from monobrick.arcs import (
    Algebra,
    Arc,
    Crossing,
    HomKind,
    arc_length,
    crossing_kind,
    hom_kind,
)

DEFAULT_BUDGET = {"A": 10, "B": 7}


class BudgetExceeded(RuntimeError):
    """Enumeration refused: the rank exceeds the configured budget."""


class DiagramKind(enum.Enum):
    MONOBRICK = "Monobrick"
    SEMIBRICK = "Semibrick"
    COFINALLY_CLOSED = "CofinallyClosed"


@dataclass(frozen=True)
class Diagram:
    algebra: Algebra
    arcs: frozenset[Arc]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        for arc in self.arcs:
            self.algebra.check_arc(arc)

    def sorted_arcs(self) -> list[Arc]:
        n = self.algebra.marks
        return sorted(self.arcs, key=lambda a: (a.start, arc_length(a, n)))


def crossing_violation(
    diagram: Diagram, kind: DiagramKind
) -> tuple[Arc, Arc, Crossing] | None:
    """First arc pair, in ``sorted_arcs`` order, whose crossing kind the
    diagram kind forbids, or None.

    Every kind allows plain non-crossing pairs and forbids strictly and
    epi-crossing ones; mono-crossing pairs are allowed unless the kind is
    semibrick.  So only the reported pair reaches
    :func:`crossing_kind`.  In sorted order the first start ``s`` is at most
    the second ``t``.  With unreduced ends ``s + la`` and ``t + lb``, a pair
    with ``s < t`` is plain non-crossing exactly when the second arc ends
    before the first does, wraps around past the first's end, or fits in the
    gap between the first's end and ``s + n``: the closed form of
    :func:`crossing_kind` at offset ``d = t - s > 0``, inlined because a
    call per pair is ten times slower on thousands of arcs.
    """
    mono_ok = kind is not DiagramKind.SEMIBRICK
    n = diagram.algebra.marks
    # (start, start + length) is unique per arc and sorts as sorted_arcs does.
    spans = sorted((a.start, a.start + arc_length(a, n), a) for a in diagram.arcs)
    for i, (s, end, a) in enumerate(spans):
        for t, t_end, b in spans[i + 1 :]:
            if t == s:
                if mono_ok:
                    continue
            elif t_end < end or t_end > end + n or (end <= t and t_end <= s + n):
                continue
            return a, b, crossing_kind(a, b, n)
    return None


def iter_index_cliques(adjacency: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All cliques of a graph given as bitmask adjacency rows, as ascending
    index tuples in lex order.

    A clique always appears before its extensions and extensions are
    explored in ascending index order.  The search keeps an explicit stack
    of (clique, candidates) pairs: children are pushed from the highest
    index down, so the lowest is popped first.

    >>> list(iter_index_cliques((0b110, 0b101, 0b011)))
    [(), (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]
    """
    singletons = [(i,) for i in range(len(adjacency))]
    stack = [((), (1 << len(adjacency)) - 1)]
    pop = stack.pop
    push = stack.append
    while stack:
        chosen, cand = pop()
        yield chosen
        higher = 0
        while cand:
            i = cand.bit_length() - 1
            bit = 1 << i
            cand ^= bit
            push((chosen + singletons[i], higher & adjacency[i]))
            higher |= bit


def _clique_counter(adjacency: Sequence[int]) -> Callable[[int], int]:
    """``count(cand)``: the cliques in the subtree of a search node with
    candidates ``cand``, the node's own included.

    ``count(cand) = 1 + sum(count({j in cand : j > i} & adjacency[i]))`` over
    ``i`` in ``cand``: the children of :func:`iter_index_cliques`, memoised
    on the candidate mask, since distinct cliques often leave the same
    candidates (A10 monobricks: 1,037,718 cliques, 1,644 masks).
    """
    memo = {0: 1}

    def count(cand: int) -> int:
        found = memo.get(cand)
        if found is None:
            found = 1
            higher = 0
            rest = cand
            while rest:
                i = rest.bit_length() - 1
                bit = 1 << i
                rest ^= bit
                found += count(higher & adjacency[i])
                higher |= bit
            memo[cand] = found
        return found

    return count


def count_cliques(adjacency: Sequence[int]) -> int:
    """Number of cliques, the empty one included, without listing them.

    >>> count_cliques((0b110, 0b101, 0b011))
    8
    """
    return _clique_counter(adjacency)((1 << len(adjacency)) - 1)


# Stands for a line's prefix in a subtree template; no text holds it.
_HOLE = "\0"


def clique_lines(
    adjacency: Sequence[int],
    head: str,
    fragments: Sequence[str],
    end: str,
    limit: int = 256,
) -> Iterator[tuple[str, int]]:
    """Text of one line per clique, in :func:`iter_index_cliques` order, as
    ``(text, lines)`` pieces of one or more whole lines.

    A clique's line is ``head``, the ``fragments`` of its indices joined by
    commas, and ``end``.  Every line under a search node is the node's
    prefix plus a tail that depends only on the node's candidate mask, so a
    subtree of at most ``limit`` lines is one piece: a ``str.replace`` of
    ``_HOLE`` in a template of those tails, built once per mask from its
    children's templates, its size the memoised count of
    :func:`count_cliques`.  A larger node is a piece of its own line and
    pushes its children as the index search does.  The root always does,
    since its children's first fragment takes no comma.  Templates grow
    with ``limit``: at the default, the 659 of A9 monobricks hold 0.56 MB.

    >>> triangle = (0b110, 0b101, 0b011)
    >>> list(clique_lines(triangle, "<", "abc", ">", 2))
    [('<>', 1), ('<a>', 1), ('<a,b><a,b,c>', 2), ('<a,c>', 1), ('<b><b,c>', 2), ('<c>', 1)]
    """
    count = _clique_counter(adjacency)
    items = ["," + fragment for fragment in fragments]
    templates: dict[int, str] = {}

    def template(cand: int) -> str:
        found = templates.get(cand)
        if found is None:
            parts = [_HOLE + end]
            rest = cand
            while rest:  # ascending: what is left above i is the child's pool
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                child = template(rest & adjacency[i])
                parts.append(child.replace(_HOLE, _HOLE + items[i]))
            found = templates[cand] = "".join(parts)
        return found

    stack: list[tuple[str, int]] = []
    push = stack.append

    def push_children(prefix: str, cand: int, pieces: Sequence[str]) -> None:
        higher = 0
        while cand:
            i = cand.bit_length() - 1
            bit = 1 << i
            cand ^= bit
            push((prefix + pieces[i], higher & adjacency[i]))
            higher |= bit

    yield head + end, 1
    push_children(head, (1 << len(adjacency)) - 1, fragments)
    pop = stack.pop
    while stack:
        prefix, cand = pop()
        size = count(cand)
        if size <= limit:
            yield template(cand).replace(_HOLE, prefix), size
        else:
            yield prefix + end, 1
            push_children(prefix, cand, items)


def check_budget(algebra: Algebra, budget: int | None = None) -> None:
    """Raise :class:`BudgetExceeded` when the rank of ``algebra`` is over the
    cap: ``budget``, or the family's default when it is None."""
    limit = DEFAULT_BUDGET[algebra.kind] if budget is None else budget
    if algebra.rank > limit:
        raise BudgetExceeded(
            f"rank {algebra.rank} of {algebra} exceeds enumeration budget {limit}"
        )


def bit_indices(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


class ArcTable:
    """Index-space view of one algebra's arcs, built once for enumeration.

    ``arcs`` are in (start, length) order, ``index`` maps each arc to its
    position, and bit ``i`` of every mask stands for ``arcs[i]``.  All masks
    come from one :func:`hom_kind` call per ordered pair: ``adjacency``
    holds the monobrick rows (nonzero maps either way are injective) and
    the semibrick rows (all maps either way are zero), ``prefixes[p]`` the
    submodules of arc ``p`` (``p`` included), ``bad[p]`` the targets of
    its nonzero non-injections and ``blockers[m]`` their sources.

    An arc ``p`` is in the cofinal closure of a member mask ``C`` when it
    is a submodule of a member (in ``reach``, the OR of ``prefixes[C]``)
    and no member blocks it (``bad[p] & C == 0``: ``p`` is in ``ok``, the
    arcs outside every ``blockers[C]``).  The searches below carry the
    closure's arcs outside ``C``, ``pending = reach & ok & ~C``, and
    ``open = ok & ~C``: adding arc ``i`` puts the open part of
    ``prefixes[i]`` into ``pending`` and takes ``i`` and ``blockers[i]``
    out of both.
    """

    def __init__(self, algebra: Algebra) -> None:
        arcs = tuple(algebra.arcs())
        size = len(arcs)
        zero, non_injection = HomKind.ZERO, HomKind.NONZERO_NON_INJECTION
        # Bit j of nonzero[i]: the map arcs[i] -> arcs[j] is nonzero.  The
        # kinds are told apart by ``is``: a dict keyed by the enum hashes in
        # Python.
        nonzero, bad = [], []
        blockers, prefixes = [0] * size, [0] * size
        for i, a in enumerate(arcs):
            bit = 1 << i
            out = out_bad = 0
            for j, b in enumerate(arcs):
                found = hom_kind(a, b, algebra)
                if found is not zero:
                    out |= 1 << j
                    if found is non_injection:
                        out_bad |= 1 << j
                        blockers[j] |= bit
                    else:  # an injection or the identity
                        prefixes[j] |= bit
            nonzero.append(out)
            bad.append(out_bad)
        full = (1 << size) - 1
        self.algebra = algebra
        self.arcs = arcs
        self.index = {arc: i for i, arc in enumerate(arcs)}
        # Monobrick rows: neither way a nonzero non-injection, nor the arc
        # itself.  Semibrick rows: no nonzero map either way.
        self.adjacency = {
            DiagramKind.MONOBRICK: tuple(
                full ^ (bad[i] | blockers[i] | 1 << i) for i in range(size)
            ),
            DiagramKind.SEMIBRICK: tuple(
                full ^ (nonzero[i] | prefixes[i] | blockers[i]) for i in range(size)
            ),
        }
        self.prefixes = tuple(prefixes)
        self.bad = tuple(bad)
        self.blockers = tuple(blockers)

    def _keep(self) -> list[int]:
        """``keep[i]``: the arcs that adding arc ``i`` leaves open."""
        return [~(row | 1 << i) for i, row in enumerate(self.blockers)]

    def closed_masks(self) -> set[int]:
        """Masks of the cofinally closed diagrams: the distinct closures
        ``members | pending`` of the semibrick cliques, carried down their
        search."""
        adjacency = self.adjacency[DiagramKind.SEMIBRICK]
        prefixes, keep = self.prefixes, self._keep()
        found: set[int] = set()
        add = found.add
        stack = [(0, 0, -1, (1 << len(adjacency)) - 1)]
        pop = stack.pop
        push = stack.append
        while stack:
            members, pending, open_, cand = pop()
            add(members | pending)
            higher = 0
            while cand:
                i = cand.bit_length() - 1
                bit = 1 << i
                cand ^= bit
                k = keep[i]
                push((
                    members | bit,
                    (pending | prefixes[i] & open_) & k,
                    open_ & k,
                    higher & adjacency[i],
                ))
                higher |= bit
        return found

    def closed_lines(self, head, first, rest, end) -> Iterator:
        """``prefix + end`` for every cofinally closed diagram, in lex order
        on arc indices: a monobrick clique search that yields a node when
        its ``pending`` is empty.

        A clique's prefix is ``head``, then ``first`` of its lowest index,
        then ``rest`` of each further index in ascending order.  A child
        is not pushed when some ``p`` in its ``pending`` lies outside its
        candidates ``cand`` and ``bad[p] & cand == 0``: ``p`` can then
        neither join a descendant nor be blocked by one, so no node of the
        child's subtree is closed.

        >>> table = ArcTable(Algebra.linear_a(2))
        >>> [(a.start, a.end) for a in table.arcs]
        [(1, 2), (1, 3), (2, 3)]
        >>> list(table.closed_lines("<", "abc", "abc", ">"))
        ['<>', '<a>', '<ab>', '<ac>', '<c>']
        """
        adjacency = self.adjacency[DiagramKind.MONOBRICK]
        prefixes, bad, keep = self.prefixes, self.bad, self._keep()
        stack = [(head, 0, -1, (1 << len(adjacency)) - 1, first)]
        pop = stack.pop
        push = stack.append
        while stack:
            prefix, pending, open_, cand, pieces = pop()
            if not pending:
                yield prefix + end
            higher = 0
            while cand:
                i = cand.bit_length() - 1
                bit = 1 << i
                cand ^= bit
                k = keep[i]
                child_pending = (pending | prefixes[i] & open_) & k
                child_cand = higher & adjacency[i]
                higher |= bit
                stuck = child_pending & ~child_cand
                while stuck:
                    low = stuck & -stuck
                    stuck ^= low
                    if not bad[low.bit_length() - 1] & child_cand:
                        break
                else:
                    push((
                        prefix + pieces[i],
                        child_pending,
                        open_ & k,
                        child_cand,
                        rest,
                    ))

    def diagrams(self, kind: DiagramKind) -> Iterator[tuple[int, ...]]:
        """Ascending index tuples of every diagram of ``kind``, in lex order."""
        if kind is not DiagramKind.COFINALLY_CLOSED:
            return iter_index_cliques(self.adjacency[kind])
        singletons = [(i,) for i in range(len(self.arcs))]
        return self.closed_lines((), singletons, singletons, ())


@functools.lru_cache(maxsize=16)
def arc_table(algebra: Algebra) -> ArcTable:
    """The :class:`ArcTable` of ``algebra``, built on first use."""
    return ArcTable(algebra)


def enumerate_diagrams(
    algebra: Algebra, kind: DiagramKind, budget: int | None = None
) -> Iterator[Diagram]:
    """Every diagram of ``kind``, in lex order on arc indices.

    The budget is checked when this is called, before any work is done.
    """
    check_budget(algebra, budget)
    table = arc_table(algebra)
    arcs = table.arcs
    return (
        Diagram(algebra, frozenset([arcs[i] for i in clique]))
        for clique in table.diagrams(kind)
    )


def count_diagrams(
    algebra: Algebra, kind: DiagramKind, budget: int | None = None
) -> int:
    """Number of diagrams of ``kind``, checked against the budget first.

    Monobrick and semibrick diagrams are the cliques of the table's
    compatibility graph, counted by :func:`count_cliques`.  Cofinally closed
    diagrams are counted as distinct closures of the semibrick cliques, so
    the count checks that the bijection is injective.
    """
    check_budget(algebra, budget)
    table = arc_table(algebra)
    if kind is DiagramKind.COFINALLY_CLOSED:
        return len(table.closed_masks())
    return count_cliques(table.adjacency[kind])


def schroder(n: int) -> int:
    """Large Schroeder number: 1, 2, 6, 22, 90, 394, 1806, 8558, ..."""
    total = 0
    for i in range(n + 1):
        term, rem = divmod(math.comb(n, i) * math.comb(n + i, i), i + 1)
        assert rem == 0
        total += term
    return total


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    return math.comb(2 * n, n)


def count_closed_form(algebra: Algebra, kind: DiagramKind) -> int:
    if kind is DiagramKind.MONOBRICK:
        if algebra.kind == "A":
            return schroder(algebra.rank)
        n = algebra.rank
        return 2 * sum(math.comb(n - 1, i) * math.comb(n + i, i) for i in range(n))
    # Semibrick diagrams and cofinally closed diagrams are equinumerous.
    if algebra.kind == "A":
        return catalan(algebra.rank + 1)
    return central_binomial(algebra.rank)


def cyclic_count_from_recurrence(n: int) -> int:
    """Cyclic-family monobrick count rebuilt from the linear-family counts.

    With a_i the monobrick count of the linear family at rank i - 1, the rank-n
    cyclic count is a_n + sum_{i=1..n} i * a_i * a_{n+1-i}.  This is a second
    route to the same number as ``count_closed_form``; tests insist they agree.
    """
    if n < 1:
        raise ValueError("recurrence needs n >= 1")

    def a(i: int) -> int:
        return schroder(i - 1)

    return a(n) + sum(i * a(i) * a(n + 1 - i) for i in range(1, n + 1))


def linear_count_from_recurrence(n: int) -> int:
    """Linear-family monobrick count rebuilt from its own recurrence.

    With s_0 = 1 and s_m = s_{m-1} + sum_{k=0..m-1} s_k * s_{m-1-k}, the
    rank-n count is s_n.  A second route to the same number as
    :func:`schroder`, used to cross-check enumeration in count tables.
    """
    if n < 0:
        raise ValueError("recurrence needs n >= 0")
    values = [1]
    for m in range(1, n + 1):
        values.append(
            values[m - 1] + sum(values[k] * values[m - 1 - k] for k in range(m))
        )
    return values[n]


def diagram_to_json(diagram: Diagram) -> dict:
    return {
        "n": diagram.algebra.rank,
        "algebra": diagram.algebra.kind,
        "arcs": [[a.start, a.end] for a in diagram.sorted_arcs()],
    }


def json_lines(table: ArcTable, kind: DiagramKind) -> Iterator[tuple[str, int]]:
    """Compact :func:`diagram_to_json` text of every diagram of ``kind``,
    one line each, in :meth:`ArcTable.diagrams` order, as ``(text, lines)``
    pieces of whole lines.

    Ascending indices are already the ``sorted_arcs`` order, so no
    :class:`Diagram` is built.  Monobrick and semibrick text comes from
    :func:`clique_lines`, whole subtrees at a time; cofinally closed lines
    from :meth:`ArcTable.closed_lines`, one at a time.
    """
    algebra = table.algebra
    head = f'{{"n":{algebra.rank},"algebra":"{algebra.kind}","arcs":['
    fragments = [f"[{a.start},{a.end}]" for a in table.arcs]
    if kind is not DiagramKind.COFINALLY_CLOSED:
        return clique_lines(table.adjacency[kind], head, fragments, "]}\n")
    items = ["," + fragment for fragment in fragments]
    return zip(table.closed_lines(head, fragments, items, "]}\n"), repeat(1))


def json_field(data: dict, key: str):
    """``data[key]``, or ValueError naming the missing field."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {data!r}")
    if key not in data:
        raise ValueError(f'missing field "{key}"')
    return data[key]


def json_int(value, field: str) -> int:
    """``value`` when it is a JSON integer; floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f'field "{field}" must be an integer, got {value!r}')
    return value


def json_list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f'field "{field}" must be a list, got {value!r}')
    return value


def diagram_from_json(data: dict) -> Diagram:
    kind = json_field(data, "algebra")
    if not isinstance(kind, str):
        raise ValueError(f'field "algebra" must be a string, got {kind!r}')
    algebra = Algebra(kind, json_int(json_field(data, "n"), "n"))
    raw = []
    for k, pair in enumerate(json_list(json_field(data, "arcs"), "arcs")):
        field = f"arcs[{k}]"
        if len(json_list(pair, field)) != 2:
            raise ValueError(f'field "{field}" must be a [start, end] pair')
        raw.append(Arc(json_int(pair[0], field), json_int(pair[1], field)))
    arcs = frozenset(raw)
    if len(arcs) != len(raw):
        raise ValueError("diagram lists a duplicate arc")
    return Diagram(algebra, arcs)
