"""The clique-search engine behind ``enumerate`` and ``count``.

:class:`ArcTable` reads an algebra's compatibility graphs and closure masks
off maps, one :func:`~monobrick.arcs.hom_kind` call per ordered pair of
its arcs; the rules are those :func:`~monobrick.diagrams.crossing_violation`
states pair by pair.  A diagram is an ascending tuple of indices into the
(start, length)-sorted arcs, found by clique search and emitted in lex
order, so output order is deterministic and independent of set iteration
order.

One count, memoised on the candidate mask that many search nodes share,
serves both :func:`count_cliques` and :func:`clique_lines`, which writes
the ``enumerate`` text of a whole small subtree from one template per mask
instead of a line at a time.  Neither cofinally closed route calls a
closure per clique: both carry the closure down their search,
:meth:`ArcTable.closed_lines` writes its lines in lex order as it finds
them, and no mask is decoded or sorted.

Only ``enumerate`` and the wrappers
:func:`~monobrick.diagrams.enumerate_diagrams` and
:func:`~monobrick.diagrams.count_diagrams` import this module, each when it
runs: the ``enumerate`` and ``count`` commands, and ``oracle verify``, which
enumerates diagrams to audit them.  The single-diagram queries never compile
it.
"""

from __future__ import annotations

import functools
from itertools import repeat
from typing import Callable, Iterator, Sequence

from monobrick.arcs import Algebra, HomKind, hom_kind
from monobrick.diagrams import DiagramKind, iter_index_cliques


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


def json_lines(table: ArcTable, kind: DiagramKind) -> Iterator[tuple[str, int]]:
    """Compact :func:`~monobrick.diagrams.diagram_to_json` text of every diagram of ``kind``,
    one line each, in :meth:`ArcTable.diagrams` order, as ``(text, lines)``
    pieces of whole lines.

    Ascending indices are already the ``sorted_arcs`` order, so no
    :class:`~monobrick.diagrams.Diagram` is built.  Monobrick and semibrick text comes from
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
