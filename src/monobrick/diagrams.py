"""Arc diagrams: pairwise-compatible arc sets, their kinds, exact counts.

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

:func:`crossing_violation` states that rule pair by pair.  The clique
search that lists and counts whole kinds lives in :mod:`monobrick.search`:
its :class:`~monobrick.search.ArcTable` reads the same rules off maps.
Only :func:`enumerate_diagrams` and :func:`count_diagrams` reach it, by an
import inside the function, so the single-diagram queries (``closure``,
``mmax``, ``ncl``, ``render``), which work on :class:`Diagram` objects and
never build a table, do not compile the engine at start-up.  This module
keeps what they and the matrix oracle share: :class:`Diagram`,
:func:`iter_index_cliques` and :func:`bit_indices`, the budget check, the
closed forms and recurrences, and the JSON codec.
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, Sequence

from monobrick.arcs import Algebra, Arc, Crossing, Record, arc_length, crossing_kind

DEFAULT_BUDGET = {"A": 10, "B": 7}


class BudgetExceeded(RuntimeError):
    """Work refused past a documented bound: the enumeration budget on the
    rank (``check_budget``), the query rank cap of the ``closure``, ``mmax``,
    ``ncl`` and ``render`` commands, or the render cell cap
    (``render.PictureTooLarge``).  The command line exits 3 on any of them."""


class DiagramKind(enum.Enum):
    MONOBRICK = "Monobrick"
    SEMIBRICK = "Semibrick"
    COFINALLY_CLOSED = "CofinallyClosed"


class Diagram(Record):
    """An arc set over ``algebra``; construction checks every arc."""

    __slots__ = ("algebra", "arcs")

    def __init__(self, algebra: Algebra, arcs: frozenset[Arc]) -> None:
        arcs = frozenset(arcs)
        for arc in arcs:
            algebra.check_arc(arc)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "arcs", arcs)

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


def enumerate_diagrams(
    algebra: Algebra, kind: DiagramKind, budget: int | None = None
) -> Iterator[Diagram]:
    """Every diagram of ``kind``, in lex order on arc indices.

    The budget is checked when this is called, before any work is done.
    """
    check_budget(algebra, budget)
    from monobrick.search import arc_table

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
    compatibility graph, counted by :func:`~monobrick.search.count_cliques`
    without listing them.  Cofinally closed diagrams are counted as distinct
    closures of the semibrick cliques, so the count checks that the
    bijection is injective.
    """
    check_budget(algebra, budget)
    from monobrick.search import arc_table, count_cliques

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
