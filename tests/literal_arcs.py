"""Literal definitions of the arc pair kinds and orders, kept as test references.

The package classifies arc pairs by closed forms in start offsets and
lengths.  These are the definitions those closed forms were derived from,
written on the socle series themselves: windows, set intersections and
membership.  Tests compare the two on every pair of small algebras.  The
generic order helpers at the end read maxima and covers off any order
given as a predicate, the routes the diagram queries' chains replaced.
"""

from typing import Callable, Sequence, TypeVar

from monobrick.arcs import (
    Algebra,
    Arc,
    Crossing,
    HomKind,
    hom_kind,
    reduce_mark,
    socle_series,
)
from monobrick.diagrams import Diagram, DiagramKind

T = TypeVar("T")


def _is_window(needle: tuple[int, ...], hay: tuple[int, ...]) -> bool:
    # Contiguity is linear, not cyclic: (3, 1, 2) is NOT a window of (2, 3, 1).
    k = len(needle)
    return any(hay[i : i + k] == needle for i in range(len(hay) - k + 1))


def literal_crossing_kind(a: Arc, b: Arc, n: int) -> Crossing:
    """Weakly non-crossing: one series is a window of the other, or they are
    disjoint; then a shared start is mono, a shared end epi, else plain."""
    sa = socle_series(a, n)
    sb = socle_series(b, n)
    weakly = _is_window(sa, sb) or _is_window(sb, sa) or not (set(sa) & set(sb))
    if not weakly:
        return Crossing.STRICTLY_CROSSING
    if a.start == b.start:
        return Crossing.MONO_CROSSING
    if a.end == b.end:
        return Crossing.EPI_CROSSING
    return Crossing.NON_CROSSING


def literal_hom_kind(a: Arc, b: Arc, algebra: Algebra) -> HomKind:
    """Nonzero when ``b.start`` lies on the series of ``a`` and the last mark
    of ``a`` on the series of ``b``; injective when the starts agree."""
    if a == b:
        return HomKind.ISO
    n = algebra.marks
    if b.start in socle_series(a, n) and reduce_mark(a.end - 1, n) in socle_series(b, n):
        if b.start == a.start:
            return HomKind.INJECTION
        return HomKind.NONZERO_NON_INJECTION
    return HomKind.ZERO


def literal_violation(diagram: Diagram, kind: DiagramKind):
    """First forbidden pair by the socle-series definition, all pairs scanned."""
    allowed = {Crossing.NON_CROSSING}
    if kind is not DiagramKind.SEMIBRICK:
        allowed.add(Crossing.MONO_CROSSING)
    arcs = diagram.sorted_arcs()
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            found = literal_crossing_kind(a, b, diagram.algebra.marks)
            if found not in allowed:
                return a, b, found
    return None


def is_monobrick(diagram: Diagram) -> bool:
    return literal_violation(diagram, DiagramKind.MONOBRICK) is None


def is_semibrick(diagram: Diagram) -> bool:
    return literal_violation(diagram, DiagramKind.SEMIBRICK) is None


def submodule_leq(a: Arc, b: Arc, algebra: Algebra) -> bool:
    """True when ``a`` embeds in ``b`` (equality included)."""
    return hom_kind(a, b, algebra) in (HomKind.INJECTION, HomKind.ISO)


def maximal_elements(elements: Sequence[T], leq: Callable[[T, T], bool]) -> list[T]:
    return [a for a in elements if not any(a != b and leq(a, b) for b in elements)]


def covering_pairs(
    elements: Sequence[T], leq: Callable[[T, T], bool]
) -> list[tuple[T, T]]:
    """Hasse edges (lower, upper) of the order restricted to ``elements``."""
    pairs = []
    for a in elements:
        for b in elements:
            if a == b or not leq(a, b):
                continue
            between = any(
                c != a and c != b and leq(a, c) and leq(c, b) for c in elements
            )
            if not between:
                pairs.append((a, b))
    return pairs
