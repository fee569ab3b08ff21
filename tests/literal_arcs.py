"""Socle-series definitions of the arc pair kinds, kept as test references.

The package classifies arc pairs by closed forms in start offsets and
lengths.  These are the definitions those closed forms were derived from,
written on the socle series themselves: windows, set intersections and
membership.  Tests compare the two on every pair of small algebras.
"""

from monobrick.arcs import Algebra, Arc, Crossing, HomKind, reduce_mark, socle_series


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
