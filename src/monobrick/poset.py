"""The diagram queries: maximal arcs, Hasse covers and cofinal closure.

Arc modules are uniserial: by :func:`monobrick.arcs.hom_kind`, ``a`` embeds in
``b`` exactly when both share a start and ``a`` is not longer.  So the
submodule order on a diagram is one chain per start, and each query reads it
off those chains, in time linear in the arcs times the rank.
"""

from __future__ import annotations

from itertools import groupby

from monobrick.arcs import Arc, arc_length, reduce_mark
from monobrick.diagrams import Diagram


def _chains(diagram: Diagram) -> list[list[Arc]]:
    """The arcs grouped by start, each chain in (start, length) order."""
    return [list(c) for _, c in groupby(diagram.sorted_arcs(), lambda a: a.start)]


def mmax(diagram: Diagram) -> Diagram:
    """Sub-diagram of maximal arcs in the submodule order: the longest per start."""
    return Diagram(diagram.algebra, frozenset(c[-1] for c in _chains(diagram)))


def hasse_covers(diagram: Diagram) -> list[tuple[Arc, Arc]]:
    """Consecutive pairs of each chain, in (start, length) order."""
    return [pair for chain in _chains(diagram) for pair in zip(chain, chain[1:])]


def cofinal_closure(diagram: Diagram) -> Diagram:
    """Adjoin every submodule arc of a member that stays compatible.

    A candidate joins when its hom to every member is zero or injective, so no
    mono-crossing or plain non-crossing pair is disturbed.  One pass suffices:
    submodule arcs of a candidate are submodule arcs of the original member,
    and the admission test does not depend on other candidates.

    Closed form of ``hom_kind``: the prefix of length ``k`` at start ``s`` is
    blocked exactly when a member ``m`` at offset ``d = (m.start - s) mod n``
    has ``0 < d < k <= d + len(m)``.
    """
    n = diagram.algebra.marks
    spans = [(m.start, arc_length(m, n)) for m in diagram.arcs]
    arcs = set(diagram.arcs)
    for chain in _chains(diagram):
        start, longest = chain[0].start, arc_length(chain[-1], n)
        reach = [0] * (longest - 1)  # reach[d]: largest d + len(m) at offset d
        for m_start, length in spans:
            d = (m_start - start) % n
            if 0 < d < longest - 1:
                reach[d] = max(reach[d], d + length)
        far = 0
        for k in range(1, longest):
            far = max(far, reach[k - 1])
            if far < k:
                arcs.add(Arc(start, reduce_mark(start + k, n)))
    return Diagram(diagram.algebra, frozenset(arcs))


def is_cofinally_closed(diagram: Diagram) -> bool:
    return cofinal_closure(diagram).arcs == diagram.arcs
