"""Arc combinatorics over linear and cyclic mark sequences.

The bricks of the two algebra families handled here are uniserial, so each one
is determined by where its socle series starts and where it stops.  We encode
that as an arc ``(start, end)`` on marks ``1..n``: the series runs from
``start`` cyclically up to, but not including, ``end``.  The arc ``(i, i)``
wraps all the way around and has length ``n``.

Two families:

* ``Algebra.linear_a(m)``: marks ``1..m+1``, only arcs with ``start < end``
  are valid ("admissible"), one arc per interval module of the linear quiver.
* ``Algebra.cyclic_b(n)``: marks ``1..n``, every arc is valid, ``n**2`` total.

Crossing and hom behaviour between two arc modules are closed forms in the
offset of one start along the other arc and the two lengths; see
:func:`crossing_kind` and :func:`hom_kind`; neither builds a socle series.
"""

from __future__ import annotations

import enum
from functools import total_ordering
from operator import attrgetter
from typing import NamedTuple


class Arc(NamedTuple):
    start: int
    end: int


def reduce_mark(value: int, n: int) -> int:
    """Fold an integer into the mark range ``1..n`` (never 0)."""
    return (value - 1) % n + 1


def arc_length(arc: Arc, n: int) -> int:
    """Number of marks the socle series of ``arc`` visits; ``(i, i)`` has length ``n``."""
    return (arc.end - arc.start - 1) % n + 1


def socle_series(arc: Arc, n: int) -> tuple[int, ...]:
    """Marks visited from ``start`` up to (not including) ``end``, cyclically.

    The entries are pairwise distinct because lengths never exceed ``n``.

    >>> socle_series(Arc(3, 2), 3)
    (3, 1)
    >>> socle_series(Arc(1, 1), 3)
    (1, 2, 3)
    """
    return tuple(
        reduce_mark(arc.start + k, n) for k in range(arc_length(arc, n))
    )


class Record:
    """Immutable value over two or more fields named in ``__slots__``.

    Instances compare equal, hash and print as the tuple of their fields,
    ``_values``, and refuse assignment and deletion, as a frozen dataclass
    does; a subclass's ``__init__`` sets its fields with
    ``object.__setattr__``.  Generating a dataclass's methods at import
    costs every command about a millisecond per class, and these few are
    all that is used.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # A C-level getter: algebras are hashed and compared often, as cache
        # keys among others, and a Python-level tuple build more than doubles the cost.
        cls._values = property(attrgetter(*cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Algebra(Record):
    """Ambient mark structure: family ``"A"`` (linear) or ``"B"`` (cyclic) plus rank.

    Algebras order as their ``(kind, rank)`` pairs.
    """

    __slots__ = ("kind", "rank")

    def __init__(self, kind: str, rank: int) -> None:
        if kind not in ("A", "B"):
            raise ValueError(f"unknown algebra kind {kind!r}")
        if kind == "A" and rank < 0:
            raise ValueError("linear family needs rank >= 0")
        if kind == "B" and rank < 1:
            raise ValueError("cyclic family needs rank >= 1")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    @classmethod
    def linear_a(cls, rank: int) -> "Algebra":
        return cls("A", rank)

    @classmethod
    def cyclic_b(cls, rank: int) -> "Algebra":
        return cls("B", rank)

    @property
    def marks(self) -> int:
        return self.rank + 1 if self.kind == "A" else self.rank

    def __str__(self) -> str:
        family = "LinearA" if self.kind == "A" else "CyclicB"
        return f"{family}({self.rank})"

    def is_valid_arc(self, arc: Arc) -> bool:
        if not (1 <= arc.start <= self.marks and 1 <= arc.end <= self.marks):
            return False
        if self.kind == "A":
            return arc.start < arc.end
        return True

    def check_arc(self, arc: Arc) -> None:
        if not self.is_valid_arc(arc):
            raise ValueError(f"arc {tuple(arc)} is not valid over {self}")

    def arcs(self) -> list[Arc]:
        """All valid arcs, ordered by (start, length)."""
        n = self.marks
        if self.kind == "A":
            return [Arc(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        return [
            Arc(i, reduce_mark(i + k, n))
            for i in range(1, n + 1)
            for k in range(1, n + 1)
        ]


class Crossing(enum.Enum):
    NON_CROSSING = "NonCrossing"
    MONO_CROSSING = "MonoCrossing"
    EPI_CROSSING = "EpiCrossing"
    STRICTLY_CROSSING = "StrictlyCrossing"


class HomKind(enum.Enum):
    ZERO = "Zero"
    INJECTION = "Injection"
    NONZERO_NON_INJECTION = "NonzeroNonInjection"
    ISO = "Iso"


def crossing_kind(a: Arc, b: Arc, n: int) -> Crossing:
    """Classify a pair of distinct arcs on ``n`` marks.

    The pair is weakly non-crossing when one socle series sits as a contiguous
    window inside the other, or the two series are disjoint as sets.  Weakly
    non-crossing pairs split into mono-crossing (shared start), epi-crossing
    (shared end) and plain non-crossing; everything else strictly crosses.
    Exactly one kind applies to each distinct pair.

    In offsets: with ``d = (b.start - a.start) mod n``, ``e = (a.start -
    b.start) mod n`` and lengths ``la``, ``lb``, the series of ``b`` is a
    window of that of ``a`` when ``d + lb <= la`` (and vice versa when
    ``e + la <= lb``), and the series are disjoint when ``d >= la`` and
    ``e >= lb``: two runs of consecutive marks on the circle meet exactly
    when one contains the start of the other.
    """
    if a == b:
        raise ValueError("crossing kind is defined for distinct arcs")
    la = arc_length(a, n)
    lb = arc_length(b, n)
    d = (b.start - a.start) % n
    e = (a.start - b.start) % n
    if not (d + lb <= la or e + la <= lb or (d >= la and e >= lb)):
        return Crossing.STRICTLY_CROSSING
    if a.start == b.start:
        return Crossing.MONO_CROSSING
    if a.end == b.end:
        return Crossing.EPI_CROSSING
    return Crossing.NON_CROSSING


def hom_kind(a: Arc, b: Arc, algebra: Algebra) -> HomKind:
    """Hom space shape from arc module ``a`` to arc module ``b``.

    Arc modules are uniserial, so quotients of ``a`` are its socle-series
    suffixes and submodules of ``b`` are its prefixes.  A nonzero map exists
    exactly when the suffix of ``a`` starting at ``b.start`` matches a prefix
    of ``b``; that needs ``b.start`` on the series of ``a`` (offset
    ``(b.start - a.start) mod n`` below the length of ``a``) and the last mark
    of ``a``, ``a.end - 1``, on the series of ``b``.  The hom space is at most
    1-dimensional, and the map is injective precisely when nothing of ``a`` is
    quotiented away, i.e. the starts agree.  Like :func:`crossing_kind` it
    does not validate: its arcs come from :meth:`Algebra.arcs` or a
    validated :class:`~monobrick.diagrams.Diagram`.
    """
    if a == b:
        return HomKind.ISO
    n = algebra.marks
    if (b.start - a.start) % n < arc_length(a, n) and (
        a.end - 1 - b.start
    ) % n < arc_length(b, n):
        if b.start == a.start:
            return HomKind.INJECTION
        return HomKind.NONZERO_NON_INJECTION
    return HomKind.ZERO


def submodule_arcs(a: Arc, algebra: Algebra) -> list[Arc]:
    """Arcs of the submodules of ``a``: its prefixes, in increasing length.

    >>> submodule_arcs(Arc(3, 2), Algebra.cyclic_b(3))
    [Arc(start=3, end=1), Arc(start=3, end=2)]
    """
    algebra.check_arc(a)
    n = algebra.marks
    return [
        Arc(a.start, reduce_mark(a.start + k, n))
        for k in range(1, arc_length(a, n) + 1)
    ]
