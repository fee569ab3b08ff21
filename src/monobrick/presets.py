"""The bundled quiver presets with their indecomposable representations.

Each preset bundles a quiver (vertices labelled from 1, arrows as 0-based
``(src, tgt)`` index pairs), the paths forced to vanish, and the full list
of indecomposable representations given by explicit matrices.  Matrices act
on row vectors, so an arrow ``src -> tgt`` carries a ``dims[src] x
dims[tgt]`` matrix and path composition multiplies left to right.

One builder, :func:`interval_preset`, makes every preset: its
indecomposables are thin, one per arc of its algebra.  The package's
:data:`~monobrick.PRESETS` table gives each preset its algebra, and
``a3_source``, the one preset that is not serial, its own arrows:

>>> interval_preset("a3_source", *PRESETS["a3_source"], 3).indec_names
('1', '2', '3', '1/2', '3/2', '13/2')

Entries are 0/1, so the same data works over any prime field; the field
only enters when linear algebra runs.  :func:`get_preset` checks the
vanishing paths and the names, then caches the result.

:func:`symmetries` lists the symmetries of a preset's bound quiver, and
:func:`transport` carries a representation along one.  The reflection of
a3_source swaps its two sources; a2_linear's swaps its vertices and reverses
its arrow, a duality:

>>> [(s.vertices, s.dual) for s in symmetries(get_preset("a3_source"))]
[((2, 1, 0), False)]
>>> a2 = get_preset("a2_linear")
>>> symmetries(a2)
(Symmetry(vertices=(1, 0), arrows=(0,), dual=True),)
>>> transport(a2, a2.rep_of_indec("1"), *symmetries(a2))
Rep(dims=(0, 1), mats=(((),),))
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, permutations
from operator import itemgetter
from typing import NamedTuple

from monobrick import FIELD_SIZES, PRESET_NAMES, PRESETS
from monobrick.arcs import Algebra, arc_length, socle_series
from monobrick.fp import Matrix, is_zero_matrix, mat_chain, zero_matrix


class Rep(NamedTuple):
    """Row-convention quiver representation: one matrix per arrow."""

    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


class Preset(NamedTuple):
    name: str
    num_vertices: int
    arrows: tuple[tuple[int, int], ...]
    zero_paths: tuple[tuple[int, ...], ...]
    indec_names: tuple[str, ...]
    indec_reps: tuple[Rep, ...]
    p: int
    arc_algebra: Algebra | None

    def rep_of_indec(self, name: str) -> Rep:
        return self.indec_reps[self.indec_names.index(name)]


def _rep(
    arrows: tuple[tuple[int, int], ...],
    dims: tuple[int, ...],
    nonzero: dict[int, Matrix] | None = None,
) -> Rep:
    nonzero = nonzero or {}
    mats = []
    for idx, (src, tgt) in enumerate(arrows):
        m = nonzero.get(idx)
        if m is None:
            m = zero_matrix(dims[src], dims[tgt])
        if len(m) != dims[src] or any(len(row) != dims[tgt] for row in m):
            raise ValueError(f"arrow {idx} matrix has the wrong shape")
        mats.append(m)
    return Rep(dims, tuple(mats))


ONE: Matrix = ((1,),)


def _layer_name(series: list[int], joins: list[tuple[int, int]]) -> str:
    """Radical layers, top first: a vertex lies in layer ``k`` when the
    longest path of ``joins`` arrows ending at it has length ``k``."""

    def layer(v: int) -> int:
        return max((layer(s) + 1 for s, t in joins if t == v), default=0)

    top_down = sorted((layer(v), v + 1) for v in series)
    return "/".join(
        "".join(str(v) for _, v in group)
        for _, group in groupby(top_down, key=itemgetter(0))
    )


def interval_preset(
    name: str,
    algebra: Algebra,
    arrows: tuple[tuple[int, int], ...] | None = None,
    p: int = 2,
) -> Preset:
    """One thin module per arc of ``algebra``, in (length, start) order.

    Vertex ``v`` is mark ``v + 1``.  Without ``arrows`` the quiver is the
    Nakayama quiver of ``algebra``: arrow ``v`` runs ``v + 1 -> v``, and in
    family B the last arrow closes the cycle and every path of length
    ``rank`` vanishes.  ``arrows`` orient the line of marks of a family A
    algebra instead, with no arc model.  An arc's module has one dimension
    at each mark of its socle series and ``ONE`` on the arrow between each
    two consecutive marks, the one from the later mark where two join them.
    The preset's field is F_``p``, and it passes ``_validate``: no zero
    path survives on a module, and no two modules share a name.
    """
    n = algebra.rank
    zero_paths: tuple[tuple[int, ...], ...] = ()
    arc_algebra = None
    if arrows is None:
        arc_algebra = algebra
        arrows = tuple((v + 1, v) for v in range(n - 1))
        if algebra.kind == "B":
            arrows += ((0, n - 1),)
            # The path of length n leaving vertex v: arrows v - 1, v - 2, ...
            zero_paths = tuple(
                tuple((v - 1 - k) % n for k in range(n)) for v in range(n)
            )
    index = {arrow: i for i, arrow in enumerate(arrows)}
    names, reps = [], []
    for arc in sorted(
        algebra.arcs(), key=lambda a: (arc_length(a, algebra.marks), a.start)
    ):
        series = [m - 1 for m in socle_series(arc, algebra.marks)]
        joins = [
            index[(t, s)] if (t, s) in index else index[(s, t)]
            for s, t in zip(series, series[1:])
        ]
        names.append(_layer_name(series, [arrows[i] for i in joins]))
        dims = tuple(int(v in series) for v in range(n))
        reps.append(_rep(arrows, dims, dict.fromkeys(joins, ONE)))
    return _validate(Preset(
        name=name,
        num_vertices=n,
        arrows=arrows,
        zero_paths=zero_paths,
        indec_names=tuple(names),
        indec_reps=tuple(reps),
        p=p,
        arc_algebra=arc_algebra,
    ))


def _validate(preset: Preset) -> Preset:
    for name, rep in zip(preset.indec_names, preset.indec_reps):
        for path in preset.zero_paths:
            chain = [rep.mats[a] for a in path]
            if any(not m or not m[0] for m in chain):
                continue  # a zero-dimensional stage kills the composite
            if not is_zero_matrix(mat_chain(chain, preset.p)):
                raise ValueError(f"{preset.name}: path {path} survives on {name}")
    if len(set(preset.indec_names)) != len(preset.indec_names):
        raise ValueError(f"{preset.name}: duplicate indecomposable names")
    return preset


@lru_cache(maxsize=None)
def get_preset(name: str, p: int = 2) -> Preset:
    """Look up a preset, optionally over a different prime field."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if p not in FIELD_SIZES:
        *rest, last = FIELD_SIZES
        listed = ", ".join(map(str, rest))
        raise ValueError(f"supported field sizes are {listed} and {last}")
    return interval_preset(name, *PRESETS[name], p)


class Symmetry(NamedTuple):
    """A permutation of a bound quiver's vertices, vertex ``v`` to
    ``vertices[v]``, with the arrow map it induces, arrow ``a`` to
    ``arrows[a]``; a duality reverses every arrow."""

    vertices: tuple[int, ...]
    arrows: tuple[int, ...]
    dual: bool


def symmetries(preset: Preset) -> tuple[Symmetry, ...]:
    """Every symmetry of the preset's bound quiver but the identity.

    A vertex map ``g`` is one when it maps each arrow ``s -> t`` to an arrow
    ``g(s) -> g(t)``, or, for a duality, to ``g(t) -> g(s)``, each arrow hit
    once, and the set of zero paths onto itself, each path read backwards
    under a duality.
    """
    index = {arrow: i for i, arrow in enumerate(preset.arrows)}
    zero = set(preset.zero_paths)
    identity = tuple(range(preset.num_vertices))
    found = []
    for g in permutations(identity):
        for dual in False, True:
            arrows = tuple(
                index.get((g[t], g[s]) if dual else (g[s], g[t]))
                for s, t in preset.arrows
            )
            if None in arrows or len(set(arrows)) < len(arrows):
                continue
            paths = {
                tuple(arrows[a] for a in (path[::-1] if dual else path))
                for path in zero
            }
            if paths == zero and (dual or g != identity):
                found.append(Symmetry(g, arrows, dual))
    return tuple(found)


def transport(preset: Preset, rep: Rep, symmetry: Symmetry) -> Rep:
    """The twist of ``rep`` along ``symmetry``: the space at vertex ``v``
    moves to ``symmetry.vertices[v]`` and the matrix of arrow ``a`` to
    ``symmetry.arrows[a]``, transposed under a duality, which makes the
    result the dual of ``rep`` twisted."""
    dims = [0] * len(rep.dims)
    for v, d in zip(symmetry.vertices, rep.dims):
        dims[v] = d
    mats: list[Matrix] = [()] * len(rep.mats)
    for a, m, (_, t) in zip(symmetry.arrows, rep.mats, preset.arrows):
        # a matrix with no rows transposes to dims[t] empty rows
        mats[a] = (tuple(zip(*m)) or ((),) * rep.dims[t]) if symmetry.dual else m
    return Rep(tuple(dims), tuple(mats))


def direct_sum(preset: Preset, reps: tuple[Rep, ...]) -> Rep:
    """Block-diagonal sum of representations over the preset's quiver."""
    if not reps:
        return _rep(preset.arrows, (0,) * preset.num_vertices)
    dims = tuple(
        sum(r.dims[v] for r in reps) for v in range(preset.num_vertices)
    )
    mats = []
    for idx, (src, tgt) in enumerate(preset.arrows):
        rows: list[tuple[int, ...]] = []
        tgt_before = 0
        for r in reps:
            pad_left = tgt_before
            pad_right = dims[tgt] - tgt_before - r.dims[tgt]
            for row in r.mats[idx]:
                rows.append((0,) * pad_left + row + (0,) * pad_right)
            tgt_before += r.dims[tgt]
        mats.append(tuple(rows))
    return Rep(dims, tuple(mats))
