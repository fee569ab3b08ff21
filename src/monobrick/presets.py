"""The bundled quiver presets with their indecomposable representations.

Each preset bundles a quiver (vertices labelled from 1, arrows as 0-based
``(src, tgt)`` index pairs), the paths forced to vanish, and the full list
of indecomposable representations given by explicit matrices.  Matrices act
on row vectors, so an arrow ``src -> tgt`` carries a ``dims[src] x
dims[tgt]`` matrix and path composition multiplies left to right.

Four presets are serial: :func:`_serial` generates them from the arcs of
their algebra, one uniserial module per arc.  ``a3_source`` is not serial
and is written out by hand.  Entries are 0/1, so the same data works over
any prime field; the field only enters when linear algebra runs.
:func:`get_preset` checks the vanishing paths and the names, then caches
the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial

from monobrick import FIELD_SIZES, PRESET_NAMES
from monobrick.arcs import Algebra, arc_length, socle_series
from monobrick.fp import Matrix, is_zero_matrix, mat_chain, zero_matrix


@dataclass(frozen=True)
class Rep:
    """Row-convention quiver representation: one matrix per arrow."""

    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


@dataclass(frozen=True)
class Preset:
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

# The serial presets and the arc algebras they model.
SERIAL_ALGEBRAS = {
    "a2_linear": Algebra.linear_a(2),
    "a3_linear": Algebra.linear_a(3),
    "nak2": Algebra.cyclic_b(2),
    "b3": Algebra.cyclic_b(3),
}


def _serial(name: str, algebra: Algebra) -> Preset:
    """The Nakayama algebra of ``algebra``, one uniserial module per arc.

    Vertex ``v`` is mark ``v + 1`` and arrow ``v`` runs ``v + 1 -> v``; in
    family B the last arrow closes the cycle and every path of length
    ``rank`` vanishes.  An arc's module has one dimension at each mark of its
    socle series and ``ONE`` on each arrow between consecutive marks of it;
    its name reads the series from top to socle.  Arcs come in (length,
    start) order.

    >>> _serial("nak2", Algebra.cyclic_b(2)).indec_names
    ('1', '2', '2/1', '1/2')
    """
    n = algebra.rank
    arrows = tuple((v + 1, v) for v in range(n - 1))
    zero_paths: tuple[tuple[int, ...], ...] = ()
    if algebra.kind == "B":
        arrows += ((0, n - 1),)
        # The path of length n leaving vertex v: arrows v - 1, v - 2, ...
        zero_paths = tuple(
            tuple((v - 1 - k) % n for k in range(n)) for v in range(n)
        )
    names, reps = [], []
    for arc in sorted(
        algebra.arcs(), key=lambda a: (arc_length(a, algebra.marks), a.start)
    ):
        series = socle_series(arc, algebra.marks)
        dims = tuple(int(v + 1 in series) for v in range(n))
        names.append("/".join(str(m) for m in reversed(series)))
        reps.append(_rep(arrows, dims, {m - 1: ONE for m in series[:-1]}))
    return Preset(
        name=name,
        num_vertices=n,
        arrows=arrows,
        zero_paths=zero_paths,
        indec_names=tuple(names),
        indec_reps=tuple(reps),
        p=2,
        arc_algebra=algebra,
    )


def _source_a3() -> Preset:
    # 1 -> 2 <- 3
    arrows = ((0, 1), (2, 1))
    indecs = [
        ("1", _rep(arrows, (1, 0, 0))),
        ("2", _rep(arrows, (0, 1, 0))),
        ("3", _rep(arrows, (0, 0, 1))),
        ("1/2", _rep(arrows, (1, 1, 0), {0: ONE})),
        ("3/2", _rep(arrows, (0, 1, 1), {1: ONE})),
        ("13/2", _rep(arrows, (1, 1, 1), {0: ONE, 1: ONE})),
    ]
    return Preset(
        name="a3_source",
        num_vertices=3,
        arrows=arrows,
        zero_paths=(),
        indec_names=tuple(n for n, _ in indecs),
        indec_reps=tuple(r for _, r in indecs),
        p=2,
        arc_algebra=None,
    )


_BUILDERS = {
    name: (
        partial(_serial, name, SERIAL_ALGEBRAS[name])
        if name in SERIAL_ALGEBRAS
        else _source_a3
    )
    for name in PRESET_NAMES
}


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
    if name not in _BUILDERS:
        raise KeyError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if p not in FIELD_SIZES:
        raise ValueError("supported field sizes are 2, 3 and 5")
    preset = _BUILDERS[name]()
    if p != 2:
        preset = replace(preset, p=p)
    return _validate(preset)


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
