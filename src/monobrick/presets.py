"""Hardcoded quiver presets with their indecomposable representations.

Each preset bundles a quiver (vertices labelled from 1, arrows as 0-based
``(src, tgt)`` index pairs), the paths forced to vanish, and the full list
of indecomposable representations given by explicit matrices.  Matrices act
on row vectors, so an arrow ``src -> tgt`` carries a ``dims[src] x
dims[tgt]`` matrix and path composition multiplies left to right.

Entries are 0/1, so the same data works over any prime field; the field
only enters when linear algebra runs.  ``build_preset`` recomputes nothing:
it validates shapes and the vanishing paths, then freezes the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from monobrick import FIELD_SIZES, PRESET_NAMES
from monobrick.arcs import Algebra
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
    num_vertices: int,
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


def _linear_a2() -> Preset:
    # 1 <- 2
    arrows = ((1, 0),)
    indecs = [
        ("1", _rep(2, arrows, (1, 0))),
        ("2", _rep(2, arrows, (0, 1))),
        ("2/1", _rep(2, arrows, (1, 1), {0: ONE})),
    ]
    return Preset(
        name="a2_linear",
        num_vertices=2,
        arrows=arrows,
        zero_paths=(),
        indec_names=tuple(n for n, _ in indecs),
        indec_reps=tuple(r for _, r in indecs),
        p=2,
        arc_algebra=Algebra.linear_a(2),
    )


def _linear_a3() -> Preset:
    # 1 <- 2 <- 3
    arrows = ((1, 0), (2, 1))
    indecs = [
        ("1", _rep(3, arrows, (1, 0, 0))),
        ("2", _rep(3, arrows, (0, 1, 0))),
        ("3", _rep(3, arrows, (0, 0, 1))),
        ("2/1", _rep(3, arrows, (1, 1, 0), {0: ONE})),
        ("3/2", _rep(3, arrows, (0, 1, 1), {1: ONE})),
        ("3/2/1", _rep(3, arrows, (1, 1, 1), {0: ONE, 1: ONE})),
    ]
    return Preset(
        name="a3_linear",
        num_vertices=3,
        arrows=arrows,
        zero_paths=(),
        indec_names=tuple(n for n, _ in indecs),
        indec_reps=tuple(r for _, r in indecs),
        p=2,
        arc_algebra=Algebra.linear_a(3),
    )


def _source_a3() -> Preset:
    # 1 -> 2 <- 3
    arrows = ((0, 1), (2, 1))
    indecs = [
        ("1", _rep(3, arrows, (1, 0, 0))),
        ("2", _rep(3, arrows, (0, 1, 0))),
        ("3", _rep(3, arrows, (0, 0, 1))),
        ("1/2", _rep(3, arrows, (1, 1, 0), {0: ONE})),
        ("3/2", _rep(3, arrows, (0, 1, 1), {1: ONE})),
        ("13/2", _rep(3, arrows, (1, 1, 1), {0: ONE, 1: ONE})),
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


def _nakayama2() -> Preset:
    # Two vertices in a cycle, paths of length two vanish.
    arrows = ((1, 0), (0, 1))
    zero_paths = ((0, 1), (1, 0))
    indecs = [
        ("1", _rep(2, arrows, (1, 0))),
        ("2", _rep(2, arrows, (0, 1))),
        ("2/1", _rep(2, arrows, (1, 1), {0: ONE})),
        ("1/2", _rep(2, arrows, (1, 1), {1: ONE})),
    ]
    return Preset(
        name="nak2",
        num_vertices=2,
        arrows=arrows,
        zero_paths=zero_paths,
        indec_names=tuple(n for n, _ in indecs),
        indec_reps=tuple(r for _, r in indecs),
        p=2,
        arc_algebra=Algebra.cyclic_b(2),
    )


def _nakayama3() -> Preset:
    # Three vertices in a cycle, paths of length three vanish.
    arrows = ((1, 0), (2, 1), (0, 2))
    zero_paths = ((2, 1, 0), (0, 2, 1), (1, 0, 2))
    indecs = [
        ("1", _rep(3, arrows, (1, 0, 0))),
        ("2", _rep(3, arrows, (0, 1, 0))),
        ("3", _rep(3, arrows, (0, 0, 1))),
        ("2/1", _rep(3, arrows, (1, 1, 0), {0: ONE})),
        ("3/2", _rep(3, arrows, (0, 1, 1), {1: ONE})),
        ("1/3", _rep(3, arrows, (1, 0, 1), {2: ONE})),
        ("3/2/1", _rep(3, arrows, (1, 1, 1), {0: ONE, 1: ONE})),
        ("1/3/2", _rep(3, arrows, (1, 1, 1), {1: ONE, 2: ONE})),
        ("2/1/3", _rep(3, arrows, (1, 1, 1), {0: ONE, 2: ONE})),
    ]
    return Preset(
        name="b3",
        num_vertices=3,
        arrows=arrows,
        zero_paths=zero_paths,
        indec_names=tuple(n for n, _ in indecs),
        indec_reps=tuple(r for _, r in indecs),
        p=2,
        arc_algebra=Algebra.cyclic_b(3),
    )


_BUILDERS = {
    "a2_linear": _linear_a2,
    "a3_linear": _linear_a3,
    "a3_source": _source_a3,
    "nak2": _nakayama2,
    "b3": _nakayama3,
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
        return _rep(preset.num_vertices, preset.arrows, (0,) * preset.num_vertices)
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
