"""The five presets written out by hand, kept as test references.

The package generates these presets from the arcs of their algebras.  These
are the 0/1 matrices and vanishing paths they were first entered as; tests
compare the generated presets with them, name by name and up to
isomorphism.  ``literal_socle`` computes a socle by the rank of the stacked
arrow matrices, the reference for the socles the oracle reads off its rows.
"""

from monobrick import fp
from monobrick.arcs import Algebra
from monobrick.presets import ONE, Preset, _rep


def _preset(name, num_vertices, arrows, zero_paths, indecs, algebra):
    return Preset(
        name=name,
        num_vertices=num_vertices,
        arrows=arrows,
        zero_paths=zero_paths,
        indec_names=tuple(n for n, _ in indecs),
        indec_reps=tuple(r for _, r in indecs),
        p=2,
        arc_algebra=algebra,
    )


def literal_a2_linear() -> Preset:
    # 1 <- 2
    arrows = ((1, 0),)
    indecs = [
        ("1", _rep(arrows, (1, 0))),
        ("2", _rep(arrows, (0, 1))),
        ("2/1", _rep(arrows, (1, 1), {0: ONE})),
    ]
    return _preset("a2_linear", 2, arrows, (), indecs, Algebra.linear_a(2))


def literal_a3_linear() -> Preset:
    # 1 <- 2 <- 3
    arrows = ((1, 0), (2, 1))
    indecs = [
        ("1", _rep(arrows, (1, 0, 0))),
        ("2", _rep(arrows, (0, 1, 0))),
        ("3", _rep(arrows, (0, 0, 1))),
        ("2/1", _rep(arrows, (1, 1, 0), {0: ONE})),
        ("3/2", _rep(arrows, (0, 1, 1), {1: ONE})),
        ("3/2/1", _rep(arrows, (1, 1, 1), {0: ONE, 1: ONE})),
    ]
    return _preset("a3_linear", 3, arrows, (), indecs, Algebra.linear_a(3))


def literal_a3_source() -> Preset:
    # 1 -> 2 <- 3: not serial, so no arc algebra.
    arrows = ((0, 1), (2, 1))
    indecs = [
        ("1", _rep(arrows, (1, 0, 0))),
        ("2", _rep(arrows, (0, 1, 0))),
        ("3", _rep(arrows, (0, 0, 1))),
        ("1/2", _rep(arrows, (1, 1, 0), {0: ONE})),
        ("3/2", _rep(arrows, (0, 1, 1), {1: ONE})),
        ("13/2", _rep(arrows, (1, 1, 1), {0: ONE, 1: ONE})),
    ]
    return _preset("a3_source", 3, arrows, (), indecs, None)


def literal_nak2() -> Preset:
    # Two vertices in a cycle, paths of length two vanish.
    arrows = ((1, 0), (0, 1))
    zero_paths = ((0, 1), (1, 0))
    indecs = [
        ("1", _rep(arrows, (1, 0))),
        ("2", _rep(arrows, (0, 1))),
        ("2/1", _rep(arrows, (1, 1), {0: ONE})),
        ("1/2", _rep(arrows, (1, 1), {1: ONE})),
    ]
    return _preset("nak2", 2, arrows, zero_paths, indecs, Algebra.cyclic_b(2))


def literal_b3() -> Preset:
    # Three vertices in a cycle, paths of length three vanish.
    arrows = ((1, 0), (2, 1), (0, 2))
    zero_paths = ((2, 1, 0), (0, 2, 1), (1, 0, 2))
    indecs = [
        ("1", _rep(arrows, (1, 0, 0))),
        ("2", _rep(arrows, (0, 1, 0))),
        ("3", _rep(arrows, (0, 0, 1))),
        ("2/1", _rep(arrows, (1, 1, 0), {0: ONE})),
        ("3/2", _rep(arrows, (0, 1, 1), {1: ONE})),
        ("1/3", _rep(arrows, (1, 0, 1), {2: ONE})),
        ("3/2/1", _rep(arrows, (1, 1, 1), {0: ONE, 1: ONE})),
        ("1/3/2", _rep(arrows, (1, 1, 1), {1: ONE, 2: ONE})),
        ("2/1/3", _rep(arrows, (1, 1, 1), {0: ONE, 2: ONE})),
    ]
    return _preset("b3", 3, arrows, zero_paths, indecs, Algebra.cyclic_b(3))


def literal_socle(preset, rep):
    """The dimension of ``rep``'s socle at each vertex: of the vectors there
    that every arrow out of the vertex kills, read off the rank of those
    arrows' matrices stacked side by side."""
    out = []
    for v, d in enumerate(rep.dims):
        leaving = [m for m, (s, _) in zip(rep.mats, preset.arrows) if s == v]
        # row i: the images of basis vector i under every arrow out of v
        rows = [sum((m[i] for m in leaving), ()) for i in range(d)]
        out.append(d - fp.rank(rows, preset.p))
    return tuple(out)


LITERAL_PRESETS = {
    "a2_linear": literal_a2_linear,
    "a3_linear": literal_a3_linear,
    "a3_source": literal_a3_source,
    "nak2": literal_nak2,
    "b3": literal_b3,
}
