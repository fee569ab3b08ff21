"""Symmetries of the bound quivers and the tables transported along them.

A symmetry permutes the vertices, maps the arrows onto the arrows, each the
same way round or, for a duality, each reversed, and maps the zero paths
onto the zero paths.  ``Oracle`` walks the first member of each orbit and
gives every other member the image of that member's table; the reference
is an oracle of the same preset that walks every member.
"""

import pytest

from monobrick.arcs import Algebra
from monobrick.oracle import Oracle, OracleError, get_oracle
from monobrick.presets import (
    PRESET_NAMES,
    _rep,
    get_preset,
    interval_preset,
    symmetries,
    transport,
)

# Quivers beyond the bundled presets, over F_2.  A4 is oriented
# 0 -> 1 -> 2 <- 3, which no vertex map keeps, reversed or not.
BEYOND = {
    "B4": interval_preset("B4", Algebra.cyclic_b(4)),
    "A5": interval_preset("A5", Algebra.linear_a(5)),
    "A4": interval_preset("A4", Algebra.linear_a(4), ((0, 1), (1, 2), (3, 2))),
}

# Non-identity symmetries, and members that are the first of their orbit.
SYMMETRIES = {"a2_linear": 1, "a3_linear": 1, "a3_source": 1, "nak2": 3, "b3": 5}
ORBIT_SOURCES = {
    "a2_linear": 30,
    "a3_linear": 122,
    "a3_source": 122,
    "nak2": 35,
    "b3": 84,
}


class WalkRecording(Oracle):
    """Records every member whose table is walked, not transported."""

    def __init__(self, preset):
        self.walked = []
        super().__init__(preset)

    def _stable_pairs(self, member, rep):
        self.walked.append(member)
        return super()._stable_pairs(member, rep)

    def _semisimple_pairs(self, member):
        self.walked.append(member)
        return super()._semisimple_pairs(member)


def _preset(name, p=2):
    return BEYOND[name] if name in BEYOND else get_preset(name, p)


def _walking(preset):
    """An oracle that carries no table along a symmetry: it walks them all."""
    oracle = Oracle(preset)
    oracle._transports = {}
    return oracle


def _sources(oracle):
    return [m for m in oracle.members if m not in oracle._transports]


@pytest.mark.parametrize(
    "name,count", [*SYMMETRIES.items(), ("B4", 7), ("A5", 1), ("A4", 0)]
)
def test_symmetry_counts(name, count):
    found = symmetries(_preset(name))
    assert len(found) == count
    assert len(set(found)) == count


def test_symmetries_keep_the_zero_paths():
    # The rotations of b3 map each zero path to another; with one zero path
    # left, only the duality that reverses it onto itself stays.
    b3 = get_preset("b3")
    for path in b3.zero_paths:
        [kept] = symmetries(b3._replace(zero_paths=(path,)))
        assert kept.dual
        assert tuple(kept.arrows[a] for a in reversed(path)) == path
    assert len(symmetries(b3._replace(zero_paths=()))) == SYMMETRIES["b3"]


@pytest.mark.parametrize("name", [*PRESET_NAMES, "B4", "A5"])
def test_transport_keeps_the_shape_of_every_matrix(name):
    preset = _preset(name)
    # Under a duality a matrix with no rows becomes one with empty rows.
    for symmetry in symmetries(preset):
        for rep in preset.indec_reps:
            moved = transport(preset, rep, symmetry)
            assert moved.total_dim == rep.total_dim
            assert _rep(preset.arrows, moved.dims, dict(enumerate(moved.mats))) == moved


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_orbit_sources_are_pinned(name, p):
    oracle = get_oracle(name, p=p)
    sources = _sources(oracle)
    assert len(sources) == ORBIT_SOURCES[name]
    # Each member is carried from the first member of its orbit.
    for member, (source, image, _) in oracle._transports.items():
        assert source in sources
        assert oracle.index[source] < oracle.index[member]
        assert image[source] == member


@pytest.mark.parametrize("name", [*PRESET_NAMES, "A4"])
def test_only_orbit_sources_are_walked(name):
    oracle = WalkRecording(_preset(name))
    for member in oracle.members:
        oracle.subquotients(member)
    assert oracle.walked == _sources(oracle)
    if name == "A4":
        assert len(oracle.walked) == len(oracle.members) == 641


@pytest.mark.parametrize("name", [*PRESET_NAMES, "B4", "A5"])
def test_name_maps_permute_the_indecomposables_and_their_dimensions(name):
    preset = _preset(name)
    oracle = Oracle(preset)
    maps = {symmetry: image for _, image, symmetry in oracle._transports.values()}
    assert set(maps) == set(symmetries(preset))
    indecs = [(n,) for n in preset.indec_names]
    for symmetry, image in maps.items():
        assert sorted(image[x] for x in indecs) == sorted(indecs)
        for x in indecs:
            moved = oracle.dims_of(image[x])
            assert all(
                moved[w] == d for w, d in zip(symmetry.vertices, oracle.dims_of(x))
            )


# The other presets at p = 2 and 3 are compared with the brute-force tables,
# transport included, in tests/test_subquotients.py.
@pytest.mark.parametrize("name,p", [("a3_linear", 3), ("B4", 2), ("A5", 2)])
def test_transported_tables_equal_walked_ones(name, p):
    oracle = Oracle(_preset(name, p))
    walking = _walking(oracle.preset)
    assert oracle._transports
    for member in oracle.members:
        assert oracle.subquotients(member) == walking.subquotients(member), member


@pytest.mark.parametrize("found", [("1",), ("1", "2")])
def test_a_name_map_that_is_no_bijection_is_refused(found):
    class Collapsing(Oracle):
        def identify(self, rep, strict=False):
            return found

    oracle = Collapsing(get_preset("a2_linear"))
    with pytest.raises(OracleError) as refused:
        oracle.subquotients(("2/1",))
    assert str(refused.value) == (
        "symmetry (1, 0) does not permute the indecomposables"
    )
