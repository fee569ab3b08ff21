"""Generated presets against their hand-entered references."""

import pytest

from literal_presets import LITERAL_PRESETS
from monobrick.arcs import Algebra
from monobrick.oracle import Oracle
from monobrick.presets import ONE, _rep, _validate, get_preset, interval_preset


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(LITERAL_PRESETS))
def test_generated_preset_matches_the_literal_one(name, p):
    generated = get_preset(name, p)
    literal = LITERAL_PRESETS[name]()
    assert generated.num_vertices == literal.num_vertices
    assert generated.arrows == literal.arrows
    assert generated.indec_names == literal.indec_names
    assert generated.indec_reps == literal.indec_reps
    assert set(generated.zero_paths) == set(literal.zero_paths)
    assert generated.arc_algebra == literal.arc_algebra
    assert generated.p == p


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(LITERAL_PRESETS))
def test_generated_indecomposables_are_isomorphic_to_the_literal_ones(name, p):
    preset = get_preset(name, p)
    oracle = Oracle(preset, max(r.total_dim for r in preset.indec_reps))
    literal = LITERAL_PRESETS[name]()
    for indec, rep in zip(literal.indec_names, literal.indec_reps):
        oracle.assert_isomorphic(rep, (indec,))


@pytest.mark.parametrize(
    "algebra,indecs,universe",
    [(Algebra.linear_a(4), 10, 641), (Algebra.cyclic_b(4), 16, 966)],
    ids=str,
)
def test_generator_beyond_rank_three(algebra, indecs, universe):
    preset = _validate(interval_preset(str(algebra), algebra))
    assert len(preset.indec_names) == indecs
    oracle = Oracle(preset, 6)
    assert len(oracle.members) == universe
    # The oracle finds each arc's module by dimension vector and socle, not
    # through the generator, and the generator lists arcs by (length, start).
    found = [oracle.arc_member(arc)[0] for arc in algebra.arcs()]
    assert sorted(found, key=preset.indec_names.index) == list(preset.indec_names)


# Each orientation of A_n as a word: its k-th letter is "<" for the arrow
# k <- k+1 and ">" for k -> k+1.  The counts are the oracle census of every
# orientation; the semibricks are Catalan numbers whatever the orientation.
@pytest.mark.parametrize(
    "word,monobricks,whole",
    [
        ("<<", 22, "3/2/1"),
        ("<>", 24, "2/13"),
        ("><", 26, "13/2"),
        (">>", 22, "1/2/3"),
        ("<<<", 90, "4/3/2/1"),
        ("<<>", 104, "3/24/1"),
        ("<><", 128, "24/13"),
        ("<>>", 104, "2/13/4"),
        ("><<", 130, "14/3/2"),
        ("><>", 128, "13/24"),
        (">><", 130, "14/2/3"),
        (">>>", 90, "1/2/3/4"),
    ],
)
def test_every_orientation_of_a3_and_a4(word, monobricks, whole):
    n = len(word) + 1
    arrows = tuple(
        (k + 1, k) if c == "<" else (k, k + 1) for k, c in enumerate(word)
    )
    preset = _validate(interval_preset(word, Algebra.linear_a(n), arrows))
    assert preset.arrows == arrows and preset.arc_algebra is None
    assert len(preset.indec_names) == n * (n + 1) // 2
    assert preset.indec_names[-1] == whole
    oracle = Oracle(preset, n)
    assert len(oracle.monobricks()) == monobricks
    assert len(oracle.semibricks()) == {3: 14, 4: 42}[n]


def test_validate_refuses_duplicate_names():
    preset = get_preset("a2_linear")
    names = preset.indec_names
    with pytest.raises(ValueError) as refused:
        _validate(preset._replace(indec_names=(names[0], *names[:-1])))
    assert str(refused.value) == "a2_linear: duplicate indecomposable names"


def test_validate_refuses_a_surviving_zero_path():
    # A nak2 module with ONE on both arrows: the path 1 -> 2 -> 1 survives.
    preset = get_preset("nak2")
    loop = _rep(preset.arrows, (1, 1), {0: ONE, 1: ONE})
    broken = preset._replace(
        indec_names=(*preset.indec_names, "loop"),
        indec_reps=(*preset.indec_reps, loop),
    )
    with pytest.raises(ValueError) as refused:
        _validate(broken)
    assert str(refused.value) == "nak2: path (1, 0) survives on loop"


def test_rep_refuses_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError) as refused:
        _rep(((0, 1),), (1, 1), {0: ((1, 1),)})
    assert str(refused.value) == "arrow 0 matrix has the wrong shape"
