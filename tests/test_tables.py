"""Closure-table fixtures and the named audit registry.

The fixture rows in verify.py record, for each monobrick of the three
small presets, which bricks Filt picks up, the maximal members, the
cofinal closure, and any closure-property failures.  Each row is checked
here individually so a wrong cell points at itself, and the registry
checks are run per preset per name for the same reason.
"""

from functools import lru_cache

import pytest

from monobrick.arcs import Arc, HomKind
from monobrick.oracle import Oracle, get_oracle
from monobrick.presets import PRESETS as PRESET_TABLE, get_preset
from monobrick.verify import (
    CLOSURE_TABLES,
    EXPECTED_COUNTS,
    check_arc_agreement,
    check_census,
    check_identification,
    check_left_schur,
    check_structural_identities,
    check_universe_size,
    closure_row_problems,
    run_checks,
)

PRESETS = tuple(EXPECTED_COUNTS)


def _row_cases():
    for preset, table in CLOSURE_TABLES.items():
        for row in table:
            label = " ".join(sorted(row.members)) or "empty"
            yield pytest.param(preset, row, id=f"{preset}:{label}")


@pytest.mark.parametrize(("preset", "row"), tuple(_row_cases()))
def test_closure_row(preset, row):
    oracle = get_oracle(preset)
    problems = closure_row_problems(oracle, row)
    assert problems == []


@lru_cache(maxsize=None)
def _results(preset):
    """The applicable checks of a preset by name, in registry order."""
    return {r.name: r for r in run_checks(preset)}


def _check_cases():
    for preset in PRESETS:
        for name in _results(preset):
            yield pytest.param(preset, name, id=f"{preset}:{name}")


@pytest.mark.parametrize(("preset", "name"), tuple(_check_cases()))
def test_named_check(preset, name):
    result = _results(preset)[name]
    assert result.passed, result.detail


def test_check_applicability():
    # a3_source has no arc model, and only three presets carry a
    # hand-checked closure table.
    for preset in PRESETS:
        names = list(_results(preset))
        assert ("arc-agreement" in names) == (preset != "a3_source")
        assert ("closure-table" in names) == (preset in CLOSURE_TABLES)
        assert names[0] == "universe-size"
        assert names[-1] == "left-schur-closure"


@pytest.mark.parametrize(
    ("method", "mismatch"),
    [
        ("mmax", "mmax of {1, 2/1}: arc rule {2/1}, model {1, 2/1}"),
        ("cofinal_closure", "closure of {2/1}: arc rule {1, 2/1}, model {2/1}"),
    ],
)
def test_arc_agreement_reports_both_sides_of_a_query(monkeypatch, method, mismatch):
    # A model query that returns its input breaks agreement with the arc
    # layer on a chain of A2: the detail names the diagram and both answers.
    monkeypatch.setattr(Oracle, method, lambda self, bricks: frozenset(bricks))
    result = check_arc_agreement(get_oracle("a2_linear"))
    assert not result.passed
    assert mismatch in result.detail.split("; ")


# Each audit below runs on a fresh a2_linear oracle that answers one
# question wrongly on one input.  Its bricks are 1, 2 and 2/1; the cofinal
# closure of the monobrick {2/1} is {1, 2/1}, whose maximal element is 2/1.
ONE, TWO, TWO_ONE = ("1",), ("2",), ("2/1",)
CHAIN = frozenset({ONE, TWO_ONE})


def _problems(result):
    assert result.passed is False
    return result.detail.split("; ")


def test_left_schur_audit_reports_a_flipped_verdict():
    class Flipped(Oracle):
        def closure_flags(self, e):
            flags = super().closure_flags(e)
            if frozenset(e) == self.filt([ONE]):
                return flags._replace(left_schur=False)
            return flags

    problems = _problems(check_left_schur(Flipped(get_preset("a2_linear"))))
    assert "filt({1}): schur=False but kernel/image closure=True" in problems


def test_census_reports_disagreeing_mono_checks():
    class Negated(Oracle):
        def mono_ok_factored(self, x, y):
            return super().mono_ok_factored(x, y) != ((x, y) == (ONE, TWO_ONE))

    problems = _problems(check_census(Negated(get_preset("a2_linear"))))
    assert problems == [
        "element and factored mono checks disagree on (('1',), ('2/1',))"
    ]


def test_census_reports_a_semibrick_that_is_no_monobrick():
    # {2, 2/1} is no monobrick (2/1 maps onto 2); it stands in for the
    # semibrick {2}, so every count still matches.
    class Swapped(Oracle):
        def semibricks(self):
            swap = {frozenset({TWO}): frozenset({TWO, TWO_ONE})}
            return tuple(swap.get(s, s) for s in super().semibricks())

    problems = _problems(check_census(Swapped(get_preset("a2_linear"))))
    assert problems == ["semibrick census is not a subset of the monobricks"]


def test_structural_identities_report_a_semibrick_that_reads_not_wide():
    # {1} is a semibrick, so the filtration of it must read wide.
    class Narrow(Oracle):
        def closure_flags(self, e):
            flags = super().closure_flags(e)
            if frozenset(e) == self.filt([ONE]):
                return flags._replace(cokernels=False)
            return flags

    problems = _problems(check_structural_identities(Narrow(get_preset("a2_linear"))))
    assert "{1}: wide verdict disagrees with the semibrick census" in problems


def test_identification_reports_a_member_of_dimension_three():
    # 1 + 2/1 has dimension 3, the largest the audit round-trips.
    target, other = ("1", "2/1"), ("1", "1", "2")

    class Mistaken(Oracle):
        def identify(self, rep, strict=False):
            found = super().identify(rep, strict)
            return other if strict and found == target else found

    oracle = Mistaken(get_preset("a2_linear"))
    assert oracle.dim_of(target) == 3
    problems = _problems(check_identification(oracle))
    assert problems == [f"{target} came back as {other}"]


def test_structural_identities_report_a_w_map_that_keeps_its_input():
    class Keeps(Oracle):
        def w_map(self, e):
            if frozenset(e) == self.filt(CHAIN):
                return frozenset(e)
            return super().w_map(e)

    oracle = Keeps(get_preset("a2_linear"))
    problems = _problems(check_structural_identities(oracle))
    message = "w_map differs from the filtration of the maximal elements"
    assert f"{{1, 2/1}}: {message}" in problems


def test_structural_identities_report_a_closure_that_is_not_idempotent():
    # The closure of {2/1} is {1, 2/1}, whose closure is made {2/1} again.
    class Flapping(Oracle):
        def cofinal_closure(self, bricks):
            if frozenset(bricks) == CHAIN:
                return frozenset({TWO_ONE})
            return super().cofinal_closure(bricks)

    oracle = Flapping(get_preset("a2_linear"))
    problems = _problems(check_structural_identities(oracle))
    assert "{2/1}: cofinal closure is not idempotent" in problems


def test_structural_identities_report_a_closure_that_misses_mmax():
    # {1, 2/1} is cofinally closed, but the closure of its maximal element
    # 2/1 is made 2/1 alone.
    class Short(Oracle):
        def cofinal_closure(self, bricks):
            if frozenset(bricks) == {TWO_ONE}:
                return frozenset({TWO_ONE})
            return super().cofinal_closure(bricks)

    oracle = Short(get_preset("a2_linear"))
    problems = _problems(check_structural_identities(oracle))
    assert (
        "{1, 2/1}: closure does not undo mmax on a cofinally closed monobrick"
        in problems
    )


def test_universe_size_reports_a_short_universe():
    # Dimension bound 5 leaves out the members of dimension 6.
    problems = _problems(check_universe_size(Oracle(get_preset("a2_linear"), 5)))
    assert problems == ["universe has 34 members, expected 50"]


def test_census_reports_a_closure_that_closes_everything():
    class Identity(Oracle):
        def cofinal_closure(self, bricks):
            return frozenset(bricks)

    problems = _problems(check_census(Identity(get_preset("a2_linear"))))
    assert problems == [
        "6 cofinally closed monobricks, expected 5 (one per semibrick)"
    ]


def test_arc_agreement_reports_a_wrong_hom_kind():
    # The arc of 1 is (1,2) and that of 2/1 is (1,3); 1 embeds in 2/1.
    class Blind(Oracle):
        def hom_kind(self, x, y):
            if (x, y) == (ONE, TWO_ONE):
                return HomKind.ZERO
            return super().hom_kind(x, y)

    problems = _problems(check_arc_agreement(Blind(get_preset("a2_linear"))))
    assert problems == [
        f"hom {Arc(1, 2)}->{Arc(1, 3)}: arc rule INJECTION, model ZERO"
    ]


def test_arc_agreement_reports_a_missing_semibrick():
    class Short(Oracle):
        def semibricks(self):
            return tuple(s for s in super().semibricks() if s != {TWO})

    problems = _problems(check_arc_agreement(Short(get_preset("a2_linear"))))
    assert problems == ["Semibrick families disagree, e.g. {2}"]


def test_structural_identities_report_simples_that_miss_the_monobrick():
    class Blank(Oracle):
        def simp(self, e):
            if frozenset(e) == self.filt([ONE]):
                return frozenset()
            return super().simp(e)

    problems = _problems(check_structural_identities(Blank(get_preset("a2_linear"))))
    assert "{1}: simples of the filtration closure differ" in problems


def test_structural_identities_report_an_f_map_output_that_is_not_torsion_free():
    # The filtration of 2/1 alone misses its subobject 1.
    class Unclosed(Oracle):
        def f_map(self, bricks):
            if frozenset(bricks) == {TWO_ONE}:
                return self.filt(bricks)
            return super().f_map(bricks)

    oracle = Unclosed(get_preset("a2_linear"))
    problems = _problems(check_structural_identities(oracle))
    assert "{2/1}: f_map output is not a torsion-free class" in problems


def test_closure_row_reports_wrong_maximal_elements():
    row = next(r for r in CLOSURE_TABLES["nak2"] if r.members == {"1", "2/1"})

    class Flat(Oracle):
        def mmax(self, bricks):
            if frozenset(bricks) == CHAIN:
                return frozenset(bricks)
            return super().mmax(bricks)

    problems = closure_row_problems(Flat(get_preset("nak2")), row)
    assert problems == ["{1, 2/1}: maximal elements {1, 2/1}, expected {2/1}"]


def test_serial_presets_cover_everything_but_the_source():
    # A preset is serial, with an arc model, exactly when the table leaves
    # its arrows to the Nakayama quiver of its algebra.
    assert set(PRESET_TABLE) == set(PRESETS)
    for name, (algebra, arrows) in PRESET_TABLE.items():
        expected = algebra if name != "a3_source" else None
        assert get_preset(name).arc_algebra == expected
        assert (arrows is None) == (expected is not None)


def test_table_rows_are_distinct():
    for preset, table in CLOSURE_TABLES.items():
        members = [row.members for row in table]
        assert len(set(members)) == len(members), preset
