"""Closure-table fixtures and the named audit registry.

The fixture rows in verify.py record, for each monobrick of the three
small presets, which bricks Filt picks up, the maximal members, the
cofinal closure, and any closure-property failures.  Each row is checked
here individually so a wrong cell points at itself, and the registry
checks are run per preset per name for the same reason.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import monobrick
from monobrick.arcs import Arc, HomKind
from monobrick.oracle import ZERO, Oracle, OracleError, get_oracle
from monobrick.presets import PRESETS as PRESET_TABLE, get_preset
from monobrick.verify import (
    CLOSURE_TABLES,
    EXPECTED_COUNTS,
    check_arc_agreement,
    check_census,
    check_closure_table,
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


def _run_on(monkeypatch, oracle_class):
    """``run_checks("a2_linear")`` on a fresh ``oracle_class``, as
    ``{name: (passed, detail)}``."""
    monkeypatch.setattr(
        "monobrick.verify.get_oracle",
        lambda name, bound, p: oracle_class(get_preset(name, p), bound),
    )
    return {r.name: (r.passed, r.detail) for r in run_checks("a2_linear")}


def test_run_checks_reports_an_audit_that_raises(monkeypatch):
    # The simple at vertex 1 is the only member of its dimensions, so only
    # the strict fingerprint check of the identification audit reads its
    # entries, and it raises there.
    class Misreporting(Oracle):
        def _fingerprint_entries(self, rep):
            entries = super()._fingerprint_entries(rep)
            if rep.dims == (1, 0):
                yield next(entries) + 1
            yield from entries

    results = _run_on(monkeypatch, Misreporting)
    assert list(results) == list(_results("a2_linear"))
    assert results.pop("identification") == (
        False, "fingerprint audit failed for a representation matched to ('1',)"
    )
    assert all(passed for passed, _ in results.values())


def test_run_checks_reports_tables_that_cannot_be_built(monkeypatch):
    # Refusing a walk leaf fails the table prebuild, and then every audit
    # that reads a table; the two audits that read none still pass.
    class Refusing(Oracle):
        def identify(self, rep, strict=False):
            if rep.dims == (1, 0) and not strict:
                raise OracleError("walk leaf refused")
            return super().identify(rep, strict)

    results = _run_on(monkeypatch, Refusing)
    assert list(results) == list(_results("a2_linear"))
    refused = (False, "walk leaf refused")
    assert results == {
        "universe-size": (True, ""),
        "identification": (True, ""),
        "census": refused,
        "arc-agreement": refused,
        "structural-identities": refused,
        "left-schur-closure": refused,
    }


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


def _misread(preset, gens, **wrong):
    """A fresh oracle whose flags of the closure ``filt(gens)`` read
    ``wrong``, through the mask-level method every flag route shares."""

    class Misread(Oracle):
        def _closure_flags(self, mask):
            flags = super()._closure_flags(mask)
            if mask == self._subcat_mask(self.filt(gens)):
                return flags._replace(**wrong)
            return flags

    return Misread(get_preset(preset))


def test_left_schur_audit_reports_a_flipped_verdict():
    oracle = _misread("a2_linear", [ONE], left_schur=False)
    problems = _problems(check_left_schur(oracle))
    assert "filt({1}): schur=False but kernel/image closure=True" in problems


def test_left_schur_audit_reports_a_schur_count_off_by_one():
    # The closure of {1} reads neither Schur nor closed, so the two
    # verdicts still agree and only the count is off.
    oracle = _misread("a2_linear", [ONE], left_schur=False, kernels=False)
    problems = _problems(check_left_schur(oracle))
    assert problems == ["5 distinct one-sided Schur subcategories, expected 6"]


# a3_source has no arc model: closure under kernels and images must imply
# the Schur condition, and the closure of {2} has both.
SOURCE_TWO = [("2",)]


def test_left_schur_audit_reports_a_closed_set_that_is_not_schur():
    oracle = _misread("a3_source", SOURCE_TWO, left_schur=False)
    problems = _problems(check_left_schur(oracle))
    assert problems == [
        "filt({2}): closed under kernels and images, not schur",
        "25 distinct one-sided Schur subcategories, expected 26",
    ]


def test_left_schur_audit_reports_an_unexpected_schur_set_that_is_not_closed():
    oracle = _misread("a3_source", SOURCE_TWO, kernels=False)
    problems = _problems(check_left_schur(oracle))
    assert problems == [
        "schur-but-not-closed monobricks are ['{1/2, 13/2, 2}', '{1/2, 13/2, 3/2}',"
        " '{13/2, 2, 3/2}', '{13/2, 2}', '{2}'], expected ['{1/2, 13/2, 2}',"
        " '{1/2, 13/2, 3/2}', '{13/2, 2, 3/2}', '{13/2, 2}']",
        "21 kernel/image closed subcategories, expected 22",
    ]


def test_left_schur_audit_reports_a_closed_count_off_by_one():
    # Neither Schur nor closed: no verdict disagrees, both counts drop.
    oracle = _misread("a3_source", SOURCE_TWO, left_schur=False, kernels=False)
    problems = _problems(check_left_schur(oracle))
    assert problems == [
        "25 distinct one-sided Schur subcategories, expected 26",
        "21 kernel/image closed subcategories, expected 22",
    ]


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


def test_census_reports_a_missing_semibrick():
    class Short(Oracle):
        def semibricks(self):
            return super().semibricks()[:-1]

    problems = _problems(check_census(Short(get_preset("a2_linear"))))
    assert problems == ["4 semibricks, expected 5"]


def test_census_reports_monobricks_that_do_not_start_empty():
    class Reversed(Oracle):
        def monobricks(self):
            return super().monobricks()[::-1]

    problems = _problems(check_census(Reversed(get_preset("a2_linear"))))
    assert problems == ["the empty monobrick is not enumerated first"]


def test_census_reports_a_missing_brick():
    # The censuses read the cached brick list, not ``brick_members``, so
    # only the brick count moves.
    class Short(Oracle):
        def brick_members(self):
            return super().brick_members()[:-1]

    problems = _problems(check_census(Short(get_preset("a2_linear"))))
    assert problems == ["2 bricks, expected 3"]


def test_census_reports_a_monobrick_listed_twice():
    # {2/1} is a semibrick that is not cofinally closed, so a second copy
    # moves the monobrick count alone.
    class Doubled(Oracle):
        def monobricks(self):
            return (*super().monobricks(), frozenset({TWO_ONE}))

    problems = _problems(check_census(Doubled(get_preset("a2_linear"))))
    assert problems == ["7 monobricks, expected 6"]


def test_arc_agreement_refuses_a_preset_without_an_arc_model():
    result = check_arc_agreement(get_oracle("a3_source"))
    assert result == ("arc-agreement", False, "preset has no arc model")


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


def _nak2_row(members):
    return next(r for r in CLOSURE_TABLES["nak2"] if r.members == set(members.split()))


def test_closure_table_reports_a_row_outside_the_census():
    class Missing(Oracle):
        def monobricks(self):
            return tuple(m for m in super().monobricks() if m != {ONE, TWO})

    problems = _problems(check_closure_table(Missing(get_preset("nak2"))))
    assert problems == ["{1, 2} is not a monobrick here"]


def test_closure_row_reports_a_wrong_filtration():
    # The filtration of 1 is made that of {1, 2}; both read wide and
    # torsion-free, so only the extras differ.
    class Wider(Oracle):
        def filt(self, gens):
            if frozenset(gens) == {ONE}:
                return super().filt([ONE, TWO])
            return super().filt(gens)

    problems = closure_row_problems(Wider(get_preset("nak2")), _nak2_row("1"))
    assert problems == ["{1}: filtration adds {1/2, 2, 2/1}, expected {}"]


def test_closure_row_reports_a_wrong_cofinal_closure():
    class Same(Oracle):
        def cofinal_closure(self, bricks):
            return frozenset(bricks)

    problems = closure_row_problems(Same(get_preset("nak2")), _nak2_row("1/2"))
    assert problems == ["{1/2}: cofinal closure {1/2}, expected {1/2, 2}"]


WIDE_VERDICT = "{1}: wide verdict False disagrees with the maximal-element column"
TF_VERDICT = "{1}: torsion-free verdict False disagrees with the closure column"


@pytest.mark.parametrize(
    ("flag", "expected"),
    [
        ("summands", ["{1}: filtration closure summands flag is False, expected True"]),
        (
            "kernels",
            ["{1}: filtration closure kernels flag is False, expected True", WIDE_VERDICT],
        ),
        ("images", ["{1}: filtration closure images flag is False, expected True"]),
        (
            "extensions",
            ["{1}: filtration closure is not extension-closed", WIDE_VERDICT, TF_VERDICT],
        ),
        ("cokernels", [WIDE_VERDICT]),
        ("subobjects", [TF_VERDICT]),
    ],
)
def test_closure_row_reports_a_flag_read_false(flag, expected):
    # The filtration of 1 is 1 and its self-extensions, closed under every
    # construction; each case reads one flag of it as False.
    oracle = _misread("nak2", [ONE], **{flag: False})
    assert closure_row_problems(oracle, _nak2_row("1")) == expected


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


def test_identification_reports_a_failed_isomorphism_audit():
    class Doubting(Oracle):
        def assert_isomorphic(self, rep, member):
            if member == TWO_ONE:
                raise OracleError(f"no isomorphism onto {member} exists")
            return super().assert_isomorphic(rep, member)

    problems = _problems(check_identification(Doubting(get_preset("a2_linear"))))
    assert problems == [
        "isomorphism audit failed for 2/1: no isomorphism onto ('2/1',) exists"
    ]


def test_arc_agreement_reports_arcs_that_miss_a_brick():
    # The arc (1,2) of 1 is sent to 2/1, the module of the arc (1,3).
    class Merged(Oracle):
        def arc_member(self, arc):
            return TWO_ONE if arc == Arc(1, 2) else super().arc_member(arc)

    problems = _problems(check_arc_agreement(Merged(get_preset("a2_linear"))))
    assert "arcs do not biject onto the bricks" in problems


def test_structural_identities_report_a_closure_outside_the_census():
    # {2, 2/1} is no monobrick: 2/1 maps onto 2.
    class Widened(Oracle):
        def cofinal_closure(self, bricks):
            if frozenset(bricks) == {TWO_ONE}:
                return frozenset({TWO, TWO_ONE})
            return super().cofinal_closure(bricks)

    oracle = Widened(get_preset("a2_linear"))
    problems = _problems(check_structural_identities(oracle))
    assert "{2/1}: cofinal closure is not a census monobrick" in problems


def test_structural_identities_report_a_torsion_free_verdict_on_an_open_set():
    # {2/1} is not cofinally closed, so its filtration must not read
    # torsion-free; here it reads closed under subobjects.
    class Closed(Oracle):
        def closure_flags(self, e):
            flags = super().closure_flags(e)
            if frozenset(e) == self.filt([TWO_ONE]):
                return flags._replace(subobjects=True)
            return flags

    oracle = Closed(get_preset("a2_linear"))
    problems = _problems(check_structural_identities(oracle))
    assert "{2/1}: torsion-free verdict disagrees with cofinal closedness" in problems


def test_universe_size_reports_a_universe_that_does_not_start_at_zero():
    class Rotated(Oracle):
        def _build_universe(self):
            members = super()._build_universe()
            return members[1:] + members[:1]

    problems = _problems(check_universe_size(Rotated(get_preset("a2_linear"))))
    assert problems == ["the zero module is not the first member"]


def test_structural_identities_report_maximal_elements_that_are_no_semibrick():
    # The maximal element of {1, 2/1} is made the whole chain, which is no
    # semibrick: 1 embeds in 2/1.
    class Flat(Oracle):
        def mmax(self, bricks):
            if frozenset(bricks) == CHAIN:
                return CHAIN
            return super().mmax(bricks)

    problems = _problems(check_structural_identities(Flat(get_preset("a2_linear"))))
    assert "{1, 2/1}: maximal elements are not a semibrick" in problems


def test_structural_identities_report_a_closure_that_changes_mmax():
    # The closure of {2/1} is {1, 2/1}, whose maximal element is made 1.
    class Low(Oracle):
        def mmax(self, bricks):
            if frozenset(bricks) == CHAIN:
                return frozenset({ONE})
            return super().mmax(bricks)

    problems = _problems(check_structural_identities(Low(get_preset("a2_linear"))))
    assert "{2/1}: closure changes the maximal elements" in problems


def test_structural_identities_report_wrong_simples_of_the_torsion_free_class():
    # The smallest torsion-free class holding 2/1 is filt({1, 2/1}); its
    # simples are made 2/1 alone, which misses the closure {1, 2/1}.
    class Blind(Oracle):
        def simp(self, e):
            if frozenset(e) == self.f_map({TWO_ONE}):
                return frozenset({TWO_ONE})
            return super().simp(e)

    problems = _problems(check_structural_identities(Blind(get_preset("a2_linear"))))
    message = "simples of the smallest torsion-free class are not the closure"
    assert f"{{2/1}}: {message}" in problems


def test_structural_identities_report_a_wide_semibrick_that_is_not_maximal():
    # {1, 2} is a semibrick, so its filtration reads wide; its maximal
    # elements are made 1 alone.
    class Partial(Oracle):
        def mmax(self, bricks):
            if frozenset(bricks) == {ONE, TWO}:
                return frozenset({ONE})
            return super().mmax(bricks)

    problems = _problems(check_structural_identities(Partial(get_preset("a2_linear"))))
    assert "{1, 2}: wide verdict disagrees with maximality" in problems


def test_structural_identities_report_a_w_map_that_does_not_undo_f_map():
    # {2/1} is a semibrick; W of the smallest torsion-free class holding it,
    # filt({1, 2/1}), must give back filt({2/1}), and is made zero alone.
    class Shrunk(Oracle):
        def w_map(self, e):
            if frozenset(e) == self.f_map({TWO_ONE}):
                return frozenset({ZERO})
            return super().w_map(e)

    problems = _problems(check_structural_identities(Shrunk(get_preset("a2_linear"))))
    assert "{2/1}: w_map does not undo f_map on a wide subcategory" in problems


# Two audits whose failure detail names one sample of a set: b3 with only
# the empty semibrick, and a3_linear with a census padded by three sets no
# fixture row covers.
SAMPLED_DETAILS = """
from monobrick.oracle import Oracle
from monobrick.presets import get_preset
from monobrick.verify import check_arc_agreement, check_closure_table

class Empty(Oracle):
    def semibricks(self):
        return (frozenset(),)

class Padded(Oracle):
    def monobricks(self):
        extra = ({"1", "2", "2/1"}, {"2", "3", "3/2/1"}, {"1", "3", "3/2"})
        return (*super().monobricks(), *(frozenset((n,) for n in s) for s in extra))

print(check_arc_agreement(Empty(get_preset("b3"))).detail)
print(check_closure_table(Padded(get_preset("a3_linear"))).detail)
"""


def test_sampled_details_do_not_depend_on_the_hash_seed():
    # Under these two seeds the first element of each set differs, so only
    # a detail that names the least sample reads the same under both.
    src = str(Path(monobrick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    details = [
        subprocess.run(
            [sys.executable, "-c", SAMPLED_DETAILS],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "3")
    ]
    assert details == [
        "Semibrick families disagree, e.g. {1, 2, 3}\n"
        "table misses 3 census monobricks, e.g. {1, 2, 2/1}\n"
    ] * 2
