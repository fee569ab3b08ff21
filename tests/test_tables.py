"""Closure-table fixtures and the named audit registry.

The fixture rows in verify.py record, for each monobrick of the three
small presets, which bricks Filt picks up, the maximal members, the
cofinal closure, and any closure-property failures.  Each row is checked
here individually so a wrong cell points at itself, and the registry
checks are run per preset per name for the same reason.
"""

from functools import lru_cache

import pytest

from monobrick.oracle import Oracle, get_oracle
from monobrick.presets import PRESETS as PRESET_TABLE, get_preset
from monobrick.verify import (
    CLOSURE_TABLES,
    EXPECTED_COUNTS,
    check_arc_agreement,
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
