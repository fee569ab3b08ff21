"""Command line behaviour: streams, tables, queries, exit codes.

The exit code contract is load-bearing: 0 success, 1 failed audit,
2 usage, 3 budget, 4 invalid input data.  Everything here runs through
click's CliRunner, so stdout and stderr are captured separately.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import monobrick
from monobrick import cli
from monobrick.arcs import Algebra
from monobrick.diagrams import arc_table, diagram_to_json, enumerate_diagrams
from monobrick.verify import EXPECTED_COUNTS, CheckResult


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)


def run_module(*args):
    """Run ``python ARGS`` in a fresh interpreter that imports this package."""
    src = str(Path(monobrick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


# -- enumerate ---------------------------------------------------------

def test_enumerate_streams_records_and_count(runner):
    result = invoke(runner, ["enumerate", "--algebra", "A", "--n", "3"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == '{"n":3,"algebra":"A","arcs":[]}'
    assert lines[-1] == '{"count":22}'
    assert len(lines) == 23
    for line in lines[:-1]:
        record = json.loads(line)
        assert record["n"] == 3 and record["algebra"] == "A"


@pytest.mark.parametrize(
    ("family", "n", "kind", "expected"),
    [
        ("A", 1, "monobrick", 2),
        ("B", 2, "semibrick", 6),
        ("B", 2, "monobrick", 8),
        ("B", 2, "cofinally-closed", 6),
        ("A", 0, "monobrick", 1),
    ],
)
def test_enumerate_counts(runner, family, n, kind, expected):
    result = invoke(
        runner,
        ["enumerate", "--algebra", family, "--n", str(n), "--kind", kind],
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == '{"count":%d}' % expected


def test_enumerate_is_deterministic(runner):
    args = ["enumerate", "--algebra", "B", "--n", "3"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.output == second.output


@pytest.mark.parametrize("kind", sorted(cli._KINDS))
@pytest.mark.parametrize(
    ("family", "ranks"), [("A", range(0, 7)), ("B", range(1, 6))]
)
def test_enumerate_stream_matches_library_encoding(runner, family, ranks, kind):
    # The CLI joins per-arc fragments; the library builds Diagram objects
    # and encodes them with json.dumps.  Both must give the same bytes.
    for rank in ranks:
        algebra = Algebra(family, rank)
        expected = "".join(
            json.dumps(diagram_to_json(d), separators=(",", ":")) + "\n"
            for d in enumerate_diagrams(algebra, cli._KINDS[kind])
        )
        expected += '{"count":%d}\n' % expected.count("\n")
        result = invoke(
            runner,
            ["enumerate", "--algebra", family, "--n", str(rank), "--kind", kind],
        )
        assert result.output == expected, (family, rank, kind)


def test_enumerate_budget_exit_code(runner):
    result = runner.invoke(cli.main, ["enumerate", "--algebra", "B", "--n", "8"])
    assert result.exit_code == 3
    assert "budget" in result.stderr


def test_enumerate_env_budget_override(runner):
    result = runner.invoke(
        cli.main,
        ["enumerate", "--algebra", "B", "--n", "3"],
        env={"MONOBRICK_BUDGET_B": "2"},
    )
    assert result.exit_code == 3
    # A bad env value is a usage problem, not a math problem.
    result = runner.invoke(
        cli.main,
        ["enumerate", "--algebra", "B", "--n", "3"],
        env={"MONOBRICK_BUDGET_B": "soon"},
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("raw", ["1_1", " 2 ", "+3"])
def test_budget_override_takes_ascii_digits_only(runner, raw):
    # int() would read these as 11, 2 and 3
    commands = (
        ["enumerate", "--algebra", "B", "--n", "3"],
        ["count", "--algebra", "B", "--n-max", "3"],
    )
    for command in commands:
        result = runner.invoke(cli.main, command + ["--budget", raw])
        assert result.exit_code == 2
        assert "--budget" in result.stderr
        result = runner.invoke(cli.main, command, env={"MONOBRICK_BUDGET_B": raw})
        assert result.exit_code == 2
        assert "MONOBRICK_BUDGET_B" in result.stderr


def test_budget_override_accepts_plain_digits(runner):
    command = ["enumerate", "--algebra", "B", "--n", "3"]
    assert runner.invoke(cli.main, command + ["--budget", "3"]).exit_code == 0
    assert runner.invoke(cli.main, command + ["--budget", "2"]).exit_code == 3
    assert runner.invoke(
        cli.main, command, env={"MONOBRICK_BUDGET_B": "03"}
    ).exit_code == 0
    result = runner.invoke(
        cli.main, ["count", "--algebra", "B", "--n-max", "3", "--budget", "2"]
    )
    assert result.exit_code == 3


def test_enumerate_usage_errors(runner):
    assert runner.invoke(
        cli.main, ["enumerate", "--algebra", "C", "--n", "2"]
    ).exit_code == 2
    assert runner.invoke(
        cli.main, ["enumerate", "--algebra", "B", "--n", "0"]
    ).exit_code == 2


def test_enumerate_over_budget_leaves_out_file_alone(runner, tmp_path):
    target = tmp_path / "stream.jsonl"
    target.write_bytes(b"earlier output\n")
    result = runner.invoke(
        cli.main,
        ["enumerate", "--algebra", "A", "--n", "11", "--out", str(target)],
    )
    assert result.exit_code == 3
    assert target.read_bytes() == b"earlier output\n"
    missing = tmp_path / "absent.jsonl"
    result = runner.invoke(
        cli.main,
        ["enumerate", "--algebra", "B", "--n", "8", "--out", str(missing)],
    )
    assert result.exit_code == 3
    assert not missing.exists()


def test_enumerate_out_file_matches_stdout(runner, tmp_path):
    target = tmp_path / "stream.jsonl"
    args = ["enumerate", "--algebra", "A", "--n", "2"]
    piped = invoke(runner, args)
    assert invoke(runner, args + ["--out", str(target)]).exit_code == 0
    assert target.read_text(encoding="utf-8") == piped.output


# -- count -------------------------------------------------------------

def test_count_markdown_table(runner):
    result = invoke(runner, ["count", "--algebra", "B", "--n-max", "3"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "| n | enumerated | closed-form | recurrence-ok |"
    assert "| 2 | 8 | 8 | true |" in lines
    assert "| 3 | 38 | 38 | true |" in lines


def test_count_csv(runner):
    result = invoke(
        runner,
        ["count", "--algebra", "A", "--n-max", "3", "--format", "csv"],
    )
    lines = result.output.splitlines()
    assert lines[0] == "n,enumerated,closed-form,recurrence-ok"
    assert "3,22,22,true" in lines


def test_count_json_rows(runner):
    result = invoke(
        runner,
        ["count", "--algebra", "B", "--n-max", "2", "--format", "json"],
    )
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert rows == [
        {"n": 1, "enumerated": 2, "closed_form": 2, "recurrence_ok": True},
        {"n": 2, "enumerated": 8, "closed_form": 8, "recurrence_ok": True},
    ]


def test_count_semibricks_have_no_recurrence_column_value(runner):
    result = invoke(
        runner,
        ["count", "--algebra", "A", "--n-max", "2", "--kind", "semibrick"],
    )
    assert "| 2 | 5 | 5 | - |" in result.output.splitlines()


def test_count_rejects_empty_range(runner):
    result = runner.invoke(
        cli.main, ["count", "--algebra", "A", "--n-max", "1", "--n-min", "3"]
    )
    assert result.exit_code == 2


# -- closure and mmax --------------------------------------------------

CHAIN = '{"n":3,"algebra":"A","arcs":[[1,4]]}'


def test_closure_of_single_arc(runner):
    result = invoke(runner, ["closure"], input=CHAIN)
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "n": 3,
        "algebra": "A",
        "arcs": [[1, 2], [1, 3], [1, 4]],
    }


def test_closure_hasse_chain(runner):
    result = invoke(runner, ["closure", "--hasse"], input=CHAIN)
    payload = json.loads(result.output)
    assert payload["hasse"] == [[[1, 2], [1, 3]], [[1, 3], [1, 4]]]


def test_mmax_of_chain_closure(runner):
    closed = invoke(runner, ["closure"], input=CHAIN).output
    result = invoke(runner, ["mmax", "--hasse"], input=closed)
    payload = json.loads(result.output)
    assert payload["arcs"] == [[1, 4]]
    assert payload["hasse"] == []


def test_closure_of_empty_diagram(runner):
    result = invoke(runner, ["closure"], input='{"n":3,"algebra":"A","arcs":[]}')
    assert json.loads(result.output)["arcs"] == []


def test_closure_is_idempotent_through_the_cli(runner):
    once = invoke(runner, ["closure"], input=CHAIN).output
    twice = invoke(runner, ["closure"], input=once).output
    assert once == twice


def test_closure_rejects_strictly_crossing_pair(runner):
    result = runner.invoke(
        cli.main, ["closure"], input='{"n":3,"algebra":"A","arcs":[[1,3],[2,4]]}'
    )
    assert result.exit_code == 4
    assert "(1,3)" in result.stderr and "(2,4)" in result.stderr
    assert "StrictlyCrossing" in result.stderr


def test_mmax_rejects_epi_crossing_pair(runner):
    result = runner.invoke(
        cli.main, ["mmax"], input='{"n":3,"algebra":"A","arcs":[[1,3],[2,3]]}'
    )
    assert result.exit_code == 4
    assert "EpiCrossing" in result.stderr


def test_closure_rejects_malformed_payloads(runner):
    for payload in ("not json", "[1,2]", '{"algebra":"A","arcs":[]}'):
        result = runner.invoke(cli.main, ["closure"], input=payload)
        assert result.exit_code == 4, payload


@pytest.mark.parametrize(
    ("payload", "field"),
    [
        ('{"n":3,"algebra":"A","arcs":[[1.7,2.2]]}', "arcs[0]"),
        ('{"n":3,"algebra":"A","arcs":[[1,2.0]]}', "arcs[0]"),
        ('{"n":true,"algebra":"A","arcs":[]}', '"n"'),
        ('{"n":"3","algebra":"A","arcs":[]}', '"n"'),
        ('{"n":3.0,"algebra":"A","arcs":[]}', '"n"'),
        ('{"n":3,"algebra":"A","arcs":[["1","2"]]}', "arcs[0]"),
        ('{"n":3,"algebra":"A","arcs":[[1,true]]}', "arcs[0]"),
        ('{"n":3,"algebra":"A","arcs":{"1":2}}', '"arcs"'),
        ('{"n":3,"algebra":"A","arcs":[[1,2,3]]}', "arcs[0]"),
        ('{"n":3,"algebra":"A","arcs":[12]}', "arcs[0]"),
        ('{"n":3,"algebra":1,"arcs":[]}', '"algebra"'),
        ('{"n":3,"algebra":"A"}', '"arcs"'),
    ],
)
@pytest.mark.parametrize("command", ["closure", "mmax", "render", "ncl"])
def test_diagram_input_refuses_coercion(runner, command, payload, field):
    result = runner.invoke(cli.main, [command], input=payload)
    assert result.exit_code == 4, result.output
    assert field in result.stderr


def test_single_diagram_queries_build_no_arc_table(runner):
    # An algebra-wide table is quadratic in the arc count; a query on one
    # diagram at a large rank must not pay for it.
    arc_table.cache_clear()
    big = '{"n":40,"algebra":"B","arcs":[[3,2]]}'
    for command in ("closure", "mmax", "render", "ncl"):
        payload = CHAIN if command == "ncl" else big
        assert invoke(runner, [command], input=payload).exit_code == 0
    assert arc_table.cache_info().currsize == 0


def test_closure_reads_from_file(runner, tmp_path):
    source = tmp_path / "diagram.json"
    source.write_text(CHAIN, encoding="utf-8")
    result = invoke(runner, ["closure", "--in", str(source)])
    assert json.loads(result.output)["arcs"] == [[1, 2], [1, 3], [1, 4]]


# -- ncl ----------------------------------------------------------------

def test_ncl_partition_to_diagram(runner):
    result = invoke(
        runner, ["ncl"], input='{"n":4,"blocks":[[1,2,4],[2,3]]}'
    )
    assert json.loads(result.output) == {
        "n": 3,
        "algebra": "A",
        "arcs": [[1, 2], [1, 4], [2, 3]],
    }


def test_ncl_roundtrips_both_ways(runner):
    partition = '{"n":4,"blocks":[[1,2,4],[2,3]]}\n'
    diagram = invoke(runner, ["ncl"], input=partition).output
    back = invoke(runner, ["ncl"], input=diagram).output
    assert back == partition
    forward_again = invoke(runner, ["ncl"], input=back).output
    assert forward_again == diagram


def test_ncl_singletons_give_empty_diagram(runner):
    result = invoke(runner, ["ncl"], input='{"n":3,"blocks":[[1],[2],[3]]}')
    assert json.loads(result.output)["arcs"] == []


@pytest.mark.parametrize(
    ("payload", "condition"),
    [
        ('{"n":4,"blocks":[[1,2,4]]}', "NCL1"),
        ('{"n":4,"blocks":[[1,3],[2,4]]}', "NCL2"),
        ('{"n":3,"blocks":[[1,2],[1,3]]}', "NCL3"),
    ],
)
def test_ncl_names_the_violated_condition(runner, payload, condition):
    result = runner.invoke(cli.main, ["ncl"], input=payload)
    assert result.exit_code == 4
    assert condition in result.stderr


@pytest.mark.parametrize(
    ("payload", "field"),
    [
        ('{"n":4,"blocks":[[1.5,2],[3,4]]}', "blocks[0]"),
        ('{"n":4,"blocks":[[1,2],[3,true]]}', "blocks[1]"),
        ('{"n":4,"blocks":[["1",2],[3,4]]}', "blocks[0]"),
        ('{"n":4,"blocks":[1,2,3,4]}', "blocks[0]"),
        ('{"n":4,"blocks":{"1":[2]}}', '"blocks"'),
        ('{"n":"4","blocks":[[1,2],[3,4]]}', '"n"'),
        ('{"n":4.0,"blocks":[[1,2],[3,4]]}', '"n"'),
    ],
)
def test_ncl_partition_input_refuses_coercion(runner, payload, field):
    result = runner.invoke(cli.main, ["ncl"], input=payload)
    assert result.exit_code == 4, result.output
    assert field in result.stderr


@pytest.mark.parametrize(
    ("payload", "message"),
    [
        ('{"n":1,"blocks":[[1],[1]]}', "partition lists a duplicate block"),
        ('{"n":3,"blocks":[[1,1,2],[3]]}', '"blocks[0]"'),
        ('{"n":3,"blocks":[[1,2],[3,3]]}', '"blocks[1]"'),
    ],
)
def test_ncl_partition_input_refuses_repeats(runner, payload, message):
    result = runner.invoke(cli.main, ["ncl"], input=payload)
    assert result.exit_code == 4, result.output
    assert message in result.stderr


def test_ncl_requires_exactly_one_payload_kind(runner):
    both = '{"n":2,"blocks":[[1],[2]],"algebra":"A","arcs":[]}'
    neither = '{"n":2}'
    for payload in (both, neither):
        result = runner.invoke(cli.main, ["ncl"], input=payload)
        assert result.exit_code == 4, payload


def test_ncl_rejects_crossing_diagram(runner):
    result = runner.invoke(
        cli.main, ["ncl"], input='{"n":3,"algebra":"A","arcs":[[1,3],[2,4]]}'
    )
    assert result.exit_code == 4


# -- oracle verify ------------------------------------------------------

def test_oracle_verify_passes_on_bundled_preset(runner):
    result = invoke(runner, ["oracle", "verify", "--preset", "nak2"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "7 of 7 checks passed"


def test_oracle_verify_unknown_preset(runner):
    result = runner.invoke(cli.main, ["oracle", "verify", "--preset", "bogus"])
    assert result.exit_code == 2


def test_oracle_verify_rejects_nonprime_characteristic(runner):
    result = runner.invoke(
        cli.main, ["oracle", "verify", "--preset", "nak2", "-p", "4"]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("p", ["1", "4", "7"])
def test_oracle_verify_refuses_unsupported_fields_without_traceback(p):
    proc = run_module(
        "-m", "monobrick.cli", "oracle", "verify", "--preset", "nak2", "-p", p
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "Usage:" in proc.stderr and "is not one of '2', '3', '5'" in proc.stderr


def test_oracle_verify_reports_failures(runner, monkeypatch):
    stub = [CheckResult("census", False, "wrong count"), CheckResult("ok", True)]
    monkeypatch.setattr(cli, "run_checks", lambda preset, p=2: stub)
    result = runner.invoke(cli.main, ["oracle", "verify", "--preset", "nak2"])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert "FAIL census: wrong count" in lines
    assert "1 of 2 checks passed" in lines


def test_cli_import_leaves_the_oracle_stack_unloaded():
    proc = run_module("-c", "import sys, monobrick.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "monobrick.cli" in loaded
    assert "monobrick.verify" not in loaded
    assert "monobrick.oracle" not in loaded


def test_preset_choices_are_the_verified_presets():
    assert list(cli._PRESET_CHOICE.choices) == sorted(EXPECTED_COUNTS)


def test_in_file_is_closed_after_reading(tmp_path):
    source = tmp_path / "in.json"
    source.write_text('{"n":3,"algebra":"A","arcs":[[1,4]]}')
    proc = run_module("-X", "dev", "-m", "monobrick.cli", "closure", "--in", str(source))
    assert proc.returncode == 0
    assert proc.stdout == '{"n":3,"algebra":"A","arcs":[[1,2],[1,3],[1,4]]}\n'
    assert "ResourceWarning" not in proc.stderr


# -- render --------------------------------------------------------------

def test_render_nested_brackets(runner):
    result = invoke(
        runner,
        ["render"],
        input='{"n":3,"algebra":"A","arcs":[[1,2],[1,4],[3,4]]}',
    )
    assert result.output == (
        ".___________.\n"
        "|___.   .___|\n"
        "1   2   3   4\n"
    )


def test_render_empty_diagram_is_baseline_only(runner):
    result = invoke(runner, ["render"], input='{"n":3,"algebra":"A","arcs":[]}')
    assert result.output == "1   2   3   4\n"


def test_render_wraps_cyclic_arcs_over_two_repeats(runner):
    result = invoke(runner, ["render"], input='{"n":3,"algebra":"B","arcs":[[3,2]]}')
    assert result.output == (
        "        ._______.\n"
        "1   2   3   1   2   3\n"
    )


def test_render_accepts_crossing_diagrams(runner):
    result = invoke(
        runner, ["render"], input='{"n":3,"algebra":"A","arcs":[[1,3],[2,4]]}'
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "1   2   3   4"


def test_version_flag(runner):
    assert invoke(runner, ["--version"]).exit_code == 0
