"""Command line behaviour: streams, tables, queries, exit codes.

The exit code contract is load-bearing: 0 success, 1 failed audit,
2 usage, 3 budget, 4 invalid input data.  Everything here runs through
click's CliRunner, so stdout and stderr are captured separately.
"""

import errno
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import monobrick
from monobrick import cli, poset, presets, render, search, verify
from monobrick.arcs import Algebra
from monobrick.diagrams import diagram_to_json, enumerate_diagrams
from monobrick.search import arc_table
from monobrick.verify import EXPECTED_COUNTS, CheckResult


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)


def assert_refused(result, message):
    """An exit-3 refusal: nothing on stdout, and on stderr one ``Error:``
    line with no usage block."""
    assert (result.exit_code, result.stdout, result.stderr) == (
        3, "", f"Error: {message}\n"
    ), result.exception


def module_env(**changes):
    """The environment with this package on ``PYTHONPATH``; a change to
    None unsets the variable."""
    src = str(Path(monobrick.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **changes}
    return {name: value for name, value in env.items() if value is not None}


def run_module(
    *args, stdin=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env
):
    """Run ``python ARGS`` in a fresh interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=stderr,
        text=True,
        input=stdin,
        env=module_env(**env),
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
    # The CLI writes whole clique subtrees from text templates; the library
    # builds Diagram objects and encodes them with json.dumps.  Both must
    # give the same bytes.
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


# sha256 of `enumerate` stdout for the monobrick, semibrick and
# cofinally-closed kinds, taken from the line-at-a-time writer that the
# subtree templates replaced.
ENUMERATE_SHA256 = {
    ("A", 0): (
        "ec094ce84d81ac15eebec894fa90945f86fb21b39a6566874981f77f1172f9b7",
        "ec094ce84d81ac15eebec894fa90945f86fb21b39a6566874981f77f1172f9b7",
        "ec094ce84d81ac15eebec894fa90945f86fb21b39a6566874981f77f1172f9b7",
    ),
    ("A", 1): (
        "e7b8e646fc256c2f385cf86c16844f072b1a3b06072d3283ab0bf3da4b77b000",
        "e7b8e646fc256c2f385cf86c16844f072b1a3b06072d3283ab0bf3da4b77b000",
        "e7b8e646fc256c2f385cf86c16844f072b1a3b06072d3283ab0bf3da4b77b000",
    ),
    ("A", 2): (
        "8228cb01e572351cc717f9cdf72de1da8f1c3f307d638d7035fb2805f60810c1",
        "b431ef6cf30a2c2b7adb69315ef7568fba829468b62186afc9970bbb68f7b1fa",
        "6522e230b798dba729f85b1d120cfe4a37d52c2c165f78e0ec9047c748e2cfba",
    ),
    ("A", 3): (
        "9354d4a18b8b2b1d24304b3953b3649574688f48dbe125d3157c3374f9ab2c61",
        "b8028dcbcbf70f9bfcb5708f4568ec2a0b30ef8b14b15984e4d7cc37f53c727e",
        "3405b2265464e69a8a551abff94796290f5462ff662900486868eeb623b399de",
    ),
    ("A", 4): (
        "707bb642f7fc03e7a6c284d027e2a81ea0377035709fd49c8620338c00406a3a",
        "5aa3791480e936593c5dca7150717d0748b9d357920dc0f9b51153969f76a610",
        "e63ea979dfc5ab7e97c4857f39b7020e9275a392c1e6d0040d7bff2a2f9c18ae",
    ),
    ("A", 5): (
        "a70cfe34d090aeec6c1d0b641aa4a16ebae6e9e41a535bd35bfc69416afff88a",
        "74163633fe58f3af065ca487c845728c2980fecba3d235dfdbe25979e2809209",
        "8f2cf8798cd7cfd69be1fe218281cb5504e88baac229be069d85d081c497afe3",
    ),
    ("A", 6): (
        "76a1c703a6b43138db73f12cbf049393146f533e908213e9e273ae0670c64d3d",
        "3d304ab5b37fa2bf141a6474b6b3ae743cb629567f1ab5fa17df6ac0b8698794",
        "c1fbd4b636786e68e89cac8fdd43b98d7a5e1d64f409c05623c2993e9d31452e",
    ),
    ("A", 7): (
        "3e8bfe6abd599ac6ebf8ca75e6a2ca99bdc910a1fbce19ac5094d0d5cbbe6b83",
        "cd913152481b8fb79b9ae7c12d71cffe9ea1a98a8d7f2554b1173495c177d8fa",
        "838599d05f15d99a2e70446e0682063938498dc3061c6995f0f1949ace811089",
    ),
    ("A", 8): (
        "d482588f1dbebf637ee6c1b462a8ceed2a631958f67f9ef203151ba47b7d7450",
        "b3906a0216806154a6fae266d2d51058d5c18e658a7c8a72ba48decdc6955a0d",
        "4a8da94032e337f34db9f0e47fdadda153192cabfbf56a3c49d684767d246be9",
    ),
    ("A", 9): (
        "c0464e19911131937b2139a320afa3803c5f1c909819a9d0a65fb1cd646d9075",
        "5fe04f98a6be12cf34ab9b7559edb99b986464551441431162feb67b1f0b47c5",
        "34ac96fca47756f46b400df5d67df638747961be52f9cd1b485f8699581d7339",
    ),
    ("B", 1): (
        "4a86489e54696d9c7296260237a79a1102de361d131793bf3cc6f55b17a663cb",
        "4a86489e54696d9c7296260237a79a1102de361d131793bf3cc6f55b17a663cb",
        "4a86489e54696d9c7296260237a79a1102de361d131793bf3cc6f55b17a663cb",
    ),
    ("B", 2): (
        "848e74ba6a4017f662d67a6a02a1497a0a72d7431a524af4fa0656dadac05072",
        "b644c9570db5f4bb7002cdff0e15b3428f001618fea1c874ff70f5c5e66621a3",
        "2f6eb3fbfe73d0b42b87b2dd4c62ba38297f623cfb04071ae63e575fa16d897c",
    ),
    ("B", 3): (
        "58d75d825cef1a3d6352ed98eafd1d0dafbc46191df77935caa39300e849d78f",
        "f8143526c5e076acdea6681907e59e6005915d8cdbdcb8658f35d132926a75d0",
        "43a7647a33bf599e962a1a7b351e0e17fe0dea00bf419a594be97f8c99cf94cf",
    ),
    ("B", 4): (
        "51e39b4b9ed03f87b0fc8c1b829e07ed3e75dc0c6168a948363774a8ca7f8340",
        "d3ce0282ff64d381b5fc6cd499f1d716ba2244e47beb09f1a27f3473f06cacdb",
        "4a883633a9457317ffadd00de660af75504cb11f5db365db4c4a38369ad3413c",
    ),
    ("B", 5): (
        "a874ecb03ec8efc09589715fc6909429c5267bbf812da92d321d6a0eb7c7c6f9",
        "30bfd4c56e89ca9fb399cf2284b227e14a1b2ab3edd6d90b19f6f76122044d8b",
        "316ebda9805e42d82ea53a93aa7f1aac5566126bfdce317ac7b1d34e1304dd20",
    ),
    ("B", 6): (
        "b1ac01f045d6be76591a2ac0e397b55b7aa4b11c32d023059df87423feef8802",
        "07a23ec42ac73250a9528c8d8293eff26bc9c3e1ce4c94c0dad6062c036206ab",
        "9255ec41989a1b3912fdbb09f93f197d66db47da45f2b315908afcc025ef133b",
    ),
    ("B", 7): (
        "c122671813f2d405fa6be80dbd1d4613468905896d312e090a34a490cefba3b7",
        "fbe0d6869de7ab774fbb329b03f0ed84b05ce22868bcbfa62faf7b3b57c28f74",
        "c343cb8dd5c813b81dee2d3ee3e77a73771ba33eb09d87cfebf6b75583d260fc",
    ),
}


@pytest.mark.parametrize(
    ("family", "rank"), sorted(ENUMERATE_SHA256), ids=str
)
def test_enumerate_stdout_is_pinned(runner, family, rank):
    kinds = ("monobrick", "semibrick", "cofinally-closed")
    for kind, digest in zip(kinds, ENUMERATE_SHA256[family, rank]):
        args = ["enumerate", "--algebra", family, "--n", str(rank), "--kind", kind]
        result = invoke(runner, args)
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest, kind


class _WriteLog:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


@given(st.lists(st.tuples(st.integers(0, 40_000), st.integers(0, 500)), max_size=12))
def test_enumerate_writes_pieces_of_one_size(chunks):
    # Writes of varying size fragment the heap of a reader that allocates a
    # buffer per read, so every write but the last has the same size.
    texts = [(str(k % 10) * n, lines) for k, (n, lines) in enumerate(chunks)]
    log = _WriteLog()
    assert cli._write_pieces(log, iter(texts)) == sum(lines for _, lines in texts)
    assert "".join(log.writes) == "".join(text for text, _ in texts)
    assert {len(w) for w in log.writes[:-1]} <= {cli._BYTES_PER_WRITE}
    assert len(log.writes[-1]) < cli._BYTES_PER_WRITE


def test_enumerate_budget_exit_code(runner):
    result = runner.invoke(cli.main, ["enumerate", "--algebra", "B", "--n", "8"])
    assert_refused(result, "rank 8 of CyclicB(8) exceeds enumeration budget 7")


def test_enumerate_env_budget_override(runner):
    result = runner.invoke(
        cli.main,
        ["enumerate", "--algebra", "B", "--n", "3"],
        env={"MONOBRICK_BUDGET_B": "2"},
    )
    assert_refused(result, "rank 3 of CyclicB(3) exceeds enumeration budget 2")
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
    over = "rank 3 of CyclicB(3) exceeds enumeration budget 2"
    assert_refused(runner.invoke(cli.main, command + ["--budget", "2"]), over)
    assert runner.invoke(
        cli.main, command, env={"MONOBRICK_BUDGET_B": "03"}
    ).exit_code == 0
    result = runner.invoke(
        cli.main, ["count", "--algebra", "B", "--n-max", "3", "--budget", "2"]
    )
    assert_refused(result, over)


@pytest.mark.parametrize(
    "raw", ["1_0", " 3", "+3", "\uff13", "3.0", pytest.param("9" * 5000, id="5000-digits")]
)
@pytest.mark.parametrize(
    "command",
    [
        ["enumerate", "--algebra", "A", "--n"],
        ["count", "--algebra", "A", "--n-max"],
        ["count", "--algebra", "A", "--n-max", "3", "--n-min"],
        ["count", "--algebra", "A", "--n-max", "3", "--budget"],
    ],
    ids=["enumerate-n", "count-n-max", "count-n-min", "count-budget"],
)
def test_integer_options_take_ascii_digits_only(runner, command, raw):
    # int() would read the first four as 10, 3, 3 and 3 (a fullwidth digit)
    result = runner.invoke(cli.main, command + [raw])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_no_option_uses_the_plain_int_type():
    # Every option is a flag or goes through one of the three parsers, and
    # the only parser that returns an integer is _Digits.
    def options(command):
        yield from command.options
        for sub in (command.commands or {}).values():
            yield from options(sub)

    found = list(options(cli.main))
    assert {type(o.parse) for o in found} <= {type(None), cli._Digits, cli._Choice, cli._File}
    digits = sorted({o.flags for o in found if isinstance(o.parse, cli._Digits)})
    assert digits == [("--budget",), ("--n",), ("--n-max",), ("--n-min",)]


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


@pytest.mark.parametrize(
    ("args", "code"),
    [
        (["closure"], 2),
        (["enumerate", "--algebra", "A", "--n", "2"], 2),
        (["count", "--algebra", "A", "--n-max", "3"], 2),
        (["oracle", "verify", "--preset", "a2_linear"], 2),
        # An over-budget rank is refused before the file is opened.
        (["enumerate", "--algebra", "A", "--n", "11"], 3),
        (["count", "--algebra", "B", "--n-max", "8"], 3),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else str(value),
)
def test_out_in_a_missing_directory_is_a_usage_error(runner, tmp_path, args, code):
    target = tmp_path / "missing" / "out.txt"
    diagram = '{"n":3,"algebra":"A","arcs":[[1,4]]}'
    result = runner.invoke(cli.main, args + ["--out", str(target)], input=diagram)
    assert result.exit_code == code, result.exception
    assert result.stdout == ""
    if code == 2:
        assert f"cannot write --out {target}" in result.stderr
    assert not target.parent.exists()


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


@pytest.mark.parametrize(("family", "n_max"), [("A", 10), ("B", 7)])
def test_enumerate_count_line_matches_the_cofinally_closed_count(
    runner, family, n_max
):
    # enumerate lists the closed diagrams by a pruned monobrick search; count
    # takes the distinct closures of the semibrick cliques.
    kind = ["--kind", "cofinally-closed"]
    result = invoke(
        runner,
        ["count", "--algebra", family, "--n-max", str(n_max), "--format", "json"]
        + kind,
    )
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert [row["n"] for row in rows] == list(range(1, n_max + 1))
    for row in rows:
        args = ["enumerate", "--algebra", family, "--n", str(row["n"])] + kind
        last = invoke(runner, args).output.splitlines()[-1]
        assert last == '{"count":%d}' % row["enumerated"], row


def test_count_rejects_empty_range(runner):
    result = runner.invoke(
        cli.main, ["count", "--algebra", "A", "--n-max", "1", "--n-min", "3"]
    )
    assert result.exit_code == 2


def test_count_over_budget_exits_before_any_work(runner, tmp_path, monkeypatch):
    # The cap bites at --n-max, so no rank below it may be counted first.
    def refuse(algebra):
        raise AssertionError(f"count built a table for {algebra}")

    # enumerate and count_diagrams import arc_table from search when they run.
    monkeypatch.setattr(search, "arc_table", refuse)
    result = runner.invoke(cli.main, ["count", "--algebra", "A", "--n-max", "11"])
    assert_refused(result, "rank 11 of LinearA(11) exceeds enumeration budget 10")
    target = tmp_path / "table.md"
    target.write_bytes(b"earlier table\n")
    result = runner.invoke(
        cli.main,
        ["count", "--algebra", "B", "--n-max", "8", "--out", str(target)],
    )
    assert_refused(result, "rank 8 of CyclicB(8) exceeds enumeration budget 7")
    assert target.read_bytes() == b"earlier table\n"


def test_count_reports_bad_ranks_before_the_budget(runner):
    result = runner.invoke(
        cli.main, ["count", "--algebra", "B", "--n-min", "0", "--n-max", "99"]
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


CAP = cli.QUERY_RANK_CAP


def _refuse(*args):
    raise AssertionError("an over-cap query reached its work")


def _wide(rank):
    return json.dumps({"n": rank, "algebra": "B", "arcs": [[1, 1]]})


@pytest.mark.parametrize(
    ("command", "work"),
    [
        ("closure", (poset, "cofinal_closure")),
        ("mmax", (poset, "mmax")),
        ("render", (cli, "render_diagram")),
    ],
)
def test_diagram_queries_take_the_cap_and_refuse_one_more(
    runner, monkeypatch, command, work
):
    at_cap = invoke(runner, [command], input=_wide(CAP))
    assert at_cap.exit_code == 0
    assert at_cap.stdout
    monkeypatch.setattr(*work, _refuse)
    over = runner.invoke(cli.main, [command], input=_wide(CAP + 1))
    assert_refused(over, f"rank {CAP + 1} exceeds the query cap {CAP}")


def test_ncl_takes_the_cap_and_refuses_one_more(runner, monkeypatch):
    block = json.dumps({"n": CAP, "blocks": [list(range(1, CAP + 1))]})
    result = invoke(runner, ["ncl"], input=block)
    assert result.exit_code == 0
    assert len(json.loads(result.stdout)["arcs"]) == CAP - 1
    empty = json.dumps({"n": CAP, "algebra": "A", "arcs": []})
    result = invoke(runner, ["ncl"], input=empty)
    assert result.exit_code == 0
    assert len(json.loads(result.stdout)["blocks"]) == CAP + 1

    monkeypatch.setattr(cli, "to_diagram", _refuse)
    monkeypatch.setattr(cli, "from_diagram", _refuse)
    over = json.dumps({"n": CAP + 1, "blocks": [[1]]})
    result = runner.invoke(cli.main, ["ncl"], input=over)
    assert_refused(result, f"ground set size {CAP + 1} exceeds the query cap {CAP}")
    over = json.dumps({"n": CAP + 1, "algebra": "A", "arcs": []})
    result = runner.invoke(cli.main, ["ncl"], input=over)
    assert_refused(result, f"rank {CAP + 1} exceeds the query cap {CAP}")


@pytest.mark.parametrize(
    "payload",
    ["[" * 100_000, '{"n":' + "1" * 5_000 + "}"],
    ids=["deep-nesting", "over-long-integer"],
)
@pytest.mark.parametrize("command", ["closure", "mmax", "render", "ncl"])
def test_unreadable_json_exits_4(runner, command, payload):
    result = runner.invoke(cli.main, [command], input=payload)
    assert result.exit_code == 4, result.exception
    assert "input JSON cannot be read" in result.stderr


@pytest.mark.parametrize("command", ["closure", "mmax", "render", "ncl"])
def test_input_that_is_not_utf8_exits_4(runner, tmp_path, command):
    source = tmp_path / "in.json"
    source.write_bytes(b'\xff\xfe{"n":1}')
    from_file = runner.invoke(cli.main, [command, "--in", str(source)])
    from_stdin = runner.invoke(cli.main, [command], input=source.read_bytes())
    for result in (from_file, from_stdin):
        assert result.exit_code == 4, result.exception
        assert result.stdout == ""
        assert "input is not UTF-8" in result.stderr


# Arc ends and marks stay small; ranks are small or past the query cap, which
# must refuse them before any work.
_SMALL = st.integers(min_value=-2, max_value=12)
_RANKS = _SMALL | st.integers(min_value=CAP + 1, max_value=10**12)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=40)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_DIAGRAMS = st.fixed_dictionaries({
    "n": _RANKS,
    "algebra": st.sampled_from(["A", "B"]),
    "arcs": st.lists(st.lists(_SMALL, min_size=2, max_size=2), max_size=5),
})
_PARTITIONS = st.fixed_dictionaries({
    "n": _RANKS,
    "blocks": st.lists(st.lists(_SMALL, min_size=1, max_size=4), max_size=6),
})
_PAYLOADS = st.fixed_dictionaries(
    {},
    optional={
        "n": _RANKS | _JSON,
        "algebra": st.sampled_from(["A", "B", "C"]) | _JSON,
        "arcs": st.lists(st.lists(_SMALL, max_size=3), max_size=6) | _JSON,
        "blocks": st.lists(st.lists(_SMALL, max_size=4), max_size=5) | _JSON,
    },
)


@pytest.mark.parametrize("command", ["closure", "mmax", "render", "ncl"])
@given(
    stdin=(_DIAGRAMS | _PARTITIONS | _PAYLOADS | _JSON).map(json.dumps)
    | st.text(max_size=12)
)
def test_query_commands_survive_arbitrary_input(command, stdin):
    result = CliRunner().invoke(cli.main, [command], input=stdin)
    assert result.exit_code in (0, 2, 3, 4), (stdin, result.exception)
    assert "Traceback" not in result.output


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


def test_oracle_verify_opens_out_before_any_audit(runner, tmp_path, monkeypatch):
    def refuse(preset, p=2):
        raise AssertionError("an audit ran before --out was opened")

    monkeypatch.setattr(verify, "run_checks", refuse)
    target = tmp_path / "missing" / "x.txt"
    args = ["oracle", "verify", "--preset", "b3", "-p", "5", "--out", str(target)]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 2, result.exception
    assert result.stdout == ""
    assert f"cannot write --out {target}" in result.stderr


def test_oracle_verify_writes_a_failing_audit_to_out(runner, tmp_path, monkeypatch):
    stub = [CheckResult("census", False, "wrong count"), CheckResult("ok", True)]
    monkeypatch.setattr(verify, "run_checks", lambda preset, p=2: stub)
    target = tmp_path / "verdicts.txt"
    args = ["oracle", "verify", "--preset", "nak2", "--out", str(target)]
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert target.read_text() == (
        "FAIL census: wrong count\nPASS ok\n1 of 2 checks passed\n"
    )


def test_cli_import_leaves_the_oracle_stack_unloaded():
    proc = run_module("-c", "import sys, monobrick.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "monobrick.cli" in loaded
    assert "monobrick.verify" not in loaded
    assert "monobrick.oracle" not in loaded


_CORE = {
    "monobrick",
    "monobrick.arcs",
    "monobrick.cli",
    "monobrick.diagrams",
    "monobrick.ncl",
    "monobrick.render",
}
_SEARCH = _CORE | {"monobrick.search"}
_ORACLE = _SEARCH | {
    f"monobrick.{m}" for m in ("poset", "fp", "presets", "oracle", "verify")
}
_JSON = {"json", "json.decoder", "json.encoder", "json.scanner"}


@pytest.mark.parametrize(
    ("args", "layers"),
    [
        (["--version"], _CORE),
        (["enumerate", "--algebra", "A", "--n", "2"], _SEARCH),
        (["count", "--algebra", "B", "--n-max", "2"], _SEARCH),
        (["count", "--algebra", "B", "--n-max", "2", "--format", "json"], _SEARCH | _JSON),
        (["closure", "--hasse"], _CORE | {"monobrick.poset"} | _JSON),
        (["mmax", "--hasse"], _CORE | {"monobrick.poset"} | _JSON),
        (["render"], _CORE | _JSON),
        (["ncl"], _CORE | _JSON),
        (["oracle", "verify", "--preset", "a2_linear"], _ORACLE),
    ],
    ids=[
        "version", "enumerate", "count", "count-json", "closure", "mmax",
        "render", "ncl", "oracle-verify",
    ],
)
def test_commands_load_only_their_layers(args, layers):
    # Only enumerate, count and oracle verify compile the clique-search
    # engine, only oracle verify the matrix oracle, only the commands that
    # parse JSON or encode a payload load json (enumerate writes its lines
    # itself), and no command imports click or dataclasses, which are listed
    # with the package's modules when they are loaded.
    script = (
        "import atexit, sys\n"
        "atexit.register(lambda: print(*sorted(m for m in sys.modules"
        " if m.partition('.')[0] in ('monobrick', 'dataclasses', 'click', 'json')),"
        " file=sys.stderr))\n"
        "from monobrick.cli import main\n"
        "main()\n"
    )
    proc = run_module("-c", script, *args, stdin=CHAIN)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stderr.splitlines()[-1].split()) == layers


def test_cli_and_verify_load_every_traced_module():
    # perfbench/traced_cli.py imports monobrick.cli and monobrick.verify, then
    # patches each TARGETS entry by its module in sys.modules and its
    # attribute path.  A lazier import must not leave a module unloaded, and
    # a deleted or moved name must not go unnoticed: each unresolved entry
    # is printed before the tracer is installed.
    traced = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('traced_cli', {str(traced)!r})\n"
        "traced = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(traced)\n"
        "import monobrick.cli, monobrick.verify\n"
        "for _, module, path, _ in traced.TARGETS:\n"
        "    owner = sys.modules.get('monobrick.' + module)\n"
        "    for part in path.split('.'):\n"
        "        owner = getattr(owner, part, None)\n"
        "    if owner is None:\n"
        "        print(module + '.' + path)\n"
        "traced.Tracer().install()\n"
    )
    proc = run_module("-c", script)
    assert proc.stdout.split() == []
    assert proc.returncode == 0, proc.stderr


def test_preset_choices_are_the_verified_presets():
    assert list(cli._PRESET_CHOICE.choices) == sorted(EXPECTED_COUNTS)


def test_every_preset_builds_at_every_field_size():
    # Only the Nakayama quiver, which the entry gives by naming no arrows,
    # carries the table's algebra as its arc model.
    for name, (algebra, arrows) in monobrick.PRESETS.items():
        for p in monobrick.FIELD_SIZES:
            preset = presets.get_preset(name, p)
            assert (preset.name, preset.p) == (name, p)
            assert preset.arc_algebra == (algebra if arrows is None else None)


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


def _nested(rank, arcs):
    nested = [[i, rank + 2 - i] for i in range(1, arcs + 1)]
    return json.dumps({"n": rank, "algebra": "A", "arcs": nested})


def test_render_takes_a_picture_at_the_cell_cap_and_refuses_a_larger_one(runner):
    # On A1999 a row is 8000 cells: 499 nested arcs and the baseline fill
    # the cap exactly, and one more arc adds a row.
    assert render.CELL_CAP == 500 * 8000
    at_cap = invoke(runner, ["render"], input=_nested(1999, 499))
    assert at_cap.exit_code == 0
    rows = at_cap.stdout.splitlines()
    assert len(rows) == 500 and len(rows[-1]) == 8000
    for rank, arcs, levels in [(1999, 500, 499), (9999, 5000, 98)]:
        over = runner.invoke(cli.main, ["render"], input=_nested(rank, arcs))
        assert_refused(
            over,
            f"picture needs more than {levels} arc levels at its width, "
            f"over the render cap of {render.CELL_CAP} cells",
        )


def test_render_places_many_short_arcs_quickly(runner):
    # 9,999 arcs on A9999 need two levels; first fit used to scan every
    # span already on a level, for seconds of work.
    arcs = [[i, i + 1] for i in range(1, 10000)]
    payload = json.dumps({"n": 9999, "algebra": "A", "arcs": arcs})
    began = time.perf_counter()
    result = invoke(runner, ["render"], input=payload)
    assert time.perf_counter() - began < 1.0
    rows = result.stdout.splitlines()
    assert len(rows) == 3
    assert rows[0].startswith("    .___.   .___.")
    assert rows[1].startswith(".___|   |___|   |___")


def test_render_help_states_the_cell_cap(runner):
    help_text = invoke(runner, ["render", "--help"]).stdout
    assert f"{render.CELL_CAP:,} cells" in help_text


def test_version_flag(runner):
    assert invoke(runner, ["--version"]).exit_code == 0


# -- the other exits: a closed or failing output, an interrupt --------------

_NO_SPACE = os.strerror(errno.ENOSPC)
_NEEDS_DEV_FULL = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full to fail writes"
)
_BUFFERING = pytest.mark.parametrize(
    "unbuffered", ["1", None], ids=["unbuffered", "buffered"]
)


@_BUFFERING
def test_a_closed_pipe_exits_1_quietly(unbuffered):
    args = [sys.executable, "-m", "monobrick.cli", "enumerate", "--algebra", "A", "--n", "9"]
    with subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=module_env(PYTHONUNBUFFERED=unbuffered),
    ) as proc:
        assert proc.stdout.read(5) == b'{"n":'
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_an_interrupt_prints_aborted_and_exits_1(runner, monkeypatch):
    def interrupt(**options):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.closure_command, "callback", interrupt)
    result = runner.invoke(cli.main, ["closure"], input=CHAIN)
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")


def test_the_program_is_named_as_it_was_run():
    proc = run_module("-m", "monobrick.cli", "frobnicate")
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[0] == (
        "Usage: python -m monobrick.cli [OPTIONS] COMMAND [ARGS]..."
    )


@_NEEDS_DEV_FULL
@pytest.mark.parametrize(
    "args",
    [["enumerate", "--algebra", "A", "--n", "3"], ["oracle", "verify", "--preset", "a2_linear"]],
    ids=["enumerate", "oracle-verify"],
)
def test_an_out_file_that_cannot_be_written_exits_2(args):
    # Opening /dev/full succeeds; the write or the close at the end fails.
    proc = run_module("-m", "monobrick.cli", *args, "--out", "/dev/full")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert proc.stderr.startswith("Usage: python -m monobrick.cli ")
    assert proc.stderr.endswith(f"\n\nError: cannot write --out /dev/full: {_NO_SPACE}\n")


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="no /proc/self/mem")
def test_an_in_file_that_cannot_be_read_exits_2():
    # The file opens, but reading at offset 0 of the process memory fails.
    proc = run_module("-m", "monobrick.cli", "closure", "--in", "/proc/self/mem")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("Usage: python -m monobrick.cli closure [OPTIONS]\n")
    assert proc.stderr.endswith(
        f"\n\nError: cannot read --in /proc/self/mem: {os.strerror(errno.EIO)}\n"
    )


@_NEEDS_DEV_FULL
@_BUFFERING
@pytest.mark.parametrize(
    "args",
    [["closure"], ["oracle", "verify", "--preset", "a2_linear"], ["--version"]],
    ids=["closure", "oracle-verify", "version"],
)
def test_a_stdout_that_cannot_be_written_exits_1(args, unbuffered):
    with open("/dev/full", "w") as full:
        proc = run_module(
            "-m", "monobrick.cli", *args, stdin=CHAIN, stdout=full,
            PYTHONUNBUFFERED=unbuffered,
        )
    assert proc.returncode == 1
    assert proc.stderr == f"Error: cannot write stdout: {_NO_SPACE}\n"


@_NEEDS_DEV_FULL
@_BUFFERING
@pytest.mark.parametrize(
    "args,stdin,code",
    [
        (["enumerate", "--algebra", "C", "--n", "2"], None, 2),
        (["enumerate", "--algebra", "B", "--n", "8"], None, 3),
        (["closure"], "{not json", 4),
    ],
    ids=["usage", "budget", "data"],
)
def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(
    args, stdin, code, unbuffered
):
    # The Error: line fails to write, and so would the flush at exit.
    with open("/dev/full", "w") as full:
        proc = run_module(
            "-m", "monobrick.cli", *args, stdin=stdin, stderr=full,
            PYTHONUNBUFFERED=unbuffered,
        )
    assert proc.returncode == code
    assert proc.stdout == ""


# -- the process entry: run() ends by os._exit unless observed -------------

_ENTRY = (
    "import atexit, sys\n"
    "atexit.register(print, 'atexit handler ran')\n"
    "{setup}"
    "from monobrick.cli import run\n"
    "run()\n"
)


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize(
    "args,code",
    [(["--version"], 0), (["enumerate", "--algebra", "C", "--n", "2"], 2)],
    ids=["version", "usage"],
)
def test_run_skips_exit_handlers_unless_traced(args, code, traced):
    # Untraced, the process ends by os._exit and no atexit handler runs.
    # Under a tracer (coverage, a debugger) it ends by sys.exit, so that the
    # tracer can write its report.  The exit code is the same either way.
    setup = "sys.settrace(lambda *event: None)\n" if traced else ""
    proc = run_module("-c", _ENTRY.format(setup=setup), *args)
    assert proc.returncode == code
    assert ("atexit handler ran\n" in proc.stdout) == traced


def test_run_under_cprofile_still_prints_the_profile():
    proc = run_module("-m", "cProfile", "-m", "monobrick.cli", "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("monobrick, version ")
    assert "function calls" in proc.stdout


def test_run_writes_a_regular_file_in_full(runner, tmp_path):
    # Without PYTHONUNBUFFERED, stdout to a file is block-buffered, so the
    # stream's last block is still buffered when the command returns.
    args = ["enumerate", "--algebra", "A", "--n", "7"]
    target = tmp_path / "a7.jsonl"
    with open(target, "w") as fh:
        proc = run_module("-m", "monobrick.cli", *args, stdout=fh, PYTHONUNBUFFERED=None)
    assert proc.returncode == 0, proc.stderr
    assert target.read_bytes() == invoke(runner, args).stdout_bytes


# -- misuse: exit codes and exact stderr -----------------------------------

_GROUP_HELP = """\
Usage: monobrick [OPTIONS] COMMAND [ARGS]...

  Arc diagram enumeration and module-category audits.

Options:
  --version   Show the version and exit.
  -h, --help  Show this message and exit.

Commands:
  closure    Cofinal closure of a monobrick diagram, same JSON schema.
  count      Count diagrams over a rank range and cross-check both closed...
  enumerate  Stream every diagram of one kind as JSON, one object per line.
  mmax       Maximal arcs of a monobrick diagram in the submodule order.
  ncl        Convert a linked partition to its arc diagram, or back.
  oracle     Audits of the exhaustive module-category model.
  render     ASCII picture: marks on a baseline, bracket arcs above it.
"""


def _usage(path):
    return f"Usage: monobrick {path}[OPTIONS]\nTry 'monobrick {path}--help' for help.\n\n"


_MISUSE = [
    ([], None, _GROUP_HELP),
    (["frobnicate"], None,
     "Usage: monobrick [OPTIONS] COMMAND [ARGS]...\n"
     "Try 'monobrick --help' for help.\n\n"
     "Error: No such command 'frobnicate'.\n"),
    (["enumerate", "--algbra", "A", "--n", "3"], None,
     _usage("enumerate ")
     + "Error: No such option '--algbra'. Did you mean '--algebra'?\n"),
    (["enumerate", "--n", "3"], None,
     _usage("enumerate ") + "Error: Missing option '--algebra'. Choose from:\n\tA,\n\tB\n"),
    (["oracle", "verify"], None,
     _usage("oracle verify ") + "Error: Missing option '--preset'. Choose from:\n"
     "\ta2_linear,\n\ta3_linear,\n\ta3_source,\n\tb3,\n\tnak2\n"),
    (["oracle", "verify", "--preset", "b3", "-p", "7"], None,
     _usage("oracle verify ")
     + "Error: Invalid value for '-p' / '--char': '7' is not one of '2', '3', '5'.\n"),
    (["enumerate", "--algebra", "A", "--n", "1_0"], None,
     _usage("enumerate ") + "Error: Invalid value for '--n': must be an integer "
     "of at least 0 in ASCII digits, got '1_0'\n"),
    # Options given are read in command-line order, before the ones left out.
    (["enumerate", "--n", "1_0"], None,
     _usage("enumerate ") + "Error: Invalid value for '--n': must be an integer "
     "of at least 0 in ASCII digits, got '1_0'\n"),
    (["enumerate", "--algebra", "A", "--n"], None,
     "Error: Option '--n' requires an argument.\n"),
    (["closure", "--hasse=1"], None,
     "Error: Option '--hasse' does not take a value.\n"),
    (["closure", "--in", "missing.json"], None,
     _usage("closure ") + "Error: Invalid value for '--in': File 'missing.json' does not exist.\n"),
    (["closure", "--in", "sub"], None,
     _usage("closure ") + "Error: Invalid value for '--in': File 'sub' is a directory.\n"),
    (["count", "--algebra", "A", "--n-max", "2", "--n-min", "3"], None,
     _usage("count ") + "Error: --n-max must be at least --n-min\n"),
    (["enumerate", "--algebra", "B", "--n", "3"], {"MONOBRICK_BUDGET_B": "soon"},
     _usage("enumerate ") + "Error: MONOBRICK_BUDGET_B must be an integer of at "
     "least 1 in ASCII digits, got 'soon'\n"),
    (["enumerate", "--algebra", "A", "--n", "3", "extra"], None,
     _usage("enumerate ") + "Error: Got unexpected extra argument (extra)\n"),
]


@pytest.mark.parametrize(
    ("args", "env", "stderr"), _MISUSE, ids=[" ".join(a) or "no-args" for a, _, _ in _MISUSE]
)
def test_misuse_exits_2_with_pinned_stderr(runner, tmp_path, monkeypatch, args, env, stderr):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    result = runner.invoke(cli.main, args, env=env, prog_name="monobrick", input=CHAIN)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)



@pytest.mark.parametrize(
    ("spelled", "plain"),
    [
        (["count", "--algebra", "B", "--algebra=A", "--n-max=2", "--format", "x",
          "--format", "csv"], ["count", "--algebra", "A", "--n-max", "2", "--format", "csv"]),
        (["oracle", "verify", "-p", "2", "--preset=nak2", "-p3"],
         ["oracle", "verify", "--preset", "nak2", "--char", "3"]),
        (["closure", "--hasse", "--", "--in"], None),
    ],
    ids=["repeats-and-equals", "short-cluster", "double-dash"],
)
def test_option_spellings_follow_click(runner, monkeypatch, spelled, plain):
    # A later repeat wins (before its value is read), "=" attaches a value,
    # "-p3" is "-p 3", and after "--" nothing is an option.
    monkeypatch.setattr(cli, "run_checks", lambda preset, p: [CheckResult(f"{preset} {p}", True)])
    result = runner.invoke(cli.main, spelled, input=CHAIN)
    if plain is None:
        assert result.exit_code == 2
        assert result.stderr.endswith("Error: Got unexpected extra argument (--in)\n")
        return
    assert result.exit_code == 0, result.stderr
    assert result.stdout == invoke(runner, plain, input=CHAIN).stdout


# Commands and option names, real and near misses, and values: small ranks,
# junk, fullwidth digits, empty strings and "--".  Ranks stay at 4 or below
# and the only preset offered is the smallest, so each run is quick.
_COMMANDS = st.sampled_from([
    [], ["enumerate"], ["count"], ["closure"], ["mmax"], ["ncl"], ["render"],
    ["oracle"], ["oracle", "verify"], ["enumerat"], ["Count"], ["oracle", "verfy"],
    ["--"], ["-h"], ["--version"],
])
_OPTION_NAMES = st.sampled_from([
    "--algebra", "--n", "--n-max", "--n-min", "--kind", "--budget", "--format",
    "--in", "--out", "--hasse", "--preset", "-p", "--char", "--help", "-h",
    "--version", "--algbra", "--nmax", "--kindd", "--hase", "--presets", "-x",
    "-hp", "-ph", "--", "-", "---n",
])
_VALUES = (
    st.integers(min_value=0, max_value=4).map(str)
    | st.sampled_from([
        "A", "B", "C", "monobrick", "semibrick", "cofinally-closed", "csv",
        "json", "a2_linear", "nak9", "\uff13", "", "--", "1_0", "+3", " 2",
    ])
    | st.text(max_size=4)
)
_TOKENS = _OPTION_NAMES | _VALUES | st.builds(
    lambda name, value: f"{name}={value}", _OPTION_NAMES, _VALUES
)


@settings(max_examples=150, deadline=None)
@given(command=_COMMANDS, rest=st.lists(_TOKENS, max_size=7))
def test_any_argv_keeps_the_exit_code_contract(command, rest):
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)  # --out and --in values name files in here
        try:
            result = CliRunner().invoke(cli.main, command + rest, input=CHAIN)
        finally:
            os.chdir(here)
    assert result.exit_code in (0, 2, 3, 4), (command + rest, result.exception)
    assert "Traceback" not in result.stderr
    if result.exit_code == 2:
        assert result.stdout == ""
