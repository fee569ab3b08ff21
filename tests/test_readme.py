"""The command examples in README.md print what the README says they print.

An example is a ``$ monobrick ...`` line inside a fenced block, optionally
after ``echo '<json>' |``; the lines under it, up to the end of the block or
the next example, are its expected stdout.
"""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from monobrick import cli

README = Path(__file__).resolve().parents[1] / "README.md"

_EXAMPLE = re.compile(r"\$ (?:echo '(?P<stdin>[^']*)' \| )?monobrick (?P<args>.*)")


def readme_examples():
    """(stdin, args, expected stdout lines) of every example, in README order."""
    examples = []
    expected = None  # the output lines of the example being read, if any
    for line in README.read_text(encoding="utf-8").splitlines():
        found = _EXAMPLE.fullmatch(line)
        if found:
            stdin = found["stdin"] and found["stdin"] + "\n"
            expected = []
            examples.append((stdin, shlex.split(found["args"]), expected))
        elif line.startswith("```"):
            expected = None
        elif expected is not None:
            expected.append(line)
    return examples


def test_readme_examples_are_found():
    commands = [" ".join(args[:2]) for _, args, _ in readme_examples()]
    assert commands == [
        "closure --hasse",
        "ncl",
        "oracle verify",
        "render",
    ]


@pytest.mark.parametrize(
    ("stdin", "args", "expected"),
    [pytest.param(*example, id=example[1][0]) for example in readme_examples()],
)
def test_readme_example_prints_its_output(stdin, args, expected):
    result = CliRunner().invoke(cli.main, args, input=stdin, catch_exceptions=False)
    assert result.exit_code == 0
    assert result.stdout.splitlines() == expected
