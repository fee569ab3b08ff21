"""Command line front end.

Subcommands cover enumeration streams, count tables with closed-form and
recurrence cross-checks, cofinal closure and maximal-element queries on
diagrams, conversion between arc diagrams and non-crossing linked
partitions, the bundled module-category audits, and ASCII rendering.

Every run starts a fresh interpreter, which imports (and, without cached
bytecode, compiles) each module it loads, so a module never loaded is
time saved on every call.  Every command, ``--version`` included,
imports ``arcs``, ``diagrams``, ``ncl`` and ``render`` at start-up.
``ncl`` and ``render`` serve only their own commands, but
``perfbench/traced_cli.py`` finds the modules it patches in
``sys.modules`` after importing this one, so they stay eager imports.
The rest load on use: the clique-search engine ``search`` in
``enumerate`` and ``count``, ``poset`` in ``closure``, ``mmax`` and
``oracle verify``, and the matrix oracle (``fp``, ``presets``,
``oracle``, ``verify``, which also enumerates through ``search``) in
``oracle verify`` alone.  No command's start-up imports
``dataclasses``: the value types in ``arcs``, ``diagrams`` and ``ncl``
are plain ``__slots__`` classes.

Exit codes are a stable contract: 0 success, 1 a verification suite
reported failures, 2 command-line misuse, 3 enumeration budget, query
rank cap or render cell cap exceeded, 4 mathematically invalid input data.
"""

import json
import os
import sys
from contextlib import contextmanager

import click

from monobrick import FIELD_SIZES, PRESET_NAMES, __version__
from monobrick.arcs import Algebra
from monobrick.diagrams import (
    BudgetExceeded,
    Diagram,
    DiagramKind,
    check_budget,
    count_closed_form,
    count_diagrams,
    crossing_violation,
    cyclic_count_from_recurrence,
    diagram_from_json,
    diagram_to_json,
    linear_count_from_recurrence,
)
from monobrick.ncl import (
    from_diagram,
    partition_from_json,
    partition_to_json,
    to_diagram,
)
from monobrick.render import PictureTooLarge, render_diagram


class DataError(click.ClickException):
    """Input parsed as JSON but is mathematically invalid."""

    exit_code = 4


class BudgetError(click.ClickException):
    """Requested rank exceeds the enumeration budget."""

    exit_code = 3


_KINDS = {
    "monobrick": DiagramKind.MONOBRICK,
    "semibrick": DiagramKind.SEMIBRICK,
    "cofinally-closed": DiagramKind.COFINALLY_CLOSED,
}

# closure, mmax, render and ncl refuse a diagram of higher rank, or a
# partition of a larger ground set, before any work: their work and output
# grow linearly with the rank.
QUERY_RANK_CAP = 10_000

# enumerate writes its stream in pieces of exactly this many bytes, the
# last one excepted.  Unbuffered stdout (PYTHONUNBUFFERED, python -u) would
# otherwise make every line a system call, larger pieces only raise peak
# memory, and pieces of varying size fragment the heap of a reader that
# allocates a buffer per read: reading 20 A9 streams written 17 to 35 KB
# at a time grew such a reader from 18 to 25 MB, and at 16 KB by 0.2 MB.
_BYTES_PER_WRITE = 1 << 14

_KIND_CHOICE = click.Choice(sorted(_KINDS))
_FAMILY_CHOICE = click.Choice(["A", "B"])
_PRESET_CHOICE = click.Choice(sorted(PRESET_NAMES))
_FIELD_CHOICE = click.Choice([str(p) for p in FIELD_SIZES])


@contextmanager
def _sink(out_path):
    if out_path is None:
        yield sys.stdout
        return
    try:
        fh = open(out_path, "w", encoding="utf-8")
    except OSError as exc:
        message = f"cannot write --out {out_path}: {exc.strerror}"
        raise click.UsageError(message) from exc
    with fh:
        yield fh


def _dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _write_pieces(fh, chunks) -> int:
    """Write the text of ``(text, lines)`` chunks in ``_BYTES_PER_WRITE``
    pieces (the text is ASCII); return the number of lines."""
    total = size = 0
    pending = []
    for text, lines in chunks:
        total += lines
        pending.append(text)
        size += len(text)
        if size >= _BYTES_PER_WRITE:
            data = "".join(pending)
            cut = size - size % _BYTES_PER_WRITE
            for start in range(0, cut, _BYTES_PER_WRITE):
                fh.write(data[start : start + _BYTES_PER_WRITE])
            pending = [data[cut:]]
            size -= cut
    fh.write("".join(pending))
    return total


def _make_algebra(family: str, n: int) -> Algebra:
    try:
        return Algebra(family, n)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


class _Digits(click.ParamType):
    """An integer of at least ``minimum`` in ASCII digits only: click's ``int``
    type also takes underscores, signs, spaces and non-ASCII digits."""

    name = "integer"

    def __init__(self, minimum: int) -> None:
        self.minimum = minimum

    def convert(self, value, param, ctx):
        if isinstance(value, int):  # a default
            return value
        try:
            number = int(value) if value.isascii() and value.isdigit() else -1
        except ValueError:  # more digits than the interpreter converts
            number = -1
        if number < self.minimum:
            message = f"must be an integer of at least {self.minimum} in ASCII digits"
            self.fail(f"{message}, got {value!r}", param, ctx)
        return number


_RANK = _Digits(0)
_BUDGET = _Digits(1)


def _budget_override(family: str, flag: int | None) -> int | None:
    """--budget, else MONOBRICK_BUDGET_<family>, else None."""
    name = f"MONOBRICK_BUDGET_{family}"
    raw = os.environ.get(name)
    if flag is not None or raw is None:
        return flag
    try:
        return _BUDGET.convert(raw, None, None)
    except click.BadParameter as exc:
        raise click.UsageError(f"{name} {exc.message}") from exc


def _read_json(in_path):
    try:
        if in_path is None:
            text = sys.stdin.read()
        else:
            with open(in_path, encoding="utf-8") as fh:
                text = fh.read()
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"input is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"input is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # over-long integers, deep nesting
        raise DataError(f"input JSON cannot be read: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("input must be a JSON object")
    return payload


def _cap_query(size: int, what: str) -> None:
    if size > QUERY_RANK_CAP:
        raise BudgetError(f"{what} {size} exceeds the query cap {QUERY_RANK_CAP}")


def _diagram_of(payload) -> Diagram:
    try:
        diagram = diagram_from_json(payload)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    _cap_query(diagram.algebra.rank, "rank")
    return diagram


def _require_monobrick(diagram: Diagram) -> None:
    bad = crossing_violation(diagram, DiagramKind.MONOBRICK)
    if bad is not None:
        a, b, crossing = bad
        raise DataError(
            f"not a monobrick diagram: arcs ({a.start},{a.end}) and "
            f"({b.start},{b.end}) form a {crossing.value} pair"
        )


_IN_OPTION = click.option(
    "--in",
    "in_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Read the JSON input from a file instead of stdin.",
)
_OUT_OPTION = click.option(
    "--out",
    "out_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write output to a file instead of stdout.",
)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(__version__, prog_name="monobrick")
def main() -> None:
    """Arc diagram enumeration and module-category audits."""


@main.command("enumerate")
@click.option("--algebra", "family", type=_FAMILY_CHOICE, required=True,
              help="Arc family: A (linear) or B (cyclic).")
@click.option("--n", "rank", type=_RANK, required=True, help="Rank of the family.")
@click.option("--kind", type=_KIND_CHOICE, default="monobrick", show_default=True)
@click.option("--budget", type=_BUDGET, default=None,
              help="Rank cap override (default 10 for A, 7 for B; also via "
                   "MONOBRICK_BUDGET_A / MONOBRICK_BUDGET_B).")
@_OUT_OPTION
def enumerate_command(family, rank, kind, budget, out_path):
    """Stream every diagram of one kind as JSON, one object per line.

    The final line is {"count":N}.
    """
    algebra = _make_algebra(family, rank)
    try:
        check_budget(algebra, _budget_override(family, budget))
    except BudgetExceeded as exc:
        raise BudgetError(str(exc)) from exc
    from monobrick.search import arc_table, json_lines

    table = arc_table(algebra)
    with _sink(out_path) as fh:
        total = _write_pieces(fh, json_lines(table, _KINDS[kind]))
        fh.write(_dumps({"count": total}) + "\n")


@main.command("count")
@click.option("--algebra", "family", type=_FAMILY_CHOICE, required=True)
@click.option("--n-max", type=_RANK, required=True, help="Largest rank to count.")
@click.option("--n-min", type=_RANK, default=1, show_default=True)
@click.option("--kind", type=_KIND_CHOICE, default="monobrick", show_default=True)
@click.option("--budget", type=_BUDGET, default=None,
              help="Rank cap override, as for enumerate.")
@click.option("--format", "fmt", type=click.Choice(["markdown", "csv", "json"]),
              default="markdown", show_default=True)
@_OUT_OPTION
def count_command(family, n_max, n_min, kind, budget, fmt, out_path):
    """Count diagrams over a rank range and cross-check both closed routes.

    The recurrence-ok column rebuilds the monobrick count from a
    recurrence instead of the closed form; for other kinds it prints "-".
    """
    if n_max < n_min:
        raise click.UsageError("--n-max must be at least --n-min")
    diagram_kind = _KINDS[kind]
    limit = _budget_override(family, budget)
    # Ranks valid at n_min are valid above it, and the cap bites at n_max:
    # refuse the range before counting any rank.
    _make_algebra(family, n_min)
    rows = []
    try:
        check_budget(_make_algebra(family, n_max), limit)
        for rank in range(n_min, n_max + 1):
            algebra = _make_algebra(family, rank)
            enumerated = count_diagrams(algebra, diagram_kind, limit)
            closed = count_closed_form(algebra, diagram_kind)
            if diagram_kind is DiagramKind.MONOBRICK:
                second = (
                    linear_count_from_recurrence(rank)
                    if family == "A"
                    else cyclic_count_from_recurrence(rank)
                )
                recurrence_ok = second == enumerated
            else:
                recurrence_ok = None
            rows.append((rank, enumerated, closed, recurrence_ok))
    except BudgetExceeded as exc:
        raise BudgetError(str(exc)) from exc

    with _sink(out_path) as fh:
        if fmt == "json":
            keys = ("n", "enumerated", "closed_form", "recurrence_ok")
            fh.writelines(_dumps(dict(zip(keys, row))) + "\n" for row in rows)
            return
        flags = {None: "-", True: "true", False: "false"}
        table = [["n", "enumerated", "closed-form", "recurrence-ok"]]
        if fmt == "markdown":
            table.append(["---"] * 4)
        table += [[str(r), str(e), str(c), flags[ok]] for r, e, c, ok in rows]
        for cells in table:
            line = ",".join(cells) if fmt == "csv" else f"| {' | '.join(cells)} |"
            fh.write(line + "\n")


def _hasse_payload(diagram: Diagram) -> list:
    from monobrick.poset import hasse_covers

    pairs = sorted(
        hasse_covers(diagram),
        key=lambda pair: (tuple(pair[0]), tuple(pair[1])),
    )
    return [[[a.start, a.end], [b.start, b.end]] for a, b in pairs]


def _poset_query(in_path, with_hasse, out_path, operation) -> None:
    diagram = _diagram_of(_read_json(in_path))
    _require_monobrick(diagram)
    result = operation(diagram)
    payload = diagram_to_json(result)
    if with_hasse:
        payload["hasse"] = _hasse_payload(result)
    with _sink(out_path) as fh:
        fh.write(_dumps(payload) + "\n")


@main.command("closure")
@_IN_OPTION
@click.option("--hasse", is_flag=True,
              help="Also emit the covering pairs of the result, as "
                   "[lower, upper] arc pairs.")
@_OUT_OPTION
def closure_command(in_path, hasse, out_path):
    """Cofinal closure of a monobrick diagram, same JSON schema."""
    from monobrick.poset import cofinal_closure

    _poset_query(in_path, hasse, out_path, cofinal_closure)


@main.command("mmax")
@_IN_OPTION
@click.option("--hasse", is_flag=True,
              help="Also emit the covering pairs of the result (an "
                   "antichain, so always empty).")
@_OUT_OPTION
def mmax_command(in_path, hasse, out_path):
    """Maximal arcs of a monobrick diagram in the submodule order."""
    from monobrick.poset import mmax

    _poset_query(in_path, hasse, out_path, mmax)


@main.command("ncl")
@_IN_OPTION
@_OUT_OPTION
def ncl_command(in_path, out_path):
    """Convert a linked partition to its arc diagram, or back.

    The direction is detected from the input: an object with "blocks" is
    a partition, one with "arcs" is a diagram.
    """
    payload = _read_json(in_path)
    has_blocks = "blocks" in payload
    has_arcs = "arcs" in payload
    if has_blocks == has_arcs:
        raise DataError('input must carry exactly one of "blocks" or "arcs"')
    try:
        if has_blocks:
            partition = partition_from_json(payload)
            _cap_query(partition.n, "ground set size")
            result = diagram_to_json(to_diagram(partition))
        else:
            result = partition_to_json(from_diagram(_diagram_of(payload)))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    with _sink(out_path) as fh:
        fh.write(_dumps(result) + "\n")


def run_checks(preset: str, p: int):
    from monobrick.verify import run_checks  # only oracle verify loads the oracle
    return run_checks(preset, p)


@main.group("oracle")
def oracle_group() -> None:
    """Audits of the exhaustive module-category model."""


@oracle_group.command("verify")
@click.option("--preset", type=_PRESET_CHOICE, required=True)
@click.option("-p", "--char", "p", type=_FIELD_CHOICE, default="2",
              show_default=True, help="Field characteristic for the matrix model.")
@_OUT_OPTION
def oracle_verify(preset, p, out_path):
    """Run every applicable audit for one bundled preset.

    One PASS/FAIL line per check, a summary line, exit 0 iff all pass.
    """
    # The sink opens first, so an unwritable --out fails before the audits.
    with _sink(out_path) as fh:
        results = run_checks(preset, p=int(p))
        passed = sum(1 for result in results if result.passed)
        for result in results:
            line = f"{'PASS' if result.passed else 'FAIL'} {result.name}"
            if not result.passed and result.detail:
                line += f": {result.detail}"
            fh.write(line + "\n")
        fh.write(f"{passed} of {len(results)} checks passed\n")
    if passed != len(results):
        sys.exit(1)


@main.command("render")
@_IN_OPTION
@_OUT_OPTION
def render_command(in_path, out_path):
    """ASCII picture: marks on a baseline, bracket arcs above it.

    Cyclic diagrams are drawn over two copies of the mark circle.  A
    picture of more than 4,000,000 cells (a row per arc level plus the
    baseline, four columns per baseline mark) is refused with exit code 3.
    """
    diagram = _diagram_of(_read_json(in_path))
    try:
        picture = render_diagram(diagram)
    except PictureTooLarge as exc:
        raise BudgetError(str(exc)) from exc
    with _sink(out_path) as fh:
        fh.write(picture + "\n")


if __name__ == "__main__":
    main()
