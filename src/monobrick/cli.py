"""Command line front end.

Subcommands cover enumeration streams, count tables with closed-form and
recurrence cross-checks, cofinal closure and maximal-element queries on
diagrams, conversion between arc diagrams and non-crossing linked
partitions, the bundled module-category audits, and ASCII rendering.

Every run starts a fresh interpreter, which imports (and, without cached
bytecode, compiles) each module it loads, so a module never loaded is
time saved on every call.  The front end is the standard library alone:
each command declares its options once, in a table of ``_Option`` entries,
and ``_parse`` reads them the way click does (``--opt value``,
``--opt=value``, short clusters, ``--``, a later repeat wins), with
click's messages and exit codes.  ``textwrap`` loads only to print help,
``difflib`` only to suggest a near-miss option name.

Every command, ``--version`` included, imports ``arcs``, ``diagrams``,
``ncl`` and ``render`` at start-up.  ``ncl`` and ``render`` serve only
their own commands, but ``perfbench/traced_cli.py`` finds the modules it
patches in ``sys.modules`` after importing this one, so they stay eager
imports.  The rest load on use: the clique-search engine ``search`` in
``enumerate`` and ``count``, ``poset`` in ``closure``, ``mmax`` and
``oracle verify``, and the matrix oracle (``fp``, ``presets``,
``oracle``, ``verify``, which also enumerates through ``search``) in
``oracle verify`` alone.  No command imports click or ``dataclasses``,
``oracle verify`` included: the value types in ``arcs``, ``diagrams`` and
``ncl`` are plain ``__slots__`` classes, and the oracle's records are
``typing.NamedTuple`` classes.

Exit codes are a stable contract: 0 success; 1 a verification suite
reported failures, stdout was closed or failed, or the run was
interrupted; 2 command-line misuse, an unreadable ``--in`` or an
unwritable ``--out``; 3 enumeration budget, query rank cap or render cell
cap exceeded, each a ``diagrams.BudgetExceeded``; 4 mathematically
invalid input data.  ``Command.main`` maps them all, and flushes stdout so
that a failed write is reported there rather than at interpreter exit.  A
stderr that cannot be written changes no exit code: every line there goes
through ``_say``.

A process ends in ``run``, the entry of both the ``monobrick`` script and
``python -m monobrick.cli``.  It runs ``main``, flushes stdout and stderr
with the same mapping (a stdout that fails then exits 1 quietly, a stderr
that fails changes no code), and ends with ``os._exit``, skipping the
interpreter's teardown: freeing module dicts and caches that nothing reads
again took 5 to 16 ms per process, more than many commands' own work.  So
nothing registered with ``atexit`` runs, and anything written at exit,
such as a future ``--stats`` line on stderr, is written by ``run`` before
``os._exit``.  Under a tracer, a profiler or a ``sys.monitoring`` tool
(coverage, cProfile, a debugger), ``run`` ends with ``sys.exit`` instead,
so that their reports are still written.  ``main`` itself, which tests and
``perfbench/traced_cli.py`` call in process, exits normally.
"""

import os
import stat
import sys
from contextlib import contextmanager

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
from monobrick.render import render_diagram


class CliError(Exception):
    """A failure reported as ``Error: <message>`` on stderr."""

    exit_code = 1


class UsageError(CliError):
    """Command-line misuse.  ``usage`` is the usage block printed before the
    message: None until the command it concerns is known, "" for the
    parser's own value errors, which click prints without one."""

    exit_code = 2

    def __init__(self, message: str, usage: str | None = None) -> None:
        super().__init__(message)
        self.usage = usage


class DataError(CliError):
    """Input parsed as JSON but is mathematically invalid."""

    exit_code = 4


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

# Help is laid out for the width click uses when stdout is not a terminal.
_HELP_WIDTH = 78


# -- option parsers: each takes the command-line string and returns the
# -- value, or raises ValueError with the message shown after "Invalid value".

class _Digits:
    """An integer of at least ``minimum`` in ASCII digits only: ``int``
    also takes underscores, signs, spaces and non-ASCII digits."""

    metavar = "INTEGER"

    def __init__(self, minimum: int) -> None:
        self.minimum = minimum

    def __call__(self, value: str) -> int:
        try:
            number = int(value) if value.isascii() and value.isdigit() else -1
        except ValueError:  # more digits than the interpreter converts
            number = -1
        if number < self.minimum:
            message = f"must be an integer of at least {self.minimum} in ASCII digits"
            raise ValueError(f"{message}, got {value!r}")
        return number


class _Choice:
    """One of a fixed list of strings, matched exactly."""

    def __init__(self, choices) -> None:
        self.choices = tuple(choices)
        self.metavar = f"[{'|'.join(self.choices)}]"

    def __call__(self, value: str) -> str:
        if value not in self.choices:
            listed = ", ".join(map(repr, self.choices))
            raise ValueError(f"{value!r} is not one of {listed}.")
        return value

    def missing(self) -> str:
        return "Choose from:\n\t" + ",\n\t".join(self.choices)


class _File:
    """A path that is not a directory.  An input file must exist and be
    readable; an output file, if it exists, must be readable and writable."""

    metavar = "FILE"

    def __init__(self, output: bool) -> None:
        self.output = output

    def __call__(self, value: str) -> str:
        shown = value.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
        try:
            mode = os.stat(value).st_mode
        except (OSError, ValueError):  # ValueError: an embedded NUL
            if self.output:
                return value
            raise ValueError(f"File {shown!r} does not exist.") from None
        if stat.S_ISDIR(mode):
            raise ValueError(f"File {shown!r} is a directory.")
        if not os.access(value, os.R_OK):
            raise ValueError(f"File {shown!r} is not readable.")
        if self.output and not os.access(value, os.W_OK):
            raise ValueError(f"File {shown!r} is not writable.")
        return value


_RANK = _Digits(0)
_BUDGET = _Digits(1)
_KIND_CHOICE = _Choice(sorted(_KINDS))
_FAMILY_CHOICE = _Choice(["A", "B"])
_FORMAT_CHOICE = _Choice(["markdown", "csv", "json"])
_PRESET_CHOICE = _Choice(sorted(PRESET_NAMES))
_FIELD_CHOICE = _Choice([str(p) for p in FIELD_SIZES])


class _Option:
    """One row of a command's option table: the callback argument ``dest``
    it fills, its flags, its parser (None for a flag, which reads True when
    given), its default, whether it is required, and its help."""

    __slots__ = ("dest", "flags", "parse", "default", "required", "help")

    def __init__(self, dest, *flags, parse=None, default=None, required=False,
                 help="") -> None:
        self.dest = dest
        self.flags = flags
        self.parse = parse
        self.default = False if parse is None else default
        self.required = required
        self.help = help

    def hint(self) -> str:
        return " / ".join(f"'{flag}'" for flag in self.flags)

    def help_row(self) -> tuple[str, str]:
        term = ", ".join(self.flags)
        extra = []
        if self.parse is not None:
            term += f" {self.parse.metavar}"
            if self.default is not None:
                extra.append(f"default: {self.default}")
        if self.required:
            extra.append("required")
        text = self.help
        if extra:
            text = f"{text}  [{'; '.join(extra)}]" if text else f"[{'; '.join(extra)}]"
        return term, text


# Eager options: read before every other option, in command-line order.
_HELP = _Option("help", "-h", "--help", help="Show this message and exit.")
_VERSION = _Option("version", "--version", help="Show the version and exit.")


class Command:
    """A command, or with ``commands`` a group of them.  ``callback`` is
    read at call time, so it can be replaced after the command is built."""

    __slots__ = ("name", "callback", "options", "doc", "commands")

    def __init__(self, name, callback, options, doc, commands=None) -> None:
        self.name = name
        self.callback = callback
        self.options = (*options, _HELP)
        self.doc = doc
        self.commands = commands

    def __call__(self) -> None:
        self.main()

    def main(self, args=None, prog_name=None) -> None:
        """Run with ``args`` (default ``sys.argv[1:]``); report a failure on
        stderr and exit with its code."""
        if args is None:
            args = sys.argv[1:]
        if prog_name is None:
            prog_name = _program_name()
        try:
            try:
                _run(self, list(args), prog_name)
            finally:
                sys.stdout.flush()
        except (CliError, BudgetExceeded) as exc:
            if getattr(exc, "usage", ""):
                _say(exc.usage + "\n")
            _say(f"Error: {exc}\n")
            sys.exit(getattr(exc, "exit_code", 3))  # 3 for a work-bound refusal
        except OSError as exc:
            # Only stdout fails here: _sink and _read_json report the other
            # files.  Point it at /dev/null, as the signal module's note on
            # SIGPIPE does, so that the flush at exit is quiet; a closed pipe
            # (the reader went away) is no error worth a message.
            if not isinstance(exc, BrokenPipeError):
                _say(f"Error: cannot write stdout: {exc.strerror}\n")
            _to_devnull(sys.stdout.fileno())
            sys.exit(1)
        except (EOFError, KeyboardInterrupt):
            _say("\nAborted!\n")
            sys.exit(1)

    def command(self, name, *options):
        """Decorator: add the function as command ``name`` of this group."""
        def register(callback):
            command = Command(name, callback, options, callback.__doc__)
            self.commands[name] = command
            return command
        return register


def _say(text: str) -> None:
    """Write ``text`` to stderr.  A stderr that fails cannot change the exit
    code: fd 2 then points at /dev/null, so the flush at exit is quiet."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        _to_devnull(2)


def _to_devnull(fd: int) -> None:
    os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _observed() -> bool:
    """Whether a tracer, profiler or monitoring tool is installed; it may
    write its report at interpreter exit.  cProfile uses ``sys.monitoring``
    from Python 3.12 on, and ``sys.getprofile`` then reads None."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def run() -> None:
    """Run ``main`` as the whole process: flush both streams, then end with
    ``os._exit`` (``sys.exit`` when ``_observed``).  Only ``SystemExit`` is
    caught; any other exception propagates as from ``main``."""
    code = 0
    try:
        main()
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    try:
        sys.stdout.flush()
    except OSError:
        _to_devnull(sys.stdout.fileno())
        code = 1
    _say("")  # flushes stderr
    if _observed():
        sys.exit(code)
    os._exit(code)


def _program_name() -> str:
    """``python -m package.module`` when run as a module, else the base
    name of ``argv[0]``, as click names the program."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    base = os.path.basename(sys.argv[0])
    if not package:
        return base
    name = os.path.splitext(base)[0]
    if name != "__main__":
        package = f"{package}.{name}"
    return f"python -m {package.lstrip('.')}"


def _usage_line(command: Command, path: str) -> str:
    rest = " COMMAND [ARGS]..." if command.commands is not None else ""
    return f"Usage: {path} [OPTIONS]{rest}"


def _run(command: Command, args: list, path: str) -> None:
    if command.commands is not None and not args:
        _say(_help(command, path) + "\n")
        sys.exit(2)
    try:
        values, rest = _parse(command, args, path)
        if command.commands is None:
            if rest:
                s = "s" if len(rest) > 1 else ""
                raise UsageError(f"Got unexpected extra argument{s} ({' '.join(rest)})")
            command.callback(**values)
            return
        if not rest:
            raise UsageError("Missing command.")
        name = rest[0]
        sub = command.commands.get(name)
        if sub is None:
            if name[:1] and not name[:1].isalnum():  # a name after "--" like an option
                _parse(command, rest, path)
            raise UsageError(_no_such("command", name, command.commands))
    except UsageError as exc:
        if exc.usage is None:
            exc.usage = f"{_usage_line(command, path)}\nTry '{path} --help' for help.\n"
        raise
    _run(sub, rest[1:], f"{path} {name}")


def _parse(command: Command, args: list, path: str) -> tuple[dict, list]:
    """Read ``args`` against the command's option table; return the callback
    arguments and the positional arguments.  A group stops at its first
    positional argument, the command name."""
    longs, shorts = {}, {}
    for option in command.options:
        for flag in option.flags:
            (longs if flag[1] == "-" else shorts)[flag] = option
    given = {}  # dest -> the last value given; keys in first-given order
    positional = []
    args = list(args)
    while args:
        arg = args.pop(0)
        if arg == "--":
            break
        if arg[:1] != "-" or len(arg) == 1:
            if command.commands is not None:
                args.insert(0, arg)
                break
            positional.append(arg)
            continue
        name, equals, attached = arg.partition("=")
        if name in longs:
            option = longs[name]
            if option.parse is None:
                if equals:
                    raise UsageError(f"Option {name!r} does not take a value.", "")
                given[option.dest] = True
            else:
                given[option.dest] = attached if equals else _next_value(name, args)
        elif arg[:2] == "--":
            raise UsageError(_no_such("option", name, longs))
        else:  # a cluster of short flags; one that takes a value ends it
            for at in range(1, len(arg)):
                flag = "-" + arg[at]
                option = shorts.get(flag)
                if option is None:
                    raise UsageError(f"No such option {flag!r}.")
                if option.parse is None:
                    given[option.dest] = True
                    continue
                given[option.dest] = arg[at + 1:] or _next_value(flag, args)
                break
    positional += args

    for dest in given:
        if dest == "help":
            sys.stdout.write(_help(command, path) + "\n")
            sys.exit(0)
        if dest == "version":
            sys.stdout.write(f"monobrick, version {__version__}\n")
            sys.exit(0)
    by_dest = {option.dest: option for option in command.options}
    values = {}
    for option in [by_dest[dest] for dest in given] + [
        option for option in command.options if option.dest not in given
    ]:
        if option is _HELP or option is _VERSION:
            continue
        if option.dest in given:
            value = given[option.dest]
            if option.parse is not None:
                try:
                    value = option.parse(value)
                except ValueError as exc:
                    raise UsageError(f"Invalid value for {option.hint()}: {exc}") from None
        elif option.required:
            missing = getattr(option.parse, "missing", None)
            extra = f" {missing()}" if missing else ""
            raise UsageError(f"Missing option {option.hint()}.{extra}")
        else:
            value = option.default
        values[option.dest] = value
    return values, positional


def _next_value(flag: str, args: list) -> str:
    if not args:
        raise UsageError(f"Option {flag!r} requires an argument.", "")
    return args.pop(0)


def _no_such(what: str, name: str, known) -> str:
    """The unknown-name message, with the close matches among ``known``."""
    message = f"No such {what} {name!r}."
    from difflib import get_close_matches

    close = sorted(get_close_matches(name, known))
    if len(close) == 1:
        return f"{message} Did you mean {close[0]!r}?"
    if close:
        return f"{message} (Did you mean one of: {', '.join(map(repr, close))}?)"
    return message


def _help(command: Command, path: str) -> str:
    """The usage line, the description, the option table and, for a group,
    the command list with each command's first line."""
    import re
    import textwrap

    def rows(table):
        first = min(max(len(term) for term, _ in table), 30) + 2
        indent = " " * (first + 2)
        for term, text in table:
            lines = textwrap.wrap(text, max(_HELP_WIDTH - first - 2, 10),
                                  replace_whitespace=False)
            if len(term) <= first - 2:
                yield f"  {term.ljust(first)}{lines[0]}"
            else:
                yield f"  {term}"
                yield indent + lines[0]
            yield from (indent + line for line in lines[1:])

    out = [_usage_line(command, path)]
    for paragraph in re.split(r"\n\s*\n", command.doc.strip()):
        text = " ".join(line.strip() for line in paragraph.splitlines())
        out += ["", textwrap.fill(text, _HELP_WIDTH, initial_indent="  ",
                                  subsequent_indent="  ", replace_whitespace=False)]
    out += ["", "Options:", *rows([option.help_row() for option in command.options])]
    if command.commands is not None:
        names = sorted(command.commands)
        limit = _HELP_WIDTH - 6 - max(map(len, names))
        table = []
        for name in names:
            summary = command.commands[name].doc.strip().split("\n")[0]
            if len(summary) > limit:
                words = summary.split()
                while len(" ".join(words)) + 3 > limit:
                    words.pop()
                summary = " ".join(words) + "..."
            table.append((name, summary))
        out += ["", "Commands:", *rows(table)]
    return "\n".join(out)


main = Command("main", None, (_VERSION,),
               "Arc diagram enumeration and module-category audits.", {})


@contextmanager
def _sink(out_path):
    """stdout, or the ``--out`` file; a failure to open, write or close the
    file is a usage error."""
    if out_path is None:
        yield sys.stdout
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from exc


def _dumps(payload) -> str:
    import json  # on use: only the JSON readers and writers load it

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
        raise UsageError(str(exc)) from exc


def _budget_override(family: str, flag: int | None) -> int | None:
    """--budget, else MONOBRICK_BUDGET_<family>, else None."""
    name = f"MONOBRICK_BUDGET_{family}"
    raw = os.environ.get(name)
    if flag is not None or raw is None:
        return flag
    try:
        return _BUDGET(raw)
    except ValueError as exc:
        raise UsageError(f"{name} {exc}") from exc


def _read_json(in_path):
    import json

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
    except OSError as exc:
        source = "stdin" if in_path is None else f"--in {in_path}"
        raise UsageError(f"cannot read {source}: {exc.strerror}") from exc
    if not isinstance(payload, dict):
        raise DataError("input must be a JSON object")
    return payload


def _cap_query(size: int, what: str) -> None:
    if size > QUERY_RANK_CAP:
        raise BudgetExceeded(f"{what} {size} exceeds the query cap {QUERY_RANK_CAP}")


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


_IN_OPTION = _Option("in_path", "--in", parse=_File(output=False),
                     help="Read the JSON input from a file instead of stdin.")
_OUT_OPTION = _Option("out_path", "--out", parse=_File(output=True),
                      help="Write output to a file instead of stdout.")
_KIND_OPTION = _Option("kind", "--kind", parse=_KIND_CHOICE, default="monobrick")


@main.command(
    "enumerate",
    _Option("family", "--algebra", parse=_FAMILY_CHOICE, required=True,
            help="Arc family: A (linear) or B (cyclic)."),
    _Option("rank", "--n", parse=_RANK, required=True, help="Rank of the family."),
    _KIND_OPTION,
    _Option("budget", "--budget", parse=_BUDGET,
            help="Rank cap override (default 10 for A, 7 for B; also via "
                 "MONOBRICK_BUDGET_A / MONOBRICK_BUDGET_B)."),
    _OUT_OPTION,
)
def enumerate_command(family, rank, kind, budget, out_path):
    """Stream every diagram of one kind as JSON, one object per line.

    The final line is {"count":N}.
    """
    algebra = _make_algebra(family, rank)
    check_budget(algebra, _budget_override(family, budget))
    from monobrick.search import arc_table, json_lines

    table = arc_table(algebra)
    with _sink(out_path) as fh:
        total = _write_pieces(fh, json_lines(table, _KINDS[kind]))
        fh.write(f'{{"count":{total}}}\n')  # as _dumps writes it, without loading json


@main.command(
    "count",
    _Option("family", "--algebra", parse=_FAMILY_CHOICE, required=True),
    _Option("n_max", "--n-max", parse=_RANK, required=True, help="Largest rank to count."),
    _Option("n_min", "--n-min", parse=_RANK, default=1),
    _KIND_OPTION,
    _Option("budget", "--budget", parse=_BUDGET,
            help="Rank cap override, as for enumerate."),
    _Option("fmt", "--format", parse=_FORMAT_CHOICE, default="markdown"),
    _OUT_OPTION,
)
def count_command(family, n_max, n_min, kind, budget, fmt, out_path):
    """Count diagrams over a rank range and cross-check both closed routes.

    The recurrence-ok column rebuilds the monobrick count from a
    recurrence instead of the closed form; for other kinds it prints "-".
    """
    if n_max < n_min:
        raise UsageError("--n-max must be at least --n-min")
    diagram_kind = _KINDS[kind]
    limit = _budget_override(family, budget)
    # Ranks valid at n_min are valid above it, and the cap bites at n_max:
    # refuse the range before counting any rank.
    _make_algebra(family, n_min)
    check_budget(_make_algebra(family, n_max), limit)
    rows = []
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


@main.command(
    "closure",
    _IN_OPTION,
    _Option("hasse", "--hasse", help="Also emit the covering pairs of the result, "
                                     "as [lower, upper] arc pairs."),
    _OUT_OPTION,
)
def closure_command(in_path, hasse, out_path):
    """Cofinal closure of a monobrick diagram, same JSON schema."""
    from monobrick.poset import cofinal_closure

    _poset_query(in_path, hasse, out_path, cofinal_closure)


@main.command(
    "mmax",
    _IN_OPTION,
    _Option("hasse", "--hasse", help="Also emit the covering pairs of the result "
                                     "(an antichain, so always empty)."),
    _OUT_OPTION,
)
def mmax_command(in_path, hasse, out_path):
    """Maximal arcs of a monobrick diagram in the submodule order."""
    from monobrick.poset import mmax

    _poset_query(in_path, hasse, out_path, mmax)


@main.command("ncl", _IN_OPTION, _OUT_OPTION)
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


oracle_group = Command("oracle", None, (),
                       "Audits of the exhaustive module-category model.", {})
main.commands["oracle"] = oracle_group


@oracle_group.command(
    "verify",
    _Option("preset", "--preset", parse=_PRESET_CHOICE, required=True),
    _Option("p", "-p", "--char", parse=_FIELD_CHOICE, default="2",
            help="Field characteristic for the matrix model."),
    _OUT_OPTION,
)
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


@main.command("render", _IN_OPTION, _OUT_OPTION)
def render_command(in_path, out_path):
    """ASCII picture: marks on a baseline, bracket arcs above it.

    Cyclic diagrams are drawn over two copies of the mark circle.  A
    picture of more than 4,000,000 cells (a row per arc level plus the
    baseline, four columns per baseline mark) is refused with exit code 3.
    """
    picture = render_diagram(_diagram_of(_read_json(in_path)))
    with _sink(out_path) as fh:
        fh.write(picture + "\n")


if __name__ == "__main__":
    run()
