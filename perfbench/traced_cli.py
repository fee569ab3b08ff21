"""Run one ``monobrick`` command with spans around the calls into each layer.

Usage: ``python3 perfbench/traced_cli.py SPANS.json ARG...`` runs
``monobrick ARG...`` with the checkout's ``src`` on ``PYTHONPATH`` and writes
the spans to ``SPANS.json`` when the command ends.

The program is not changed.  Before the command runs, every wrapped name is
replaced by a timing wrapper in each ``monobrick`` module that holds it: the
modules import with ``from ... import``, so patching the defining module
alone would miss ``poset.hom_kind`` and the like.  Methods and the
``Diagram`` constructor are patched on their class, click commands on their
callback and the named audits in the ``verify`` registry.  A generator is
timed per ``next()``.

A span's self time is its duration less the time of the spans it caused.
Spans are kept in memory, summed per (parent, name) pair, and written once
at the end; the raw millions of spans of a closure-heavy run would not fit
the memory of a small box.
"""

from __future__ import annotations

import json
import sys
import time

ROOT_SPAN = "<root>"

# (span name, module, attribute path, kind).  "gen" times each next() and
# counts items; "truthy" also counts true results; "distinct" also counts
# distinct values of the first argument after self.
TARGETS = (
    ("arcs.hom_kind", "arcs", "hom_kind", "call"),
    ("arcs.socle_series", "arcs", "socle_series", "call"),
    ("arcs.crossing_kind", "arcs", "crossing_kind", "call"),
    ("arcs.submodule_arcs", "arcs", "submodule_arcs", "call"),
    ("arcs.Algebra.check_arc", "arcs", "Algebra.check_arc", "call"),
    ("diagrams.Diagram", "diagrams", "Diagram.__init__", "call"),
    ("diagrams.crossing_violation", "diagrams", "crossing_violation", "call"),
    ("diagrams.iter_index_cliques", "diagrams", "iter_index_cliques", "gen"),
    ("diagrams.enumerate_diagrams", "diagrams", "enumerate_diagrams", "gen"),
    ("diagrams.diagram_to_json", "diagrams", "diagram_to_json", "call"),
    ("diagrams.diagram_from_json", "diagrams", "diagram_from_json", "call"),
    ("poset.mmax", "poset", "mmax", "call"),
    ("poset.hasse_covers", "poset", "hasse_covers", "call"),
    ("poset.cofinal_closure", "poset", "cofinal_closure", "call"),
    ("poset.is_cofinally_closed", "poset", "is_cofinally_closed", "truthy"),
    ("ncl.from_diagram", "ncl", "from_diagram", "call"),
    ("ncl.to_diagram", "ncl", "to_diagram", "call"),
    ("render.render_diagram", "render", "render_diagram", "call"),
    ("fp.rref", "fp", "rref", "call"),
    ("fp.in_span", "fp", "in_span", "call"),
    ("fp.vec_mat", "fp", "vec_mat", "call"),
    ("fp.subspaces", "fp", "subspaces", "call"),
    ("presets.direct_sum", "presets", "direct_sum", "call"),
    ("oracle.get_oracle", "oracle", "get_oracle", "call"),
    ("oracle.Oracle.subquotients", "oracle", "Oracle.subquotients", "distinct"),
    ("oracle.Oracle.identify", "oracle", "Oracle.identify", "distinct"),
    ("oracle.Oracle.hom_elements", "oracle", "Oracle.hom_elements", "gen"),
    ("oracle.Oracle.filt", "oracle", "Oracle.filt", "call"),
    ("oracle.Oracle.closure_flags", "oracle", "Oracle.closure_flags", "call"),
    ("oracle.Oracle.cofinal_closure", "oracle", "Oracle.cofinal_closure", "call"),
    ("cli.enumerate", "cli", "enumerate_command.callback", "call"),
    ("cli.count", "cli", "count_command.callback", "call"),
    ("cli.query", "cli", "closure_command.callback", "call"),
    ("cli.query", "cli", "mmax_command.callback", "call"),
    ("cli.query", "cli", "ncl_command.callback", "call"),
    ("cli.query", "cli", "render_command.callback", "call"),
    ("cli.oracle_verify", "cli", "oracle_verify.callback", "call"),
)


class Tracer:
    """Span bookkeeping for one process."""

    def __init__(self) -> None:
        self.stack = [ROOT_SPAN]
        self.covered = [0.0]  # time of child spans, per open span
        self.edges: dict[tuple[str, str], list] = {}  # -> [spans, total, self]
        self.calls: dict[str, int] = {}
        self.yielded: dict[str, int] = {}
        self.kept: dict[str, int] = {}
        self.seen: dict[str, set] = {}

    def wrap(self, name: str, fn, kind: str):
        stack, covered, edges, calls = self.stack, self.covered, self.edges, self.calls
        clock = time.perf_counter
        calls.setdefault(name, 0)

        def close(start: float) -> None:
            duration = clock() - start
            stack.pop()
            inner = covered.pop()
            covered[-1] += duration
            key = (stack[-1], name)
            rec = edges.get(key)
            if rec is None:
                rec = edges[key] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - inner

        if kind == "gen":
            yielded = self.yielded
            yielded.setdefault(name, 0)

            def timed(it):
                while True:
                    stack.append(name)
                    covered.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(start)
                    yielded[name] += 1
                    yield item

            def generator(*args, **kwargs):
                calls[name] += 1
                return timed(fn(*args, **kwargs))

            return generator

        kept = self.kept
        count_true = kind == "truthy"
        if count_true:
            kept.setdefault(name, 0)
        seen = self.seen.setdefault(name, set()) if kind == "distinct" else None

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(name)
            covered.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(start)
            if count_true and result:
                kept[name] += 1
            if seen is not None:
                seen.add(args[1])
            return result

        return wrapper

    def install(self) -> None:
        import monobrick.cli  # noqa: F401  (imports every layer)
        from monobrick import verify

        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "monobrick" or n.startswith("monobrick.")
        ]
        for name, module_name, path, kind in TARGETS:
            owner = sys.modules[f"monobrick.{module_name}"]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, kind)
            setattr(owner, attr, wrapped)
            if not parents:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        verify._CHECKS = tuple(
            (audit, self.wrap(f"verify.{audit}", fn, "call"))
            for audit, fn in verify._CHECKS
        )

    def dump(self, path: str) -> None:
        payload = {
            "spans": [
                [parent, name, rec[0], rec[1], rec[2]]
                for (parent, name), rec in sorted(self.edges.items())
            ],
            "calls": self.calls,
            "yielded": self.yielded,
            "kept": self.kept,
            "distinct": {name: len(values) for name, values in self.seen.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from monobrick import cli

    code = 0
    try:
        cli.main.main(args=args, prog_name="monobrick")
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
