"""End-to-end and per-layer benchmark of the ``monobrick`` command line.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job is a real ``python -m
monobrick.cli`` process with the checkout's ``src`` first on
``PYTHONPATH``; the harness refuses to run when ``monobrick`` would be
imported from anywhere else.  Load is closed-loop with one client: one job
at a time, the next one starts when the previous one has exited.

Workloads (see ``WORKLOADS``):

* ``arc-stream``: large ``enumerate`` streams and a ``count`` table, where
  time goes to building diagrams, JSON encoding and writing.  The closure
  filter is never called, so this is the bypass workload for closure work.
* ``arc-closed``: ``enumerate --kind cofinally-closed``, dominated by the
  closure filter, with little output: the bypass workload for encoding.
* ``oracle-audit``: ``oracle verify -p 3`` on every preset, dominated by
  subquotient tables, with the arc layer barely touched.
* ``arc-queries``: 100 seeded single-diagram queries (``closure --hasse``,
  ``mmax --hasse``, ``render``, ``ncl`` both ways) at ranks 20 to 150.
  Interpreter start-up sets the median and large ranks set the tail, so any
  per-algebra precompute shows here.

A pass runs every job of the workload once, in an order shuffled by the
seed.  The first pass always runs whole, and ten fresh ``--version``
interpreters (set-up probes) are timed between its jobs.  For every two
seconds of jobs, the fixed stdlib-only ``reference.py`` is timed in a fresh
interpreter before the next job (a reference probe).  After the first pass,
passes go on job by job: a job runs when its own last time says it ends
within ``--seconds``, and is skipped otherwise, so a run measures for
nearly all of its time even when a pass is long, and the smaller jobs fill
the end.  Each fixed job's stdout is hashed as it streams and compared with
the sha256 pinned in ``digests.json`` (taken when the benchmark was
defined; a faster program must keep stdout byte-identical); each query's
answer is compared with the one ``queries.py`` derives without the program.
A wrong exit code, digest or answer fails the job, and the pass goes on.
Jobs run with ``PYTHONHASHSEED=0`` so that per-layer counts repeat exactly.

End-to-end metrics (``--trace 0``) are built from each job's mean over
the run, so they do not depend on how many times a job ran, and are given
at the reference host speed: every time is multiplied, and ``items_per_s``
divided, by ``REFERENCE_S`` over the mean reference probe of the run.  The
shared host's speed drifts by up to a fifth over minutes, and the reference
probe drifts with the jobs, so the scaled times spread less from run to
run; a change to ``monobrick`` cannot move the reference.  The unscaled
values are printed beside them and kept in the full record.  ``wall_s`` is
the sum of the jobs' mean wall times, the time of one typical pass;
``cpu_s`` the same sum of user plus system time, from each child's own
``wait4`` rusage; ``items_per_s`` a pass's result records (diagram lines,
count rows, audit checks, answered queries) over ``wall_s``;
``peak_rss_mb`` the largest median peak RSS of a job.  ``query_p50_s`` and
``query_p90_s`` are percentiles of the jobs' mean latencies (the queries,
on ``arc-queries``), and ``setup_s`` the median of the run's set-up probes.

With ``--trace 1`` the harness runs one plain pass and then one pass of the
same jobs through ``traced_cli.py``, and reports per-layer counts and self
times from the traced pass, and the ratio of the two pass times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give every
metric by name and unit, with sample counts; the full record (samples,
spans, commit, Python and click versions, ``nproc``, seed) is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import queries

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

SETUP_PROBES = 10
REFERENCE = BENCH / "reference.py"
# Median time of reference.py on the 2-vCPU Xeon VM the benchmark was
# defined on.  Times are reported at that speed: each is scaled by
# REFERENCE_S over the mean reference time of its own run.
REFERENCE_S = 0.24
REFERENCE_EVERY_S = 2.0
PRESETS = ("a2_linear", "a3_linear", "a3_source", "nak2", "b3")

WORKLOADS = {
    "arc-stream": [
        ["enumerate", "--algebra", "A", "--n", "9"],
        ["enumerate", "--algebra", "B", "--n", "7"],
        ["enumerate", "--algebra", "A", "--n", "10", "--kind", "semibrick"],
        ["count", "--algebra", "A", "--n-max", "9", "--format", "json"],
    ],
    "arc-closed": [
        ["enumerate", "--algebra", "A", "--n", "8", "--kind", "cofinally-closed"],
        ["enumerate", "--algebra", "B", "--n", "7", "--kind", "cofinally-closed"],
    ],
    "oracle-audit": [
        ["oracle", "verify", "--preset", preset, "-p", "3"] for preset in PRESETS
    ],
    "arc-queries": None,  # seeded, from queries.make_queries
}

# A tiny configuration of every workload for the benchmark's own tests.
SMOKE = {
    "arc-stream": [
        ["enumerate", "--algebra", "A", "--n", "3"],
        ["count", "--algebra", "B", "--n-max", "3", "--format", "json"],
    ],
    "arc-closed": [
        ["enumerate", "--algebra", "B", "--n", "3", "--kind", "cofinally-closed"],
    ],
    "oracle-audit": [["oracle", "verify", "--preset", "a2_linear", "-p", "2"]],
    "arc-queries": None,
}
SMOKE_ROUNDS = 1

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

AUDITS = (
    "universe-size", "identification", "census", "arc-agreement",
    "closure-table", "structural-identities", "left-schur-closure",
)
PER_LAYER = (
    "arcs.hom_kind.calls", "arcs.hom_kind.self_s",
    "arcs.socle_series.calls", "arcs.socle_series.self_s",
    "arcs.Algebra.check_arc.calls",
    "arcs.crossing_kind.calls", "arcs.crossing_kind.self_s",
    "diagrams.Diagram.calls", "diagrams.Diagram.self_s",
    "diagrams.diagram_to_json.calls", "diagrams.diagram_to_json.self_s",
    "cli.enumerate.self_s", "cli.write.bytes",
    "diagrams.enumerate_diagrams.self_s", "diagrams.enumerate_diagrams.yielded",
    "diagrams.iter_index_cliques.yielded",
    "poset.is_cofinally_closed.calls", "poset.is_cofinally_closed.keep_ratio",
    "poset.cofinal_closure.calls", "poset.cofinal_closure.self_s",
    "poset.mmax.self_s", "poset.hasse_covers.self_s",
    "diagrams.diagram_from_json.self_s", "diagrams.crossing_violation.self_s",
    "ncl.from_diagram.self_s", "ncl.to_diagram.self_s",
    "render.render_diagram.self_s", "cli.query.self_s",
    "oracle.get_oracle.self_s",
    "oracle.Oracle.subquotients.calls", "oracle.Oracle.subquotients.self_s",
    "oracle.Oracle.subquotients.built",
    "oracle.Oracle.identify.calls", "oracle.Oracle.identify.self_s",
    "oracle.Oracle.identify.distinct",
    "oracle.Oracle.hom_elements.calls", "oracle.Oracle.hom_elements.self_s",
    "oracle.Oracle.filt.self_s", "oracle.Oracle.closure_flags.self_s",
    "oracle.Oracle.cofinal_closure.self_s",
    *(f"verify.{audit}.total_s" for audit in AUDITS),
    "fp.rref.calls", "fp.rref.self_s", "fp.in_span.calls", "fp.vec_mat.calls",
    "fp.subspaces.self_s",
    "presets.direct_sum.calls", "presets.direct_sum.self_s",
    "trace.overhead_ratio",
)
UNITS = {
    "calls": "count", "yielded": "count", "built": "count", "distinct": "count",
    "self_s": "s", "total_s": "s", "keep_ratio": "ratio",
    "overhead_ratio": "ratio", "bytes": "bytes",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked."""


@dataclass
class Job:
    """One CLI invocation and how its stdout is judged."""

    args: list[str]
    stdin: bytes = b""
    digest: str | None = None  # pinned sha256 of stdout
    query: dict | None = None  # expected answer, for seeded queries

    def records(self, newlines: int) -> int:
        """Result records in the output: diagram lines, count rows, audit
        checks, or one answered query.  ``enumerate`` and ``oracle verify``
        end with a trailer line that is not a record."""
        if self.query is not None:
            return 1
        if self.args[0] in ("enumerate", "oracle"):
            return newlines - 1
        return newlines


@dataclass
class JobResult:
    index: int  # of the job in the workload's list
    job: Job
    wall_s: float
    cpu_s: float
    rss_mb: float
    bytes: int
    records: int
    error: str | None


@dataclass
class Pass:
    wall_s: float
    results: list[JobResult]
    spans: dict | None = None


@dataclass
class Probes:
    """The set-up and reference probes of one run, in seconds."""

    setup_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    # perf_counter time from which reference probes are due
    reference_due: float = field(default_factory=time.perf_counter)

    def scale(self) -> float:
        """Factor that turns this run's times into times at the reference
        host speed.  The mean, not the median: a probe finds the host in a
        fast or a slow phase, and a median of a few probes jumps between
        the two where the mean follows their mix, as the jobs' times do."""
        return REFERENCE_S / statistics.mean(self.reference_s)


def job_key(args: list[str]) -> str:
    return " ".join(args)


def child_env() -> dict[str, str]:
    """Environment of every job: this checkout's ``src`` first on the path,
    no rank-budget overrides, and a fixed hash seed so per-layer counts
    repeat exactly from run to run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MONOBRICK_")}
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def probe_checkout(env: dict[str, str]) -> dict:
    """Check that jobs import ``monobrick`` from this checkout; describe it."""
    if not (SRC / "monobrick" / "cli.py").is_file():
        raise SetupError(f"no monobrick sources under {SRC}")
    code = (
        "import json, sys, importlib.metadata, monobrick.cli;"
        "print(json.dumps({'file': monobrick.__file__, 'python': sys.version.split()[0],"
        " 'click': importlib.metadata.version('click')}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    if done.returncode != 0:
        raise SetupError(f"cannot import monobrick: {done.stderr.decode()[-500:]}")
    info = json.loads(done.stdout)
    module = Path(info["file"]).resolve()
    if SRC.resolve() not in module.parents:
        raise SetupError(f"monobrick imports from {module}, not from {SRC}")
    digest = hashlib.sha256()
    for path in sorted((SRC / "monobrick").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    info["commit"] = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=60,
        )
        if rev.returncode == 0:
            info["commit"] = rev.stdout.decode().strip()
    info["nproc"] = os.cpu_count()
    return info


def make_jobs(workload: str, seed: int, smoke: bool = False,
              digests: dict[str, str] | None = None) -> list[Job]:
    table = SMOKE if smoke else WORKLOADS
    if workload not in table:
        raise SetupError(f"unknown workload {workload!r}")
    if table[workload] is None:
        rounds = SMOKE_ROUNDS if smoke else queries.ROUNDS
        return [
            Job(q["args"], stdin=q["stdin"], query=q)
            for q in queries.make_queries(seed, rounds)
        ]
    if digests is None:
        digests = json.loads(DIGESTS.read_text())
    jobs = []
    for args in table[workload]:
        if job_key(args) not in digests:
            raise SetupError(f"no pinned digest for {job_key(args)!r}")
        jobs.append(Job(args, digest=digests[job_key(args)]))
    return jobs


def run_job(index: int, job: Job, env: dict[str, str],
            spans_path: Path | None = None) -> JobResult:
    """Run one job; stdout is hashed and counted as it streams, never kept
    whole (a query's answer is small and is kept for its check)."""
    if spans_path is None:
        command = [sys.executable, "-m", "monobrick.cli", *job.args]
    else:
        command = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *job.args]
    digest = hashlib.sha256()
    size = newlines = 0
    kept = []
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        try:
            proc.stdin.write(job.stdin)
            proc.stdin.close()
        except BrokenPipeError:  # the job exited without reading; judged below
            pass
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            digest.update(chunk)
            size += len(chunk)
            newlines += chunk.count(b"\n")
            if job.query is not None:
                kept.append(chunk)
    finally:
        proc.stdout.close()
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would carry
        # the peak RSS of every earlier job.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    error = None
    if proc.returncode != 0:
        error = f"exit code {proc.returncode}"
    elif job.digest is not None and digest.hexdigest() != job.digest:
        error = f"stdout sha256 {digest.hexdigest()} is not the pinned {job.digest}"
    elif job.query is not None:
        error = queries.check_answer(job.query, b"".join(kept))
    return JobResult(
        index, job, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
        size, job.records(newlines), error,
    )


def time_probe(command: list[str], env: dict[str, str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of one short probe process.  It is waited for without a
    timeout: ``subprocess`` then blocks in ``waitpid``, where a timeout
    would poll every 50 ms and round a probe of a few tenths of a second to
    the poll."""
    start = time.perf_counter()
    done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE)
    return time.perf_counter() - start, done


def time_setup(env: dict[str, str]) -> float:
    wall, done = time_probe([sys.executable, "-m", "monobrick.cli", "--version"], env)
    if done.returncode != 0 or b"version" not in done.stdout:
        raise SetupError("monobrick --version failed")
    return wall


def time_reference(env: dict[str, str]) -> float:
    wall, done = time_probe([sys.executable, str(REFERENCE)], env)
    if done.returncode != 0:
        raise SetupError("the reference job failed")
    return wall


def run_pass(jobs: list[Job], env: dict[str, str], rng: random.Random,
             probes: Probes | None = None, setup_probes: int = 0,
             trace_dir: Path | None = None, deadline: float | None = None,
             expected: dict[int, float] | None = None) -> Pass:
    """Run every job once in a seeded order.

    With ``probes``, ``setup_probes`` set-up probes are spread between the
    jobs, and before a job one reference probe runs for every
    ``REFERENCE_EVERY_S`` of job time since the last ones, so both sample
    the same machine state as the jobs; they are left out of the pass's
    wall time.

    With a ``deadline`` the pass skips each job that is ``expected`` to end
    after it, so the smaller jobs fill what is left of the run.
    """
    order = list(range(len(jobs)))
    rng.shuffle(order)
    probe_before = [len(order) * k // setup_probes for k in range(setup_probes)]
    spans_paths = []
    results = []
    wall = 0.0
    for pos, index in enumerate(order):
        if deadline is not None and time.perf_counter() + expected[index] > deadline:
            continue
        if probes is not None:
            probes.setup_s.extend(time_setup(env) for _ in range(probe_before.count(pos)))
            behind = time.perf_counter() - probes.reference_due
            if behind >= 0:
                for _ in range(1 + int(behind / REFERENCE_EVERY_S)):
                    probes.reference_s.append(time_reference(env))
                probes.reference_due = time.perf_counter() + REFERENCE_EVERY_S
        spans_path = None
        if trace_dir is not None:
            spans_path = trace_dir / f"spans-{pos}.json"
            spans_paths.append(spans_path)
        start = time.perf_counter()
        results.append(run_job(index, jobs[index], env, spans_path))
        wall += time.perf_counter() - start
    done = Pass(wall, results)
    if trace_dir is not None:
        done.spans = merge_spans(spans_paths)
    return done


def merge_spans(paths: list[Path]) -> dict:
    """Sum the span files of one pass by span name and by (parent, name)."""
    names: dict[str, dict[str, float]] = {}
    edges: dict[str, list] = {}
    for path in paths:
        if not path.exists():  # the job died before writing its spans
            continue
        data = json.loads(path.read_text())
        path.unlink()
        for parent, name, spans, total, own in data["spans"]:
            rec = names.setdefault(name, {})
            rec["spans"] = rec.get("spans", 0) + spans
            rec["total_s"] = rec.get("total_s", 0.0) + total
            rec["self_s"] = rec.get("self_s", 0.0) + own
            edge = edges.setdefault(f"{parent} > {name}", [0, 0.0, 0.0])
            edge[0] += spans
            edge[1] += total
            edge[2] += own
        for key in ("calls", "yielded", "kept", "distinct"):
            for name, value in data[key].items():
                rec = names.setdefault(name, {})
                rec[key] = rec.get(key, 0) + value
    return {"names": names, "edges": edges}


def layer_metrics(traced: Pass, plain: Pass) -> dict[str, tuple[float, str]]:
    names = traced.spans["names"]
    metrics = {}
    for metric in PER_LAYER:
        base, _, suffix = metric.rpartition(".")
        rec = names.get(base, {})
        if metric == "trace.overhead_ratio":
            value = traced.wall_s / plain.wall_s
        elif metric == "cli.write.bytes":
            value = sum(r.bytes for r in traced.results)
        elif suffix in ("built", "distinct"):
            value = rec.get("distinct", 0)
        elif suffix == "keep_ratio":
            value = rec.get("kept", 0) / rec["calls"] if rec.get("calls") else 0.0
        elif UNITS[suffix] == "s":
            value = float(rec.get(suffix, 0.0))
        else:
            value = rec.get(suffix, 0)
        metrics[metric] = (value, UNITS[suffix])
    return metrics


def end_to_end_metrics(passes: list[Pass], probes: Probes) -> tuple[dict, dict, dict]:
    """End-to-end metrics from each job's mean over the run, at the
    reference host speed; the same unscaled; and their sample counts."""
    mean, median = statistics.mean, statistics.median
    runs: dict[int, list[JobResult]] = {}
    for p in passes:
        for r in p.results:
            runs.setdefault(r.index, []).append(r)
    latencies = [mean(r.wall_s for r in rs) for rs in runs.values()]
    if len(latencies) > 1:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    else:
        p90 = latencies[0]
    wall = sum(latencies)
    raw = {
        "wall_s": wall,
        "cpu_s": sum(mean(r.cpu_s for r in rs) for rs in runs.values()),
        "items_per_s": sum(rs[0].records for rs in runs.values()) / wall,
        "query_p50_s": median(latencies),
        "query_p90_s": p90,
        "peak_rss_mb": max(median(r.rss_mb for r in rs) for rs in runs.values()),
        "setup_s": median(probes.setup_s),
    }
    scale = probes.scale()
    values = dict(raw)
    for name in ("wall_s", "cpu_s", "query_p50_s", "query_p90_s", "setup_s"):
        values[name] *= scale
    values["items_per_s"] /= scale
    samples = {
        "passes": len(passes),
        "jobs": len(runs),
        "invocations": sum(len(rs) for rs in runs.values()),
        "fewest_runs_of_a_job": min(len(rs) for rs in runs.values()),
        "setup_probes": len(probes.setup_s),
        "reference_probes": len(probes.reference_s),
        "scale": scale,
    }
    return (
        {name: (values[name], unit) for name, unit in END_TO_END.items()},
        {name: (raw[name], unit) for name, unit in END_TO_END.items()},
        samples,
    )


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, digests: dict[str, str] | None = None) -> dict:
    """Run one benchmark run and return its full record."""
    env = child_env()
    info = probe_checkout(env)
    jobs = make_jobs(workload, seed, smoke, digests)
    rng = random.Random(seed)
    time_setup(env)  # compiles the bytecode caches; not a sample
    traced = probes = raw = None
    if trace:
        passes = [run_pass(jobs, env, rng)]
        trace_dir = OUT / f"spans-{os.getpid()}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        try:
            traced = run_pass(jobs, env, rng, trace_dir=trace_dir)
        finally:
            for leftover in trace_dir.iterdir():
                leftover.unlink()
            trace_dir.rmdir()
        metrics = layer_metrics(traced, passes[0])
        samples = {"passes": 1, "traced_passes": 1}
    else:
        probes = Probes()
        started = time.perf_counter()
        passes = [run_pass(jobs, env, rng, probes, SETUP_PROBES)]
        while True:
            expected = {r.index: r.wall_s for p in passes for r in p.results}
            more = run_pass(jobs, env, rng, probes, deadline=started + seconds,
                            expected=expected)
            if more.results:
                passes.append(more)
            if len(more.results) < len(jobs):
                break
        metrics, raw, samples = end_to_end_metrics(passes, probes)
    every = passes + ([traced] if traced else [])
    failures = [
        {"args": r.job.args, "error": r.error}
        for p in every for r in p.results if r.error is not None
    ]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "checkout": info,
        "attempted": sum(len(p.results) for p in every),
        "failed": len(failures),
        "failed_frac": len(failures) / sum(len(p.results) for p in every),
        "failures": failures,
        "samples": samples,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled_metrics": raw and {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "probes": probes and {"setup_s": probes.setup_s, "reference_s": probes.reference_s},
        "passes": [
            {
                "wall_s": p.wall_s,
                "jobs": [
                    {"args": r.job.args, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                     "rss_mb": r.rss_mb, "bytes": r.bytes, "records": r.records,
                     "error": r.error}
                    for r in p.results
                ],
            }
            for p in every
        ],
        "spans": traced.spans if traced else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    checkout = record["checkout"]
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"python={checkout['python']} click={checkout['click']} nproc={checkout['nproc']} "
        f"commit={checkout['commit']} src_sha256={checkout['src_sha256'][:16]} "
        f"samples={json.dumps(record['samples'])}"
    )
    for failure in record["failures"]:
        print(f"# FAILED {' '.join(failure['args'])}: {failure['error']}")
    print(
        f"# failed_frac = {record['failed_frac']} "
        f"({record['failed']} of {record['attempted']} jobs)"
    )
    unscaled = record["unscaled_metrics"] or {}
    for name, metric in record["metrics"].items():
        plain = f"  (unscaled {unscaled[name]['value']})" if name in unscaled else ""
        print(f"{name} = {metric['value']} {metric['unit']}{plain}")
    print(f"# full record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
