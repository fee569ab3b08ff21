"""Tests of the benchmark itself, on a tiny smoke configuration.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import subprocess
import sys

import pytest

import queries
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(autouse=True)
def few_probes(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 2)


def smoke(workload, trace, seed=7, digests=None):
    return run.measure(workload, seed, 0, trace, smoke=True, digests=digests)


def test_workloads_match_the_harness():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS) == sorted(run.SMOKE)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = smoke(workload, trace)
        assert record["failed"] == 0, record["failures"]
        assert record["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {name: m["unit"] for name, m in record["metrics"].items()}
        assert got == expected


def test_a_corrupted_digest_fails_its_job_and_the_pass_goes_on():
    digests = json.loads(run.DIGESTS.read_text())
    key = run.job_key(run.SMOKE["arc-stream"][0])
    digests[key] = "0" * 64
    record = smoke("arc-stream", False, digests=digests)
    assert record["failed"] == 1
    assert record["attempted"] == len(run.SMOKE["arc-stream"])
    assert "pinned" in record["failures"][0]["error"]


@pytest.mark.parametrize("workload", ["arc-closed", "arc-queries"])
def test_traced_counts_repeat_exactly(workload):
    def counts(record):
        return {
            name: m["value"] for name, m in record["metrics"].items()
            if name.rpartition(".")[2] in ("calls", "yielded", "bytes", "built", "distinct")
        }

    first, second = counts(smoke(workload, True)), counts(smoke(workload, True))
    assert first == second
    assert any(first.values())


def test_a_wrong_answer_fails_its_query():
    query = queries.make_queries(3, rounds=1)[0]
    wrong = dict(query, expect={})
    job = run.Job(query["args"], stdin=query["stdin"], query=wrong)
    assert "differs" in run.run_job(0, job, run.child_env()).error


def test_queries_are_seeded_and_made_without_the_program():
    assert queries.make_queries(5, rounds=2) == queries.make_queries(5, rounds=2)
    assert queries.make_queries(5, rounds=2) != queries.make_queries(6, rounds=2)
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import queries;"
        "queries.make_queries(1, rounds=1);"
        "assert not any(m.startswith('monobrick') for m in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], cwd=run.ROOT, check=True)


def test_a_checkout_without_sources_is_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(run.SetupError):
        run.probe_checkout(run.child_env())


def test_end_to_end_metrics_do_not_depend_on_how_often_a_job_ran():
    def result(index, wall):
        return run.JobResult(index, run.Job(["job"]), wall, wall, 20.0, 0, 1, None)

    probes = run.Probes([0.1], [run.REFERENCE_S])
    first = run.Pass(3.0, [result(0, 1.0), result(1, 2.0)])
    second = run.Pass(3.0, [result(1, 2.0), result(0, 1.0)])
    cut_short = run.Pass(1.0, [result(0, 1.0)])
    once, _, _ = run.end_to_end_metrics([first], probes)
    more, _, samples = run.end_to_end_metrics([first, second, cut_short], probes)
    assert once == more
    assert once["wall_s"] == (3.0, "s")
    assert samples["fewest_runs_of_a_job"] == 2


def test_times_are_scaled_to_the_reference_speed():
    job = run.JobResult(0, run.Job(["job"]), 2.0, 2.0, 20.0, 0, 4, None)
    slow_host = run.Probes([0.4], [2 * run.REFERENCE_S] * 3)
    scaled, unscaled, _ = run.end_to_end_metrics([run.Pass(2.0, [job])], slow_host)
    assert unscaled["wall_s"] == (2.0, "s") and scaled["wall_s"] == (1.0, "s")
    assert scaled["setup_s"] == (0.2, "s")
    assert scaled["items_per_s"] == (4.0, "1/s")
    assert scaled["peak_rss_mb"] == unscaled["peak_rss_mb"]


def test_a_pass_skips_the_jobs_expected_to_end_after_its_deadline():
    jobs = [run.Job(["--version"]), run.Job(["--version"])]
    done = run.run_pass(
        jobs, run.child_env(), run.random.Random(1),
        deadline=run.time.perf_counter() + 60, expected={0: 1000.0, 1: 0.0},
    )
    assert [r.index for r in done.results] == [1]
    assert done.results[0].error is None
