"""Tests of the benchmark itself (run with ``python -m pytest perfbench/tests``).

Tiny passes keep these fast; the full-size workloads are what
``run.py`` measures.
"""

import argparse
import json
from dataclasses import replace

import numpy as np
import pytest

import run
import scenarios
import spans

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "paper_ear": lambda: scenarios.PaperEar(
        scale=0.02, kernel_seeds=1, app_seeds=1, apps=("BQCD", "HPCG")
    ),
    "learning_pinned": scenarios.LearningPinned,
    "cluster_burst": lambda: scenarios.ClusterBurst(n_jobs=16),
    "service_stream": lambda: scenarios.ServiceStream(n_jobs=40),
}


@pytest.fixture(autouse=True)
def _scratch_cwd(tmp_path, monkeypatch):
    # the benchmark writes its scratch files under the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _args(workload, trace):
    return argparse.Namespace(workload=workload, seed=7, seconds=0.0, trace=trace)


def _units(specs):
    return {m["name"]: m["unit"] for m in specs}


def test_every_workload_is_declared():
    assert set(TINY) == set(scenarios.SCENARIOS)
    assert set(TINY) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_pass_emits_every_metric_with_its_unit(workload):
    scenario = TINY[workload]()
    scenario.warm()
    e2e, passes = run.end_to_end(scenario, _args(workload, 0))
    assert {name: unit for name, (_, unit) in e2e.items()} == _units(BENCHMARK["end_to_end"])
    assert all(value > 0 for value, _ in e2e.values())
    assert passes[0].failed == 0

    layers, _ = run.per_layer(scenario, _args(workload, 1))
    assert {name: unit for name, (_, unit) in layers.items()} == _units(BENCHMARK["per_layer"])


def test_perturbed_record_fails_the_output_check(tmp_path, monkeypatch, capsys):
    recorded = json.loads(run.EXPECTED.read_text())
    record = tmp_path / "expected.json"
    monkeypatch.setattr(run, "EXPECTED", record)
    argv = ["--workload", "cluster_burst", "--seed", "0", "--seconds", "0"]

    record.write_text(json.dumps(recorded))
    assert run.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True

    energy = recorded["cluster_burst"]["total_energy_j"]
    recorded["cluster_burst"]["total_energy_j"] = energy * (1 + 1e-8)
    record.write_text(json.dumps(recorded))
    assert run.main(argv) == 1
    captured = capsys.readouterr()
    assert "total_energy_j" in captured.err
    assert '"correct"' not in captured.out


def _fails(scenario, result, broken, message):
    scenario.check(result)
    result.detail = broken
    with pytest.raises(scenarios.CheckFailed, match=message):
        scenario.check(result)


def test_a_failed_job_fails_the_check():
    scenario = scenarios.ClusterBurst(n_jobs=16)
    result, _, _ = run.run_pass(scenario, 1)
    result.failed = 1
    with pytest.raises(scenarios.CheckFailed, match="job failures"):
        scenario.check(result)


def test_a_node_held_twice_fails_the_check():
    scenario = scenarios.ClusterBurst(n_jobs=16)
    result, _, _ = run.run_pass(scenario, 1)
    report = result.detail
    first, *rest = sorted(report.jobs, key=lambda j: j.start_s)
    later = next(j for j in rest if j.start_s >= first.end_s)
    # the later job now also starts on the first job's node, while it runs
    moved = replace(
        later, placement=(first.placement[0], *later.placement[1:]), start_s=first.start_s
    )
    jobs = tuple(moved if j is later else j for j in report.jobs)
    _fails(scenario, result, replace(report, jobs=jobs), "held twice")


def test_grants_over_budget_fail_the_check():
    scenario = scenarios.ClusterBurst(n_jobs=16)
    result, _, _ = run.run_pass(scenario, 1)
    report = result.detail
    first, *rest = report.market.intervals
    over = replace(first, granted_w=first.budget_w * 1.01)
    market = replace(report.market, intervals=(over, *rest))
    _fails(scenario, result, replace(report, market=market), "over budget")


@pytest.fixture
def service_pass():
    scenario = scenarios.ServiceStream(n_jobs=12)
    result, _, _ = run.run_pass(scenario, 1)
    return scenario, result


@pytest.mark.parametrize(
    ("row", "scrape", "message"),
    [
        ({"rejected": 1}, None, "rejected"),
        ({"completed": 11}, None, "completed"),
        (None, ("HTTP/1.1 500 Internal Server Error", ""), "scrape"),
        (None, ("HTTP/1.1 200 OK", "repro_service_jobs_completed 1 2 3\n"), "invalid"),
    ],
)
def test_a_broken_service_outcome_fails_the_check(service_pass, row, scrape, message):
    scenario, result = service_pass
    detail = dict(result.detail)
    if row is not None:
        detail["row"] = {**detail["row"], **row}
    if scrape is not None:
        detail["scrape"] = scrape
    _fails(scenario, result, detail, message)


def test_traced_self_times_fit_in_each_threads_wall(tmp_path):
    scenario = scenarios.ServiceStream(n_jobs=40)
    scenario.warm()
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_pass(scenario, 1)
    finally:
        tracer.remove()
    threads = tracer.per_thread()
    # client, event loop and at least one to_thread worker
    assert len(threads) >= 3
    for t in threads:
        assert (t["self_ns"] >= 0).all()
        assert t["self_ns"].sum() <= t["wall_ns"]
    from repro.hw.node import Node

    assert not hasattr(Node.advance, "__wrapped__")

    # the dump keeps every span, nested inside its parent on one thread
    tracer.write(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as dump:
        parent, thread = dump["parent"], dump["thread"]
        start, end = dump["start_ns"], dump["end_ns"]
    assert len(parent) == tracer.n_spans()
    child = parent >= 0
    assert (thread[parent[child]] == thread[child]).all()
    assert (start[parent[child]] <= start[child]).all()
    assert (end[child] <= end[parent[child]]).all()
