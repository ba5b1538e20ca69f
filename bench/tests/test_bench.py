"""Tests of the benchmark itself: output checks, trace bookkeeping and tiny end-to-end runs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import hsictest.cli as cli  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_METRICS = ("trace.overhead", "replicates_per_s", "pmfs_per_s", "error_rate")


def run_cycle(name: str, tmp_path: Path, seed: int = 1) -> list[dict]:
    workload = workloads.get(name, tiny=True)
    cycle = workload.cycle(seed, workload.make_inputs(seed, tmp_path))
    return [worker.run_command(cli, argv) for argv in cycle]


@pytest.fixture(scope="module")
def csv_commands(tmp_path_factory):
    return run_cycle("csv_test_n1000", tmp_path_factory.mktemp("csv"))


def test_csv_reports_pass_their_checks(csv_commands):
    workload = workloads.get("csv_test_n1000", tiny=True)
    reference = workload.reference(1)
    for command in csv_commands:
        assert command["rc"] == 0
        assert workload.check(command["argv"], command["report"], reference) == []


def test_checker_flags_perturbed_statistic(csv_commands):
    workload = workloads.get("csv_test_n1000", tiny=True)
    command = csv_commands[0]
    report = dict(command["report"], statistic_raw=command["report"]["statistic_raw"] * (1 + 1e-8))
    problems = workload.check(command["argv"], report, workload.reference(1))
    assert any("statistic_raw" in p for p in problems)


def test_checker_flags_off_lattice_p_value(csv_commands):
    workload = workloads.get("csv_test_n1000", tiny=True)
    for command in csv_commands:
        report = dict(command["report"], p_value=command["report"]["p_value"] + 1e-3)
        problems = workload.check(command["argv"], report, workload.reference(1))
        assert any("lattice" in p for p in problems)


def test_checker_flags_missing_discrete_ring(tmp_path):
    workload = workloads.get("oracle_sweep_3x3_r8", tiny=True)
    linear = run_cycle("oracle_sweep_3x3_r8", tmp_path)[1]
    assert workload.check(linear["argv"], linear["report"], workload.reference(1)) == []
    kept = [c for c in linear["report"]["counterexamples"] if c["pmf"] != workloads.DISCRETE_RING_PMF]
    assert len(kept) < len(linear["report"]["counterexamples"])
    report = dict(linear["report"], counterexamples=kept)
    problems = workload.check(linear["argv"], report, workload.reference(1))
    assert any("discrete ring" in p for p in problems)


def test_on_lattice():
    assert workloads.on_lattice(1 / 501, 500)
    assert workloads.on_lattice(1.0, 500)
    assert not workloads.on_lattice(0.0, 500)
    assert not workloads.on_lattice(0.5, 500)


def test_missing_target_is_listed_and_its_metrics_left_out(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "hsic", (*tracer.TARGETS["hsic"], "no_such_function"))
    assert tracer.Tracer().missing == ["hsic.no_such_function"]
    metrics = tracer.layer_metrics([{}], 1, ["hsic.population_hsic"])
    assert "hsic.population_hsic.calls" not in metrics
    assert metrics["hsic.theta.total_s"] == 0


def test_trace_counts_one_gaussian_test(tmp_path):
    commands = run_cycle("csv_test_n1000", tmp_path)
    with tracer.Tracer() as trace:
        worker.run_command(cli, commands[0]["argv"])
    metrics = tracer.layer_metrics([trace.collect()], 1, trace.missing)
    assert trace.missing == []
    assert metrics["kernels.gram_entries.calls"] == 4
    assert metrics["kernels.resolve_bandwidth.calls"] == 6
    assert metrics["kernels.median_heuristic.calls"] == 2
    assert metrics["rng.rng_for.calls_per_replicate"] == 1.0
    assert metrics["kernels.gram_entries.bytes_computed"] == 4 * 200 * 200 * 8
    assert 0 < metrics["trace.coverage"] <= 1


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in DECLARED["per_layer"]] == [*tracer.METRIC_NAMES, *RUN_METRICS]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_end_to_end(name, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring_power_n8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
