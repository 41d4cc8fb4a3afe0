"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, hostspeed, inputs, tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload the command runs: those of BENCHMARK.json, and
#: plan-cold, which is runnable but not among the benchmark's workloads.
WORKLOADS = list(bench.MIN_UNITS)


def _run(workload: str, trace: int, seed: int = 0,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest_lines(proc: subprocess.CompletedProcess) -> list:
    return [line for line in proc.stdout.splitlines()
            if line.startswith("digests ")]


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == bench.PER_LAYER
    assert tracing.EXACT <= set(bench.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload, trace=0)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        # The text report gives every metric with its unit and samples.
        assert any(line.startswith(f"{name} ") and f" {unit} (n=" in line
                   for line in proc.stdout.splitlines()), name
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}
    assert "failed_share 0.000000" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_exact_counts_and_digests(workload):
    first, second = _run(workload, trace=1), _run(workload, trace=1)
    a, b = _result(first), _result(second)
    assert set(a["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert a["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name in tracing.EXACT:
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"], \
            name
    assert _digest_lines(first) and \
        _digest_lines(first) == _digest_lines(second)
    assert "tracing overhead" in first.stdout


def test_layers_do_work_where_the_workload_says():
    rush = _result(_run("service-rush", trace=1))["metrics"]
    tenants = _result(_run("service-tenants", trace=1))["metrics"]
    assert rush["planner.calls"]["value"] > 0
    assert rush["onion.peels"]["value"] > 0
    assert tenants["planner.calls"]["value"] == 0
    assert tenants["engine.refused"]["value"] > 0
    for metrics in (rush, tenants):
        assert metrics["wal.appends"]["value"] > 0
        assert metrics["recover.records"]["value"] > 0
        assert metrics["http.requests"]["value"] > 0


def _fingerprint(svc: inputs.ServiceInputs) -> list:
    return [[(op.kind, op.job_id, json.dumps(op.payload, sort_keys=True),
              op.candidates) for op in ops] for ops in svc.slots]


def test_seed_determines_the_inputs():
    for build in (inputs.rush_inputs, inputs.tenant_inputs):
        same = _fingerprint(build(3, "tiny"))
        assert same == _fingerprint(build(3, "tiny"))
        assert same != _fingerprint(build(4, "tiny"))
    a, b = inputs.plan_inputs(3, "tiny"), inputs.plan_inputs(4, "tiny")
    n = min(a.sizes)
    assert [j.utility.budget for j in a.sizes[n]] \
        != [j.utility.budget for j in b.sizes[n]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("plan-cold", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_benchmark_files_pass_the_benchmark_lint():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "perfbench",
         "--as-benchmark"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_host_sampler_calibrates_by_the_probes_around_a_sample():
    sampler = hostspeed.HostSampler()
    # Probes every 0.05 s from t=0; the host runs at half the reference
    # speed until t=1 and at the reference speed after it.
    sampler.starts = [k * 0.05 for k in range(40)]
    sampler.seconds = [2 * hostspeed.REFERENCE_PROBE_S if t < 1.0
                       else hostspeed.REFERENCE_PROBE_S
                       for t in sampler.starts]
    assert sampler.calibrate(0.3, 0.2) == pytest.approx(0.1)
    assert sampler.calibrate(1.5, 0.2) == pytest.approx(0.2)
    # Far past the last probe, the nearest MIN_PROBES probes are used.
    assert sampler.calibrate(50.0, 1.0) == pytest.approx(1.0)
    assert hostspeed.HostSampler().calibrate(0.0, 0.5) == 0.5
