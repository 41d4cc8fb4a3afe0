"""Benchmark gate for the incremental planning engine.

Measures the live planner against the frozen pre-PR hot path
(:mod:`_legacy_planner`, a verbatim copy of the seed-commit WCDE + onion
+ planner) in three scenarios:

* ``steady_state`` — replanning an *unchanged* job snapshot, the
  scheduler's common case between scheduling events.  The incremental
  planner presolves every robust demand from its memo and the onion warm
  start collapses every layer to two feasibility probes.  Gate: >= 3x
  faster than the legacy cold path.
* ``fig5_cold`` — one cold plan (empty caches) over the Figure 5 job
  sweep.  Exercises the vectorized WCDE scan, the deadline-bank level
  memo and the intra-solve layer seeding.  Gate: >= 1.5x faster overall.
* ``dirty_replay`` — an event-stream replay where a small fraction of
  jobs observe new samples each round, the realistic mid-ground.
  Reported, not gated.
* ``obs_overhead`` — the same steady-state replanning with the
  ``repro.obs`` span tracer + metrics registry enabled versus the
  default null instruments.  Gate: enabled/disabled wall-clock ratio
  <= 1.10 (the observability layer must stay out of the hot path).
* ``scale_sweep`` — the batch-vectorized solve pipeline at fleet scale:
  one cold plan + one warm replan at 1k jobs (plus 5k and 10k under
  ``RUSH_FULL_SCALE=1``; the CI bench-smoke lane runs 1k only).  The
  legacy baseline is timed at the 1k gate scale only — at 5k+ it would
  dominate the run for no extra information.  Gates: >= 4x cold
  speedup vs legacy at 1k, and cold == warm plans bit-identical at every
  scale.

Every scenario also asserts *plan equivalence*: the incremental planner
(memo + presolve) reproduces the live cold plan bit-identically, and the
warm-started replan of an unchanged snapshot reproduces its own seeding
plan bit-identically.

Results go to ``BENCH_planner.json`` at the repository root (a tracked
file — the PR's headline numbers) and ``benchmarks/out/planner.txt``.
Run directly (``python benchmarks/bench_planner_incremental.py``) or via
pytest.  ``RUSH_FULL_SCALE=1`` selects the paper-scale job counts.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro import (
    GaussianEstimator,
    IncrementalPlanner,
    PlannerJob,
    RushPlanner,
    SchedulePlan,
    SigmoidUtility,
    obs,
)
from repro.analysis import format_table

from _legacy_planner import LegacyRushPlanner
from _shared import FULL_SCALE, write_report

ROOT = Path(__file__).resolve().parent.parent

CAPACITY = 48
THETA, DELTA, TOLERANCE = 0.9, 0.7, 0.05

#: Figure 5 cold-sweep job counts.
SWEEP_COUNTS = (20, 100, 500, 1000) if FULL_SCALE else (20, 100, 300)
#: Steady-state / replay snapshot size and round count.
STEADY_JOBS = 500 if FULL_SCALE else 150
STEADY_ROUNDS = 10
#: Fraction of jobs dirtied per replay round.
DIRTY_FRACTION = 0.1

#: Fleet-scale cold/warm sweep: 1k always (the gated scale); 5k and 10k
#: only under RUSH_FULL_SCALE=1.
SCALE_COUNTS = (1000, 5000, 10000) if FULL_SCALE else (1000,)
SCALE_GATE_JOBS = 1000

SPEEDUP_GATE_STEADY = 3.0
SPEEDUP_GATE_COLD = 1.5
SPEEDUP_GATE_SCALE = 4.0
OBS_OVERHEAD_GATE = 1.10


def _make_jobs(n: int, seed: int = 0):
    """Jobs plus their live estimators, for dirty-replay refreshes."""
    rng = np.random.default_rng(seed)
    jobs, estimators, pendings = [], [], []
    for k in range(n):
        de = GaussianEstimator(prior_mean=float(rng.uniform(30, 90)),
                               prior_std=float(rng.uniform(5, 25)))
        de.observe_many(rng.normal(60, 15, size=10).clip(min=1.0))
        pending = int(rng.integers(10, 120))
        jobs.append(PlannerJob(
            f"wc-{k:04d}",
            SigmoidUtility(budget=float(rng.uniform(100, 2000)),
                           priority=float(rng.integers(1, 6)),
                           beta=float(rng.uniform(0.01, 1.0))),
            de.estimate(pending_tasks=pending)))
        estimators.append(de)
        pendings.append(pending)
    return jobs, estimators, pendings


def plans_equal(a: SchedulePlan, b: SchedulePlan) -> bool:
    """Bit-identical planning outcome: etas, targets, next-slot grants."""
    if set(a.jobs) != set(b.jobs):
        return False
    for job_id, pa in a.jobs.items():
        pb = b.jobs[job_id]
        if (pa.robust_demand, pa.reference_demand, pa.target_completion,
                pa.planned_completion, pa.predicted_utility) != \
           (pb.robust_demand, pb.reference_demand, pb.target_completion,
                pb.planned_completion, pb.predicted_utility):
            return False
    return a.next_slot_allocation() == b.next_slot_allocation()


def _time(fn, rounds: int = 3) -> float:
    """Median wall-clock seconds of ``fn()`` over ``rounds`` runs."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _live_planner() -> RushPlanner:
    return RushPlanner(capacity=CAPACITY, theta=THETA, delta=DELTA,
                       tolerance=TOLERANCE)


def _legacy_planner() -> LegacyRushPlanner:
    return LegacyRushPlanner(capacity=CAPACITY, theta=THETA, delta=DELTA,
                             tolerance=TOLERANCE)


def bench_steady_state() -> Dict:
    """Unchanged snapshot replanned STEADY_ROUNDS times, warm vs legacy."""
    jobs, _, _ = _make_jobs(STEADY_JOBS, seed=0)

    legacy = _legacy_planner()
    legacy_seconds = _time(lambda: legacy.plan(jobs)) * STEADY_ROUNDS

    planner = _live_planner()
    incremental = IncrementalPlanner(planner, warm_start=True)
    cold_plan = planner.plan(jobs)          # reference for equivalence
    seed_plan = incremental.plan(jobs)      # warms memo + hints
    assert plans_equal(seed_plan, cold_plan), \
        "incremental first plan diverged from the cold path"

    start = time.perf_counter()
    last = None
    for _ in range(STEADY_ROUNDS):
        last = incremental.plan(jobs)
    warm_seconds = time.perf_counter() - start
    assert plans_equal(last, seed_plan), \
        "warm-started replan of an unchanged snapshot diverged"

    stats = last.stats
    return {
        "jobs": STEADY_JOBS,
        "rounds": STEADY_ROUNDS,
        "legacy_seconds": legacy_seconds,
        "incremental_seconds": warm_seconds,
        "speedup": legacy_seconds / warm_seconds,
        "plans_bit_identical": True,
        "last_round_stats": {
            "wcde_presolved": stats.wcde_presolved,
            "wcde_cache_hits": stats.wcde_cache_hits,
            "wcde_cache_misses": stats.wcde_cache_misses,
            "peels": stats.peels,
            "feasibility_checks": stats.feasibility_checks,
            "warm_start": stats.warm_start,
        },
    }


def bench_fig5_cold() -> Dict:
    """Single cold plan per job count, live vs legacy."""
    rows = []
    for n in SWEEP_COUNTS:
        jobs, _, _ = _make_jobs(n, seed=0)
        legacy_s = _time(lambda: _legacy_planner().plan(jobs))
        live_s = _time(lambda: _live_planner().plan(jobs))
        rows.append({"jobs": n, "legacy_seconds": legacy_s,
                     "live_seconds": live_s,
                     "speedup": legacy_s / live_s})
    total_legacy = sum(r["legacy_seconds"] for r in rows)
    total_live = sum(r["live_seconds"] for r in rows)
    return {"sweep": rows, "total_legacy_seconds": total_legacy,
            "total_live_seconds": total_live,
            "speedup": total_legacy / total_live}


def bench_dirty_replay() -> Dict:
    """Event-stream replay: DIRTY_FRACTION of jobs refresh per round."""
    jobs, estimators, pendings = _make_jobs(STEADY_JOBS, seed=1)
    rng = np.random.default_rng(7)
    n_dirty = max(1, int(STEADY_JOBS * DIRTY_FRACTION))

    def rounds(plan_fn, jobs_seq):
        rng_local = np.random.default_rng(7)
        current = list(jobs_seq)
        start = time.perf_counter()
        for _ in range(STEADY_ROUNDS):
            for idx in rng_local.choice(len(current), n_dirty, replace=False):
                de = estimators[idx]
                de.observe(max(1.0, float(rng.normal(60, 15))))
                old = current[idx]
                pendings[idx] = max(1, pendings[idx] - 1)
                current[idx] = PlannerJob(
                    old.job_id, old.utility,
                    de.estimate(pending_tasks=pendings[idx]))
            plan_fn(current)
        return time.perf_counter() - start

    legacy = _legacy_planner()
    legacy_seconds = rounds(legacy.plan, jobs)

    # Re-seed estimator state so both sides replay the same stream.
    jobs, estimators, pendings = _make_jobs(STEADY_JOBS, seed=1)
    rng = np.random.default_rng(7)
    incremental = IncrementalPlanner(_live_planner(), warm_start=True)
    incremental.plan(jobs)
    live_seconds = rounds(incremental.plan, jobs)

    return {
        "jobs": STEADY_JOBS,
        "rounds": STEADY_ROUNDS,
        "dirty_per_round": n_dirty,
        "legacy_seconds": legacy_seconds,
        "incremental_seconds": live_seconds,
        "speedup": legacy_seconds / live_seconds,
        "presolve_hits": incremental.presolve_hits,
        "presolve_misses": incremental.presolve_misses,
    }


def bench_obs_overhead() -> Dict:
    """Steady-state replanning, observability enabled vs the null default."""
    jobs, _, _ = _make_jobs(STEADY_JOBS, seed=2)

    def steady_seconds() -> float:
        incremental = IncrementalPlanner(_live_planner(), warm_start=True)
        incremental.plan(jobs)              # warm memo + hints
        start = time.perf_counter()
        for _ in range(STEADY_ROUNDS):
            incremental.plan(jobs)
        return time.perf_counter() - start

    disabled = statistics.median(steady_seconds() for _ in range(5))
    obs.enable(trace=True, metrics=True, ledger=True)
    try:
        enabled = statistics.median(steady_seconds() for _ in range(5))
        spans = len(obs.get_tracer().spans)
        metric_names = len(obs.get_metrics().snapshot())
    finally:
        obs.reset()

    return {
        "jobs": STEADY_JOBS,
        "rounds": STEADY_ROUNDS,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_ratio": enabled / disabled,
        "spans_recorded": spans,
        "metrics_registered": metric_names,
    }


def bench_scale_sweep() -> Dict:
    """Cold + warm planning at 1k/5k/10k jobs; legacy timed at 1k only."""
    rows = []
    for n in SCALE_COUNTS:
        jobs, _, _ = _make_jobs(n, seed=5)
        # One timing rep above the gate scale: a 10k legacy-free cold
        # solve is tens of seconds and the medians stopped moving.
        reps = 3 if n <= SCALE_GATE_JOBS else 1
        cold_s = _time(lambda: _live_planner().plan(jobs), rounds=reps)

        planner = _live_planner()
        incremental = IncrementalPlanner(planner, warm_start=True)
        cold_plan = planner.plan(jobs)
        seed_plan = incremental.plan(jobs)
        identical = plans_equal(seed_plan, cold_plan)
        start = time.perf_counter()
        warm_plan = incremental.plan(jobs)
        warm_s = time.perf_counter() - start
        identical = identical and plans_equal(warm_plan, seed_plan)

        row = {"jobs": n, "cold_seconds": cold_s, "warm_seconds": warm_s,
               "plans_bit_identical": identical}
        if n == SCALE_GATE_JOBS:
            legacy_s = _time(lambda: _legacy_planner().plan(jobs),
                             rounds=reps)
            row["legacy_cold_seconds"] = legacy_s
            row["cold_speedup_vs_legacy"] = legacy_s / cold_s
        rows.append(row)
    gate_row = next(r for r in rows if r["jobs"] == SCALE_GATE_JOBS)
    return {"counts": list(SCALE_COUNTS), "sweep": rows,
            "gate_jobs": SCALE_GATE_JOBS,
            "cold_speedup_at_gate": gate_row["cold_speedup_vs_legacy"]}


def run_all() -> Dict:
    steady = bench_steady_state()
    cold = bench_fig5_cold()
    replay = bench_dirty_replay()
    overhead = bench_obs_overhead()
    scale = bench_scale_sweep()
    payload = {
        "benchmark": "planner_incremental",
        "full_scale": FULL_SCALE,
        "capacity": CAPACITY,
        "theta": THETA,
        "delta": DELTA,
        "tolerance": TOLERANCE,
        "gates": {"steady_state_min_speedup": SPEEDUP_GATE_STEADY,
                  "fig5_cold_min_speedup": SPEEDUP_GATE_COLD,
                  "scale_cold_min_speedup_at_1k": SPEEDUP_GATE_SCALE,
                  "obs_max_overhead_ratio": OBS_OVERHEAD_GATE},
        "steady_state": steady,
        "fig5_cold": cold,
        "dirty_replay": replay,
        "obs_overhead": overhead,
        "scale_sweep": scale,
    }

    rows = [["steady state (unchanged x%d)" % STEADY_ROUNDS,
             steady["legacy_seconds"], steady["incremental_seconds"],
             steady["speedup"]]]
    for r in cold["sweep"]:
        rows.append(["cold plan, %d jobs" % r["jobs"], r["legacy_seconds"],
                     r["live_seconds"], r["speedup"]])
    rows.append(["dirty replay (%d%% x%d)" % (int(DIRTY_FRACTION * 100),
                                              STEADY_ROUNDS),
                 replay["legacy_seconds"], replay["incremental_seconds"],
                 replay["speedup"]])
    table = format_table(
        ["scenario", "legacy s", "live s", "speedup"], rows, digits=3)
    scale_rows = [[
        "%d jobs" % r["jobs"], r["cold_seconds"], r["warm_seconds"],
        r.get("cold_speedup_vs_legacy", float("nan")),
        "yes" if r["plans_bit_identical"] else "NO"]
        for r in scale["sweep"]]
    scale_table = format_table(
        ["scale sweep", "cold s", "warm s", "vs legacy", "bit-identical"],
        scale_rows, digits=3)
    obs_line = ("Observability overhead (trace+metrics on steady state): "
                "%.3fs -> %.3fs, ratio %.3fx (%d spans, %d metrics)."
                % (overhead["disabled_seconds"], overhead["enabled_seconds"],
                   overhead["overhead_ratio"], overhead["spans_recorded"],
                   overhead["metrics_registered"]))
    report = ("Incremental planning engine vs frozen pre-PR hot path\n\n"
              + table + "\n\n" + scale_table
              + "\n\nGates: steady state >= %.1fx, cold sweep >= %.1fx, "
              "scale sweep >= %.1fx cold at %d jobs, obs overhead <= "
              "%.2fx.  Plans bit-identical in every scenario checked.\n"
              % (SPEEDUP_GATE_STEADY, SPEEDUP_GATE_COLD,
                 SPEEDUP_GATE_SCALE, SCALE_GATE_JOBS, OBS_OVERHEAD_GATE)
              + obs_line)
    print("\n" + report)
    write_report("planner.txt", report)
    (ROOT / "BENCH_planner.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_incremental_planner_benchmark_gates():
    payload = run_all()
    assert payload["steady_state"]["plans_bit_identical"]
    assert payload["steady_state"]["speedup"] >= SPEEDUP_GATE_STEADY, (
        "steady-state replanning speedup %.2fx below the %.1fx gate"
        % (payload["steady_state"]["speedup"], SPEEDUP_GATE_STEADY))
    assert payload["fig5_cold"]["speedup"] >= SPEEDUP_GATE_COLD, (
        "cold-sweep speedup %.2fx below the %.1fx gate"
        % (payload["fig5_cold"]["speedup"], SPEEDUP_GATE_COLD))
    assert (payload["obs_overhead"]["overhead_ratio"]
            <= OBS_OVERHEAD_GATE), (
        "observability overhead %.3fx above the %.2fx gate"
        % (payload["obs_overhead"]["overhead_ratio"], OBS_OVERHEAD_GATE))
    scale = payload["scale_sweep"]
    assert all(r["plans_bit_identical"] for r in scale["sweep"]), (
        "cold/warm plan divergence in the scale sweep")
    assert scale["cold_speedup_at_gate"] >= SPEEDUP_GATE_SCALE, (
        "cold speedup %.2fx at %d jobs below the %.1fx gate"
        % (scale["cold_speedup_at_gate"], SCALE_GATE_JOBS,
           SPEEDUP_GATE_SCALE))


if __name__ == "__main__":
    test_incremental_planner_benchmark_gates()
