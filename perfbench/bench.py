"""Orchestration of one benchmark run: set-up, timed units, checks, report.

Each workload has a *main* phase of whole units.  How many is a fixed
function of ``--seconds`` (:func:`unit_count`), sized so that the whole
run takes about that many calibrated seconds; it never depends on how
fast the host happens to run, so every run of a workload does the same
work.  Every run reports every end-to-end metric, so each workload also
runs a *companion* after its main phase for the metrics its main phase
does not produce: the service workloads run cold plans (``plan_1k_s``,
``plan_3k_s``), and ``plan-cold`` (runnable, but not one of
``BENCHMARK.json``'s workloads) runs a small planner-free service probe
(the service metrics).  ``rss_mb`` is read before the companion starts,
so it belongs to the main phase alone.  The traced run has no
companion.

A timed run keeps every timed sample with its start time while a
:class:`~perfbench.hostspeed.HostSampler` measures the host's speed,
then reports every time metric calibrated to the reference host's speed,
sample by sample (see :mod:`perfbench.hostspeed`).  The raw value of
each metric is printed beside it.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from perfbench import inputs as gen
from perfbench import tracing
from perfbench import hostspeed
from perfbench.hostspeed import HostSampler
from perfbench.workloads import (Tally, Timed, percentile, plan_unit,
                                 plan_warmup, service_round, setup_once)

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 3
MIN_UNITS = {"plan-cold": 2, "service-rush": 4, "service-tenants": 4}
#: Seconds on the reference host (calibrated seconds, full scale,
#: rounded up): one main-phase unit, and everything else of a run
#: (set-up and companion).
UNIT_S = {"plan-cold": 7.0, "service-rush": 2.4, "service-tenants": 4.9}
FIXED_S = {"plan-cold": 10.5, "service-rush": 10.5, "service-tenants": 10.2}
#: Recoveries timed in each of the first ``RECOVERED_ROUNDS`` service
#: rounds (the plan-cold companion's rounds are the small service probe).
#: A service-rush recovery replays every planning round, so only half
#: of its eight rounds are recovered.
RECOVERIES = {"plan-cold": 2, "service-rush": 1, "service-tenants": 2}
RECOVERED_ROUNDS = 4
#: A plan-cold unit, as indices into the sorted plan sizes (1k, 3k).
PLAN_UNIT = (0, 1)
#: The service workloads' companion: three 1k plans and one 3k plan.
PLAN_COMPANION = (0, 1, 0, 0)
MIN_TAIL_SAMPLES = 1000
#: Rounds of the service probe that plan-cold runs as its companion.
PROBE_ROUNDS = 4

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s", "plan_1k_s": "s", "plan_3k_s": "s",
    "submit_p50_ms": "ms", "submit_p99_ms": "ms",
    "tick_p50_ms": "ms", "tick_p99_ms": "ms",
    "query_p50_ms": "ms", "query_p99_ms": "ms",
    "replay_s": "s", "recover_s": "s", "rss_mb": "MB",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "onion.busy_s": "s", "onion.peels": "count",
    "onion.feasibility_checks": "count", "onion.checks_per_peel": "ratio",
    "wcde.jobs_solved": "count", "wcde.busy_s": "s",
    "wcde.cache_hit_share": "ratio",
    "mapping.calls": "count", "mapping.busy_s": "s",
    "planner.calls": "count", "planner.busy_s": "s",
    "planner.presolved_share": "ratio",
    "rush.plans_computed": "count", "rush.fallbacks": "count",
    "rush.estimates_refreshed_share": "ratio",
    "sim.steps": "count", "sim.self_s": "s", "sim.live_jobs_max": "count",
    "engine.submit_self_s": "s", "engine.tick_self_s": "s",
    "engine.query_busy_s": "s", "engine.digest_busy_s": "s",
    "engine.digest_calls": "count", "engine.refused": "count",
    "wal.appends": "count", "wal.append_busy_s": "s", "wal.bytes": "bytes",
    "wal.checkpoints": "count", "wal.compactions": "count",
    "wal.compact_busy_s": "s",
    "recover.records": "count", "recover.busy_s": "s",
    "recover.planner_share": "ratio",
    "http.requests": "count", "http.self_s": "s", "http.failed": "count",
}


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def _timed(fn: Callable[[], Any]) -> Tuple[Timed, Any]:
    started = time.perf_counter()
    value = fn()
    return (started, time.perf_counter() - started), value


def unit_count(workload: str, seconds: float, scale: str) -> int:
    """Main-phase units of a run of ``seconds`` (the minimum at tiny
    scale)."""
    minimum = MIN_UNITS[workload]
    if scale != "full":
        return minimum
    return max(minimum, int((seconds - FIXED_S[workload])
                            // UNIT_S[workload]))


class Run:
    """State of one run: accounting, digests, timed samples, report."""

    def __init__(self, workload: str, seed: int, scale: str,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.tally = Tally()
        self.lines: List[str] = []
        #: Timed samples by what they measure: "plan_1k_s", "plan_3k_s",
        #: "submit", "tick", "query", "cancel", "replay_s", "import",
        #: "generate", "construct"; "recover_s" holds one list per round.
        self.timed: Dict[str, List[Any]] = {}
        self.digests: Dict[str, Dict[str, str]] = {}
        expected = load_expected() if EXPECTED.exists() else {}
        self.expected = (expected.get("digests", {})
                         if scale == "full"
                         and expected.get("seed") == seed else {})

    def add(self, key: str, samples: List[Any]) -> None:
        self.timed.setdefault(key, []).extend(samples)

    # -- checks ----------------------------------------------------------

    def agree(self, key: str, digests: Dict[str, str]) -> None:
        """Digests of repeated units agree, and match the recorded ones."""
        if key not in self.digests:
            self.digests[key] = dict(digests)
        else:
            self.tally.check(self.digests[key] == digests,
                             f"{key}: repeated unit gave other digests")
        want = self.expected.get(key)
        if want is not None:
            self.tally.check(want == digests,
                             f"{key}: digests differ from perfbench/"
                             f"expected.json for seed {self.seed}")

    # -- units -----------------------------------------------------------

    def plan_units(self, inputs: gen.PlanInputs, count: int,
                   unit: Tuple[int, ...]) -> None:
        """``count`` units of cold plans, in the size order ``unit``
        gives."""
        small, large = sizes = sorted(inputs.sizes)
        order = tuple(sizes[i] for i in unit)
        for _ in range(count):
            result = plan_unit(inputs, self.tally, order)
            for n, name in ((small, "plan_1k_s"), (large, "plan_3k_s")):
                self.add(name, result[n]["timed"])
            self.agree("plan-cold",
                       {str(n): r["digest"] for n, r in result.items()})

    def service_units(self, first: gen.ServiceInputs,
                      build: Callable[..., gen.ServiceInputs], count: int,
                      recoveries: int, setup_key: str = "construct") -> None:
        """Rounds with independent inputs (round k draws part k of the
        seed's streams), so pooled tails average over several draws of
        where checkpoints, compactions and collections land.  Each
        round's set-up is recorded under ``setup_key``."""
        for k in range(count):
            inputs = first if k == 0 else build(self.seed, self.scale, k)
            result = service_round(
                inputs, self.seed, self.work / f"round-{k}", self.tally,
                recoveries=recoveries if k < RECOVERED_ROUNDS else 0)
            self.agree(f"{inputs.workload}/{k}", result.digests)
            self.lines.append(f"inputs {inputs.workload}/{k}: " + ", ".join(
                f"{key} {value:.4g}" for key, value in inputs.params.items()))
            for kind, samples in result.samples.items():
                self.add(kind, samples)
            self.add("replay_s", [result.replay_s])
            if result.recover_s:
                self.add("recover_s", [result.recover_s])
            self.add(setup_key, [result.setup_s])

    # -- metrics ---------------------------------------------------------

    def metrics(self, value: Callable[[Timed], float]) -> Dict[str, float]:
        """Every end-to-end time metric, each sample read by ``value``."""
        t = self.timed

        def median(key: str) -> float:
            return statistics.median(value(x) for x in t[key])

        out = {"setup_s": median("import") + median("generate")
               + median("construct"),
               "plan_1k_s": median("plan_1k_s"),
               "plan_3k_s": median("plan_3k_s"),
               "replay_s": median("replay_s"),
               # Rounds differ in where their last compaction fell, so
               # each round's recoveries are reduced to their median first.
               "recover_s": statistics.median(
                   statistics.median(value(x) for x in rnd)
                   for rnd in t["recover_s"])}
        for kind in ("submit", "tick", "query"):
            ms = [value(x) * 1e3 for x in t.get(kind, [])]
            for q in (50, 99):
                out[f"{kind}_p{q}_ms"] = percentile(ms, q) if ms else 0.0
        return out

    def counts(self) -> Dict[str, int]:
        t = self.timed
        out = {name: len(t[name]) for name in
               ("plan_1k_s", "plan_3k_s", "replay_s", "recover_s")}
        out["setup_s"] = min(len(t[k]) for k in ("generate", "construct"))
        for kind in ("submit", "tick", "query"):
            for q in (50, 99):
                out[f"{kind}_p{q}_ms"] = len(t.get(kind, []))
        out["rss_mb"] = 1
        return out

    # -- report ----------------------------------------------------------

    def result(self, metrics: Dict[str, float],
               names: Dict[str, str]) -> Dict[str, Any]:
        t = self.tally
        failed_share = t.failed / t.attempted if t.attempted else 1.0
        self.lines.append(
            f"operations: attempted {t.attempted}, succeeded {t.succeeded}, "
            f"refused {t.refused}, failed {t.failed} "
            "(base: HTTP requests sent + output checks made)")
        self.lines.append(
            f"failed_share {failed_share:.6f} ratio "
            f"(failed / attempted = {t.failed} / {t.attempted})")
        for key, digests in sorted(self.digests.items()):
            self.lines.append(f"digests {key} "
                              f"{json.dumps(digests, sort_keys=True)}")
        for problem in t.problems:
            self.lines.append(f"FAILED: {problem}")
        return {"correct": t.failed == 0 and t.attempted > 0,
                "attempted": t.attempted, "failed": t.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit}
                            for name, unit in names.items()}}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_run(r: Run, seconds: float, import_s: Timed,
               sampler: HostSampler) -> Dict[str, float]:
    """Set-up, main phase and companion while ``sampler`` (started
    before the program was imported) measures the host's speed; stops
    it and returns the calibrated end-to-end metrics."""
    workload, seed, scale = r.workload, r.seed, r.scale
    count = unit_count(workload, seconds, scale)
    r.add("import", [import_s])
    marks = [import_s[0]]
    try:
        if workload == "plan-cold":
            for _ in range(SETUP_REPEATS):
                timed, plan_in = _timed(lambda: gen.plan_inputs(seed, scale))
                r.add("generate", [timed])
                r.add("construct", [_timed(lambda: plan_warmup(plan_in))[0]])
            marks.append(time.perf_counter())
            r.plan_units(plan_in, count, PLAN_UNIT)
            rss_mb = _rss_mb()
            marks.append(time.perf_counter())
            del plan_in  # the companion runs without the plans' inputs
            gc.collect()
            r.lines.append("companion: two planner-free service probe "
                           "rounds for the service metrics")
            r.service_units(gen.probe_inputs(seed, scale), gen.probe_inputs,
                            PROBE_ROUNDS, RECOVERIES[workload],
                            "probe_construct")
        else:
            build = gen.SERVICE_INPUTS[workload]
            for _ in range(SETUP_REPEATS):
                timed, svc_in = _timed(lambda: build(seed, scale))
                r.add("generate", [timed])
            marks.append(time.perf_counter())
            r.service_units(svc_in, build, count, RECOVERIES[workload])
            for k in range(len(r.timed["construct"]), SETUP_REPEATS):
                r.add("construct", [setup_once(
                    svc_in, seed, r.work / f"setup-{k}", r.tally)])
            rss_mb = _rss_mb()
            marks.append(time.perf_counter())
            r.lines.append("companion: cold plans (1k, 3k, 1k, 1k) for "
                           "plan_1k_s and plan_3k_s")
            r.plan_units(gen.plan_inputs(seed, scale), 1, PLAN_COMPANION)
        marks.append(time.perf_counter())
    finally:
        sampler.stop()
    phases = [(a, b - a) for a, b in zip(marks, marks[1:])]
    r.lines.append(
        "phases (set-up, main, companion), s: raw " + ", ".join(
            f"{x:.3f}" for _, x in phases) + "; calibrated " + ", ".join(
            f"{sampler.calibrate(*x):.3f}" for x in phases))
    raw = r.metrics(lambda x: x[1])
    metrics = r.metrics(lambda x: sampler.calibrate(*x))
    raw["rss_mb"] = metrics["rss_mb"] = rss_mb
    counts = r.counts()
    probes = sampler.seconds
    r.lines.append(
        f"host speed: {len(probes)} probes, median "
        f"{statistics.median(probes) * 1e3:.4f} ms, reference "
        f"{hostspeed.REFERENCE_PROBE_S * 1e3:.4f} ms" if probes else
        "host speed: no probes (times are raw)")
    if scale == "full":
        for kind in ("submit", "tick", "query"):
            if len(r.timed.get(kind, [])) < MIN_TAIL_SAMPLES:
                r.lines.append(f"warning: only {len(r.timed.get(kind, []))} "
                               f"{kind} samples (< {MIN_TAIL_SAMPLES})")
    if "cancel" in r.timed:
        cancel = [sampler.calibrate(*x) * 1e3 for x in r.timed["cancel"]]
        r.lines.append(f"cancel_p50_ms {percentile(cancel, 50):.4f} ms "
                       f"(n={len(cancel)}, not a gated metric)")
    for name, unit in END_TO_END.items():
        note = f"; raw {raw[name]:.6g} {unit}" if name != "rss_mb" else ""
        r.lines.append(f"{name} {metrics[name]:.6g} {unit} "
                       f"(n={counts[name]}{note})")
    return metrics


def _traced_run(r: Run, out_dir: Path) -> Dict[str, float]:
    """One untraced unit, then the same unit traced."""
    workload, seed, scale = r.workload, r.seed, r.scale
    tracer = tracing.Tracer()
    profile: Dict[str, float] = {}
    if workload == "plan-cold":
        plan_in = gen.plan_inputs(seed, scale)
        plan_warmup(plan_in)
        plain = plan_unit(plan_in, r.tally)
        with tracing.installed(tracer):
            tracer.phase = "main"
            traced = plan_unit(plan_in, r.tally)
        for result in (plain, traced):
            r.agree("plan-cold",
                    {str(n): x["digest"] for n, x in result.items()})
        untraced_s = sum(s for x in plain.values() for _, s in x["timed"])
        traced_s = sum(s for x in traced.values() for _, s in x["timed"])
        basis = "cold plan seconds (all sizes)"
    else:
        svc_in = gen.SERVICE_INPUTS[workload](seed, scale)
        plain = service_round(svc_in, seed, r.work / "plain", r.tally)
        with tracing.installed(tracer):
            traced = service_round(svc_in, seed, r.work / "traced", r.tally,
                                   tracer)
        for result in (plain, traced):
            r.agree(f"{workload}/0", result.digests)
        profile = traced.profile
        untraced_s, traced_s = plain.replay_s[1], traced.replay_s[1]
        basis = "replay_s"
    metrics = tracing.per_layer_metrics(tracer, profile, r.tally.http_failed)
    overhead = traced_s / untraced_s
    r.lines.append(f"tracing overhead {overhead:.4f} "
                   f"(traced {basis} {traced_s:.4f} s / untraced "
                   f"{untraced_s:.4f} s)")
    table = tracing.layer_table(tracer, "main")
    r.lines.append(f"{'layer':<20}{'spans':>9}{'busy_s':>12}{'self_s':>12}")
    for layer, row in table.items():
        r.lines.append(f"{layer:<20}{int(row['spans']):>9}"
                       f"{row['busy_s']:>12.4f}{row['self_s']:>12.4f}")
    for name, unit in PER_LAYER.items():
        star = " *" if name in tracing.EXACT else ""
        r.lines.append(f"{name} {metrics[name]:.6g} {unit}{star}")
    r.lines.append("* = deterministic count: repeats exactly for a seed")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-{scale}"
    tracer.write(out_dir / f"spans-{stem}.jsonl")
    with open(out_dir / f"layers-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "scale": scale,
                   "overhead": {"ratio": overhead, "basis": basis,
                                "traced_s": traced_s,
                                "untraced_s": untraced_s},
                   "layers": table,
                   "metrics": {k: metrics[k] for k in PER_LAYER},
                   "exact": sorted(tracing.EXACT)}, fh, indent=2,
                  sort_keys=True)
    r.lines.append(f"spans written to {out_dir.name}/spans-{stem}.jsonl")
    return metrics


def run(workload: str, *, seed: int, seconds: float, trace: bool,
        scale: str, import_s: Timed, sampler: HostSampler, work: Path,
        out_dir: Path) -> Dict[str, Any]:
    """One run; ``seconds`` sizes the main phase (:func:`unit_count`),
    ``import_s`` is the program's import, timed by the caller, who
    started ``sampler`` for a timed run."""
    r = Run(workload, seed, scale, work)
    r.lines.append(f"workload {workload}, seed {seed}, scale {scale}, "
                   f"trace {int(trace)}")
    if trace:
        result = r.result(_traced_run(r, out_dir), PER_LAYER)
    else:
        result = r.result(_timed_run(r, seconds, import_s, sampler),
                          END_TO_END)
    return {"lines": r.lines, "result": result}
