"""Benchmark-side tracing: spans around the public functions of each layer.

Nothing under ``src/`` is changed.  :func:`installed` replaces the
layer entry points (class methods and the module globals the planner
calls through) with wrappers that record a span per call and count the
work the call did, and puts the originals back when its block ends.  Spans are
kept in memory and written out once, at the end.

A span records its name, start, end, parent and trace id.  The daemon
and the client share one event loop and the client sends one request at
a time, so a plain stack gives the parent: every span of one HTTP
request (client round trip, daemon parse/dispatch/respond, engine,
journal, simulator, scheduler, planner) carries the trace id of the
client's ``http.request`` span, and every span of one plan carries the
id of its ``planner.plan`` span.

A layer's self time is the time its spans cover minus the part of it
their child spans cover.  Counts marked in :data:`EXACT` are
deterministic for a given seed and must repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import planner as planner_mod
from repro.core import wcde as wcde_mod
from repro.cluster.simulator import ClusterSimulator
from repro.errors import ServiceError
from repro.schedulers.rush import RushScheduler
from repro.service import journal as journal_mod
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.engine import ServiceEngine

#: Span-name prefix -> layer (module of ``src/repro``).
LAYERS = {
    "planner": "core.planner",
    "wcde": "core.wcde",
    "onion": "core.onion",
    "mapping": "core.mapping",
    "rush": "schedulers.rush",
    "sim": "cluster.simulator",
    "engine": "service.engine",
    "wal": "service.journal",
    "recover": "service.journal",
    "http": "service.daemon",
}

#: Per-layer metrics that must repeat exactly for a given seed.
EXACT = frozenset({
    "onion.peels", "onion.feasibility_checks", "onion.checks_per_peel",
    "wcde.jobs_solved", "wcde.cache_hit_share", "mapping.calls",
    "planner.calls", "planner.presolved_share", "rush.plans_computed",
    "rush.fallbacks", "rush.estimates_refreshed_share", "sim.steps",
    "sim.live_jobs_max", "engine.digest_calls", "engine.refused",
    "wal.appends", "wal.bytes", "wal.checkpoints", "wal.compactions",
    "recover.records", "http.requests",
})


class Span:
    __slots__ = ("sid", "parent", "trace", "name", "start", "end", "phase")

    def __init__(self, sid: int, parent: int, trace: int, name: str,
                 phase: str) -> None:
        self.sid = sid
        self.parent = parent
        self.trace = trace
        self.name = name
        self.phase = phase
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def layer(self) -> str:
        return LAYERS[self.name.split(".", 1)[0]]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus per-phase work counters."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, Counter] = {}
        self.phase = "setup"
        self._stack: List[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans) + 1
        span = Span(sid, parent.sid if parent else 0,
                    parent.trace if parent else sid, name, self.phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Remove this span even if an interleaved one is still open.
        for k in range(len(self._stack) - 1, -1, -1):
            if self._stack[k] is span:
                del self._stack[k]
                break

    def count(self, key: str, value: float = 1) -> None:
        self.counts.setdefault(self.phase, Counter())[key] += value

    def peak(self, key: str, value: float) -> None:
        bucket = self.counts.setdefault(self.phase, Counter())
        bucket[key] = max(bucket[key], value)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "trace": s.trace,
                    "name": s.name, "layer": s.layer, "phase": s.phase,
                    "start": s.start, "end": s.end}) + "\n")


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

Hook = Optional[Callable[..., Any]]


def _wrap(tracer: Tracer, name: str, fn: Callable[..., Any],
          before: Hook = None, after: Hook = None) -> Callable[..., Any]:
    """A span around ``fn``; ``after(state, args, result)`` counts work."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def awrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(args) if before else None
            span = tracer.open(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after:
                after(state, args, result)
            return result
        return awrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = before(args) if before else None
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except ServiceError:
            if name.startswith("engine."):
                tracer.count("engine.refused")  # a typed 4xx answer
            raise
        finally:
            tracer.close(span)
        if after:
            after(state, args, result)
        return result
    return wrapper


def _targets(t: Tracer) -> List[Tuple[Any, str, str, Hook, Hook]]:
    """(owner, attribute, span name, before, after) for every entry point."""
    def planned(_s: Any, args: Tuple, plan: Any) -> None:
        t.count("planner.calls")
        t.count("planner.jobs", len(args[1]))
        t.count("planner.presolved", plan.stats.wcde_presolved)

    def cache_state(args: Tuple) -> int:
        return args[0].hits

    def looked_up(hits0: int, args: Tuple, _r: Any) -> None:
        t.count("wcde.lookups", len(args[1]))
        t.count("wcde.hits", args[0].hits - hits0)

    def solved(_s: Any, args: Tuple, _r: Any) -> None:
        t.count("wcde.jobs_solved", len(args[0]))

    def peeled(_s: Any, _a: Tuple, onion: Any) -> None:
        t.count("onion.peels", onion.layers)
        t.count("onion.feasibility_checks", onion.feasibility_checks)

    def mapped(_s: Any, _a: Tuple, _r: Any) -> None:
        t.count("mapping.calls")

    def stepped(_s: Any, args: Tuple, _r: Any) -> None:
        t.count("sim.steps")
        t.peak("sim.live_jobs_max", len(args[0].active_jobs))

    def digested(_s: Any, _a: Tuple, _r: Any) -> None:
        t.count("engine.digest_calls")

    def segment_size(args: Tuple) -> int:
        return int(args[0]._segment_size)

    def appended(size0: int, args: Tuple, _r: Any) -> None:
        t.count("wal.appends")
        t.count("wal.bytes", int(args[0]._segment_size) - size0)
        if args[1].get("kind") == "checkpoint":
            t.count("wal.checkpoints")

    def compacted(_s: Any, _a: Tuple, _r: Any) -> None:
        t.count("wal.compactions")

    def recovered(_s: Any, _a: Tuple, result: Any) -> None:
        t.count("recover.records", int(result[1]["applied"]))

    def requested(_s: Any, _a: Tuple, _r: Any) -> None:
        t.count("http.requests")

    return [
        (planner_mod.RushPlanner, "plan", "planner.plan", None, planned),
        (planner_mod.IncrementalPlanner, "plan", "planner.incremental",
         None, None),
        (wcde_mod.WcdeCache, "solve_batch", "wcde.solve_batch",
         cache_state, looked_up),
        (wcde_mod, "solve_wcde_batch", "wcde.batch", None, solved),
        (planner_mod, "solve_wcde_batch", "wcde.batch", None, solved),
        (planner_mod, "solve_onion", "onion.solve", None, peeled),
        (planner_mod, "map_time_slots", "mapping.map", None, mapped),
        (RushScheduler, "select_job", "rush.select_job", None, None),
        (RushScheduler, "profile", "rush.profile", None, None),
        (ClusterSimulator, "step", "sim.step", None, stepped),
        (ServiceEngine, "submit", "engine.submit", None, None),
        (ServiceEngine, "cancel", "engine.cancel", None, None),
        (ServiceEngine, "tick", "engine.tick", None, None),
        (ServiceEngine, "job_status", "engine.job_status", None, None),
        (ServiceEngine, "cluster_status", "engine.cluster_status",
         None, None),
        (ServiceEngine, "decisions_digest", "engine.decisions_digest",
         None, digested),
        (journal_mod.JournalWriter, "append", "wal.append",
         segment_size, appended),
        (journal_mod.JournalWriter, "note_applied", "wal.note_applied",
         None, None),
        (journal_mod.JournalWriter, "compact", "wal.compact",
         None, compacted),
        (journal_mod, "recover_engine", "recover.engine", None, recovered),
        (ServiceDaemon, "_read_request", "http.read", None, None),
        (ServiceDaemon, "_dispatch", "http.dispatch", None, None),
        (ServiceDaemon, "_respond", "http.respond", None, None),
        (ServiceClient, "_request_once", "http.request", None, requested),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point for the duration of the block."""
    originals = []
    try:
        for owner, attr, name, before, after in _targets(tracer):
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------

def _self_times(spans: List[Span]) -> Dict[int, float]:
    children: Dict[int, List[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.seconds - covered
    return out


def layer_table(tracer: Tracer, phase: str) -> Dict[str, Dict[str, float]]:
    """Per layer: spans, busy seconds (outermost spans) and self seconds."""
    spans = [s for s in tracer.spans if s.phase == phase]
    by_id = {s.sid: s for s in spans}
    selfs = _self_times(spans)
    table: Dict[str, Dict[str, float]] = {
        layer: {"spans": 0, "busy_s": 0.0, "self_s": 0.0}
        for layer in dict.fromkeys(LAYERS.values())}
    for s in spans:
        row = table[s.layer]
        row["spans"] += 1
        row["self_s"] += selfs[s.sid]
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            row["busy_s"] += s.seconds
    return table


def _busy(spans: List[Span], names: Tuple[str, ...]) -> float:
    return sum(s.seconds for s in spans if s.name in names)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, profile: Dict[str, float],
                      http_failed: int) -> Dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from one traced run.

    Layer figures cover the ``main`` phase (the plans, or the slot
    schedule); ``recover.*`` cover the ``recover`` phase.  ``profile`` is
    ``RushScheduler.profile()`` after the schedule (empty when the
    policy is not RUSH).
    """
    main = [s for s in tracer.spans if s.phase == "main"]
    rec = [s for s in tracer.spans if s.phase == "recover"]
    c = tracer.counts.get("main", Counter())
    rc = tracer.counts.get("recover", Counter())
    table = layer_table(tracer, "main")
    selfs = _self_times(main)

    def self_of(name: str) -> float:
        return sum(selfs[s.sid] for s in main if s.name == name)

    recover_s = _busy(rec, ("recover.engine",))
    rec_table = layer_table(tracer, "recover")
    refreshed = profile.get("estimates_refreshed", 0)
    reused = profile.get("estimates_reused", 0)
    return {
        "onion.busy_s": table["core.onion"]["busy_s"],
        "onion.peels": c["onion.peels"],
        "onion.feasibility_checks": c["onion.feasibility_checks"],
        "onion.checks_per_peel": _share(c["onion.feasibility_checks"],
                                        c["onion.peels"]),
        "wcde.jobs_solved": c["wcde.jobs_solved"],
        "wcde.busy_s": table["core.wcde"]["busy_s"],
        "wcde.cache_hit_share": _share(c["wcde.hits"], c["wcde.lookups"]),
        "mapping.calls": c["mapping.calls"],
        "mapping.busy_s": table["core.mapping"]["busy_s"],
        "planner.calls": c["planner.calls"],
        "planner.busy_s": table["core.planner"]["busy_s"],
        "planner.presolved_share": _share(c["planner.presolved"],
                                          c["planner.jobs"]),
        "rush.plans_computed": profile.get("plans_computed", 0),
        "rush.fallbacks": profile.get("fallbacks", 0),
        "rush.estimates_refreshed_share": _share(refreshed,
                                                 refreshed + reused),
        "sim.steps": c["sim.steps"],
        "sim.self_s": table["cluster.simulator"]["self_s"],
        "sim.live_jobs_max": c["sim.live_jobs_max"],
        "engine.submit_self_s": self_of("engine.submit"),
        "engine.tick_self_s": self_of("engine.tick"),
        "engine.query_busy_s": _busy(main, ("engine.job_status",
                                            "engine.cluster_status")),
        "engine.digest_busy_s": _busy(main, ("engine.decisions_digest",)),
        "engine.digest_calls": c["engine.digest_calls"],
        "engine.refused": c["engine.refused"],
        "wal.appends": c["wal.appends"],
        "wal.append_busy_s": _busy(main, ("wal.append",)),
        "wal.bytes": c["wal.bytes"],
        "wal.checkpoints": c["wal.checkpoints"],
        "wal.compactions": c["wal.compactions"],
        "wal.compact_busy_s": _busy(main, ("wal.compact",)),
        "recover.records": rc["recover.records"],
        "recover.busy_s": recover_s,
        "recover.planner_share": _share(
            rec_table["core.planner"]["busy_s"], recover_s),
        "http.requests": c["http.requests"],
        "http.self_s": table["service.daemon"]["self_s"],
        "http.failed": http_failed,
    }
