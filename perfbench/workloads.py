"""The three workloads: timed units, output checks and failure accounting.

A *unit* is the smallest fixed piece of work whose outputs are checked:

* ``plan-cold``: one cold ``RushPlanner.plan`` at each size (a fresh
  planner per plan, so the WCDE memo starts empty).
* ``service-*``: one round — a fresh journal directory, ``open_journal``
  then ``ServiceDaemon`` (how ``rush serve --manual --journal-dir``
  builds it), one ``ServiceClient`` driving the slot schedule over
  loopback, ``GET /digest``, a graceful stop, then ``recover_engine`` on
  the round's journal.

Every HTTP request and every output check is one attempted operation.
A request succeeds, is *refused* (the typed 4xx the schedule expects:
``GET`` of a never-submitted job id answered 404 ``unknown-job``) or
*fails* (transport error, 5xx, any other status, or a wrong answer).  A
check succeeds or fails.  ``failed_share`` = failed / attempted.
"""

from __future__ import annotations

import asyncio
import gc
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import RushPlanner
from repro.schedulers.rush import RushScheduler
from repro.service import journal
from repro.service.client import ServiceClient, ServiceRequestError
from repro.service.daemon import ServiceDaemon
from repro.service.engine import ServiceConfig
from repro.service.protocol import canonical_digest

from perfbench.inputs import (CAPACITY, DELTA, THETA, TOLERANCE, Op,
                              PlanInputs, ServiceInputs)

TERMINAL = ("completed", "cancelled", "cancelling")
#: One timed sample: (``time.perf_counter`` at its start, seconds).  The
#: start lets perfbench/hostspeed.py calibrate it afterwards.
Timed = Tuple[float, float]


@dataclass
class Tally:
    """Operation accounting for one run."""

    attempted: int = 0
    refused: int = 0
    failed: int = 0
    http_failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.refused - self.failed

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# plan-cold
# ---------------------------------------------------------------------------

def new_planner() -> RushPlanner:
    return RushPlanner(capacity=CAPACITY, theta=THETA, delta=DELTA,
                       tolerance=TOLERANCE)


def check_plan(plan: Any, jobs: List[Any], tally: Tally) -> str:
    """Capacity and target checks; returns the plan's canonical digest."""
    alloc = plan.next_slot_allocation()
    tally.check(all(v >= 0 for v in alloc.values())
                and sum(alloc.values()) <= CAPACITY,
                f"plan of {len(jobs)} jobs allocates {sum(alloc.values())} "
                f"containers in the next slot (capacity {CAPACITY})")
    ids = [job.job_id for job in jobs]
    tally.check(set(plan.jobs) == set(ids) and all(
        not math.isnan(plan.jobs[i].target_completion) for i in ids),
        f"plan of {len(jobs)} jobs lacks a target for some job")
    return canonical_digest(plan.to_dict())


def plan_unit(inputs: PlanInputs, tally: Tally,
              order: Sequence[int] = ()) -> Dict[int, Dict[str, Any]]:
    """Cold plans in ``order`` (default: each size once, smallest first):
    timed samples (a list, in plan order) and digest by size."""
    out: Dict[int, Dict[str, Any]] = {}
    for n in order or sorted(inputs.sizes):
        jobs = inputs.sizes[n]
        planner = new_planner()
        gc.collect()  # the previous plan's garbage is not this plan's cost
        started = time.perf_counter()
        plan = planner.plan(jobs)
        seconds = time.perf_counter() - started
        tally.attempted += 1
        digest = check_plan(plan, jobs, tally)
        entry = out.setdefault(n, {"timed": [], "digest": digest})
        entry["timed"].append((started, seconds))
        tally.check(entry["digest"] == digest,
                    f"two cold plans of the same {n} jobs differ")
    return out


def plan_warmup(inputs: PlanInputs) -> None:
    new_planner().plan(inputs.warmup)


# ---------------------------------------------------------------------------
# service workloads
# ---------------------------------------------------------------------------

@dataclass
class RoundResult:
    setup_s: Timed
    replay_s: Timed
    recover_s: List[Timed]
    samples: Dict[str, List[Timed]]
    digests: Dict[str, str]
    profile: Dict[str, float]


class _Sender:
    """Sends one slot schedule and checks every answer."""

    def __init__(self, client: ServiceClient, tally: Tally,
                 samples: Dict[str, List[Timed]]) -> None:
        self.client = client
        self.tally = tally
        self.samples = samples

    async def call(self, kind: str, coro: Any, *,
                   expect_status: Optional[int] = None) -> Any:
        """Time one request; classify its outcome."""
        self.tally.attempted += 1
        started = time.perf_counter()
        try:
            answer = await coro
        except ServiceRequestError as exc:
            if expect_status is not None and exc.status == expect_status:
                self.tally.refused += 1
            else:
                self.tally.http_failed += 1
                self.tally.fail(f"{kind}: HTTP {exc.status} {exc.code}")
            return None
        except Exception as exc:  # transport errors count, never abort
            self.tally.http_failed += 1
            self.tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        if expect_status is not None:
            self.tally.fail(f"{kind}: expected HTTP {expect_status}")
            return None
        self.samples.setdefault(kind, []).append(
            (started, time.perf_counter() - started))
        return answer

    def expect(self, ok: bool, what: str) -> None:
        # A wrong answer turns a sent request into a failed one.
        if not ok:
            self.tally.fail(what)

    async def op(self, op: Op, slot: int) -> None:
        client = self.client
        if op.kind == "submit":
            answer = await self.call("submit", client.submit(op.payload))
            if answer is not None:
                self.expect(answer.get("job_id") == op.job_id
                            and answer.get("state") == "accepted",
                            f"submit {op.job_id}: answered {answer}")
        elif op.kind == "job":
            answer = await self.call("query", client.job(op.job_id))
            if answer is not None:
                self.expect(answer.get("job_id") == op.job_id,
                            f"GET /jobs/{op.job_id}: answered {answer}")
        elif op.kind == "status":
            answer = await self.call("query", client.status())
            if answer is not None:
                self.expect(answer.get("slot") == slot
                            and answer.get("capacity") == CAPACITY,
                            f"GET /status in slot {slot}: answered {answer}")
        elif op.kind == "unknown":
            await self.call("query", client.job(op.job_id), expect_status=404)
        elif op.kind == "cancel":
            for job_id in op.candidates:
                answer = await self.call("query", client.job(job_id))
                if answer is None or answer.get("state") in TERMINAL:
                    continue
                answer = await self.call("cancel", client.cancel(job_id))
                if answer is not None:
                    self.expect(answer.get("state") == "cancelling",
                                f"cancel {job_id}: answered {answer}")
                break
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")

    async def tick(self, slot: int) -> None:
        answer = await self.call("tick", self.client.tick(1))
        if answer is not None:
            self.expect(answer.get("slot") == slot + 1,
                        f"tick of slot {slot}: answered {answer}")


async def _start(inputs: ServiceInputs, seed: int, directory: Path,
                 tally: Tally) -> Any:
    config = ServiceConfig.from_dict(inputs.config_dict(seed))
    engine, _writer = journal.open_journal(directory, config)
    daemon = ServiceDaemon(engine)
    await daemon.start("127.0.0.1", 0)
    client = ServiceClient("127.0.0.1", daemon.port)
    tally.attempted += 1
    health = await client.healthz()
    if not health.get("ok"):
        tally.fail(f"healthz answered {health}")
    return daemon, client


def _fresh(directory: Path) -> Path:
    shutil.rmtree(directory, ignore_errors=True)
    directory.parent.mkdir(parents=True, exist_ok=True)
    return directory


def setup_once(inputs: ServiceInputs, seed: int, directory: Path,
               tally: Tally) -> Timed:
    """Journal creation to the first answered /healthz."""
    async def body() -> Timed:
        started = time.perf_counter()
        daemon, _client = await _start(inputs, seed, directory, tally)
        seconds = time.perf_counter() - started
        await daemon.stop()
        return started, seconds

    timed = asyncio.run(body())
    shutil.rmtree(directory, ignore_errors=True)
    return timed


def service_round(inputs: ServiceInputs, seed: int, directory: Path,
                  tally: Tally, tracer: Any = None,
                  recoveries: int = 1) -> RoundResult:
    """One round: set up, send the schedule, stop, recover (``recoveries``
    times), check."""
    samples: Dict[str, List[Timed]] = {}

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    async def body() -> RoundResult:
        phase("setup")
        started = time.perf_counter()
        daemon, client = await _start(inputs, seed, _fresh(directory), tally)
        setup_s = (started, time.perf_counter() - started)
        sender = _Sender(client, tally, samples)
        try:
            phase("main")
            gc.collect()
            started = time.perf_counter()
            for slot, ops in enumerate(inputs.slots):
                for op in ops:
                    await sender.op(op, slot)
                await sender.tick(slot)
            replay_s = (started, time.perf_counter() - started)
            phase("end")
            served = await sender.call("digest", client.request_json(
                "GET", "/digest")) or {}
            scheduler = daemon.engine.scheduler
            profile = (scheduler.profile()
                       if isinstance(scheduler, RushScheduler) else {})
        finally:
            await daemon.stop()
        return RoundResult(setup_s, replay_s, [], samples,
                           {"records": served.get("records", ""),
                            "decisions": served.get("decisions", "")},
                           profile)

    # The load generator shares the daemon's process.  Freezing what
    # exists before the daemon starts (the pre-built schedule, earlier
    # rounds' samples, imported modules) keeps it out of the daemon's
    # full collections, as if the generator ran in a process of its own;
    # otherwise a few collections a round, each scanning the schedule,
    # land at random on submits or ticks and move their p99.
    gc.collect()
    gc.freeze()
    try:
        result = asyncio.run(body())
        for _ in range(recoveries):
            phase("recover")
            gc.collect()  # free the served engine before timing recovery
            started = time.perf_counter()
            engine, _stats = journal.recover_engine(directory)
            result.recover_s.append((started,
                                     time.perf_counter() - started))
            phase("end")
            try:
                tally.check(
                    engine.decisions_digest() == result.digests["decisions"],
                    "served decisions digest differs from the recovered one")
                tally.check(
                    engine.records_digest() == result.digests["records"],
                    "served records digest differs from the recovered one")
            finally:
                engine.close()
    finally:
        gc.unfreeze()
    shutil.rmtree(directory, ignore_errors=True)
    return result
