"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of ``(seed, scale, part)``: the same
arguments give byte-identical inputs, and the program under test only
ever sees what these functions return.  All randomness comes from
``numpy.random.default_rng`` streams keyed by ``[seed, tag, part]``, so
the streams of different workloads, purposes and rounds never overlap;
``part`` numbers the independent rounds of one service run.

Load recipes (also recorded in ``perfbench/context.json``):

* ``plan-cold`` — the planner benchmark's job generator: Gaussian
  estimators (prior mean U(30, 90), prior std U(5, 25), ten N(60, 15)
  samples), sigmoid utilities (budget U(100, 2000), priority 1..5,
  beta U(0.01, 1)), pending tasks U{10..119}; 48 containers,
  theta 0.9, delta 0.7, tolerance 0.05.
* ``service-rush`` — short jobs from the Section V-B generator
  (templates, sensitivity mix 20/60/20, sizes 0.15-0.5 GB, time scale
  0.035), submitted at the rate that offers 0.8 of the 48 containers,
  worked out from the mean demand of the drawn jobs.  Each slot then
  reads ``1 + Poisson(0.5)`` times (75% ``GET /jobs/{id}`` of an earlier
  job, 25% ``GET /status``) and ticks once.
* ``service-tenants`` — the mixed-tenancy recipe: ``batch`` (share 0.6,
  long jobs, sizes 2-6 GB, time scale 0.05, Poisson) and ``svc`` (share
  0.4, short jobs, sizes 0.15-0.5 GB, time scale 0.035, two-state MMPP
  with burst factor 8), each offered its share of a 0.7 total load.
  Each slot reads ``2 + Poisson(1)`` times, and 5% of the non-tick
  requests are cancels of jobs the client has just seen live.  One read
  in a hundred asks for a job id that was never submitted and expects
  the typed 404.
* ``service-probe`` — the small planner-free service that ``plan-cold``
  runs as its companion: capacity policy, one tenant, and in every slot
  two submits of one-slot-task jobs, one read and one tick.

Arrivals are Poisson (or MMPP) processes conditioned on their expected
total; see :func:`_arrivals`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import GaussianEstimator, PlannerJob, SigmoidUtility
from repro.service.protocol import submit_payload_from_spec
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

CAPACITY = 48
THETA, DELTA, TOLERANCE = 0.9, 0.7, 0.05

#: Stream tags: one independent generator per (workload, purpose).
_TAG_PLAN = 101
_TAG_WARMUP = 102
_TAG_RUSH_JOBS = 201
_TAG_RUSH_OPS = 202
_TAG_BATCH_JOBS = 301
_TAG_SVC_JOBS = 302
_TAG_TENANT_OPS = 303
_TAG_PROBE_JOBS = 401
_TAG_PROBE_OPS = 402

#: Sizes per scale.  ``full`` is the benchmark; ``tiny`` is for the
#: benchmark's own tests and keeps every code path but not the samples.
PLAN_SIZES = {"full": (1000, 3000), "tiny": (40, 120)}
WARMUP_JOBS = 50
RUSH_SLOTS = {"full": 250, "tiny": 60}
TENANT_SLOTS = {"full": 1000, "tiny": 80}
PROBE_SLOTS = {"full": 250, "tiny": 40}
PROBE_SUBMITS = 2

RUSH_LOAD = 0.8
RUSH_READS_EXTRA = 0.5
RUSH_JOB_ID = "r-{:05d}"

TENANT_SHARES = {"batch": 0.6, "svc": 0.4}
TENANT_LOAD = 0.7
TENANT_READS_EXTRA = 1.0
CANCEL_SHARE = 0.05
UNKNOWN_READ_SHARE = 0.01
MMPP_BURST = 8.0
MMPP_SWITCH = 0.1


def _rng(seed: int, tag: int, part: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag, part])


# ---------------------------------------------------------------------------
# plan-cold
# ---------------------------------------------------------------------------

def planner_jobs(n: int, seed: int, tag: int = _TAG_PLAN) -> List[PlannerJob]:
    """``n`` planner jobs from the planner benchmark's recipe."""
    rng = _rng(seed, tag * 100_000 + n)
    jobs = []
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
    return jobs


@dataclass
class PlanInputs:
    warmup: List[PlannerJob]
    sizes: Dict[int, List[PlannerJob]]


def plan_inputs(seed: int, scale: str = "full") -> PlanInputs:
    return PlanInputs(
        warmup=planner_jobs(WARMUP_JOBS, seed, _TAG_WARMUP),
        sizes={n: planner_jobs(n, seed) for n in PLAN_SIZES[scale]})


# ---------------------------------------------------------------------------
# service workloads
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One client request of the slot schedule.

    ``kind`` is ``submit`` (``payload``), ``job`` (read ``job_id``),
    ``status``, ``cancel`` (read, then cancel, the most recent
    submissions from ``candidates`` that are still live) or ``unknown``
    (read ``job_id``, which was never submitted: a 404 is expected).
    """

    kind: str
    job_id: str = ""
    payload: Dict[str, Any] = field(default_factory=dict)
    candidates: Tuple[str, ...] = ()


@dataclass
class ServiceInputs:
    workload: str
    policy: str
    tenants: Tuple[Dict[str, Any], ...]
    slots: List[List[Op]]
    #: Load parameters as drawn (rates, utilisation target, ...).
    params: Dict[str, float]

    def config_dict(self, seed: int) -> Dict[str, Any]:
        return {"capacity": CAPACITY, "policy": self.policy, "seed": seed,
                "scheduler_options": {}, "tenants": list(self.tenants)}


def _short_config(n: int) -> WorkloadConfig:
    return WorkloadConfig(
        n_jobs=n, capacity=CAPACITY, budget_ratio=2.0,
        size_gb_range=(0.15, 0.5), sensitivity_mix=(0.2, 0.6, 0.2),
        time_scale=0.035)


def _svc_config(n: int) -> WorkloadConfig:
    return WorkloadConfig(
        n_jobs=n, capacity=CAPACITY, budget_ratio=2.0,
        size_gb_range=(0.15, 0.5), sensitivity_mix=(0.5, 0.4, 0.1),
        time_scale=0.035)


def _probe_config(n: int) -> WorkloadConfig:
    return WorkloadConfig(
        n_jobs=n, capacity=CAPACITY, size_gb_range=(0.5, 1.5),
        time_scale=0.01)


def _batch_config(n: int) -> WorkloadConfig:
    return WorkloadConfig(
        n_jobs=n, capacity=CAPACITY, budget_ratio=2.5,
        size_gb_range=(2.0, 6.0), sensitivity_mix=(0.1, 0.4, 0.5),
        time_scale=0.05)


def _payloads(config: WorkloadConfig, seed: int, id_format: str,
              tenant: Any = None) -> Tuple[List[Dict[str, Any]], float]:
    """Job bodies plus their mean demand in container-slots."""
    specs = WorkloadGenerator(config, seed=seed).generate()
    payloads = []
    for k, spec in enumerate(specs):
        body = submit_payload_from_spec(spec, tenant)
        body.pop("arrival")  # due now: the client submits in its slot
        body["job_id"] = id_format.format(k)
        payloads.append(body)
    mean_work = float(np.mean([spec.total_work for spec in specs]))
    return payloads, mean_work


def _seed_of(seed: int, tag: int, part: int) -> int:
    return int(_rng(seed, tag, part).integers(2**31))


def _arrivals(rng: np.random.Generator, rate: float,
              weights: np.ndarray) -> np.ndarray:
    """Per-slot arrival counts of a Poisson process of mean ``rate`` per
    slot and relative intensity ``weights``, conditioned on its expected
    total: ``round(rate * slots)`` arrivals spread by a multinomial draw.
    Fixing the total keeps journal size, and so where the last
    compaction falls, nearly the same from seed to seed."""
    total = int(round(rate * len(weights)))
    return rng.multinomial(total, weights / weights.sum())


def _reads(rng: np.random.Generator, count: int, submitted: Sequence[str],
           unknown_share: float, slot: int) -> List[Op]:
    ops = []
    for r in range(count):
        u = rng.random()
        if u < unknown_share:
            ops.append(Op("unknown", job_id=f"ghost-{slot}-{r}"))
        elif submitted and u < 0.75:
            ops.append(Op("job", job_id=submitted[
                int(rng.integers(len(submitted)))]))
        else:
            ops.append(Op("status"))
    return ops


def rush_inputs(seed: int, scale: str = "full",
                part: int = 0) -> ServiceInputs:
    """Slot schedule of round ``part`` of the ``service-rush`` workload."""
    slots = RUSH_SLOTS[scale]
    # Draw more bodies than the schedule can use; the offered rate comes
    # from their mean demand.
    payloads, mean_work = _payloads(
        _short_config(4 * slots), _seed_of(seed, _TAG_RUSH_JOBS, part),
        RUSH_JOB_ID)
    rate = RUSH_LOAD * CAPACITY / mean_work
    rng = _rng(seed, _TAG_RUSH_OPS, part)
    counts = _arrivals(rng, rate, np.ones(slots))
    schedule: List[List[Op]] = []
    submitted: List[str] = []
    for slot in range(slots):
        ops = [Op("submit", job_id=body["job_id"], payload=body)
               for body in payloads[len(submitted):
                                    len(submitted) + int(counts[slot])]]
        submitted.extend(op.job_id for op in ops)
        ops += _reads(rng, 1 + int(rng.poisson(RUSH_READS_EXTRA)),
                      submitted, 0.0, slot)
        schedule.append(ops)
    return ServiceInputs(
        workload="service-rush", policy="rush", tenants=(),
        slots=schedule,
        params={"slots": slots, "submit_rate": rate,
                "mean_job_demand": mean_work, "load": RUSH_LOAD,
                "reads_per_slot": 1 + RUSH_READS_EXTRA})


def tenant_inputs(seed: int, scale: str = "full",
                  part: int = 0) -> ServiceInputs:
    """Slot schedule of round ``part`` of the ``service-tenants`` workload."""
    slots = TENANT_SLOTS[scale]
    bodies: Dict[str, List[Dict[str, Any]]] = {}
    rates: Dict[str, float] = {}
    for tenant, config, tag in (("batch", _batch_config, _TAG_BATCH_JOBS),
                                ("svc", _svc_config, _TAG_SVC_JOBS)):
        payloads, mean_work = _payloads(
            config(2 * slots), _seed_of(seed, tag, part),
            tenant + "-{:05d}", tenant)
        bodies[tenant] = payloads
        rates[tenant] = (TENANT_SHARES[tenant] * TENANT_LOAD * CAPACITY
                         / mean_work)
    rng = _rng(seed, _TAG_TENANT_OPS, part)
    # Two-state MMPP for svc: the state flips with probability
    # MMPP_SWITCH per slot, and a storm slot is MMPP_BURST times as
    # intense as a calm one.
    storm = np.cumsum(rng.random(slots) < MMPP_SWITCH) % 2 == 1
    counts = {"batch": _arrivals(rng, rates["batch"], np.ones(slots)),
              "svc": _arrivals(rng, rates["svc"],
                               np.where(storm, MMPP_BURST, 1.0))}
    used = {"batch": 0, "svc": 0}
    submitted: List[str] = []
    schedule: List[List[Op]] = []
    for slot in range(slots):
        writes: List[Op] = []
        for tenant in ("batch", "svc"):
            count = int(counts[tenant][slot])
            for body in bodies[tenant][used[tenant]:used[tenant] + count]:
                writes.append(Op("submit", job_id=body["job_id"],
                                 payload=body))
            used[tenant] += count
        # Reads and cancels target jobs of earlier slots only, because
        # they are shuffled in among this slot's submits below.
        reads = _reads(rng, 2 + int(rng.poisson(TENANT_READS_EXTRA)),
                       submitted, UNKNOWN_READ_SHARE, slot)
        ops = writes + reads
        if submitted and rng.random() < CANCEL_SHARE * len(ops) / (
                1.0 - CANCEL_SHARE):
            # Candidates newest first: the client cancels the first one
            # its same-slot read shows live.
            ops.append(Op("cancel", candidates=tuple(submitted[-1:-9:-1])))
        submitted.extend(op.job_id for op in writes)
        schedule.append([ops[i] for i in rng.permutation(len(ops))])
    return ServiceInputs(
        workload="service-tenants", policy="capacity",
        tenants=tuple({"name": name, "share": share, "max_active": None}
                      for name, share in TENANT_SHARES.items()),
        slots=schedule,
        params={"slots": slots, "load": TENANT_LOAD,
                "batch_rate": rates["batch"], "svc_rate": rates["svc"],
                "cancel_share": CANCEL_SHARE,
                "reads_per_slot": 2 + TENANT_READS_EXTRA,
                "unknown_read_share": UNKNOWN_READ_SHARE})


def probe_inputs(seed: int, scale: str = "full",
                 part: int = 0) -> ServiceInputs:
    """The planner-free service probe that ``plan-cold`` runs as its
    companion: capacity policy, one tenant, and in every slot exactly
    ``PROBE_SUBMITS`` submits of one-slot-task jobs, one read and one
    tick.  That makes three journal records a slot, so the journal's
    checkpoint (every 32 records, 32 mod 3 = 2) falls on each of the
    three in turn: two thirds of the checkpoint digests land on submits
    and one third on ticks, on every seed, and the p99 of each is a
    steady point of the digest's cost."""
    slots = PROBE_SLOTS[scale]
    payloads, mean_work = _payloads(
        _probe_config(PROBE_SUBMITS * slots),
        _seed_of(seed, _TAG_PROBE_JOBS, part), "p-{:05d}")
    rng = _rng(seed, _TAG_PROBE_OPS, part)
    schedule: List[List[Op]] = []
    submitted: List[str] = []
    for slot in range(slots):
        ops = []
        for body in payloads[PROBE_SUBMITS * slot:PROBE_SUBMITS * (slot + 1)]:
            submitted.append(body["job_id"])
            ops.append(Op("submit", job_id=body["job_id"], payload=body))
        schedule.append(ops + _reads(rng, 1, submitted, 0.0, slot))
    return ServiceInputs(
        workload="service-probe", policy="capacity", tenants=(),
        slots=schedule,
        params={"slots": slots, "submits_per_slot": PROBE_SUBMITS,
                "reads_per_slot": 1,
                "mean_job_demand": mean_work})


SERVICE_INPUTS = {"service-rush": rush_inputs,
                  "service-tenants": tenant_inputs}
