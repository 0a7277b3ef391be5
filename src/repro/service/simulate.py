"""Deterministic serving-load simulation: thread-pool tier vs async tier.

Solving 100k real (if small) linear systems just to measure *queueing*
would drown the signal in host arithmetic, so the serve-bench scenario
is a *discrete-event simulation* of the serving tier in simulated
milliseconds — the same currency as the GPU cost model. What is
simulated and what is real:

- **real**: the :class:`~repro.service.admission.AdmissionController`
  (typed quota/priority shedding), the
  :class:`~repro.service.autoscaler.Autoscaler` (reading the same
  metric names off a real :class:`~repro.obs.MetricsRegistry`), the
  priced per-group solve times (taken from the repo's own cost model
  via :func:`repro.core.simulate_plan` and fitted affine in merged
  batch height), and the grouping rule (plan-signature keyed).
- **simulated**: Poisson arrivals, the clock, worker occupancy, and
  cache-lock serialisation (each lookup holds the
  :class:`~repro.core.TuningCache` lock for ``lookup_ms``).

Two tier models run over the *same* seeded arrival stream, both behind
the one cache lock:

- ``threadpool`` — :class:`~repro.service.BatchSolveService` without
  its optional parts: fixed workers, a single bounded queue that sheds
  with untyped rejects when its backlog bound is hit.
- ``async`` — the same service with admission and autoscaling on:
  per-tenant quotas with priority classes, and the autoscaler resizing
  the fleet from queue depth + latency p99.

The report carries p50/p99/mean latency of served requests, shed
counts by typed reason, the worker trajectory, and the autoscaler's
decision log. Everything is a pure function of the seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import simulate_plan
from ..core.tuning import make_tuner
from ..gpu.executor import make_device
from ..obs import MetricsRegistry
from ..util.errors import (
    PriorityShedError,
    TenantQuotaExceededError,
)
from .admission import AdmissionController, TenantQuota
from .autoscaler import Autoscaler, AutoscalerPolicy

__all__ = [
    "ServingSimConfig",
    "ServingSimReport",
    "simulate_serving",
    "compare_tiers",
]

#: Shape pools mirroring :func:`repro.systems.generators.mixed_requests`.
SIZES = (64, 100, 128, 200, 256, 384, 512)
DTYPE_SIZES = (4, 8)
MAX_SYSTEMS = 8

#: Tenant traffic profile: priority class cycles through the tenants,
#: tenant 0 is the heavy hitter (half the stream).
PRIORITY_CYCLE = ("interactive", "standard", "batch")


@dataclass(frozen=True)
class ServingSimConfig:
    """One simulated serving scenario (both tiers read the same one)."""

    requests: int = 100_000
    rate_per_s: float = 12_000.0  # Poisson arrival rate
    seed: int = 0
    tenants: int = 4
    device: str = "gtx470"
    workers: int = 4  # thread-pool width; async tier's floor
    max_workers: int = 32  # autoscaler ceiling (async tier)
    flush_every_ms: float = 5.0  # batching window / autoscaler tick
    lookup_ms: float = 0.05  # cache-lock hold per request
    dispatch_ms: float = 2.0  # host-side worker time per merged solve
    max_pending: int = 1024  # thread-pool tier's queue bound
    capacity: int = 512  # admission capacity (async tier)
    latency_slo_ms: float = 200.0  # autoscaler p99 trigger
    autoscale: bool = True  # async tier scales its fleet


@dataclass
class ServingSimReport:
    """Audited outcome of one tier under one scenario."""

    tier: str
    requests: int
    served: int
    shed: Dict[str, int] = field(default_factory=dict)
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_mean_ms: float = 0.0
    makespan_ms: float = 0.0
    groups: int = 0
    max_workers: int = 0
    worker_trajectory: List[Tuple[float, int]] = field(default_factory=list)
    autoscaler_actions: Dict[str, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "tier": self.tier,
            "requests": self.requests,
            "served": self.served,
            "shed": dict(sorted(self.shed.items())),
            "shed_rate": self.shed_rate,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "makespan_ms": self.makespan_ms,
            "groups": self.groups,
            "max_workers": self.max_workers,
            "autoscaler_actions": dict(sorted(self.autoscaler_actions.items())),
        }


@dataclass(frozen=True)
class _Arrival:
    at_ms: float
    tenant: str
    priority: str
    signature: Tuple
    systems: int


class _CostModel:
    """Priced merged-solve time, affine in merged height per shape.

    Fit from two :func:`repro.core.simulate_plan` pricings per
    (system size, dtype) — the repo's actual cost model, so the sim's
    service times move if the machine model does.
    """

    def __init__(self, device_name: str):
        device = make_device(device_name)
        tuner = make_tuner("static")
        self._params: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._signatures: Dict[Tuple[int, int, int], Tuple] = {}
        for n in SIZES:
            for dsize in DTYPE_SIZES:
                switch = tuner.switch_points(device, 0, 0, dsize)
                lo_m, hi_m = 8, 128
                _, lo = simulate_plan(device, lo_m, n, dsize, switch)
                _, hi = simulate_plan(device, hi_m, n, dsize, switch)
                slope = (hi.total_ms - lo.total_ms) / (hi_m - lo_m)
                base = max(lo.total_ms - slope * lo_m, 0.0)
                self._params[(n, dsize)] = (base, max(slope, 0.0))
                for m in range(1, MAX_SYSTEMS + 1):
                    plan, _ = simulate_plan(device, m, n, dsize, switch)
                    self._signatures[(m, n, dsize)] = (
                        plan.signature, n, dsize
                    )

    def signature(self, m: int, n: int, dsize: int) -> Tuple:
        """Grouping key: the request's own plan signature + shape."""
        return self._signatures[(m, n, dsize)]

    def group_ms(self, signature: Tuple, total_systems: int) -> float:
        _, n, dsize = signature
        base, slope = self._params[(n, dsize)]
        return base + slope * total_systems


def _draw_arrivals(
    config: ServingSimConfig,
) -> Tuple[List[_Arrival], _CostModel]:
    rng = np.random.default_rng(config.seed)
    cost = _CostModel(config.device)
    interarrival_ms = 1e3 / config.rate_per_s
    tenants = [f"tenant{i}" for i in range(config.tenants)]
    priorities = {
        t: PRIORITY_CYCLE[i % len(PRIORITY_CYCLE)]
        for i, t in enumerate(tenants)
    }
    # Tenant 0 is half the traffic; the rest split the remainder.
    weights = np.full(config.tenants, 0.5 / max(config.tenants - 1, 1))
    weights[0] = 0.5 if config.tenants > 1 else 1.0
    arrivals: List[_Arrival] = []
    now = 0.0
    for _ in range(config.requests):
        now += float(rng.exponential(interarrival_ms))
        tenant = tenants[int(rng.choice(config.tenants, p=weights))]
        n = int(rng.choice(SIZES))
        m = int(rng.integers(1, MAX_SYSTEMS + 1))
        dsize = int(rng.choice(DTYPE_SIZES))
        arrivals.append(
            _Arrival(
                at_ms=now,
                tenant=tenant,
                priority=priorities[tenant],
                signature=cost.signature(m, n, dsize),
                systems=m,
            )
        )
    return arrivals, cost


class _SimFleet:
    """Worker occupancy model with the real fleet's resize surface."""

    def __init__(self, workers: int):
        self.free_at: List[float] = [0.0] * workers

    @property
    def size(self) -> int:
        return len(self.free_at)

    def resize(self, workers: int) -> None:
        while len(self.free_at) < workers:
            self.free_at.append(0.0)
        while len(self.free_at) > workers:
            # Retire the most idle worker — shrink never interrupts a
            # running merged solve, matching ScalableWorkerFleet.
            self.free_at.remove(min(self.free_at))

    def next_free(self) -> float:
        return min(self.free_at)

    def assign(self, ready_ms: float, duration_ms: float) -> float:
        idx = self.free_at.index(min(self.free_at))
        start = max(ready_ms, self.free_at[idx])
        self.free_at[idx] = start + duration_ms
        return start + duration_ms


def simulate_serving(
    config: ServingSimConfig,
    tier: str,
    *,
    arrivals: Optional[List[_Arrival]] = None,
    cost: Optional[_CostModel] = None,
) -> ServingSimReport:
    """Run one tier model over the scenario's seeded arrival stream."""
    if tier not in ("threadpool", "async"):
        raise ValueError(f"tier must be 'threadpool' or 'async', got {tier!r}")
    if arrivals is None or cost is None:
        arrivals, cost = _draw_arrivals(config)
    is_async = tier == "async"

    registry = MetricsRegistry()
    depth_gauge = registry.gauge(
        Autoscaler.DEPTH_METRIC, "Requests waiting to be flushed."
    )
    latency_hist = registry.histogram(
        Autoscaler.LATENCY_METRIC,
        "Simulated device time per merged solve.",
    )
    fleet = _SimFleet(config.workers)
    autoscaler = None
    admission = None
    sim_now = {"ms": 0.0}
    if is_async and config.autoscale:
        autoscaler = Autoscaler(
            fleet,
            registry,
            AutoscalerPolicy(
                min_workers=config.workers,
                max_workers=config.max_workers,
                latency_slo_ms=config.latency_slo_ms,
            ),
        )
    if is_async:
        admission = AdmissionController(
            capacity=config.capacity,
            default_quota=TenantQuota(
                max_pending=config.capacity // 2, priority="standard"
            ),
            clock=lambda: sim_now["ms"] / 1e3,
        )
        admission.attach_metrics(registry)

    lock_free = 0.0
    # Admitted requests waiting for a flush, as (lookup-done-at, request):
    # a request only joins a group once its cache lookup has cleared the
    # lock, so a saturated lock shows up as latency.
    pending: List[Tuple[float, _Arrival]] = []
    group_queue: List[Tuple[Tuple, List[_Arrival]]] = []  # formed, undrained
    release_heap: List[Tuple[float, int]] = []  # (finish_ms, release seq)
    tickets_by_seq: Dict[int, object] = {}
    req_ticket: Dict[int, object] = {}  # id(request) -> admission ticket
    latencies: List[float] = []
    shed: Dict[str, int] = {}
    groups = 0
    max_workers_seen = fleet.size
    trajectory: List[Tuple[float, int]] = []

    def backlog() -> int:
        return len(pending) + sum(len(members) for _, members in group_queue)

    i = 0
    now = 0.0
    total = len(arrivals)
    while i < total or pending or group_queue:
        now += config.flush_every_ms
        # -- arrivals in this window ----------------------------------------
        while i < total and arrivals[i].at_ms <= now:
            req = arrivals[i]
            i += 1
            sim_now["ms"] = req.at_ms
            if admission is not None:
                while release_heap and release_heap[0][0] <= req.at_ms:
                    _, seq = heapq.heappop(release_heap)
                    admission.release(tickets_by_seq.pop(seq))
            ticket = None
            if admission is not None:
                try:
                    ticket = admission.admit(req.tenant, req.priority)
                except TenantQuotaExceededError as exc:
                    key = f"tenant_{exc.quota}"
                    shed[key] = shed.get(key, 0) + 1
                    continue
                except PriorityShedError as exc:
                    key = f"priority_{exc.priority}"
                    shed[key] = shed.get(key, 0) + 1
                    continue
            elif backlog() >= config.max_pending:
                shed["queue_full"] = shed.get("queue_full", 0) + 1
                continue
            # Cache/plan lookup serialises through the TuningCache lock.
            start = max(req.at_ms, lock_free)
            lock_free = start + config.lookup_ms
            pending.append((start + config.lookup_ms, req))
            if ticket is not None:
                # Released when the request's group finishes; the finish
                # time is known only at dispatch (below).
                req_ticket[id(req)] = ticket
        sim_now["ms"] = now
        # -- autoscale on the visible backlog, then flush -------------------
        depth_gauge.set(backlog())
        if autoscaler is not None:
            autoscaler.tick(now)
            max_workers_seen = max(max_workers_seen, fleet.size)
        trajectory.append((now, fleet.size))
        # Form groups from requests whose lookup has cleared its lock —
        # plan-signature keyed, first-member order (the batcher's rule).
        # Requests still waiting on a saturated lock stay pending.
        if pending:
            open_groups: Dict[Tuple, List[_Arrival]] = {}
            still_waiting: List[Tuple[float, _Arrival]] = []
            for ready_ms, req in pending:
                if ready_ms <= now:
                    open_groups.setdefault(req.signature, []).append(req)
                else:
                    still_waiting.append((ready_ms, req))
            group_queue.extend(open_groups.items())
            pending[:] = still_waiting
        # -- drain: workers pull groups while they can start this window ----
        while group_queue and fleet.next_free() < now + config.flush_every_ms:
            signature, members = group_queue.pop(0)
            systems = sum(r.systems for r in members)
            # Worker occupancy = host-side dispatch (plan lookup, merge,
            # slicing, launches) + the cost model's priced device time.
            duration = config.dispatch_ms + cost.group_ms(signature, systems)
            finish = fleet.assign(now, duration)
            latency_hist.observe(duration)
            groups += 1
            for req in members:
                latencies.append(finish - req.at_ms)
                ticket = req_ticket.pop(id(req), None)
                if ticket is not None:
                    tickets_by_seq[ticket.seq] = ticket
                    heapq.heappush(release_heap, (finish, ticket.seq))

    lat = np.asarray(latencies) if latencies else np.zeros(1)
    report = ServingSimReport(
        tier=tier,
        requests=total,
        served=len(latencies),
        shed=shed,
        latency_p50_ms=float(np.percentile(lat, 50)),
        latency_p99_ms=float(np.percentile(lat, 99)),
        latency_mean_ms=float(lat.mean()),
        makespan_ms=max((max(fleet.free_at) if fleet.free_at else now), now),
        groups=groups,
        max_workers=max_workers_seen,
        worker_trajectory=trajectory[:: max(1, len(trajectory) // 200)],
        autoscaler_actions=(
            {
                action: sum(
                    1 for d in autoscaler.decisions if d.action == action
                )
                for action in ("up", "down", "hold")
            }
            if autoscaler is not None
            else {}
        ),
    )
    return report


def compare_tiers(config: ServingSimConfig) -> Dict[str, ServingSimReport]:
    """Both tiers over the identical seeded arrival stream."""
    arrivals, cost = _draw_arrivals(config)
    return {
        "threadpool": simulate_serving(
            config, "threadpool", arrivals=arrivals, cost=cost
        ),
        "async": simulate_serving(
            config, "async", arrivals=arrivals, cost=cost
        ),
    }
