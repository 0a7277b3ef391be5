"""Batched solve service — production serving on top of the solver core.

The package turns the library's one-shot :func:`repro.core.solve` into a
throughput-oriented service with one front door,
:class:`BatchSolveService`:

- :mod:`.workers` — :class:`BatchSolveService`, which validates, admits,
  groups and executes merged solves with shared tuning-cache and plan
  reuse, for threads (``submit``/``solve_many``) and asyncio
  (``solve_many_async``, ``async with``) alike;
- :mod:`.queue` — bounded request queue with block/reject backpressure,
  plus the :class:`CircuitBreaker` that sheds load while the backend
  is failing;
- :mod:`.batcher` — deterministic plan-signature grouping of requests
  into merged solves;
- :mod:`.admission` — optional per-tenant quotas and priority classes,
  shedding with typed errors that say which quota tripped;
- :mod:`.fleet` + :mod:`.autoscaler` — the resizable worker fleet merged
  solves run on, and the optional metrics-driven autoscaler that sizes
  it from the queue-depth gauge and latency histogram;
- :mod:`.simulate` — the deterministic load simulation behind
  ``repro serve-bench --async``;
- :mod:`.stats` — per-group latency/throughput counters.
"""

from .admission import (
    PRIORITIES,
    AdmissionController,
    AdmissionTicket,
    TenantQuota,
)
from .autoscaler import AutoscaleDecision, Autoscaler, AutoscalerPolicy
from .batcher import GroupKey, ServiceRequest, SolveGroup, group_requests
from .fleet import ScalableWorkerFleet
from .queue import OVERFLOW_POLICIES, BoundedRequestQueue, CircuitBreaker
from .simulate import (
    ServingSimConfig,
    ServingSimReport,
    compare_tiers,
    simulate_serving,
)
from .stats import GroupStats, ServiceStats
from .workers import BatchSolveService, ServiceResult

__all__ = [
    "BatchSolveService",
    "ServiceResult",
    "BoundedRequestQueue",
    "CircuitBreaker",
    "OVERFLOW_POLICIES",
    "GroupKey",
    "ServiceRequest",
    "SolveGroup",
    "group_requests",
    "ServiceStats",
    "GroupStats",
    "PRIORITIES",
    "AdmissionController",
    "AdmissionTicket",
    "TenantQuota",
    "AutoscaleDecision",
    "Autoscaler",
    "AutoscalerPolicy",
    "ScalableWorkerFleet",
    "ServingSimConfig",
    "ServingSimReport",
    "compare_tiers",
    "simulate_serving",
]
