"""Batched solve service — production serving on top of the solver core.

The package turns the library's one-shot :func:`repro.core.solve` into a
throughput-oriented service with one front door,
:class:`BatchSolveService`:

- :mod:`.workers` — :class:`BatchSolveService`, which validates, admits,
  groups and executes merged solves on a fixed-width thread pool with
  shared tuning-cache and plan reuse, for threads (``submit``/``solve_many``) and asyncio
  (``solve_many_async``, ``async with``) alike;
- :mod:`.queue` — bounded request queue with block/reject backpressure,
  plus the :class:`CircuitBreaker` that sheds load while the backend
  is failing;
- :mod:`.batcher` — deterministic plan-signature grouping of requests
  into merged solves;
- :mod:`.admission` — optional per-tenant quotas and priority classes,
  shedding with typed errors that say which quota tripped;
- :mod:`.stats` — per-group latency/throughput counters.
"""

from .admission import (
    PRIORITIES,
    AdmissionController,
    AdmissionTicket,
    TenantQuota,
)
from .batcher import GroupKey, ServiceRequest, SolveGroup, group_requests
from .queue import OVERFLOW_POLICIES, BoundedRequestQueue, CircuitBreaker
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
]
