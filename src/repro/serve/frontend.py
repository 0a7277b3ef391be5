"""The asyncio-native serving frontend over the batched solve service.

:class:`AsyncSolveService` is the serving tier's front door. It owns

- a :class:`~repro.service.BatchSolveService` for everything the
  service layer already does right — plan/tuning reuse, deterministic
  plan-signature grouping, merged solves, bisection, deadlines, the
  circuit breaker — executed on a resizable
  :class:`~repro.serve.fleet.ScalableWorkerFleet` instead of a fixed
  thread pool;
- a sharded :class:`~repro.serve.shards.ShardedTuningCache` in place of
  the single-lock cache;
- an optional :class:`~repro.serve.admission.AdmissionController`
  (tenant quotas, priority classes) checked before anything is queued;
- an optional :class:`~repro.serve.autoscaler.Autoscaler`, ticked on
  every flush while the queue-depth gauge still shows the backlog.

Submission is awaitable (`await service.submit(...)` yields an
:class:`asyncio.Future`), and the **sync facade is the same code
path**: ``submit_sync`` is ``submit`` minus the asyncio wrapping, so a
request stream produces *identical group assignments and bit-identical
solutions* whichever door it came through — the parity property the
tests pin. Nothing numeric happens on the event loop; solves run on
the fleet and the loop only awaits their futures.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future
from typing import List, Optional, Sequence, Union

from ..service.queue import CircuitBreaker
from ..service.workers import BatchSolveService, ServiceResult
from ..systems.tridiagonal import TridiagonalBatch
from .admission import AdmissionController
from .autoscaler import Autoscaler, AutoscalerPolicy
from .fleet import ScalableWorkerFleet
from .shards import ShardedTuningCache

__all__ = ["AsyncSolveService"]


class AsyncSolveService:
    """Asyncio frontend + admission + sharded caches + autoscaling.

    Parameters mirror :class:`~repro.service.BatchSolveService` where
    they overlap; the serving-tier additions:

    admission:
        An :class:`AdmissionController`; ``None`` admits everything
        (single-tenant mode).
    autoscale:
        ``True`` (or an :class:`AutoscalerPolicy`) builds an
        :class:`Autoscaler` over the fleet, ticked at every flush.
    num_shards:
        Stripe count of the default sharded cache (ignored when a
        ``cache`` instance is passed).
    workers:
        Initial fleet width (the autoscaler moves it afterwards).
    """

    def __init__(
        self,
        device: str = "gtx470",
        tuning: Union[str, object] = "static",
        *,
        cache=None,
        num_shards: int = 8,
        workers: int = 4,
        admission: Optional[AdmissionController] = None,
        autoscale: Union[bool, AutoscalerPolicy] = False,
        breaker: Optional[CircuitBreaker] = None,
        max_pending: int = 1024,
        overflow: str = "block",
        submit_timeout: Optional[float] = None,
        auto_flush: Optional[int] = None,
        max_group_systems: Optional[int] = None,
        verify: bool = False,
        dist=None,
        faults=None,
        metrics=None,
        tracer=None,
    ):
        from ..obs import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = (
            cache if cache is not None else ShardedTuningCache(num_shards)
        )
        self.fleet = ScalableWorkerFleet(workers)
        self.fleet.attach_metrics(self.metrics)
        self.admission = admission
        if admission is not None:
            admission.attach_metrics(self.metrics)
        self.service = BatchSolveService(
            device,
            tuning,
            cache=self.cache,
            max_pending=max_pending,
            overflow=overflow,
            submit_timeout=submit_timeout,
            auto_flush=auto_flush,
            max_group_systems=max_group_systems,
            verify=verify,
            dist=dist,
            faults=faults,
            breaker=breaker,
            metrics=self.metrics,
            tracer=tracer,
            executor=self.fleet,
        )
        self.autoscaler: Optional[Autoscaler] = None
        if autoscale:
            policy = (
                autoscale
                if isinstance(autoscale, AutoscalerPolicy)
                else AutoscalerPolicy(
                    min_workers=1, max_workers=max(workers * 4, workers)
                )
            )
            self.autoscaler = Autoscaler(
                self.fleet, self.metrics, policy, tracer=tracer
            )

    # -- shared request path -------------------------------------------------

    @property
    def stats(self):
        """The inner service's :class:`~repro.service.ServiceStats`."""
        return self.service.stats

    def submit_sync(
        self,
        batch: TridiagonalBatch,
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        tolerance: Optional[float] = None,
    ) -> "Future[ServiceResult]":
        """The sync facade: admission, then the service's own submit.

        This *is* the async path minus the asyncio wrapper — both doors
        lead to the same queue, grouping, and merged solves, which is
        what keeps them bit-identical.
        """
        ticket = None
        if self.admission is not None:
            try:
                ticket = self.admission.admit(tenant, priority)
            except Exception:
                self.stats.record_shed()
                raise
        try:
            future = self.service.submit(
                batch,
                device,
                timeout=timeout,
                deadline_ms=deadline_ms,
                tolerance=tolerance,
            )
        except Exception:
            if ticket is not None:
                self.admission.release(ticket)
            raise
        if ticket is not None:
            admission, held = self.admission, ticket
            future.add_done_callback(lambda _f: admission.release(held))
        return future

    async def submit(
        self,
        batch: TridiagonalBatch,
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        tolerance: Optional[float] = None,
    ) -> "asyncio.Future[ServiceResult]":
        """Awaitable submission: admit + enqueue now, result later.

        Returns an :class:`asyncio.Future` resolving to the request's
        :class:`~repro.service.ServiceResult`; gather a stream of them
        after :meth:`flush`. Typed admission/backpressure errors raise
        here, before anything is queued.
        """
        inner = self.submit_sync(
            batch,
            device,
            tenant=tenant,
            priority=priority,
            timeout=timeout,
            deadline_ms=deadline_ms,
            tolerance=tolerance,
        )
        return asyncio.wrap_future(inner)

    async def solve(
        self,
        batch: TridiagonalBatch,
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        tolerance: Optional[float] = None,
    ) -> ServiceResult:
        """Submit one request, flush, await its answer."""
        future = await self.submit(
            batch,
            device,
            tenant=tenant,
            priority=priority,
            deadline_ms=deadline_ms,
            tolerance=tolerance,
        )
        self.flush()
        return await future

    async def solve_many(
        self,
        batches: Sequence[TridiagonalBatch],
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        tolerance: Optional[float] = None,
    ) -> List[ServiceResult]:
        """Submit a stream, flush, gather in submission order.

        Like :meth:`solve_many_sync`, flushes whenever the queue fills.
        """
        futures = []
        for batch in batches:
            if self.service.queue_full:
                self.flush()
            futures.append(
                await self.submit(
                    batch,
                    device,
                    tenant=tenant,
                    priority=priority,
                    tolerance=tolerance,
                )
            )
        self.flush()
        return list(await asyncio.gather(*futures))

    def solve_many_sync(
        self,
        batches: Sequence[TridiagonalBatch],
        device=None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        tolerance: Optional[float] = None,
    ) -> List[ServiceResult]:
        """The sync facade of :meth:`solve_many` — same path, no loop.

        The queue is flushed whenever it fills, so more than
        ``max_pending`` batches never block the caller on itself.
        """
        futures = []
        for batch in batches:
            if self.service.queue_full:
                self.flush()
            futures.append(
                self.submit_sync(
                    batch,
                    device,
                    tenant=tenant,
                    priority=priority,
                    tolerance=tolerance,
                )
            )
        self.flush()
        return [future.result() for future in futures]

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> int:
        """Tick the autoscaler on the visible backlog, then dispatch."""
        if self.autoscaler is not None:
            self.autoscaler.tick()
        return self.service.flush()

    def drain(self) -> None:
        """Block until every dispatched group has finished."""
        self.service.drain()

    def close(self, wait: bool = True) -> None:
        """Flush pending work and retire the fleet."""
        self.service.close(wait=wait)

    def __enter__(self) -> "AsyncSolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    async def __aenter__(self) -> "AsyncSolveService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
