"""The batched solve service: plan reuse + merged solves + worker pool.

:class:`BatchSolveService` is the one serving front end. Callers
:meth:`~BatchSolveService.submit` independent solve requests (from
plain threads, or from asyncio through :meth:`~BatchSolveService
.solve_many_async` and ``asyncio.wrap_future``); the service

1. validates each request, then checks it against the optional
   :class:`~repro.service.admission.AdmissionController` (tenant
   quotas, priority classes),
2. resolves switch points **once per (device, dtype)** through a shared,
   thread-safe :class:`~repro.core.TuningCache` (``get_or_tune``),
3. reuses :class:`~repro.core.SolvePlan` objects per workload shape,
4. groups program-compatible requests (see :mod:`.batcher`) — keyed by
   the signature of the lowered instruction
   :class:`~repro.ir.Program`, the exact step sequence the shared
   engine will run — into single merged
   :class:`~repro.systems.TridiagonalBatch` solves, and
5. executes the groups concurrently on a fixed-width
   :class:`concurrent.futures.ThreadPoolExecutor` (or a caller-supplied
   pool), with queue backpressure (``max_pending`` + block/reject
   policy).

Merged solves amortise the per-launch overhead that dominates small
workloads — the simulated analogue of the interleaved batch solvers of
Gloster et al. — while the plan-signature grouping keeps every
request's answer bit-identical to a standalone
:meth:`MultiStageSolver.solve`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.config import SwitchPoints
from ..core.planner import SolvePlan, plan_solve
from ..core.solver import MultiStageSolver
from ..core.tuning import TuningCache, make_tuner
from ..dist.plan import DistPlan
from ..dist.solver import DistributedSolver, working_set_nbytes
from ..gpu.executor import Device, SimReport, make_device
from ..kernels import dtype_size
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import (
    ConfigurationError,
    DeadlineExceededError,
    InvalidSystemError,
    PriorityShedError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
    TenantQuotaExceededError,
)
from ..util.validation import check_system_batch
from .admission import AdmissionController
from .batcher import GroupKey, ServiceRequest, SolveGroup, group_requests
from .queue import BoundedRequestQueue, CircuitBreaker
from .stats import ServiceStats

__all__ = ["ServiceResult", "BatchSolveService"]


@dataclass(frozen=True)
class ServiceResult:
    """One request's answer, with the merged solve's provenance."""

    x: np.ndarray
    plan: SolvePlan  # the request's own plan (what a standalone solve runs)
    switch_points: SwitchPoints
    report: SimReport  # timing of the whole merged solve
    group_label: str
    group_requests: int  # requests merged into the solve that produced x
    group_systems: int  # total systems in that merged solve
    wall_ms: float  # wall-clock of the merged solve

    @property
    def simulated_ms(self) -> float:
        """Simulated device time of the merged solve (shared by the group)."""
        return self.report.total_ms


class BatchSolveService:
    """Accepts many solve requests; executes few merged solves.

    Parameters
    ----------
    device:
        Default device for requests that don't name one.
    tuning:
        ``SwitchPoints`` used verbatim, or a strategy name
        (``default``/``static``/``dynamic``) resolved once per
        (device, dtype) and cached.
    cache:
        Shared :class:`TuningCache` (or a path for a persistent one).
        Created memory-only when omitted.
    max_workers:
        Width of the worker pool executing merged solves concurrently.
    max_pending / overflow / submit_timeout:
        Backpressure: the pending queue holds at most ``max_pending``
        requests; ``overflow="block"`` waits (up to ``submit_timeout``
        seconds) for space, ``overflow="reject"`` raises
        :class:`ServiceOverloadedError` immediately.
    auto_flush:
        When set, ``submit`` dispatches pending work automatically once
        this many requests are queued; otherwise call :meth:`flush`.
    max_group_systems:
        Cap on merged-batch height (bounds per-solve working set).
    dist:
        Optional distributed backend for requests whose working set
        overflows one device's global memory: a
        :class:`~repro.dist.DistributedSolver`, a
        :class:`~repro.dist.DeviceGroup`, or a device count (a group of
        the service's default device is built). Oversized requests are
        planned with a :class:`~repro.dist.DistPlan` and grouped by its
        signature, so plan-compatible oversized requests still merge
        into one distributed solve.
    faults:
        Optional :class:`~repro.faults.FaultInjector` (or a bare
        :class:`~repro.faults.FaultPlan`) threaded through every solver
        the service builds. Workers honour its
        :class:`~repro.faults.WorkerStall` specs, and its
        :class:`~repro.faults.FaultLog` is surfaced in
        :meth:`ServiceStats.snapshot` under ``"faults"``.
    breaker:
        Optional :class:`~repro.service.queue.CircuitBreaker`. While it
        is open, :meth:`submit` sheds load with
        :class:`~repro.util.errors.ServiceOverloadedError`.
    admission:
        Optional :class:`~repro.service.admission.AdmissionController`
        checked by :meth:`submit` for the request's ``tenant`` and
        ``priority``; ``None`` admits everything (single-tenant mode).
        A request's ticket is released when its future settles.
    executor:
        An outside worker pool — anything with ``submit(fn, *args) ->
        Future`` and ``shutdown(wait=...)`` — used instead of the
        built-in ``ThreadPoolExecutor(max_workers)``. The service shuts
        it down on :meth:`close`.
    fuse:
        Whether merged solves run through the batched-fusion lowering
        (the interleaved-layout sweeps of :func:`repro.ir.fuse_batched`):
        ``False`` never, ``True`` always, ``"auto"`` (the default)
        prices both lowerings per group signature and runs whichever
        the cost model says is cheaper — the interleave toll only pays
        for itself once split stages or large merges dominate. Safe in
        every mode: fused solutions are bit-identical to the staged
        chain, so answers still match a standalone unfused
        :meth:`MultiStageSolver.solve`. Grouping stays keyed by the
        unfused program signature (fusion is a pure function of it).

    When a merged solve raises a typed :class:`ReproError` (a poisoned
    request — e.g. a singular system failing verification), the group is
    *bisected*: each half retries separately until the bad request fails
    alone and every healthy neighbour still gets its answer.
    Per-request deadlines (``submit(..., deadline_ms=...)``) are
    enforced immediately before and after the merged solve with
    :class:`~repro.util.errors.DeadlineExceededError`.
    """

    def __init__(
        self,
        device: Union[Device, str] = "gtx470",
        tuning: Union[SwitchPoints, str] = "static",
        *,
        cache: Union[TuningCache, str, None] = None,
        max_workers: int = 4,
        max_pending: int = 1024,
        overflow: str = "block",
        submit_timeout: Optional[float] = None,
        auto_flush: Optional[int] = None,
        max_group_systems: Optional[int] = None,
        verify: bool = False,
        dist=None,
        faults=None,
        breaker: Optional[CircuitBreaker] = None,
        admission: Optional[AdmissionController] = None,
        metrics=None,
        tracer=None,
        executor=None,
        fuse: Union[bool, str] = "auto",
    ):
        if max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.default_device = make_device(device)
        self.fuse = fuse
        self.cache = cache if isinstance(cache, TuningCache) else TuningCache(cache)
        self.verify = verify
        if faults is not None and not hasattr(faults, "before_step"):
            from ..faults import FaultInjector

            faults = FaultInjector(faults)
        self.faults = faults
        self.breaker = breaker
        self.admission = admission
        self.max_group_systems = max_group_systems
        self.auto_flush = auto_flush
        self.submit_timeout = submit_timeout
        self.stats = ServiceStats()
        self._tuning = tuning
        self._queue: BoundedRequestQueue[ServiceRequest] = BoundedRequestQueue(
            max_pending=max_pending, policy=overflow
        )
        # The service owns whichever pool it ends up with — ``close``
        # shuts it down either way.
        self._pool = (
            executor
            if executor is not None
            else ThreadPoolExecutor(max_workers, thread_name_prefix="repro-serve")
        )
        self._lock = threading.Lock()
        self._seq = 0
        self._devices: Dict[str, Device] = {}
        self._switch: Dict[Tuple[str, int], SwitchPoints] = {}
        self._solvers: Dict[Tuple[str, int], MultiStageSolver] = {}
        self._plans: Dict[Tuple[str, int, int, int], SolvePlan] = {}
        self._signatures: Dict[Tuple, Tuple] = {}
        self._group_futures: List[Future] = []
        self._closed = False
        self._dist_config = dist
        self._dist_solver: Optional[DistributedSolver] = None
        self.stats.attach_cache(self.cache)
        if self.faults is not None:
            self.stats.attach_fault_log(self.faults.log)
        # Observability: one shared registry (private unless provided)
        # collects the whole catalogue — service counters, queue depth,
        # breaker transitions, tuning-cache lookups, fault events — and
        # an optional tracer threads through every solver the service
        # builds. ``docs/observability.md`` documents the metric names.
        from ..obs import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.stats.attach_metrics(self.metrics)
        self.cache.attach_metrics(self.metrics)
        if admission is not None:
            admission.attach_metrics(self.metrics)
        self._queue_depth = self.metrics.gauge(
            "repro_service_queue_depth", "Requests waiting to be flushed."
        )
        self._queue.attach_metrics(self.metrics)
        if self.breaker is not None:
            self.breaker.attach_metrics(self.metrics)
        if self.faults is not None:
            self.faults.log.attach_metrics(self.metrics)
        # The numerical-safety governor: verifies every governed group
        # against the strictest member tolerance and escalates (see
        # repro.numerics). Shares the service's registry and tracer so
        # escalation/fallback rates land in the same dump.
        from ..numerics import Governor

        self.governor = Governor(metrics=self.metrics, tracer=self.tracer)

    @property
    def dist_solver(self) -> Optional[DistributedSolver]:
        """The distributed backend, or ``None`` when not configured."""
        if self._dist_config is None:
            return None
        with self._lock:
            solver = self._dist_solver
        if solver is not None:
            return solver
        if isinstance(self._dist_config, DistributedSolver):
            solver = self._dist_config
        else:
            solver = DistributedSolver(
                self._dist_config,
                self._tuning,
                device=self.default_device,
                cache=self.cache,
                verify=self.verify,
                faults=self.faults,
                metrics=self.metrics,
                tracer=self.tracer,
            )
        with self._lock:
            if self._dist_solver is None:
                self._dist_solver = solver
            return self._dist_solver

    def _routes_to_dist(self, batch: TridiagonalBatch, dev: Device) -> bool:
        """Oversized for one device, and the group models that device."""
        solver = self.dist_solver
        if solver is None or dev.name != solver.group.device_name:
            return False
        nbytes = working_set_nbytes(
            batch.num_systems, batch.system_size, dtype_size(batch.dtype)
        )
        return nbytes > dev.spec.global_mem_bytes

    # -- tuning / planning reuse -------------------------------------------

    def _device(self, device: Union[Device, str, None]) -> Device:
        dev = self.default_device if device is None else make_device(device)
        with self._lock:
            return self._devices.setdefault(dev.name, dev)

    def switch_points_for(
        self, device: Union[Device, str, None] = None, dtype=np.float64
    ) -> SwitchPoints:
        """The switch points the service uses for (device, dtype).

        Resolved once through the shared cache's ``get_or_tune`` fast
        path; exposes the exact configuration a standalone reference
        solve must use to reproduce service results bit-for-bit.
        """
        dev = self._device(device)
        dsize = dtype_size(np.dtype(dtype))
        key = (dev.name, dsize)
        with self._lock:
            cached = self._switch.get(key)
        if cached is not None:
            return cached
        if isinstance(self._tuning, SwitchPoints):
            resolved = self._tuning
        else:
            strategy = self._tuning

            def tune_now() -> SwitchPoints:
                return make_tuner(strategy).switch_points(dev, 0, 0, dsize)

            resolved = self.cache.get_or_tune(
                dev.name, dsize, tune_now, workload_class="service"
            )
        with self._lock:
            return self._switch.setdefault(key, resolved)

    def solver_for(
        self, device: Union[Device, str, None] = None, dtype=np.float64
    ) -> MultiStageSolver:
        """The (shared) solver executing merged solves for (device, dtype)."""
        dev = self._device(device)
        dsize = dtype_size(np.dtype(dtype))
        key = (dev.name, dsize)
        with self._lock:
            solver = self._solvers.get(key)
        if solver is not None:
            return solver
        switch = self.switch_points_for(dev, dtype)
        solver = MultiStageSolver(
            dev, switch, verify=self.verify, faults=self.faults,
            tracer=self.tracer, fuse=self.fuse,
        )
        with self._lock:
            return self._solvers.setdefault(key, solver)

    def plan_for(
        self, batch: TridiagonalBatch, device: Union[Device, str, None] = None
    ) -> SolvePlan:
        """The per-request plan, memoised per (device, dtype, m, n)."""
        dev = self._device(device)
        dsize = dtype_size(batch.dtype)
        key = (dev.name, dsize, batch.num_systems, batch.system_size)
        with self._lock:
            plan = self._plans.get(key)
        if plan is not None:
            return plan
        switch = self.switch_points_for(dev, batch.dtype)
        plan = plan_solve(
            dev, batch.num_systems, batch.system_size, dsize, switch
        )
        with self._lock:
            return self._plans.setdefault(key, plan)

    def _program_signature(self, plan, device_label: str, dsize: int, lower):
        """Signature of the lowered instruction program, memoised.

        Plan signatures are count-independent, and lowering is a pure
        function of the plan (plus device and dtype), so the program
        signature is cached per (device, dtype, plan signature) — one
        lowering per distinct workload class, not per request.
        """
        key = (device_label, dsize, plan.signature)
        with self._lock:
            sig = self._signatures.get(key)
        if sig is not None:
            return sig
        sig = lower().signature
        with self._lock:
            return self._signatures.setdefault(key, sig)

    # -- the request path ----------------------------------------------------

    def submit(
        self,
        batch: TridiagonalBatch,
        device: Union[Device, str, None] = None,
        *,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
        tolerance: Optional[float] = None,
        tenant: str = "default",
        priority: Optional[str] = None,
    ) -> "Future[ServiceResult]":
        """Queue one solve request; returns a future for its result.

        The steps run in order: validation, admission, then the
        breaker, plan and queue. Malformed systems — NaN/Inf
        coefficients, zero diagonals — are rejected first, with a typed
        :class:`~repro.util.errors.InvalidSystemError`, so they never
        hold an admission slot. With an ``admission`` controller the
        request is then admitted for ``tenant`` at ``priority`` or shed
        with :class:`~repro.util.errors.TenantQuotaExceededError` /
        :class:`~repro.util.errors.PriorityShedError`.

        Applies the backpressure policy; a rejected request raises
        :class:`ServiceOverloadedError` and is counted in the stats.
        ``deadline_ms`` is a wall-clock budget from now: the request
        fails with :class:`DeadlineExceededError` instead of returning
        a result the caller stopped waiting for. ``tolerance`` requests
        a governed solve: the answer's relative residual is verified
        against it (a merged group honours its strictest member) or the
        request fails with a typed
        :class:`~repro.util.errors.NumericalBreakdownError`.

        To await one request from asyncio, wrap the returned future
        with :func:`asyncio.wrap_future`.
        """
        if self._closed:
            raise ServiceError("service is closed")
        try:
            check_system_batch(batch, context="service request")
        except InvalidSystemError:
            self.metrics.counter(
                "repro_service_invalid_total",
                "Requests rejected at the boundary for malformed systems.",
            ).inc()
            if self.faults is not None:
                self.faults.note(
                    "numerics", "rejected", detail="invalid system at submit"
                )
            raise
        ticket = None
        if self.admission is not None:
            try:
                ticket = self.admission.admit(tenant, priority)
            except (TenantQuotaExceededError, PriorityShedError):
                self.stats.record_shed()
                raise
        try:
            future = self._enqueue(batch, device, timeout, deadline_ms, tolerance)
        except BaseException:
            if ticket is not None:
                self.admission.release(ticket)
            raise
        if ticket is not None:
            future.add_done_callback(lambda _f: self.admission.release(ticket))
        return future

    def _enqueue(
        self,
        batch: TridiagonalBatch,
        device: Union[Device, str, None],
        timeout: Optional[float],
        deadline_ms: Optional[float],
        tolerance: Optional[float],
    ) -> "Future[ServiceResult]":
        """Breaker, plan and queue steps of :meth:`submit`."""
        if self.breaker is not None and not self.breaker.allow():
            self.stats.record_shed()
            if self.faults is not None:
                self.faults.note(
                    "overload", "shed", detail="circuit breaker open"
                )
            raise ServiceOverloadedError(
                "circuit breaker is open (backend failing); request shed"
            )
        dev = self._device(device)
        dsize = dtype_size(batch.dtype)
        if self._routes_to_dist(batch, dev):
            # Too big for one device: plan across the group. The group
            # label keys the merged solve so oversized requests only mix
            # with program-compatible oversized requests.
            dist = self.dist_solver
            plan = dist.plan_for(batch)
            key = GroupKey(
                device=dist.group.describe(),
                dtype=str(batch.dtype),
                system_size=batch.system_size,
                signature=self._program_signature(
                    plan,
                    dist.group.describe(),
                    dsize,
                    lambda: dist.lower(plan, dsize),
                ),
            )
        else:
            plan = self.plan_for(batch, dev)
            key = GroupKey(
                device=dev.name,
                dtype=str(batch.dtype),
                system_size=batch.system_size,
                signature=self._program_signature(
                    plan, dev.name, dsize, lambda: plan.lower(dev, dsize)
                ),
            )
        with self._lock:
            seq = self._seq
            self._seq += 1
        deadline = (
            None
            if deadline_ms is None
            else time.monotonic() + deadline_ms / 1e3
        )
        request = ServiceRequest(
            seq=seq,
            batch=batch,
            device=dev.name,
            key=key,
            plan=plan,
            deadline=deadline,
            tolerance=None if tolerance is None else float(tolerance),
        )
        try:
            self._queue.put(
                request,
                timeout=self.submit_timeout if timeout is None else timeout,
            )
        except Exception:
            self.stats.record_rejected()
            raise
        self.stats.record_submitted()
        self._queue_depth.set(self._queue.pending)
        if self.auto_flush is not None and self._queue.pending >= self.auto_flush:
            self.flush()
        return request.future

    @property
    def queue_full(self) -> bool:
        """Whether ``max_pending`` requests wait: the next submit blocks
        (or is rejected) until a flush makes room."""
        return self._queue.pending >= self._queue.max_pending

    def flush(self) -> int:
        """Group everything pending and dispatch the groups to the pool.

        Returns the number of merged solves dispatched. If the pool
        refuses a group (it was shut down), that group and every group
        not yet dispatched fail with a typed :class:`ServiceError` —
        their requests are already off the queue, so nothing else would
        ever settle them — and ``flush`` raises :class:`ServiceError`.
        """
        pending = self._queue.drain()
        self._queue_depth.set(self._queue.pending)
        if not pending:
            return 0
        groups = group_requests(
            pending, max_group_systems=self.max_group_systems
        )
        for i, group in enumerate(groups):
            try:
                fut = self._pool.submit(self._run_group, group)
            except Exception as exc:
                stranded = [req for g in groups[i:] for req in g.requests]
                reason = f"worker pool refused a merged solve: {exc}"
                for req in stranded:
                    req.future.set_exception(ServiceError(reason))
                self.stats.record_failed(len(stranded))
                raise ServiceError(
                    f"{reason}; {len(stranded)} requests failed"
                ) from exc
            with self._lock:
                self._group_futures.append(fut)
        return len(groups)

    def _run_group(self, group: SolveGroup) -> None:
        """Worker body: one merged solve, fanned back out to futures."""
        if self.faults is not None:
            self.faults.maybe_stall(group.key.describe())
        self._execute_group(group)

    def _expire(self, req: ServiceRequest, when: str) -> bool:
        """Fail ``req`` if its deadline has passed; True when expired."""
        if req.deadline is None or time.monotonic() <= req.deadline:
            return False
        req.future.set_exception(
            DeadlineExceededError(
                f"request deadline passed {when} the merged solve"
            )
        )
        self.stats.record_deadline_expired()
        if self.faults is not None:
            self.faults.note(
                "deadline", "expired", label=req.key.describe(), detail=when
            )
        return True

    def _enforce_group(
        self,
        merged: TridiagonalBatch,
        first: ServiceRequest,
        x: np.ndarray,
        tolerance: float,
    ) -> np.ndarray:
        """Residual-verify a merged solve against ``tolerance``.

        Escalates through one iterative-refinement step (re-executing
        the group's own plan on the residual right-hand side — same
        instruction stream, so bit-compatible with the merged solve)
        before raising :class:`~repro.util.errors.NumericalBreakdownError`
        for the bisection logic in :meth:`_execute_group` to isolate.
        """

        def refine(b: TridiagonalBatch, cur: np.ndarray) -> np.ndarray:
            residual_rhs = b.d - b.matvec(cur)
            rhs_batch = TridiagonalBatch(b.a, b.b, b.c, residual_rhs)
            plan = first.plan.with_num_systems(b.num_systems)
            if isinstance(first.plan, DistPlan):
                correction = self.dist_solver.execute_plan(rhs_batch, plan).x
            else:
                solver = self.solver_for(first.device, b.dtype)
                switch = self.switch_points_for(first.device, b.dtype)
                correction = solver.execute_plan(rhs_batch, plan, switch).x
            return cur + correction

        outcome = self.governor.enforce(
            merged,
            x,
            tolerance,
            refine=refine,
            resolve=None,
            path="service",
            context="merged group solve",
        )
        return outcome.x

    def _execute_group(self, group: SolveGroup) -> None:
        """One merged solve; bisect on typed errors, enforce deadlines."""
        live = [r for r in group.requests if not self._expire(r, "before")]
        if not live:
            return
        if len(live) != len(group.requests):
            group = SolveGroup(key=group.key, requests=live)
        t0 = time.perf_counter()
        try:
            merged = group.merged_batch()
            first = group.requests[0]
            if isinstance(first.plan, DistPlan):
                result = self.dist_solver.execute_plan(
                    merged, first.plan.with_num_systems(merged.num_systems)
                )
            else:
                solver = self.solver_for(group.key.device, merged.dtype)
                switch = self.switch_points_for(group.key.device, merged.dtype)
                result = solver.execute_plan(
                    merged, first.plan.with_num_systems(merged.num_systems), switch
                )
            # Governed groups: verify the merged answer against the
            # strictest member tolerance and walk the escalation ladder.
            # A NumericalBreakdownError raised here is a *typed* error,
            # so the bisection below isolates the offending member and
            # its group-mates still get (individually verified) answers.
            x_out = result.x
            tolerance = group.strictest_tolerance()
            if tolerance is not None:
                x_out = self._enforce_group(merged, first, x_out, tolerance)
        except ReproError as exc:
            if len(live) > 1:
                # A typed failure in a merged batch: one member may be
                # poisoned (singular system, verification failure).
                # Retry each half separately so the bad request fails
                # alone and its neighbours still get answers.
                self.stats.record_bisection()
                if self.faults is not None:
                    self.faults.note(
                        "service",
                        "bisected",
                        label=group.key.describe(),
                        detail=(
                            f"{len(live)} requests split after "
                            f"{type(exc).__name__}"
                        ),
                    )
                mid = len(live) // 2
                self._execute_group(SolveGroup(group.key, live[:mid]))
                self._execute_group(SolveGroup(group.key, live[mid:]))
                return
            live[0].future.set_exception(exc)
            self.stats.record_failed(1)
            if self.breaker is not None:
                self.breaker.record_failure()
            return
        except Exception as exc:
            # Untyped failures are infrastructure, not data: bisection
            # would retry the same breakage; fail the whole group.
            for req in live:
                req.future.set_exception(exc)
            self.stats.record_failed(len(live))
            if self.breaker is not None:
                self.breaker.record_failure()
            return
        wall_ms = (time.perf_counter() - t0) * 1e3
        deliveries = []
        for req, offset in zip(group.requests, group.offsets()):
            rows = slice(offset, offset + req.batch.num_systems)
            if self._expire(req, "after"):
                continue
            deliveries.append((req, rows))
        # Stats and breaker update BEFORE the futures resolve: a caller
        # woken by future.result() may read service.stats immediately,
        # and must see the group that produced its answer (the ordering
        # regression test in tests/test_obs.py pins this).
        if self.breaker is not None:
            self.breaker.record_success()
        self.stats.record_group(
            group.key.describe(),
            requests=len(deliveries),
            systems=merged.num_systems,
            simulated_ms=result.report.total_ms,
            wall_ms=wall_ms,
        )
        for req, rows in deliveries:
            req.future.set_result(
                ServiceResult(
                    x=np.ascontiguousarray(x_out[rows]),
                    plan=req.plan,
                    switch_points=result.switch_points,
                    report=result.report,
                    group_label=group.key.describe(),
                    group_requests=group.num_requests,
                    group_systems=merged.num_systems,
                    wall_ms=wall_ms,
                )
            )

    def _submit_all(
        self,
        batches: Sequence[TridiagonalBatch],
        device: Union[Device, str, None],
        **request,
    ) -> List["Future[ServiceResult]"]:
        """Submit ``batches`` in order, then flush.

        The queue is flushed whenever it fills, so more than
        ``max_pending`` batches never block the caller on itself.
        """
        futures = []
        for batch in batches:
            if self.queue_full:
                self.flush()
            futures.append(self.submit(batch, device, **request))
        self.flush()
        return futures

    def solve_many(
        self,
        batches: Sequence[TridiagonalBatch],
        device: Union[Device, str, None] = None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        tolerance: Optional[float] = None,
    ) -> List[ServiceResult]:
        """Submit ``batches``, flush, and wait; results in input order."""
        futures = self._submit_all(
            batches, device, tenant=tenant, priority=priority, tolerance=tolerance
        )
        return [fut.result() for fut in futures]

    async def solve_many_async(
        self,
        batches: Sequence[TridiagonalBatch],
        device: Union[Device, str, None] = None,
        *,
        tenant: str = "default",
        priority: Optional[str] = None,
        tolerance: Optional[float] = None,
    ) -> List[ServiceResult]:
        """:meth:`solve_many` for asyncio callers: the same submissions,
        awaited instead of blocked on. Nothing numeric runs on the event
        loop; solves run on the pool and the loop only awaits them."""
        futures = self._submit_all(
            batches, device, tenant=tenant, priority=priority, tolerance=tolerance
        )
        return list(await asyncio.gather(*map(asyncio.wrap_future, futures)))

    # -- lifecycle ------------------------------------------------------------

    def drain(self) -> None:
        """Block until every dispatched group has finished."""
        with self._lock:
            futures = list(self._group_futures)
            self._group_futures.clear()
        for fut in futures:
            fut.result()

    def close(self, wait: bool = True) -> None:
        """Dispatch any pending work, then shut the pool down."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "BatchSolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    async def __aenter__(self) -> "BatchSolveService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        self.close()
