"""The multi-device domain-decomposition solver.

:class:`DistributedSolver` solves workloads that exceed one simulated
device — systems too long for its memory, or batches too wide to be
worth one device's time — by partitioning across a
:class:`~repro.dist.topology.DeviceGroup`:

- **rows mode** (SPIKE-style): each device receives a contiguous row
  chunk of every system and runs the full multi-stage solver on it
  against three right-hand sides (the data plus the two coupling
  spikes); chunk boundaries couple through a tiny 2×2-block reduced
  system solved on device 0; a final fused-multiply-add reconstructs.
  The math is exactly :mod:`repro.algorithms.spike` with the chunk
  solves placed on devices.
- **batch mode**: a wide batch of on-chip-size systems is sharded by
  system; no coupling, the cost is the scatter/gather pipeline.
- **pipelined mode**: rows mode with fused (interleaved) local solves
  and the exact reduced system swept neighbour-to-neighbour instead of
  gathered on device 0 — bit-identical solutions to rows, a hub-free
  overlapped schedule (see :func:`repro.ir.lower._lower_pipelined`).

Numerics are exact (verified against the single-device
:class:`~repro.core.MultiStageSolver` to tight tolerance). Timing comes
from one shared path: the chosen :class:`~repro.dist.plan.DistPlan`
lowers to an instruction :class:`~repro.ir.Program` (local solve
fragments per device, transfers with dependency edges and resource
claims, the reduced solve, the reconstruction) and the
:class:`~repro.ir.Engine` prices it into the
:class:`~repro.dist.pipeline.DistReport` makespan — the same interpreter
that executes and prices single-device solves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..algorithms.lu import scipy_banded_solve
from ..algorithms.verify import assert_solution
from ..core.config import SwitchPoints
from ..core.planner import plan_solve
from ..core.solver import MultiStageSolver
from ..core.tuning import TuningCache, make_tuner
from ..gpu.executor import SimReport
from ..ir.engine import Engine
from ..kernels import dtype_size
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import (
    ConfigurationError,
    DeviceLostError,
    PlanError,
    ReproError,
)
from .partition import (
    partition_bounds,
    reconstruct_chunk,
    solve_reduced_system,
    spike_rhs,
    split_chunks,
    surviving_indices,
    truncated_reduced_solve,
)
from .pipeline import DistReport, failover_report
from .plan import DistPlan, batch_shares
from .topology import DeviceGroup, make_device_group

__all__ = ["DistSolveResult", "DistributedSolver", "working_set_nbytes"]


def working_set_nbytes(num_systems: int, system_size: int, dsize: int) -> int:
    """Bytes one device needs for a solve: four coefficient arrays + x."""
    return 5 * num_systems * system_size * dsize


@dataclass(frozen=True)
class DistSolveResult:
    """Solution plus provenance of one distributed solve."""

    x: np.ndarray
    plan: DistPlan
    switch_points: SwitchPoints
    report: DistReport
    local_reports: Tuple[SimReport, ...]

    @property
    def simulated_ms(self) -> float:
        """Simulated end-to-end time (the makespan across devices)."""
        return self.report.total_ms


class DistributedSolver:
    """Solve across a :class:`DeviceGroup`, verified against one device.

    Parameters
    ----------
    group:
        The device group, or an integer device count (a group of
        ``device`` parts joined by ``link``/``topology`` is built).
    tuning:
        ``SwitchPoints`` used verbatim, a strategy name resolved once
        per dtype through the shared ``cache``, or a tuner instance.
    mode:
        ``"rows"``, ``"batch"``, ``"approx"``, ``"pipelined"``, or
        ``"auto"`` (price every feasible mode, keep the fastest).
    faults:
        Optional :class:`~repro.faults.FaultInjector` (or a bare
        :class:`~repro.faults.FaultPlan`). Local solves then run under
        injection, and a :class:`DeviceLostError` mid-solve triggers
        failover: the workload re-partitions onto the surviving
        devices and replays from the last completed barrier, with the
        wasted makespan priced into the combined report.
    """

    def __init__(
        self,
        group: Union[DeviceGroup, int, None] = None,
        tuning: Union[SwitchPoints, str, object] = "static",
        *,
        device="gtx470",
        link="pcie3",
        topology: str = "all_to_all",
        mode: str = "auto",
        cache: Union[TuningCache, str, None] = None,
        verify: bool = False,
        faults=None,
        metrics=None,
        tracer=None,
    ):
        if group is None:
            group = make_device_group(device, 4, link, topology)
        elif isinstance(group, int):
            group = make_device_group(device, group, link, topology)
        self.group = group
        if mode not in ("auto", "rows", "batch", "approx", "pipelined"):
            raise ConfigurationError(f"unknown dist mode {mode!r}")
        self.mode = mode
        self.verify = verify
        self.cache = cache if isinstance(cache, TuningCache) else TuningCache(cache)
        self._tuning = tuning
        if faults is not None and not hasattr(faults, "before_step"):
            from ..faults import FaultInjector

            faults = FaultInjector(faults)
        self.faults = faults
        self._engine = Engine.for_group(group)
        # The shared engine only *prices* dist programs; pricing runs
        # paused (planning must not consume faults) but still sees
        # environmental slowdowns (clock skew, link degradation).
        self._engine.injector = faults
        # Observability. The pricing engine deliberately gets NO tracer —
        # planning prices many candidate programs and would flood the
        # trace; executed local programs are traced via the member
        # solvers' engines instead. Metrics land in a shared registry
        # (or a private one when the caller does not provide any).
        from ..obs import MetricsRegistry

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._lock = threading.Lock()
        self._switch: Dict[int, SwitchPoints] = {}
        self._solvers: Dict[Tuple[int, int, bool], MultiStageSolver] = {}
        self._planned: Dict[Tuple, Tuple[DistPlan, DistReport]] = {}
        self._programs: Dict[Tuple[DistPlan, int], object] = {}
        # Lazily built numerical-safety governor (shares this solver's
        # metrics registry and tracer); owns tolerance-governed solves.
        self._governor = None

    def governor(self):
        """The shared :class:`~repro.numerics.Governor` for this solver."""
        from ..numerics import Governor

        with self._lock:
            if self._governor is None:
                self._governor = Governor(
                    metrics=self.metrics, tracer=self.tracer
                )
            return self._governor

    # -- tuning ----------------------------------------------------------

    def switch_points_for(self, dsize: int) -> SwitchPoints:
        """Switch points shared by every member device, per dtype size."""
        with self._lock:
            cached = self._switch.get(dsize)
        if cached is not None:
            return cached
        if isinstance(self._tuning, SwitchPoints):
            resolved = self._tuning
        elif isinstance(self._tuning, str):
            strategy = self._tuning
            device = self.group[0]

            def tune_now() -> SwitchPoints:
                return make_tuner(strategy).switch_points(device, 0, 0, dsize)

            resolved = self.cache.get_or_tune(
                device.name, dsize, tune_now, workload_class="dist"
            )
        elif hasattr(self._tuning, "switch_points"):
            resolved = self._tuning.switch_points(self.group[0], 0, 0, dsize)
        else:
            raise ConfigurationError(
                "tuning must be SwitchPoints, a tuner, or a strategy name; "
                f"got {type(self._tuning).__name__}"
            )
        with self._lock:
            return self._switch.setdefault(dsize, resolved)

    def _solver(
        self, index: int, dsize: int, fuse: bool = False
    ) -> MultiStageSolver:
        key = (index, dsize, fuse)
        with self._lock:
            solver = self._solvers.get(key)
        if solver is not None:
            return solver
        solver = MultiStageSolver(
            self.group[index],
            self.switch_points_for(dsize),
            fuse=fuse,
            faults=(
                None if self.faults is None else self.faults.for_device(index)
            ),
        )
        # Trace local programs directly under the distributed solve span
        # (no per-chunk solve wrapper — the dist solve is the solve).
        solver._engine.tracer = self.tracer
        with self._lock:
            return self._solvers.setdefault(key, solver)

    # -- lowering ---------------------------------------------------------

    def lower(self, plan: DistPlan, dsize: int):
        """The instruction program for ``plan``, memoised per dtype."""
        key = (plan, dsize)
        with self._lock:
            program = self._programs.get(key)
        if program is not None:
            return program
        program = plan.lower(self.group, dsize)
        with self._lock:
            return self._programs.setdefault(key, program)

    def _report_for(self, plan: DistPlan, dsize: int) -> DistReport:
        """Price ``plan``'s program on the shared engine."""
        if self.faults is not None:
            with self.faults.paused():
                return self._engine.price(self.lower(plan, dsize)).report
        return self._engine.price(self.lower(plan, dsize)).report

    # -- planning & pricing ----------------------------------------------

    def plan_for(self, batch: TridiagonalBatch) -> DistPlan:
        """The plan this solver would execute for ``batch``."""
        plan, _ = self.price(
            batch.num_systems, batch.system_size, dtype_size(batch.dtype)
        )
        return plan

    def price(
        self,
        num_systems: int,
        system_size: int,
        dsize: int = 8,
        *,
        tolerance: Optional[float] = None,
    ) -> Tuple[DistPlan, DistReport]:
        """Plan and price an ``(m, n)`` workload without touching data.

        The distributed analogue of :func:`repro.core.simulate_plan` —
        the quantity ``dist-bench`` charts and the hybrid dispatcher
        compares against the CPU and single-GPU models.

        With ``tolerance`` set the truncated-SPIKE ``approx`` mode joins
        the candidate set (priced honestly by the same cost model —
        neighbour tip transfers and per-interface 2×2 solves instead of
        the global reduced system). The tolerance *value* does not move
        the price; whether approx is numerically admissible for a given
        batch is the governor's call at solve time.
        """
        approx_allowed = tolerance is not None or self.mode == "approx"
        key = (num_systems, system_size, dsize, approx_allowed)
        with self._lock:
            cached = self._planned.get(key)
        if cached is not None:
            return cached
        candidates: List[Tuple[DistPlan, DistReport]] = []
        errors: List[str] = []
        if self.mode != "auto":
            modes: Tuple[str, ...] = (self.mode,)
        else:
            modes = ("rows", "batch", "pipelined")
            if approx_allowed:
                modes = modes + ("approx",)
        for mode in modes:
            try:
                if mode in ("rows", "approx", "pipelined"):
                    candidates.append(
                        self._price_rows(
                            num_systems, system_size, dsize, mode=mode
                        )
                    )
                else:
                    candidates.append(
                        self._price_batch(num_systems, system_size, dsize)
                    )
            except ReproError as exc:
                errors.append(f"{mode}: {exc}")
        if not candidates:
            raise ConfigurationError(
                f"no feasible distributed plan for {num_systems} x "
                f"{system_size} on {self.group.describe()} "
                f"({'; '.join(errors)})"
            )
        best = min(candidates, key=lambda pair: pair[1].total_ms)
        with self._lock:
            return self._planned.setdefault(key, best)

    def _price_rows(
        self, m: int, n: int, dsize: int, *, mode: str
    ) -> Tuple[DistPlan, DistReport]:
        p = len(self.group)
        switch = self.switch_points_for(dsize)
        if p == 1:
            if mode == "approx":
                raise ConfigurationError(
                    "approx mode needs at least two devices (one device "
                    "has no chunk interfaces to truncate)"
                )
            if mode == "pipelined":
                raise ConfigurationError(
                    "pipelined mode needs at least two devices (one "
                    "device has no reduced sweep to pipeline)"
                )
            chunk_sizes: Tuple[int, ...] = (n,)
            local_plans = (plan_solve(self.group[0], m, n, dsize, switch),)
        else:
            bounds = partition_bounds(n, p)
            chunk_sizes = tuple(stop - start for start, stop in bounds)
            local_plans = tuple(
                plan_solve(self.group[i], 3 * m, chunk_sizes[i], dsize, switch)
                for i in range(p)
            )
        for local in local_plans:
            self._check_local_memory(local, dsize)
        # Rows, approx and pipelined share the chunk split and the 3-RHS
        # local solves; they differ only in how the lowering exchanges
        # and solves the reduced coupling.
        plan = DistPlan(
            mode=mode,
            num_devices=p,
            num_systems=m,
            system_size=n,
            chunk_sizes=chunk_sizes,
            schedule="pipelined" if mode == "pipelined" else "fused",
            topology=self.group.interconnect.describe(),
            device_name=self.group.device_name,
            local_plans=local_plans,
        )
        return plan, self._report_for(plan, dsize)

    def _price_batch(
        self, m: int, n: int, dsize: int
    ) -> Tuple[DistPlan, DistReport]:
        p = len(self.group)
        if p == 1:
            raise ConfigurationError(
                "batch mode needs at least two devices (rows covers one)"
            )
        switch = self.switch_points_for(dsize)
        shares = batch_shares(m, p)
        template = plan_solve(self.group[0], shares[0], n, dsize, switch)
        if template.total_split_steps != 0:
            raise ConfigurationError(
                f"batch mode shards only on-chip systems; {n} needs "
                f"{template.total_split_steps} split steps on "
                f"{self.group.device_name}"
            )
        local_plans = tuple(
            template.with_num_systems(share) for share in shares
        )
        for local in local_plans:
            self._check_local_memory(local, dsize)
        if len(shares) != p:
            raise ConfigurationError(
                f"batch mode needs at least one system per device; "
                f"{m} systems cannot shard across {p} devices"
            )
        plan = DistPlan(
            mode="batch",
            num_devices=p,
            num_systems=m,
            system_size=n,
            chunk_sizes=shares,
            schedule="pipelined",
            topology=self.group.interconnect.describe(),
            device_name=self.group.device_name,
            local_plans=local_plans,
        )
        return plan, self._report_for(plan, dsize)

    def _check_local_memory(self, local_plan, dsize: int) -> None:
        nbytes = working_set_nbytes(
            local_plan.num_systems, local_plan.system_size, dsize
        )
        self.group[0].check_fits_global(nbytes)

    # -- execution --------------------------------------------------------

    def solve(
        self,
        batch: TridiagonalBatch,
        *,
        tolerance: Optional[float] = None,
    ) -> DistSolveResult:
        """Plan and solve ``batch`` across the group.

        With ``tolerance`` set the solve is *governed*: the
        numerical-safety governor measures the batch's diagonal
        dominance and, when the truncation bound fits the tolerance,
        lets the planner choose the truncated-SPIKE ``approx`` mode
        (skipping the reduced system entirely). Whatever path runs, the
        result is residual-checked and escalated — one refinement step,
        then an exact-path re-solve — before a typed
        :class:`~repro.util.errors.NumericalBreakdownError` is raised;
        a governed solve never returns an unverified answer.
        """
        if tolerance is None:
            return self.execute_plan(batch, self.plan_for(batch))
        return self._solve_governed(batch, float(tolerance))

    def _solve_governed(
        self, batch: TridiagonalBatch, tolerance: float
    ) -> DistSolveResult:
        dsize = dtype_size(batch.dtype)
        m, n = batch.shape
        governor = self.governor()
        approx_admissible = False
        p = len(self.group)
        if p > 1 and self.mode in ("auto", "approx"):
            chunk_rows = min(
                stop - start for start, stop in partition_bounds(n, p)
            )
            decision = governor.decide(batch, tolerance, chunk_rows)
            approx_admissible = decision.approx
        plan, _ = self.price(
            m, n, dsize, tolerance=tolerance if approx_admissible else None
        )
        # A forced mode="approx" runs even when the estimate says unsafe;
        # the ladder below catches what the bound could not promise.
        result = self.execute_plan(batch, plan)
        path = "approx" if plan.mode == "approx" else "exact"

        def refine(b: TridiagonalBatch, x: np.ndarray) -> np.ndarray:
            residual_rhs = b.d - b.matvec(x)
            correction = self.execute_plan(
                TridiagonalBatch(b.a, b.b, b.c, residual_rhs), plan
            ).x
            return x + correction

        def resolve(b: TridiagonalBatch) -> np.ndarray:
            # The exact rung is the oracle's one LAPACK call, as in the
            # single-device governor; it never re-prices into approx.
            return scipy_banded_solve(b)

        outcome = governor.enforce(
            batch,
            result.x,
            tolerance,
            refine=refine,
            resolve=resolve if path == "approx" else None,
            path=path,
            context="distributed solve",
        )
        if outcome.x is not result.x:
            result = replace(result, x=outcome.x)
        return result

    def execute_plan(
        self, batch: TridiagonalBatch, plan: DistPlan
    ) -> DistSolveResult:
        """Run a prepared ``plan`` on ``batch``.

        Like :meth:`MultiStageSolver.execute_plan`, ``batch`` may hold a
        different system count than the plan was built for as long as the
        plan was widened via :meth:`DistPlan.with_num_systems` — the
        batched service's merged-group entry point.
        """
        if plan.num_systems != batch.num_systems:
            raise PlanError(
                f"plan is for {plan.num_systems} systems, batch has "
                f"{batch.num_systems}; widen with with_num_systems first"
            )
        if plan.system_size != batch.system_size:
            raise PlanError(
                f"plan is for size {plan.system_size}, batch has "
                f"{batch.system_size}"
            )
        if plan.num_devices != len(self.group):
            raise PlanError(
                f"plan is for {plan.num_devices} devices, group has "
                f"{len(self.group)}"
            )
        dsize = dtype_size(batch.dtype)
        switch = self.switch_points_for(dsize)
        tracer = self.tracer
        token = None
        if tracer is not None:
            token = tracer.begin(
                f"dist {batch.num_systems}x{batch.system_size}",
                "solve",
                0.0,
                device=0,
                devices=plan.num_devices,
                mode=plan.mode,
                schedule=plan.schedule,
            )
        try:
            try:
                if plan.mode in ("rows", "approx", "pipelined"):
                    result = self._execute_rows(batch, plan, dsize, switch)
                else:
                    result = self._execute_batch(batch, plan, dsize, switch)
            except DeviceLostError as exc:
                result = self._failover(batch, plan, dsize, switch, exc)
            else:
                self.record_metrics(plan, result.report, dsize)
        except Exception as exc:
            if tracer is not None:
                tracer.abort_to(token, 0.0, error=type(exc).__name__)
            raise
        if tracer is not None:
            tracer.end(result.report.total_ms)
        if self.verify and plan.mode != "approx":
            # Approx-mode answers are deliberately approximate; their
            # verification (against the caller's tolerance, with the
            # escalation ladder behind it) belongs to the governor in
            # :meth:`solve`, not the exact-solve assertion here.
            assert_solution(batch, result.x, context="distributed solve")
        return result

    def record_metrics(self, plan: DistPlan, report: DistReport, dsize: int) -> None:
        """Land one solve's plan/report pair in the metric catalogue.

        Called automatically after every executed solve; ``repro trace``
        also calls it for priced runs so the exported dump carries the
        makespan and transfer-volume gauges."""
        from ..ir.instructions import Transfer

        reg = self.metrics
        reg.counter(
            "repro_dist_solves_total", "Distributed solves executed, by mode."
        ).inc(mode=plan.mode)
        makespan = reg.gauge(
            "repro_dist_makespan_ms",
            "Per-device end time of the last priced distributed solve.",
        )
        for tl in report.timelines:
            makespan.set(tl.end_ms, device=tl.index)
        nbytes = 0
        program = self.lower(plan, dsize)
        for step in program.steps:
            if isinstance(step.op, Transfer):
                nbytes += (
                    step.op.values_per_system
                    * step.shape[0]
                    * program.dtype_size
                )
        reg.counter(
            "repro_dist_transfer_bytes_total",
            "Bytes moved over the simulated interconnect.",
        ).inc(nbytes)

    def _failover(
        self,
        batch: TridiagonalBatch,
        plan: DistPlan,
        dsize: int,
        switch: SwitchPoints,
        exc: DeviceLostError,
    ) -> DistSolveResult:
        """Re-partition onto the survivors and replay ``batch``.

        Local solves run whole between barriers, so nothing partial is
        salvageable when a device dies mid-run: the workload replays in
        full from the last completed barrier (the start of the aborted
        plan) on a sub-solver over the surviving members. The aborted
        plan's fault-free makespan is charged as wasted recovery cost —
        in the same simulated-milliseconds currency as kernel time —
        and the combined report splices the recovery timelines after
        the aborted ones, so ``total_ms`` prices the failure end to
        end. A second death during recovery nests another failover; the
        chain ends with :class:`ConfigurationError` once no device
        survives.
        """
        inj = self.faults
        if inj is None:
            raise exc
        p = len(self.group)
        dead = inj.dead_devices()
        local_dead = {i for i in range(p) if inj.global_id(i) in dead}
        survivors = surviving_indices(p, local_dead)
        aborted_report = self._report_for(plan, dsize)
        inj.note(
            "device_lost",
            "failed_over",
            label=f"dist:{plan.mode}",
            device=exc.device if exc.device is not None else -1,
            penalty_ms=aborted_report.total_ms,
            detail=(
                f"re-partitioned {plan.num_systems}x{plan.system_size} "
                f"onto {len(survivors)} of {p} devices, replaying from "
                "last completed barrier"
            ),
        )
        subgroup = DeviceGroup(
            tuple(self.group[i] for i in survivors), self.group.interconnect
        )
        self.metrics.counter(
            "repro_dist_failovers_total",
            "Device-loss failovers (re-partition onto survivors).",
        ).inc()
        sub = DistributedSolver(
            subgroup,
            switch,
            mode="auto",
            cache=self.cache,
            faults=inj.for_survivors(survivors),
            metrics=self.metrics,
            tracer=self.tracer,
        )
        recovery = sub.solve(batch)
        return DistSolveResult(
            x=recovery.x,
            plan=recovery.plan,
            switch_points=switch,
            report=failover_report(
                aborted_report, recovery.report, survivors
            ),
            local_reports=recovery.local_reports,
        )

    def _execute_rows(
        self,
        batch: TridiagonalBatch,
        plan: DistPlan,
        dsize: int,
        switch: SwitchPoints,
    ) -> DistSolveResult:
        m, n = batch.shape
        p = plan.num_devices
        if p == 1:
            local = self._solver(0, dsize).execute_plan(
                batch, plan.local_plans[0], switch
            )
            return DistSolveResult(
                x=local.x,
                plan=plan,
                switch_points=switch,
                report=self._report_for(plan, dsize),
                local_reports=(local.report,),
            )
        bounds = []
        start = 0
        for q in plan.chunk_sizes:
            bounds.append((start, start + q))
            start += q
        chunks = split_chunks(batch, tuple(bounds))

        ys: List[np.ndarray] = []
        ws: List[np.ndarray] = []
        vs: List[np.ndarray] = []
        local_reports: List[SimReport] = []
        # Pipelined mode's local solves run fused (interleaved sweeps) —
        # part of the mode's definition, and bit-identical to the staged
        # chain, so the reduced inputs below are unchanged.
        fuse = plan.mode == "pipelined"
        for i, chunk in enumerate(chunks):
            if self.faults is not None:
                # Chunk data crosses the interconnect to member i; a
                # partitioned link makes that member unreachable.
                self.faults.check_link(0, i, label=f"dist:{plan.mode}")
            local = self._solver(i, dsize, fuse).execute_plan(
                spike_rhs(chunk), plan.local_plans[i], switch
            )
            ys.append(local.x[:m])
            ws.append(local.x[m : 2 * m])
            vs.append(local.x[2 * m :])
            local_reports.append(local.report)

        # Approx mode is the same decomposition with the reduced system
        # truncated to independent per-interface 2x2 solves.
        reduced = (
            truncated_reduced_solve
            if plan.mode == "approx"
            else solve_reduced_system
        )
        t_prev, s_next = reduced(
            np.stack([y[:, 0] for y in ys], axis=1),
            np.stack([y[:, -1] for y in ys], axis=1),
            np.stack([w[:, 0] for w in ws], axis=1),
            np.stack([w[:, -1] for w in ws], axis=1),
            np.stack([v[:, 0] for v in vs], axis=1),
            np.stack([v[:, -1] for v in vs], axis=1),
        )
        x = np.empty((m, n), dtype=batch.dtype)
        for i, (lo, hi) in enumerate(bounds):
            x[:, lo:hi] = reconstruct_chunk(
                ys[i], ws[i], vs[i], t_prev[:, i], s_next[:, i]
            )

        return DistSolveResult(
            x=x,
            plan=plan,
            switch_points=switch,
            report=self._report_for(plan, dsize),
            local_reports=tuple(local_reports),
        )

    def _execute_batch(
        self,
        batch: TridiagonalBatch,
        plan: DistPlan,
        dsize: int,
        switch: SwitchPoints,
    ) -> DistSolveResult:
        shares = plan.chunk_sizes
        parts: List[np.ndarray] = []
        local_reports: List[SimReport] = []
        offset = 0
        for i, share in enumerate(shares):
            rows = slice(offset, offset + share)
            offset += share
            if self.faults is not None:
                self.faults.check_link(0, i, label="dist:batch")
            sub = TridiagonalBatch(
                batch.a[rows], batch.b[rows], batch.c[rows], batch.d[rows]
            )
            local = self._solver(i, dsize).execute_plan(
                sub, plan.local_plans[i], switch
            )
            parts.append(local.x)
            local_reports.append(local.report)
        x = np.concatenate(parts, axis=0)
        return DistSolveResult(
            x=x,
            plan=plan,
            switch_points=switch,
            report=self._report_for(plan, dsize),
            local_reports=tuple(local_reports),
        )
