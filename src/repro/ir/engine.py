"""The one interpreter behind every execution path.

:class:`Engine` interprets a lowered :class:`~repro.ir.instructions.Program`
in two modes:

- :meth:`Engine.execute` — carries a real
  :class:`~repro.systems.TridiagonalBatch` through the kernel handlers on
  a live :class:`~repro.gpu.executor.SimSession`. Single-device
  (``kind="solve"``) programs only; this is what
  :meth:`MultiStageSolver.execute_plan` runs.
- :meth:`Engine.price` — data-free. Solve programs submit the handlers'
  :class:`~repro.gpu.cost.KernelCost` records to a session (bit-identical
  totals to execution, because they are the *same* records in the same
  order). Dist programs run an overlap-aware list scheduler: every
  device exposes independent compute, egress, and ingress lanes (see
  :attr:`~repro.ir.instructions.Step.resource_keys`), ready steps are
  placed greedily at their earliest feasible start (ties resolve to
  program order), and each placement lands as an event on a per-device
  timeline — the :class:`~repro.dist.pipeline.DistReport` makespan
  model. A ``Transfer`` claims its source's egress and destination's
  ingress lanes simultaneously, so a device streams boundary data out
  while its next solve computes, while messages converging on one
  endpoint still serialise.

Both modes thread a per-instruction :class:`StepTrace` (stage, device,
span) so every path gets uniform observability from one bookkeeping
mechanism.

Fault injection
---------------
An optional :class:`~repro.faults.FaultInjector` hooks every costed
instruction in *both* modes — injection decisions are deterministic in
the plan seed and the instruction, so pricing a program sees exactly
the transient faults executing it sees. Transient faults are retried
with capped exponential backoff under the injector's
:class:`~repro.faults.RetryPolicy` and a per-program retry budget; the
wasted attempts and backoffs are priced with the same kernel cost model
as the work itself and recorded in the injector's
:class:`~repro.faults.FaultLog`. Any :class:`ReproError` escaping a step
is annotated with the failing instruction — ``exc.instruction`` is
``(index, opcode, device)`` and the message names all three — so
mid-program failures are attributable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..gpu.cost import kernel_time_ms
from ..gpu.executor import Device
from ..kernels.base import KernelContext
from ..util.errors import FaultInjectionError, PlanError, ReproError
from .instructions import Program, Step, Transfer, signature_text


def _handlers():
    # Imported on first use: repro.kernels.handlers itself imports
    # repro.ir.instructions, so a module-level import here would close an
    # import cycle through the package __init__s.
    from ..kernels import handlers

    return handlers

__all__ = ["StepTrace", "EngineRun", "Engine"]


@dataclass(frozen=True)
class StepTrace:
    """Where and when one instruction ran (or was priced)."""

    index: int
    op: str
    stage: str
    device: int
    engine: str
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        """Length of the step's span."""
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class EngineRun:
    """Outcome of one program interpretation.

    ``report`` is a :class:`~repro.gpu.executor.SimReport` for solve
    programs and a :class:`~repro.dist.pipeline.DistReport` for dist
    programs; ``x`` is the solution in execute mode, ``None`` when the
    run was data-free.
    """

    program: Program
    report: object
    trace: Tuple[StepTrace, ...]
    x: Optional[np.ndarray] = None

    @property
    def total_ms(self) -> float:
        """Simulated end-to-end time of the run."""
        return self.report.total_ms


class Engine:
    """Interprets programs against a set of (simulated) devices."""

    def __init__(
        self, devices, interconnect=None, label: str = "", injector=None,
        tracer=None,
    ):
        self.devices = tuple(devices)
        self.interconnect = interconnect
        self.label = label
        self.injector = injector  # optional FaultInjector; mutable
        self.tracer = tracer  # optional obs.Tracer; mutable
        self._price_ctx: Dict[int, KernelContext] = {}

    @classmethod
    def for_device(cls, device: Device) -> "Engine":
        """An engine over one device (solve programs)."""
        return cls((device,), label=device.name)

    @classmethod
    def for_group(cls, group) -> "Engine":
        """An engine over a :class:`~repro.dist.topology.DeviceGroup`."""
        return cls(
            tuple(group.devices),
            interconnect=group.interconnect,
            label=group.describe(),
        )

    # -- device plumbing ---------------------------------------------------

    def _require_device(self, index: int) -> Device:
        if index >= len(self.devices):
            raise PlanError(
                f"program targets device {index}, engine has "
                f"{len(self.devices)}"
            )
        device = self.devices[index]
        if not isinstance(device, Device):
            raise PlanError(
                f"step needs a kernel cost model but device {index} is the "
                f"bare name {device!r}"
            )
        return device

    def _ctx(self, index: int) -> KernelContext:
        """A throwaway pricing context for ``devices[index]`` (cost
        methods read only the device spec; nothing is ever submitted)."""
        ctx = self._price_ctx.get(index)
        if ctx is None:
            from ..gpu.executor import SimSession

            ctx = KernelContext(SimSession(self._require_device(index)))
            self._price_ctx[index] = ctx
        return ctx

    # -- fault plumbing ----------------------------------------------------

    @staticmethod
    def _annotate(exc: ReproError, i: int, step: Step) -> ReproError:
        """Attach the failing instruction to an escaping error (once)."""
        if getattr(exc, "instruction", None) is None:
            op = type(step.op).__name__
            exc.instruction = (i, op, step.device)
            where = f"[step {i}: {op} on dev{step.device}]"
            if exc.args and isinstance(exc.args[0], str):
                exc.args = (f"{exc.args[0]} {where}",) + exc.args[1:]
            else:
                exc.args = (where,) + exc.args
        return exc

    def _interpret(self, program, i, step, budget, body, duration_ms=None):
        """Run one step's ``body`` under fault injection and retry.

        Transient faults retry with backoff while per-step attempts and
        the per-program ``budget`` allow; each wasted attempt is charged
        at the step's priced duration plus the backoff and logged.
        Every escaping :class:`ReproError` is annotated with the
        instruction context.

        Returns the number of *retries* the step needed (0 for a clean
        run) — the injector draws deterministically per instruction, so
        the count is identical in execute and price mode and feeds the
        tracer's ``retries`` span attribute.
        """
        inj = self.injector
        if inj is None:
            try:
                body()
                return 0
            except ReproError as exc:
                raise self._annotate(exc, i, step)
        retry = inj.retry
        attempt = 0
        while True:
            try:
                inj.before_step(program, i, step, attempt)
                body()
                return attempt
            except FaultInjectionError as exc:
                wasted = (
                    duration_ms
                    if duration_ms is not None
                    else self._step_duration(step, program)
                )
                penalty = wasted + retry.backoff_ms(attempt)
                fields = dict(
                    label=program.label,
                    step=i,
                    op=type(step.op).__name__,
                    device=inj.global_id(step.device),
                    attempt=attempt,
                    penalty_ms=penalty,
                )
                if attempt + 1 >= retry.max_attempts or not budget.consume():
                    inj.note("transient", "exhausted", **fields)
                    raise self._annotate(exc, i, step)
                inj.note("transient", "retried", **fields)
                attempt += 1
            except ReproError as exc:
                raise self._annotate(exc, i, step)

    def _budget(self) -> "_RetryBudget":
        inj = self.injector
        return _RetryBudget(inj.retry.budget if inj is not None else 0)

    # -- execute mode ------------------------------------------------------

    def execute(self, program: Program, batch) -> EngineRun:
        """Run ``program`` on real data; single-device programs only."""
        if program.kind != "solve":
            raise PlanError(
                f"only solve programs execute data; got kind {program.kind!r}"
            )
        handlers = _handlers()
        device = self._require_device(0)
        session = device.session()
        ctx = KernelContext(session)
        state = handlers.ExecState.for_batch(batch)
        budget = self._budget()
        tracer = self.tracer
        token = self._begin_program(program, 0.0)
        trace: List[StepTrace] = []
        try:
            for i, step in enumerate(program.steps):
                start = session.elapsed_ms
                mark = session.num_records
                retries = self._interpret(
                    program, i, step, budget,
                    lambda step=step: handlers.execute_step(step, ctx, state),
                )
                end = session.elapsed_ms
                trace.append(self._trace(i, step, start, end))
                if tracer is not None:
                    self._span_step(
                        i, step, start, end, retries,
                        kernels=self._kernel_spans(session, mark, step.device),
                    )
        except ReproError as exc:
            self._abort_program(token, session.elapsed_ms, exc)
            raise
        self._end_program(token, session.elapsed_ms)
        return EngineRun(
            program=program,
            report=session.report(),
            trace=tuple(trace),
            x=state.x,
        )

    # -- price mode --------------------------------------------------------

    def price(self, program: Program) -> EngineRun:
        """Price ``program`` without data."""
        if program.kind == "solve":
            return self._price_solve(program)
        return self._price_dist(program)

    def _price_solve(self, program: Program) -> EngineRun:
        handlers = _handlers()
        device = self._require_device(0)
        session = device.session()
        ctx = KernelContext(session)
        budget = self._budget()
        trace: List[StepTrace] = []

        def submit(step: Step) -> None:
            for cost in handlers.price_costs(step, ctx, program.dtype_size):
                session.submit(cost, stage=step.stage)

        tracer = self.tracer
        token = self._begin_program(program, 0.0)
        try:
            for i, step in enumerate(program.steps):
                start = session.elapsed_ms
                mark = session.num_records
                retries = self._interpret(
                    program, i, step, budget, lambda step=step: submit(step)
                )
                end = session.elapsed_ms
                trace.append(self._trace(i, step, start, end))
                if tracer is not None:
                    self._span_step(
                        i, step, start, end, retries,
                        kernels=self._kernel_spans(session, mark, step.device),
                    )
        except ReproError as exc:
            self._abort_program(token, session.elapsed_ms, exc)
            raise
        self._end_program(token, session.elapsed_ms)
        return EngineRun(
            program=program, report=session.report(), trace=tuple(trace)
        )

    def _price_dist(self, program: Program) -> EngineRun:
        from ..dist.pipeline import DeviceTimeline, DistReport, TimelineEvent

        p = program.num_devices
        steps = program.steps
        total = len(steps)
        events: List[List[TimelineEvent]] = [[] for _ in range(p)]
        end_of: List[float] = [0.0] * total
        free: Dict[str, float] = {}
        budget = self._budget()
        tracer = self.tracer
        token = self._begin_program(program, 0.0)
        traces: List[Optional[StepTrace]] = [None] * total
        scheduled = [False] * total
        remaining = list(range(total))
        try:
            # Overlap-aware list scheduling: of all *ready* steps (every
            # dependency scheduled), greedily place the one that can
            # start earliest given its lane claims (compute engine, or
            # egress+ingress for transfers — see Step.resource_keys).
            # Ties resolve to program order, so the schedule is
            # deterministic and degenerates to plain program-order ASAP
            # when nothing overlaps. Dependency edges are the *only*
            # correctness constraint: the infer_dependencies pass
            # guarantees same-lane program order is explicit before a
            # program reaches this scheduler, so reordering here can
            # never run a consumer before its producer.
            while remaining:
                best_start, best_i = None, None
                for i in remaining:
                    step = steps[i]
                    if not all(scheduled[d] for d in step.deps):
                        continue
                    start = max(
                        (end_of[d] for d in step.deps), default=0.0
                    )
                    if not step.is_marker:
                        for key in step.resource_keys:
                            start = max(start, free.get(key, 0.0))
                    if best_start is None or start < best_start:
                        best_start, best_i = start, i
                i, start = best_i, best_start
                step = steps[i]
                remaining.remove(i)
                scheduled[i] = True
                if step.is_marker:
                    # Free bookkeeping: passes dependencies through
                    # without occupying any lane.
                    end_of[i] = start
                    traces[i] = self._trace(i, step, start, start)
                    if tracer is not None:
                        self._span_step(i, step, start, start, 0)
                    continue
                duration = self._step_duration(step, program)
                if self.injector is not None:
                    duration = self.injector.adjust_duration_ms(step, duration)
                retries = self._interpret(
                    program, i, step, budget, lambda: None, duration_ms=duration
                )
                end = start + duration
                for key in step.resource_keys:
                    free[key] = end
                end_of[i] = end
                # Compute spans always land on the timeline (even
                # zero-duration ones); transfers only when data moved — a
                # free local hop occupies the link for no time and draws
                # nothing.
                if step.engine == "compute" or duration > 0:
                    events[step.device].append(
                        TimelineEvent(
                            self._event_kind(step),
                            step.stage,
                            start,
                            end,
                            lane=self._event_lane(step),
                        )
                    )
                    # A cross-device transfer occupies both endpoints'
                    # link lanes; mirror it onto the other device's
                    # timeline so its ingress/egress occupancy renders.
                    op = step.op
                    if isinstance(op, Transfer) and op.src != op.dst:
                        other = op.dst if step.device == op.src else op.src
                        other_lane = (
                            "in" if other == op.dst else "out"
                        )
                        if 0 <= other < p:
                            events[other].append(
                                TimelineEvent(
                                    "xfer",
                                    step.stage,
                                    start,
                                    end,
                                    lane=other_lane,
                                )
                            )
                traces[i] = self._trace(i, step, start, end)
                if tracer is not None:
                    self._span_step(i, step, start, end, retries)
        except ReproError as exc:
            self._abort_program(token, max(end_of, default=0.0), exc)
            raise
        self._end_program(token, max(end_of, default=0.0))
        trace = [t for t in traces if t is not None]
        timelines = tuple(
            DeviceTimeline(
                i,
                program.device_names[i],
                tuple(
                    sorted(events[i], key=lambda e: (e.start_ms, e.end_ms))
                ),
            )
            for i in range(p)
        )
        report = DistReport(
            group_label=program.label or self.label,
            schedule=program.schedule,
            timelines=timelines,
        )
        return EngineRun(program=program, report=report, trace=tuple(trace))

    @staticmethod
    def _event_kind(step: Step) -> str:
        return "compute" if step.engine == "compute" else "xfer"

    @staticmethod
    def _event_lane(step: Step) -> str:
        """Which per-device lane a timeline event occupies.

        Compute stays ``"compute"``; a cross-device transfer lands on
        the issuing device's ``"out"`` (it is the source) or ``"in"``
        (it is the destination) lane, matching the egress/ingress
        resource claims the scheduler serialised it on.
        """
        if isinstance(step.op, Transfer) and step.op.src != step.op.dst:
            return "out" if step.op.src == step.device else "in"
        return "compute" if step.engine == "compute" else "xfer"

    def _step_duration(self, step: Step, program: Program) -> float:
        """Simulated duration of one non-marker step."""
        op = step.op
        if isinstance(op, Transfer):
            if self.interconnect is None:
                raise PlanError(
                    "program transfers data but the engine has no interconnect"
                )
            nbytes = op.values_per_system * step.shape[0] * program.dtype_size
            return self.interconnect.transfer_ms(
                nbytes, op.src, op.dst, program.num_devices
            )
        ctx = self._ctx(step.device)
        total = 0.0
        for cost in _handlers().price_costs(step, ctx, program.dtype_size):
            total += kernel_time_ms(ctx.spec, cost).total_ms
        return total

    # -- tracer plumbing ---------------------------------------------------
    #
    # Spans are built from the same quantities in execute and price mode
    # (step bounds off the session clock, kernel spans off the identical
    # launch records, retry counts off the deterministic injector), so
    # the two modes emit equal trees — pinned by tests/test_obs.py.

    def _begin_program(self, program: Program, start_ms: float):
        if self.tracer is None:
            return None
        return self.tracer.begin(
            program.label or "program",
            "program",
            start_ms,
            device=0,
            kind=program.kind,
            num_systems=program.num_systems,
            signature=signature_text(program.signature),
            steps=len(program.steps),
            system_size=program.system_size,
        )

    def _end_program(self, token, end_ms: float) -> None:
        if self.tracer is not None:
            self.tracer.end(end_ms)

    def _abort_program(self, token, end_ms: float, exc: Exception) -> None:
        if self.tracer is not None:
            self.tracer.abort_to(token, end_ms, error=type(exc).__name__)

    def _span_step(self, i, step, start, end, retries, kernels=()):
        attrs = dict(op=type(step.op).__name__, stage=step.stage)
        if retries:
            attrs["retries"] = retries
        self.tracer.leaf(
            f"[{i}] {type(step.op).__name__}",
            "instruction",
            start,
            end,
            device=step.device,
            children=kernels,
            **attrs,
        )

    @staticmethod
    def _kernel_spans(session, mark: int, device: int) -> tuple:
        from ..obs.trace import Span

        return tuple(
            Span(
                name=rec.breakdown.name,
                category="kernel",
                start_ms=rec.start_ms,
                end_ms=rec.end_ms,
                device=device,
                attrs=(("bound", rec.breakdown.bound), ("stage", rec.stage)),
            )
            for rec in session.records_since(mark)
        )

    @staticmethod
    def _trace(i: int, step: Step, start: float, end: float) -> StepTrace:
        return StepTrace(
            index=i,
            op=type(step.op).__name__,
            stage=step.stage,
            device=step.device,
            engine=step.engine,
            start_ms=start,
            end_ms=end,
        )


class _RetryBudget:
    """Per-program-run allowance of transient-fault retries."""

    def __init__(self, remaining: int):
        self.remaining = remaining

    def consume(self) -> bool:
        """Take one retry from the budget; False when it is spent."""
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True
