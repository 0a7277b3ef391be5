"""Which public functions the traced run wraps, and the per-layer metrics.

Each layer is named after the module it times. A span wraps the function
at the name its caller looks up, so every call the program makes through
that name is seen; nothing under ``src/`` changes.
"""

from __future__ import annotations

import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

import repro.dist.solver as dist_solver
import repro.kernels.handlers as handlers
import repro.service.workers as workers
from repro.apps.adi import AdiDiffusion2D
from repro.core import planner
from repro.core.tuning.cache import TuningCache
from repro.ir.engine import Engine
from repro.numerics.governor import Governor
from repro.service.batcher import SolveGroup
from repro.util.errors import NumericalBreakdownError

from spec import KERNEL_OPS
from tracer import Tracer

# Span names that are layers; each reports self time and calls.
SPAN_LAYERS = (
    [f"service.{op}" for op in ("submit", "flush", "group", "merge", "exec")]
    + ["validation", "core.tuning", "core.plan", "ir.lower", "ir.price", "ir.engine"]
    + [f"kernels.{op}" for op in KERNEL_OPS]
    + ["numerics.decide", "numerics.enforce"]
    + [f"dist.{op}" for op in ("price", "partition", "reduced", "reconstruct")]
    + ["apps.adi"]
)

# (metric name, unit), in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [(f"{layer}.{field}", unit) for layer in SPAN_LAYERS for field, unit in (("self_ms", "ms"), ("calls", "count"))]
    + [(f"kernels.{op}.ns_per_row", "ns/row") for op in KERNEL_OPS]
    + [("service.pool_wait_ms_p50", "ms"), ("service.requests_per_group", "count")]
    + [("core.tuning.cache_hits", "count"), ("core.tuning.cache_misses", "count")]
    + [(f"numerics.outcome.{rung}", "count") for rung in ("accepted", "refined", "resolved", "breakdown")]
    + [("gen.late_p99_ms", "ms"), ("trace.overhead_ratio", "ratio")]
    + [("trace.wall_ms", "ms"), ("trace.uncovered_ms", "ms")]
)


class LayerCounts:
    """Counts taken at the wrapped boundaries, next to the spans."""

    def __init__(self) -> None:
        self.caches: List[object] = []
        self.outcomes: Dict[str, int] = {"accepted": 0, "refined": 0, "resolved": 0, "breakdown": 0}
        self.groups = 0
        self.grouped_requests = 0
        self.pool_waits_ns: List[int] = []

    def saw_cache(self, args, result, exc) -> None:
        cache = args[0]
        if not any(c is cache for c in self.caches):
            self.caches.append(cache)

    def saw_outcome(self, args, result, exc) -> None:
        if exc is None:
            self.outcomes[result.rung] += 1
        elif isinstance(exc, NumericalBreakdownError):
            self.outcomes["breakdown"] += 1

    def saw_groups(self, args, result, exc) -> None:
        if exc is None:
            self.groups += len(result)
            self.grouped_requests += len(args[0])


POOL_THREAD = "perfbench-solve"


class TracedExecutor(ThreadPoolExecutor):
    """One-worker pool that times queue wait and runs each task in a span.

    Handed to ``BatchSolveService(executor=...)``, the service's public way
    to supply its worker pool; the service shuts it down on ``close``.
    """

    def __init__(self, tracer: Tracer, counts: LayerCounts):
        super().__init__(max_workers=1, thread_name_prefix=POOL_THREAD)
        self._tracer = tracer
        self._counts = counts

    def submit(self, fn, /, *args, **kwargs):
        queued = time.perf_counter_ns()
        tracer, counts = self._tracer, self._counts

        def task():
            if not tracer.enabled:
                return fn(*args, **kwargs)
            counts.pool_waits_ns.append(time.perf_counter_ns() - queued)
            span = tracer.begin("service.exec")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return super().submit(task)


def _kernel_name(step, ctx, state) -> str:
    return f"kernels.{type(step.op).__name__}"


def _kernel_rows(step, ctx, state) -> int:
    return int(step.shape[0]) * int(step.shape[1])


def install(tracer: Tracer, counts: LayerCounts) -> None:
    """Wrap every layer boundary; ``tracer.restore()`` undoes it."""
    wrap = tracer.wrap
    wrap(workers.BatchSolveService, "submit", "service.submit")
    wrap(workers.BatchSolveService, "flush", "service.flush")
    wrap(workers, "group_requests", "service.group", after=counts.saw_groups)
    wrap(SolveGroup, "merged_batch", "service.merge")
    wrap(workers, "check_system_batch", "validation")
    wrap(TuningCache, "get_or_tune", "core.tuning", after=counts.saw_cache)
    # plan_solve is imported by name into several modules; wrap it at every
    # module that holds it, including the planner itself (whose attribute
    # lazy ``from ..core.planner import plan_solve`` calls read).
    original_plan = planner.plan_solve
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "") or "").startswith("repro") and vars(module).get("plan_solve") is original_plan:
            wrap(module, "plan_solve", "core.plan")
    wrap(planner.SolvePlan, "lower", "ir.lower")
    wrap(dist_solver.DistributedSolver, "lower", "ir.lower")
    wrap(Engine, "execute", "ir.engine")
    wrap(Engine, "price", "ir.price")
    wrap(handlers, "execute_step", _kernel_name, rows=_kernel_rows)
    wrap(Governor, "decide", "numerics.decide")
    wrap(Governor, "enforce", "numerics.enforce", after=counts.saw_outcome)
    wrap(dist_solver.DistributedSolver, "price", "dist.price")
    for helper in ("split_chunks", "spike_rhs", "partition_bounds"):
        wrap(dist_solver, helper, "dist.partition")
    for helper in ("solve_reduced_system", "truncated_reduced_solve"):
        wrap(dist_solver, helper, "dist.reduced")
    wrap(dist_solver, "reconstruct_chunk", "dist.reconstruct")
    wrap(AdiDiffusion2D, "step", "apps.adi")


def layer_metrics(
    tracer: Tracer,
    counts: LayerCounts,
    *,
    wall_ns: int,
    overhead_ratio: float,
    gen_late_p99_ms: float,
) -> Dict[str, float]:
    """Every PER_LAYER metric from the spans and counts of one traced pass.

    A layer the workload never enters reports 0.
    """
    totals = tracer.totals()
    out: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        total = totals.get(layer)
        out[f"{layer}.self_ms"] = total.self_ns / 1e6 if total else 0.0
        out[f"{layer}.calls"] = total.calls if total else 0
    for op in KERNEL_OPS:
        total = totals.get(f"kernels.{op}")
        out[f"kernels.{op}.ns_per_row"] = total.self_ns / total.rows if total and total.rows else 0.0
    waits = counts.pool_waits_ns
    out["service.pool_wait_ms_p50"] = statistics.median(waits) / 1e6 if waits else 0.0
    out["service.requests_per_group"] = counts.grouped_requests / counts.groups if counts.groups else 0.0
    out["core.tuning.cache_hits"] = sum(c.counters()["hits"] for c in counts.caches)
    out["core.tuning.cache_misses"] = sum(c.counters()["misses"] for c in counts.caches)
    for rung, n in counts.outcomes.items():
        out[f"numerics.outcome.{rung}"] = n
    out["gen.late_p99_ms"] = gen_late_p99_ms
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.wall_ms"] = wall_ns / 1e6
    # The pool thread works in parallel with the driver, so only the
    # driver's side (or the unit thread's) is held against the wall.
    covered = tracer.covered_ns(skip_thread_prefix=POOL_THREAD)
    out["trace.uncovered_ms"] = (wall_ns - covered) / 1e6
    return out
