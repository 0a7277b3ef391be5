"""Per-opcode kernel handlers for the instruction-program engine.

Each IR opcode maps to two interpretations, both defined here so a
kernel's price and its execution can never drift apart:

- :func:`price_costs` — the data-free view: the exact
  :class:`~repro.gpu.cost.KernelCost` records a step submits, in
  submission order. The engine folds them into step durations (price
  mode) or hands them to a session (solve pricing).
- :func:`execute_step` — the data-carrying view: run the kernel's
  numerics on an :class:`ExecState`, submitting the *same* cost records
  through the kernel's own ``run`` path.

Marker opcodes (``Pad``/``Unpad``/``Unsplit``/``Barrier``) cost nothing.
``Pad`` and ``Unpad`` still transform data in execute mode; ``Unsplit``
and ``Barrier`` touch no array — splits are strides of the one batch,
so the solution is already in the caller's equation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..algorithms.padding import pad_pow2, unpad_solution
from ..algorithms.pcr import _Periodic
from ..ir.instructions import (
    Barrier,
    BatchedSolve,
    Interleave,
    OnChipSolve,
    Pad,
    Reconstruct,
    ReducedSolve,
    SplitBlock,
    SplitCoop,
    Step,
    Unpad,
    Unsplit,
)
from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import PlanError
from .base import KernelContext
from .batched import BatchedSweepKernel
from .coop_pcr import CoopPcrKernel
from .elementwise import ReconstructKernel, TransposeKernel
from .global_pcr import GlobalPcrKernel
from .pcr_thomas_smem import PcrThomasSmemKernel

__all__ = ["ExecState", "price_costs", "execute_step"]


# -- pricing ---------------------------------------------------------------


def price_costs(step: Step, ctx: KernelContext, dtype_size: int) -> List:
    """The kernel cost records ``step`` submits, in submission order.

    Markers and ``Transfer`` (priced by the engine itself) return an
    empty list.
    """
    op = step.op
    m, n = step.shape
    if isinstance(op, SplitCoop):
        coop = CoopPcrKernel()
        costs = []
        stride = 1
        for _ in range(op.steps):
            costs.append(
                coop.cost_per_step(ctx, m * n, dtype_size, stride=stride)
            )
            stride *= 2
        return costs
    if isinstance(op, SplitBlock):
        return [
            GlobalPcrKernel().cost(
                ctx, m, n, dtype_size, op.steps, start_stride=op.start_stride
            )
        ]
    if isinstance(op, OnChipSolve):
        kernel = PcrThomasSmemKernel(
            thomas_switch=op.thomas_switch, variant=op.variant
        )
        return [kernel.cost(ctx, m, n, dtype_size, op.stride)]
    if isinstance(op, Interleave):
        # Tiled transpose: four coefficient arrays in, one solution out.
        arrays = 4 if op.direction == "in" else 1
        return [
            TransposeKernel().cost(
                ctx, m * n, dtype_size, arrays=arrays, tiled=True
            )
        ]
    if isinstance(op, BatchedSolve):
        kernel = BatchedSweepKernel(
            stage1_steps=op.stage1_steps,
            stage2_steps=op.stage2_steps,
            thomas_switch=op.thomas_switch,
        )
        return [kernel.cost(ctx, m, n, dtype_size)]
    if isinstance(op, ReducedSolve):
        kernel = PcrThomasSmemKernel(
            thomas_switch=op.system_size, variant="coalesced"
        )
        return [kernel.cost(ctx, m, op.system_size, dtype_size, 1)]
    if isinstance(op, Reconstruct):
        return [ReconstructKernel().cost(ctx, m * n, dtype_size)]
    return []


# -- execution -------------------------------------------------------------


@dataclass
class ExecState:
    """Mutable data threaded through a solve-program execution.

    ``work`` is the batch in the period form of
    :mod:`repro.algorithms.pcr`: the matrix once per period, ``d`` at
    full width. Every split reduces it in place and multiplies its
    stride, so its subsystems stay interleaved in the caller's equation
    order and a shared matrix keeps its one row; the on-chip solve
    leaves ``x`` in that order too. It is row-major in the classic
    chain; between an ``Interleave("in")`` and the matching
    ``Interleave("out")`` of a fused program it is interleaved and ``x``
    is ``(n, m)``.
    """

    work: _Periodic  # the (progressively split, in place) coefficient batch
    x: Optional[np.ndarray] = None  # solution, once the on-chip solve ran
    original_n: int = 0  # pre-padding system size, for Unpad

    @classmethod
    def for_batch(cls, batch: TridiagonalBatch) -> "ExecState":
        """Initial state: the raw batch, no solution yet."""
        return cls(work=_Periodic.of(batch), original_n=batch.system_size)


def execute_step(step: Step, ctx: KernelContext, state: ExecState) -> None:
    """Run one step's numerics (and cost submissions) on ``state``."""
    op = step.op
    if isinstance(op, Pad):
        padded, original_n = pad_pow2(state.work)
        if padded.system_size != op.padded_size:
            raise PlanError(
                f"plan was built for padded size {op.padded_size}, batch "
                f"pads to {padded.system_size}"
            )
        state.work = padded
        state.original_n = original_n
        return
    if isinstance(op, SplitCoop):
        state.work = CoopPcrKernel().run(
            ctx, state.work, op.steps, stage=step.stage
        )
        return
    if isinstance(op, SplitBlock):
        state.work = GlobalPcrKernel().run(
            ctx,
            state.work,
            state.work.system_size >> op.steps,
            start_stride=op.start_stride,
            stage=step.stage,
        )
        return
    if isinstance(op, OnChipSolve):
        kernel = PcrThomasSmemKernel(
            thomas_switch=op.thomas_switch, variant=op.variant
        )
        state.x = kernel.run(ctx, state.work, stride=op.stride, stage=step.stage)
        return
    if isinstance(op, Interleave):
        m, n = step.shape
        if op.direction == "in":
            cost = TransposeKernel().cost(
                ctx, m * n, state.work.dtype.itemsize, arrays=4, tiled=True
            )
            ctx.session.submit(cost, stage=step.stage)
            state.work = state.work.interleaved()
        else:
            cost = TransposeKernel().cost(
                ctx, m * n, state.x.dtype.itemsize, arrays=1, tiled=True
            )
            ctx.session.submit(cost, stage=step.stage)
            # The fused sweep left x interleaved (n, m); restore (m, n).
            state.x = np.ascontiguousarray(state.x.T)
        return
    if isinstance(op, BatchedSolve):
        kernel = BatchedSweepKernel(
            stage1_steps=op.stage1_steps,
            stage2_steps=op.stage2_steps,
            thomas_switch=op.thomas_switch,
        )
        state.x = kernel.run(ctx, state.work, stage=step.stage)
        return
    if isinstance(op, Unpad):
        state.x = unpad_solution(state.x, state.original_n)
        return
    if isinstance(op, (Unsplit, Barrier)):
        return
    raise PlanError(
        f"opcode {type(op).__name__} is not executable on a single device"
    )
