"""Vectorised batched kernels over the interleaved (SoA) layout.

Every solver in this package is already vectorised over the *system*
axis; these kernels additionally put that axis innermost in memory
(:class:`~repro.systems.batched.BatchedTridiagonal`), so each algorithm
step is a single NumPy sweep whose GPU equivalent is a fully coalesced
pass — the layout trick of Gloster et al. (arXiv:1909.04539) and the
batched-PDE solvers of Carroll et al. (arXiv:2107.05395).

The numerics are not a second implementation: the PCR splits, Thomas
and the hybrid are the row-major functions of :mod:`repro.algorithms`
run on the interleaved period form (``(n, 1, P)`` matrix against an
``(n, m/P, P)`` right-hand side, reduced along ``axis=0``). Because every
update is elementwise across the system axis (no cross-system
reductions), the floats produced per logical element are
**bit-identical** to the row-major path — the property the IR fusion
pass (:func:`repro.ir.passes.fuse_batched`) and its parity tests rely
on. A shared matrix (stride-0 system axis) is reduced and factored once,
at its period's width; only the right-hand sides run at full width.

Three launchable kernels are exposed:

- :class:`BatchedThomasKernel` — thread-per-system Thomas, one sweep
  over the interleaved axis;
- :class:`BatchedPcrKernel` — full PCR, every step one coalesced pass;
- :class:`BatchedSweepKernel` — the fused multi-stage pipeline (global
  splits + hybrid smem PCR-Thomas + unsplits) behind the
  ``BatchedSolve`` IR opcode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.pcr import (
    _Periodic,
    _scatter_interleaved,
    pcr_solve,
    pcr_split,
)
from ..algorithms.pcr_thomas import normalize_thomas_switch, pcr_thomas_solve
from ..algorithms.thomas import thomas_solve
from ..gpu.cost import ComputePhase, KernelCost
from ..gpu.memory import MemoryTraffic
from ..systems.batched import BatchedTridiagonal
from ..util.errors import ConfigurationError, ResourceExhaustedError
from ..util.validation import check_power_of_two, ilog2, require
from .base import (
    GLOBAL_PCR_INSTR_PER_EQ,
    GLOBAL_PCR_VALUES_PER_EQ,
    PCR_SMEM_INSTR_PER_EQ,
    SMEM_LOAD_VALUES_PER_EQ,
    THOMAS_INSTR_PER_ROW,
    KernelContext,
    dtype_size,
    warp_padded_threads,
    warps_for,
)

__all__ = [
    "batched_thomas_sweep",
    "batched_pcr_split",
    "batched_pcr_unsplit",
    "batched_pcr_solve",
    "batched_pcr_thomas_sweep",
    "batched_staged_sweep",
    "BatchedThomasKernel",
    "BatchedPcrKernel",
    "BatchedSweepKernel",
]

# -- interleaved numerics ----------------------------------------------------
#
# Arrays are (n, m) and sweeps run over axis 0. Every function below is
# the row-major algorithm itself, run on the interleaved period form of
# repro.algorithms.pcr: the same per-element arithmetic in the same
# order, so solutions equal the row-major ones transposed, bit for bit.


def batched_thomas_sweep(
    batched: BatchedTridiagonal, *, check: bool = True
) -> np.ndarray:
    """Thomas over the interleaved axis; returns ``(n, m)`` solutions.

    This is :func:`repro.algorithms.thomas.thomas_solve` on the
    interleaved layout — including the pivot floor and the
    first-offending-system report — so the result equals the row-major
    solve's transposed bit-for-bit.
    """
    return thomas_solve(batched, check=check)


def batched_pcr_split(
    batched: BatchedTridiagonal, steps: int
) -> BatchedTridiagonal:
    """Split every system into ``2**steps`` interleaved subsystems.

    :func:`repro.algorithms.pcr.pcr_split` on the interleaved layout:
    ``steps`` PCR steps along the equation axis, then the gather that
    makes each subsystem a contiguous run of rows. Result shape
    ``(n / 2^steps, m * 2^steps)``.
    """
    return pcr_split(batched, steps)


def batched_pcr_unsplit(x: np.ndarray, steps: int) -> np.ndarray:
    """Map a split sweep's ``(sub, m·2^k)`` solution back to ``(n, m)``."""
    require(steps >= 0, f"steps must be >= 0, got {steps}")
    if steps == 0:
        return x
    return _scatter_interleaved(x, steps)


def batched_pcr_solve(batched: BatchedTridiagonal) -> np.ndarray:
    """Pure PCR over the interleaved axis: reduce to size-1 systems."""
    return pcr_solve(batched)


def batched_pcr_thomas_sweep(
    batched: BatchedTridiagonal,
    thomas_switch: int = 64,
    *,
    check: bool = True,
) -> np.ndarray:
    """Hybrid PCR-Thomas over the interleaved axis; ``(n, m)`` result.

    :func:`repro.algorithms.pcr_thomas.pcr_thomas_solve` on the
    interleaved layout.
    """
    return pcr_thomas_solve(batched, thomas_switch, check=check)


def batched_staged_sweep(
    batched: BatchedTridiagonal,
    stage1_steps: int,
    stage2_steps: int,
    thomas_switch: int,
    *,
    check: bool = True,
) -> np.ndarray:
    """The full multi-stage pipeline as interleaved sweeps.

    Replays the unfused instruction chain — ``SplitCoop(k1)`` →
    ``SplitBlock(k2)`` → ``OnChipSolve`` → ``Unsplit(k2)`` →
    ``Unsplit(k1)`` — stage by stage in the interleaved layout (the two
    split stages stay separate passes because nested splits order
    subsystems differently from a single combined split). A shared
    matrix stays in period form throughout. Returns the ``(n, m)``
    solution, bit-identical to the row-major chain transposed.
    """
    work = pcr_split(_Periodic.of(batched), stage1_steps)
    work = pcr_split(work, stage2_steps)
    x = pcr_thomas_solve(work, thomas_switch, check=check)
    x = batched_pcr_unsplit(x, stage2_steps)
    return batched_pcr_unsplit(x, stage1_steps)


# -- launchable kernels ------------------------------------------------------


def _interleaved_traffic(
    ctx: KernelContext, nbytes: float
) -> MemoryTraffic:
    """Traffic accumulator for a fully interleaved (transaction-perfect)
    access pattern: unit stride, no misalignment."""
    traffic = MemoryTraffic()
    traffic.add(ctx.spec, nbytes, stride=1)
    return traffic


@dataclass(frozen=True)
class BatchedThomasKernel:
    """Thread-per-system Thomas over the interleaved axis.

    The SoA twin of
    :class:`~repro.kernels.thomas_global.ThomasGlobalKernel` with
    ``layout="interleaved"``, operating directly on a
    :class:`BatchedTridiagonal` and enjoying the device's interleaved
    coalescing gain (whole warps advance adjacent systems in lockstep).
    """

    threads_per_block: int = 128
    regs_per_thread: int = 20

    # Values moved per row, as in thomas_global: read a, b, c, d, write
    # the two sweep coefficients, read them back, write x.
    _VALUES_PER_ROW = 9

    def cost(
        self,
        ctx: KernelContext,
        num_systems: int,
        system_size: int,
        dsize: int,
    ) -> KernelCost:
        """Price one batched-Thomas launch."""
        spec = ctx.spec
        threads = min(self.threads_per_block, spec.max_threads_per_block)
        grid = max(1, -(-num_systems // threads))
        warp_instr = (
            2 * system_size * warps_for(num_systems) * THOMAS_INSTR_PER_ROW
        )
        nbytes = float(num_systems) * system_size * self._VALUES_PER_ROW * dsize
        return KernelCost(
            name="batched_thomas",
            grid_blocks=min(grid, spec.max_grid_blocks),
            threads_per_block=threads,
            regs_per_thread=self.regs_per_thread,
            phases=[
                ComputePhase(
                    warp_instr,
                    active_threads_per_block=min(num_systems, threads),
                )
            ],
            traffic=_interleaved_traffic(ctx, nbytes),
            coalescing=spec.interleaved_coalescing_gain,
        )

    def run(
        self,
        ctx: KernelContext,
        batched: BatchedTridiagonal,
        *,
        check: bool = True,
        stage: str = "batched_thomas",
    ) -> np.ndarray:
        """Solve the interleaved batch; returns ``(n, m)`` solutions."""
        cost = self.cost(
            ctx,
            batched.num_systems,
            batched.system_size,
            dtype_size(batched.dtype),
        )
        ctx.session.submit(cost, stage=stage)
        return batched_thomas_sweep(batched, check=check)


@dataclass(frozen=True)
class BatchedPcrKernel:
    """Full PCR where every step is one coalesced interleaved pass."""

    threads_per_block: int = 256
    regs_per_thread: int = 24

    def cost(
        self,
        ctx: KernelContext,
        num_systems: int,
        system_size: int,
        dsize: int,
    ) -> KernelCost:
        """Price the ``log2(n)`` coalesced reduction passes."""
        spec = ctx.spec
        check_power_of_two(system_size, "system_size")
        steps = max(1, ilog2(system_size))
        total_eqs = num_systems * system_size
        threads = min(self.threads_per_block, spec.max_threads_per_block)
        grid = max(1, -(-total_eqs // threads))
        warp_instr = steps * warps_for(total_eqs) * GLOBAL_PCR_INSTR_PER_EQ
        nbytes = float(total_eqs) * GLOBAL_PCR_VALUES_PER_EQ * dsize * steps
        return KernelCost(
            name=f"batched_pcr[steps={steps}]",
            grid_blocks=min(grid, spec.max_grid_blocks),
            threads_per_block=threads,
            regs_per_thread=self.regs_per_thread,
            phases=[ComputePhase(warp_instr)],
            traffic=_interleaved_traffic(ctx, nbytes),
            launches=steps,
            coalescing=spec.interleaved_coalescing_gain,
        )

    def run(
        self,
        ctx: KernelContext,
        batched: BatchedTridiagonal,
        *,
        stage: str = "batched_pcr",
    ) -> np.ndarray:
        """Reduce the interleaved batch to size-1 systems and divide."""
        cost = self.cost(
            ctx,
            batched.num_systems,
            batched.system_size,
            dtype_size(batched.dtype),
        )
        ctx.session.submit(cost, stage=stage)
        return batched_pcr_solve(batched)


@dataclass(frozen=True)
class BatchedSweepKernel:
    """The fused multi-stage sweep behind the ``BatchedSolve`` opcode.

    One launch sequence covering what the unfused program spells as
    separate ``SplitCoop``/``SplitBlock``/``OnChipSolve`` instructions:
    ``stage1_steps + stage2_steps`` global PCR passes over the
    interleaved batch, then the hybrid smem PCR-Thomas solve of the
    resulting subsystems. Compared with the unfused chain it

    - streams every pass at unit stride with the device's interleaved
      coalescing gain (no misaligned neighbour penalty — neighbours are
      whole adjacent rows),
    - never pays the coalesced-variant solve-phase spill traffic that
      ``OnChipSolve`` incurs at stride > 1 (the physical re-layout *is*
      the fix), and
    - needs no cooperative grid syncs (independent split passes) and one
      launch per pass instead of stage-1's sync-per-step cadence.
    """

    stage1_steps: int
    stage2_steps: int
    thomas_switch: int = 64

    def __post_init__(self) -> None:
        if self.stage1_steps < 0 or self.stage2_steps < 0:
            raise ConfigurationError("split step counts must be >= 0")
        check_power_of_two(self.thomas_switch, "thomas_switch")

    @property
    def split_steps(self) -> int:
        """Total global split depth before the on-chip phase."""
        return self.stage1_steps + self.stage2_steps

    def cost(
        self,
        ctx: KernelContext,
        num_systems: int,
        system_size: int,
        dsize: int,
    ) -> KernelCost:
        """Price the whole fused sweep as one composite launch record."""
        spec = ctx.spec
        m, n = num_systems, system_size
        check_power_of_two(n, "system_size")
        k = self.split_steps
        if k > ilog2(n):
            raise ConfigurationError(
                f"cannot split a size-{n} system {k} times"
            )
        sub = n >> k
        systems3 = m << k
        max_onchip = spec.max_onchip_system_size(dsize)
        if sub > max_onchip:
            raise ResourceExhaustedError(
                f"system size {sub} exceeds on-chip capacity {max_onchip} "
                f"of {spec.name}"
            )
        switch = normalize_thomas_switch(sub, self.thomas_switch)
        pcr_steps = ilog2(switch)
        total_eqs = m * n

        threads = min(warp_padded_threads(sub), spec.max_threads_per_block)
        smem = 4 * sub * dsize
        regs = ctx.regs_per_thread_for_system(sub, threads)

        phases = []
        if k > 0:
            # Global split passes: same per-equation instruction budget
            # as the stage-1/2 splitters, full occupancy.
            phases.append(
                ComputePhase(k * warps_for(total_eqs) * GLOBAL_PCR_INSTR_PER_EQ)
            )
        # On-chip hybrid: same phase structure as PcrThomasSmemKernel.
        phases.append(
            ComputePhase(
                systems3 * pcr_steps * warps_for(sub) * PCR_SMEM_INSTR_PER_EQ,
                active_threads_per_block=min(sub, threads),
            )
        )
        rows = sub // switch
        phases.append(
            ComputePhase(
                systems3 * 2 * rows * warps_for(switch) * THOMAS_INSTR_PER_ROW,
                active_threads_per_block=switch,
            )
        )

        # Every byte moves at unit stride: split passes stream whole
        # rows (neighbour rows are themselves coalesced rows, so there
        # is no misaligned component), and the smem phase loads/stores
        # the interleaved window without any spill term.
        split_bytes = float(total_eqs) * GLOBAL_PCR_VALUES_PER_EQ * dsize * k
        smem_bytes = float(total_eqs) * SMEM_LOAD_VALUES_PER_EQ * dsize
        traffic = _interleaved_traffic(ctx, split_bytes + smem_bytes)

        return KernelCost(
            name=f"batched_sweep[k={k},T={switch}]",
            grid_blocks=max(1, systems3),
            threads_per_block=threads,
            smem_per_block=smem,
            regs_per_thread=regs,
            phases=phases,
            traffic=traffic,
            launches=1 + k,
            coalescing=spec.interleaved_coalescing_gain,
        )

    def run(
        self,
        ctx: KernelContext,
        batched: BatchedTridiagonal,
        *,
        check: bool = True,
        stage: str = "fused_sweep",
    ) -> np.ndarray:
        """Run the fused sweep; returns the interleaved ``(n, m)`` solution."""
        cost = self.cost(
            ctx,
            batched.num_systems,
            batched.system_size,
            dtype_size(batched.dtype),
        )
        ctx.session.submit(cost, stage=stage)
        return batched_staged_sweep(
            batched,
            self.stage1_steps,
            self.stage2_steps,
            self.thomas_switch,
            check=check,
        )
