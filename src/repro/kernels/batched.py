"""The fused batched sweep over the interleaved (SoA) layout.

:class:`~repro.systems.batched.BatchedTridiagonal` puts the system axis
innermost in memory, so each algorithm step is one NumPy sweep whose
GPU equivalent is a fully coalesced pass — the layout trick of Gloster
et al. (arXiv:1909.04539) and the batched-PDE solvers of Carroll et al.
(arXiv:2107.05395). Thomas, PCR and the hybrid take such a batch
directly (:func:`~repro.algorithms.thomas_solve`,
:func:`~repro.algorithms.pcr_split`, :func:`~repro.algorithms.pcr_solve`,
:func:`~repro.algorithms.pcr_thomas_solve`): they run on its period form
(``(n, 1, P)`` matrix against an ``(n, m/P, P)`` right-hand side,
reduced along ``axis=0``), so every float equals the row-major path's
transposed, bit for bit — the property the IR fusion pass
(:func:`repro.ir.passes.fuse_batched`) relies on.

This module holds what the ``BatchedSolve`` IR opcode adds on top:
:class:`BatchedSweepKernel`, which prices the multi-stage pipeline
(global splits + hybrid smem PCR-Thomas) as interleaved sweeps and
launches it. The numerics are one hybrid solve at the total split
depth: the reduction runs in place through every stage, at strides
that double step by step, and Thomas solves the resulting subsystems
where they lie — nothing is gathered between stages or scattered
after the solve, and every bit equals the unfused chain's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.pcr_thomas import normalize_thomas_switch, pcr_thomas_solve
from ..gpu.cost import ComputePhase, KernelCost
from ..gpu.memory import MemoryTraffic
from ..systems.batched import BatchedTridiagonal
from ..util.errors import ConfigurationError, ResourceExhaustedError
from ..util.validation import check_power_of_two, ilog2
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

__all__ = ["BatchedSweepKernel"]


# -- launchable kernel --------------------------------------------------------


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
        traffic = MemoryTraffic()
        traffic.add(spec, split_bytes + smem_bytes, stride=1)

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
        k = self.split_steps
        switch = normalize_thomas_switch(batched.system_size >> k, self.thomas_switch)
        return pcr_thomas_solve(batched, switch << k, check=check)
