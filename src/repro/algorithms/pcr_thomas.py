"""The hybrid PCR-Thomas algorithm — the paper's base kernel (§III-A).

PCR splits one system of size ``n`` into ``T`` independent interleaved
subsystems using ``log2(T)`` parallel steps; the Thomas algorithm then
solves each subsystem serially. ``T`` (``thomas_switch``) is the paper's
stage-3→stage-4 switch point and the subject of Figure 6:

- small ``T`` → little PCR work (closer to O(n)) but only ``T`` parallel
  threads, starving the vector units;
- large ``T`` → plenty of parallelism but extra O(n) PCR steps.

This module is the *numerical* hybrid; the simulated-GPU kernel that
accounts its cost lives in :mod:`repro.kernels.pcr_thomas_smem`.
"""

from __future__ import annotations

import numpy as np

from ..util.validation import check_power_of_two, ilog2
from .pcr import Batch, _Periodic
from .thomas import _thomas

__all__ = ["pcr_thomas_solve", "normalize_thomas_switch"]


def normalize_thomas_switch(system_size: int, thomas_switch: int) -> int:
    """Clamp a requested subsystem count to what the system supports.

    The effective switch is a power of two between 1 and ``system_size``.
    """
    check_power_of_two(system_size, "system_size")
    check_power_of_two(thomas_switch, "thomas_switch")
    return min(thomas_switch, system_size)


def pcr_thomas_solve(
    batch: Batch,
    thomas_switch: int = 64,
    *,
    check: bool = True,
) -> np.ndarray:
    """Solve ``batch`` with the hybrid PCR-Thomas algorithm.

    ``thomas_switch`` is the number of independent subsystems each system
    is split into before Thomas takes over (the paper's stage-3→4 switch
    point). Must be a power of two; values above the system size are
    clamped (each equation would already stand alone). Either layout;
    the solution comes back in the batch's layout. The split is a
    stride: Thomas solves the subsystems in place, so nothing is
    reordered; a period form already split at stride ``S`` continues.
    """
    work = _Periodic.of(batch)
    switch = normalize_thomas_switch(work.system_size, thomas_switch)
    steps = ilog2(switch)
    split = work.reduced(steps) if steps else work
    return np.ascontiguousarray(_thomas(split, check))
