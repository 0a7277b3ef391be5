"""Simulated GPU kernels: exact numerics + machine-model cost accounting."""

from .batched import BatchedSweepKernel
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
from .coop_pcr import CoopPcrKernel
from .elementwise import DivideKernel, ReconstructKernel, TransposeKernel
from .global_pcr import GlobalPcrKernel
from .pcr_thomas_smem import VARIANTS, PcrThomasSmemKernel
from .thomas_global import LAYOUTS, ThomasGlobalKernel

__all__ = [
    "KernelContext",
    "PcrThomasSmemKernel",
    "GlobalPcrKernel",
    "CoopPcrKernel",
    "ThomasGlobalKernel",
    "BatchedSweepKernel",
    "DivideKernel",
    "TransposeKernel",
    "ReconstructKernel",
    "VARIANTS",
    "LAYOUTS",
    "warps_for",
    "warp_padded_threads",
    "dtype_size",
    "PCR_SMEM_INSTR_PER_EQ",
    "GLOBAL_PCR_INSTR_PER_EQ",
    "THOMAS_INSTR_PER_ROW",
    "GLOBAL_PCR_VALUES_PER_EQ",
    "SMEM_LOAD_VALUES_PER_EQ",
]
