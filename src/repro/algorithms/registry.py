"""A registry of the reference tridiagonal algorithms.

Benchmarks, tests and the tuner address algorithms by name; the registry
maps names to uniform ``solve(batch) -> x`` callables and records which
require power-of-two sizes (so harnesses can pad automatically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ConfigurationError
from .cr import cr_solve
from .cr_pcr import cr_pcr_solve
from .lu import lu_solve, scipy_banded_solve
from .padding import pad_pow2, unpad_solution
from .pcr import pcr_solve
from .pcr_thomas import pcr_thomas_solve
from .recursive_doubling import recursive_doubling_solve
from .spike import spike_solve
from .thomas import thomas_solve

__all__ = ["AlgorithmInfo", "ALGORITHMS", "get_algorithm", "solve_with", "algorithm_names"]

SolveFn = Callable[[TridiagonalBatch], np.ndarray]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata for one registered algorithm."""

    name: str
    solve: SolveFn
    pow2_only: bool
    work: str  # asymptotic work, for reports
    steps: str  # asymptotic parallel step count, for reports
    description: str


ALGORITHMS: Dict[str, AlgorithmInfo] = {
    info.name: info
    for info in (
        AlgorithmInfo(
            "thomas",
            thomas_solve,
            pow2_only=False,
            work="O(n)",
            steps="O(n)",
            description="Serial LU sweep; the work-efficient baseline.",
        ),
        AlgorithmInfo(
            "cr",
            cr_solve,
            pow2_only=True,
            work="O(n)",
            steps="2 log2 n",
            description="Cyclic reduction (forward eliminate, back substitute).",
        ),
        AlgorithmInfo(
            "pcr",
            pcr_solve,
            pow2_only=True,
            work="O(n log n)",
            steps="log2 n",
            description="Parallel cyclic reduction; the splitting primitive.",
        ),
        AlgorithmInfo(
            "pcr_thomas",
            pcr_thomas_solve,
            pow2_only=True,
            work="O(n log T)",
            steps="log2 T + n/T",
            description="The paper's hybrid base algorithm (PCR split, Thomas finish).",
        ),
        AlgorithmInfo(
            "cr_pcr",
            cr_pcr_solve,
            pow2_only=True,
            work="O(n)",
            steps="~2 log2 n",
            description="Zhang et al.'s CR-PCR hybrid (prior state of the art).",
        ),
        AlgorithmInfo(
            "recursive_doubling",
            recursive_doubling_solve,
            pow2_only=True,
            work="O(n log n)",
            steps="log2 n",
            description="Stone's recursive doubling via prefix scans (extension).",
        ),
        AlgorithmInfo(
            "spike",
            spike_solve,
            pow2_only=False,
            work="O(n)",
            steps="O(n/p + p)",
            description="SPIKE/Wang partition method (CPU-parallel family).",
        ),
        AlgorithmInfo(
            "lu",
            lu_solve,
            pow2_only=False,
            work="O(n)",
            steps="O(n)",
            description="Explicit tridiagonal LU (MKL-style).",
        ),
        AlgorithmInfo(
            "scipy_banded",
            scipy_banded_solve,
            pow2_only=False,
            work="O(n)",
            steps="O(n)",
            description="LAPACK banded solve with pivoting; the validation oracle.",
        ),
    )
}


def algorithm_names() -> Tuple[str, ...]:
    """Registered algorithm names, stable order."""
    return tuple(ALGORITHMS)


def get_algorithm(name: str) -> AlgorithmInfo:
    """Look up an algorithm by name."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {', '.join(ALGORITHMS)}"
        ) from None


def solve_with(name: str, batch: TridiagonalBatch, **kwargs) -> np.ndarray:
    """Solve ``batch`` by name, padding to a power of two when required."""
    info = get_algorithm(name)
    if info.pow2_only:
        padded, original = pad_pow2(batch)
        x = info.solve(padded, **kwargs)
        return unpad_solution(x, original)
    return info.solve(batch, **kwargs)
