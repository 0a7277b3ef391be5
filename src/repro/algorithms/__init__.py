"""Reference tridiagonal algorithms (vectorised NumPy, exact numerics)."""

from .cr import cr_forward_levels, cr_solve
from .cyclic import CyclicTridiagonalBatch, cyclic_solve
from .factorized import PcrThomasFactorization, factorize
from .refinement import RefinementResult, mixed_precision_solve
from .spike import spike_solve, truncated_spike_solve
from .cr_pcr import cr_pcr_solve
from .lu import lu_solve, scipy_banded_solve
from .padding import pad_pow2, unpad_solution
from .pcr import (
    pcr_reduce,
    pcr_reduce_arrays,
    pcr_solve,
    pcr_split,
    pcr_step,
    pcr_unsplit_solution,
)
from .pcr_thomas import normalize_thomas_switch, pcr_thomas_solve
from .recursive_doubling import recursive_doubling_solve
from .registry import ALGORITHMS, AlgorithmInfo, algorithm_names, get_algorithm, solve_with
from .thomas import thomas_solve
from .verify import assert_solution, default_tolerance, max_residual

__all__ = [
    "PcrThomasFactorization",
    "factorize",
    "CyclicTridiagonalBatch",
    "cyclic_solve",
    "RefinementResult",
    "mixed_precision_solve",
    "spike_solve",
    "truncated_spike_solve",
    "thomas_solve",
    "cr_solve",
    "cr_forward_levels",
    "pcr_step",
    "pcr_reduce",
    "pcr_reduce_arrays",
    "pcr_split",
    "pcr_unsplit_solution",
    "pcr_solve",
    "pcr_thomas_solve",
    "normalize_thomas_switch",
    "cr_pcr_solve",
    "recursive_doubling_solve",
    "lu_solve",
    "scipy_banded_solve",
    "pad_pow2",
    "unpad_solution",
    "assert_solution",
    "default_tolerance",
    "max_residual",
    "ALGORITHMS",
    "AlgorithmInfo",
    "algorithm_names",
    "get_algorithm",
    "solve_with",
]
