"""Reusable factorization of the PCR-Thomas pipeline.

Applications like ADI time-stepping solve against the *same* tridiagonal
matrix every step with a fresh right-hand side. The PCR splitting
coefficients (``alpha``, ``gamma`` per step) and the split subsystems' LU
factors depend only on the matrix, so they can be computed once:
subsequent solves only transform the RHS — about a third of the
arithmetic and half the memory traffic of a full solve.

:class:`PcrThomasFactorization` captures that state for any split depth;
:func:`factorize` builds it from a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ShapeError
from ..util.validation import check_power_of_two, ilog2
from .lu import TridiagonalLU, lu_factor, lu_solve_factored
from .pcr import _couple, _gather, _scatter, pcr_reduce_arrays

__all__ = ["PcrThomasFactorization", "factorize"]


@dataclass(frozen=True)
class PcrThomasFactorization:
    """Matrix-only state of the hybrid solve.

    ``steps`` holds, per PCR level, the ``(alpha, gamma)`` elimination
    coefficients at that level's stride; ``lu`` factors the ``2^k``-way
    split subsystems. ``solve`` applies them to any right-hand side.
    """

    shape: Tuple[int, int]
    split_depth: int
    steps: List[Tuple[np.ndarray, np.ndarray]]
    lu: TridiagonalLU

    def _apply_steps(self, d: np.ndarray) -> np.ndarray:
        """Run the PCR levels' RHS update on ``d`` (``(..., m, n)``).

        Each level is ``(d + alpha * d_lo) + gamma * d_hi``, the same
        pad-free update the reduction applies to its own ``d``.
        """
        if not self.steps:
            return d
        dtype = np.result_type(d, self.steps[0][0])
        bufs = [np.empty(d.shape, dtype) for _ in range(3)]
        stride = 1
        for j, (alpha, gamma) in enumerate(self.steps):
            out = bufs[j % 2]
            _couple(out, d, alpha, d, gamma, d, stride, -1, bufs[2])
            d = out
            stride *= 2
        return d

    def solve(self, d: np.ndarray) -> np.ndarray:
        """Solve ``A x = d`` for a new RHS using the cached factors."""
        d = np.asarray(d)
        if d.shape != self.shape:
            raise ShapeError(f"d has shape {d.shape}, expected {self.shape}")
        d = self._apply_steps(d)
        d_split = _gather(d, self.split_depth) if self.split_depth else d
        x = lu_solve_factored(self.lu, d_split)
        return _scatter(x, self.split_depth) if self.split_depth else x

    def solve_many(self, d_stack: np.ndarray) -> np.ndarray:
        """Solve against a stack of right-hand sides, shape ``(r, m, n)``.

        All ``r`` RHS sets go through the factor application in one
        batched pass (the multiple-RHS pattern of ADI and pricing codes).
        """
        d_stack = np.asarray(d_stack)
        if d_stack.ndim != 3 or d_stack.shape[1:] != self.shape:
            raise ShapeError(
                f"d_stack must be (r, {self.shape[0]}, {self.shape[1]}), "
                f"got {d_stack.shape}"
            )
        r = d_stack.shape[0]
        # The step coefficients broadcast across the stacked systems.
        flat = self._apply_steps(d_stack).reshape(
            r * self.shape[0], self.shape[1]
        )
        d_split = _gather(flat, self.split_depth) if self.split_depth else flat
        lu_tiled = TridiagonalLU(
            l=np.tile(self.lu.l, (r, 1)),
            u=np.tile(self.lu.u, (r, 1)),
            c=np.tile(self.lu.c, (r, 1)),
        )
        x = lu_solve_factored(lu_tiled, d_split)
        x = _scatter(x, self.split_depth) if self.split_depth else x
        return x.reshape(r, self.shape[0], self.shape[1])


def factorize(
    batch: TridiagonalBatch, split_depth: int | None = None
) -> PcrThomasFactorization:
    """Factor ``batch``'s matrix for repeated solves.

    ``split_depth`` is the number of PCR levels before the Thomas phase
    (default: ``log2(thomas default 64)`` capped by the system size).
    The RHS stored in ``batch`` is ignored.
    """
    n = batch.system_size
    check_power_of_two(n, "system_size")
    if split_depth is None:
        split_depth = min(6, ilog2(n))  # 2^6 = 64 subsystems, the default
    if split_depth < 0 or (1 << split_depth) > n:
        raise ShapeError(
            f"split_depth {split_depth} invalid for system size {n}"
        )

    steps: List[Tuple[np.ndarray, np.ndarray]] = []
    a, b, c, d = pcr_reduce_arrays(
        batch.a,
        batch.b,
        batch.c,
        np.zeros_like(batch.b),
        split_depth,
        axis=1,
        multipliers=steps,
    )

    split = TridiagonalBatch(*(_gather(x, split_depth) for x in (a, b, c, d)))
    lu = lu_factor(split)
    return PcrThomasFactorization(
        shape=batch.shape, split_depth=split_depth, steps=steps, lu=lu
    )
