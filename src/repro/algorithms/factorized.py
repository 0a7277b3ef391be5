"""Reusable factorization of the PCR-Thomas pipeline.

Applications like ADI and Black-Scholes time-stepping solve against the
*same* tridiagonal matrix every step with a fresh right-hand side. The
hybrid solve's matrix-only work — each split step's ``(alpha, gamma)``
multipliers and the split subsystems' Thomas ``cp`` and pivots ``β`` —
can be done once. :func:`factorize` runs the hybrid's own reduction and
Thomas sweep on the matrix and records that state;
:meth:`PcrThomasFactorization.solve` then replays only the right-hand
side's share of the same arithmetic, so its answer is bit-identical to
``pcr_thomas_solve(batch.with_rhs(d), 2**split_depth)``.

The factors live in the period form of :mod:`repro.algorithms.pcr`: a
shared-matrix batch (``a``/``b``/``c`` broadcast from one row) is
factored once, and every stored factor has the width of that one
matrix, however many right-hand sides it later solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ShapeError
from ..util.validation import check_power_of_two, ilog2
from .pcr import _Periodic, _reduce_rhs, pcr_reduce_arrays
from .thomas import _rows, _thomas, _thomas_factored

__all__ = ["PcrThomasFactorization", "factorize"]


@dataclass(frozen=True)
class PcrThomasFactorization:
    """Matrix-only state of the hybrid solve.

    ``steps`` holds, per PCR level, the ``(alpha, gamma)`` multipliers,
    each ``(1, P, n)`` for a matrix of period ``P`` (1 shared, else
    ``m``). ``a``, ``cp`` and ``beta`` are the ``2^k`` split subsystems'
    sub-diagonal, modified super-diagonal and Thomas pivots, read in
    place at stride ``2^k`` and held equation-major: ``(n, P)`` unsplit,
    ``(n / 2^k, 1, P, 2^k)`` split. ``solve`` applies them to any
    right-hand side; nothing is gathered or scattered.
    """

    shape: Tuple[int, int]
    split_depth: int
    steps: List[Tuple[np.ndarray, np.ndarray]]
    a: np.ndarray
    cp: np.ndarray
    beta: np.ndarray

    def _solve(self, d: np.ndarray) -> np.ndarray:
        """Solve ``(rows, n)`` right-hand sides; ``rows`` is a multiple of
        the matrix period, and row ``r`` uses matrix row ``r mod P``."""
        n = self.shape[1]
        d = d.reshape(-1, self.beta.size // n, n)
        if self.steps:
            d = _reduce_rhs(d, self.steps, 2)
        x = _thomas_factored(d, 2, 1 << self.split_depth, self.a, self.cp, self.beta)
        return np.ascontiguousarray(x)

    def solve(self, d: np.ndarray) -> np.ndarray:
        """Solve ``A x = d`` for a new RHS using the cached factors."""
        d = np.asarray(d, dtype=self.beta.dtype)
        if d.shape != self.shape:
            raise ShapeError(f"d has shape {d.shape}, expected {self.shape}")
        return self._solve(d)

    def solve_many(self, d_stack: np.ndarray) -> np.ndarray:
        """Solve against a stack of right-hand sides, shape ``(r, m, n)``.

        The stack is one period-form batch of ``r * m`` right-hand sides
        against the stored factors (the multiple-RHS pattern of ADI and
        pricing codes); each slice equals :meth:`solve` on it, bit for
        bit.
        """
        d_stack = np.asarray(d_stack, dtype=self.beta.dtype)
        if d_stack.ndim != 3 or d_stack.shape[1:] != self.shape:
            raise ShapeError(
                f"d_stack must be (r, {self.shape[0]}, {self.shape[1]}), "
                f"got {d_stack.shape}"
            )
        x = self._solve(d_stack.reshape(-1, self.shape[1]))
        return x.reshape(d_stack.shape)


def factorize(
    batch: TridiagonalBatch, split_depth: int | None = None
) -> PcrThomasFactorization:
    """Factor ``batch``'s matrix for repeated solves.

    ``split_depth`` is the number of PCR levels before the Thomas phase
    (default: ``log2(thomas default 64)`` capped by the system size).
    The RHS stored in ``batch`` is ignored. A vanishing pivot raises the
    :class:`~repro.util.errors.SingularSystemError` that
    :func:`~repro.algorithms.pcr_thomas_solve` raises at the same split.
    """
    if not isinstance(batch, TridiagonalBatch):
        raise ShapeError(f"factorize takes a TridiagonalBatch, got {type(batch).__name__}")
    n = batch.system_size
    check_power_of_two(n, "system_size")
    if split_depth is None:
        split_depth = min(6, ilog2(n))  # 2^6 = 64 subsystems, the default
    if split_depth < 0 or (1 << split_depth) > n:
        raise ShapeError(
            f"split_depth {split_depth} invalid for system size {n}"
        )

    work = _Periodic.of(batch)
    steps: List[Tuple[np.ndarray, np.ndarray]] = []
    reduced = pcr_reduce_arrays(
        work.a,
        work.b,
        work.c,
        np.zeros_like(work.b),
        split_depth,
        axis=2,
        multipliers=steps,
    )
    split = _Periodic(*reduced, axis=2, stride=1 << split_depth)
    (a,) = _rows((split.a,), split.axis, split.stride)
    cp, beta = (np.empty(a.shape, a.dtype) for _ in range(2))
    _thomas(split, True, (cp, beta))
    return PcrThomasFactorization(
        shape=batch.shape,
        split_depth=split_depth,
        steps=steps,
        a=np.ascontiguousarray(a),
        cp=cp,
        beta=beta,
    )
