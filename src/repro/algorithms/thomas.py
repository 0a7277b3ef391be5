"""The Thomas algorithm (tridiagonal LU without pivoting).

Thomas is the work-efficient end of the paper's design space: O(n) work
but strictly serial along the system. On a batch it vectorises across
systems — a loop of length ``n`` whose body is an ``(m,)``-wide NumPy
expression — which is exactly the shape of the paper's stage 4, where each
GPU thread runs Thomas serially on its own subsystem.

:func:`thomas_solve` runs on either layout (row-major ``(m, n)`` or the
interleaved ``(n, m)`` of :mod:`repro.kernels.batched`) through the
period form of :mod:`repro.algorithms.pcr`. The pivots ``β`` and the
modified super-diagonal ``cp`` depend only on the matrix, so they are
computed once per period at the matrix's width — once in all for a
shared-matrix batch — and only ``dp`` and ``x`` run at full width. Every
step still divides by ``β`` (never multiplies by ``1/β``), so the result
is bit-identical to the tiled batch's.

Stability: unconditionally stable for diagonally dominant or symmetric
positive-definite systems; may break down (zero pivot) otherwise, which is
reported via :class:`~repro.util.errors.SingularSystemError`.
"""

from __future__ import annotations

import numpy as np

from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import SingularSystemError
from .pcr import Batch, _Periodic

__all__ = ["thomas_solve", "thomas_workspace_solve"]


def _pivot_floor(dtype: np.dtype) -> float:
    # Breakdown threshold: pivots below this are treated as numerically
    # singular. tiny/eps leaves headroom before the division overflows.
    info = np.finfo(dtype)
    return float(info.tiny / info.eps)


def _singular(beta: np.ndarray, floor: float, row: int) -> SingularSystemError:
    """The error for the first system whose pivot at ``row`` vanishes.

    ``beta`` holds one pivot per period slot; slot ``p`` is also the
    first tiled system with that matrix, so the reported index is the
    tiled batch's.
    """
    idx = int(np.argmax(np.abs(beta) <= floor))
    return SingularSystemError(
        f"zero pivot at row {row} of system {idx}", system_index=idx
    )


def thomas_solve(batch: Batch, *, check: bool = True) -> np.ndarray:
    """Solve every system in ``batch`` with the Thomas algorithm.

    Returns the solution in the batch's layout: ``(m, n)`` for a
    :class:`TridiagonalBatch`, ``(n, m)`` for an interleaved
    :class:`~repro.systems.batched.BatchedTridiagonal`. With
    ``check=True`` (default) a vanishing pivot raises
    :class:`SingularSystemError` identifying the first offending system;
    with ``check=False`` the caller gets whatever IEEE arithmetic
    produces (useful inside benchmark loops).
    """
    return np.ascontiguousarray(_thomas(_Periodic.of(batch), check))


def _thomas(work: _Periodic, check: bool) -> np.ndarray:
    """:func:`thomas_solve` on a period form; the solution in the form's
    2-D layout, possibly as a non-contiguous view."""
    # Equation-major (n, q, P) views: row i is equation i of every
    # system. The matrix's q = 1 axis is dropped so its rows are (P,);
    # so is d's when q = 1.
    a, b, c, d = work.a, work.b, work.c, work.d
    if work.axis:
        a, b, c, d = (x.transpose(2, 0, 1) for x in (a, b, c, d))
    shape = d.shape
    a, b, c, d = (
        x.reshape(x.shape[0], x.shape[2]) if x.shape[1] == 1 else x
        for x in (a, b, c, d)
    )
    n = work.system_size
    dtype = work.dtype

    # Scratch: modified super-diagonal (matrix width) and RHS (full width)
    # of the forward sweep.
    cp = np.empty(b.shape, dtype=dtype)
    dp = np.empty(d.shape, dtype=dtype)
    floor = _pivot_floor(dtype)

    beta = b[0].copy()
    if check and (np.abs(beta) <= floor).any():
        raise _singular(beta, floor, 0)
    cp[0] = c[0] / beta
    dp[0] = d[0] / beta

    for i in range(1, n):
        beta = b[i] - a[i] * cp[i - 1]
        if check and (np.abs(beta) <= floor).any():
            raise _singular(beta, floor, i)
        cp[i] = c[i] / beta
        dp[i] = (d[i] - a[i] * dp[i - 1]) / beta

    x = np.empty(d.shape, dtype=dtype)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    x = x.reshape(shape)
    return work.flat(x.transpose(1, 2, 0) if work.axis else x)


def thomas_workspace_solve(
    batch: TridiagonalBatch,
    cp: np.ndarray,
    dp: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Allocation-free Thomas for hot benchmark loops.

    ``cp``, ``dp`` and ``x`` must be caller-owned ``(m, n)`` arrays of the
    batch dtype; they are overwritten. No singularity checks are performed.
    Returns ``x``.
    """
    a, b, c, d = batch.a, batch.b, batch.c, batch.d
    n = batch.system_size

    np.divide(c[:, 0], b[:, 0], out=cp[:, 0])
    np.divide(d[:, 0], b[:, 0], out=dp[:, 0])
    for i in range(1, n):
        beta = b[:, i] - a[:, i] * cp[:, i - 1]
        np.divide(c[:, i], beta, out=cp[:, i])
        np.divide(d[:, i] - a[:, i] * dp[:, i - 1], beta, out=dp[:, i])

    x[:, -1] = dp[:, -1]
    for i in range(n - 2, -1, -1):
        np.multiply(cp[:, i], x[:, i + 1], out=x[:, i])
        np.subtract(dp[:, i], x[:, i], out=x[:, i])
    return x
