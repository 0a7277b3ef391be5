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

A form already split by PCR holds ``S`` subsystems per system at stride
``S``, in place. Thomas reads them as a strided equation-major view and
returns ``x`` in the caller's equation order, so the hybrid solve
(:func:`repro.algorithms.pcr_thomas_solve`) gathers and scatters
nothing, and a vanishing pivot names the caller's system and equation.

The one-shot sweep is one fused forward loop. It can also record ``cp``
and ``β`` as it goes; :func:`repro.algorithms.factorize` keeps them and
later right-hand sides rerun only the ``dp`` update
(:func:`_thomas_factored`) and the shared back-substitution.

Stability: unconditionally stable for diagonally dominant or symmetric
positive-definite systems; may break down (zero pivot) otherwise, which is
reported via :class:`~repro.util.errors.SingularSystemError`.
"""

from __future__ import annotations

import numpy as np

from ..util.errors import SingularSystemError
from .pcr import Batch, _Periodic

__all__ = ["thomas_solve"]


def _pivot_floor(dtype: np.dtype) -> float:
    # Breakdown threshold: pivots below this are treated as numerically
    # singular. tiny/eps leaves headroom before the division overflows.
    info = np.finfo(dtype)
    return float(info.tiny / info.eps)


def _singular(beta, floor: float, row: int, axis: int = 2, stride: int = 1):
    """The :class:`SingularSystemError` for the first system whose pivot
    at ``row`` vanishes. ``beta`` is a row of pivots at the matrix's
    width (:func:`_rows`): its flagged entry names the period slot ``p``
    (the caller's system ``p``, or system 0 of a batch sharing one
    matrix) and subsystem ``j``, which is equation ``row * S + j``.
    """
    mask = np.abs(beta) <= floor
    # (P, S): slot-major, so the first flagged entry is the first system's.
    mask = mask.reshape(-1, stride) if axis else mask.reshape(stride, -1).T
    p, j = divmod(int(np.argmax(mask)), stride)
    return SingularSystemError(
        f"zero pivot at row {row * stride + j} of system {p}", system_index=p
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


def _rows(arrays, axis: int, stride: int = 1) -> list:
    """Equation-major views of period-form ``arrays`` at stride ``S``.

    Row ``i`` holds equation ``i * S + j`` (of subsystem ``j``) of every
    system. With ``S = 1`` a row is ``(q, P)``, the ``q = 1`` axis dropped
    (always for the matrix) so those rows are ``(P,)``; with ``S > 1`` it
    is ``(q, P, S)`` row-major, ``(S, q, P)`` interleaved (a free reshape).
    """
    if stride > 1:
        if axis:
            return [
                x.reshape(*x.shape[:2], -1, stride).transpose(2, 0, 1, 3)
                for x in arrays
            ]
        return [x.reshape(-1, stride, *x.shape[1:]) for x in arrays]
    if axis:
        arrays = [x.transpose(2, 0, 1) for x in arrays]
    return [
        x.reshape(x.shape[0], x.shape[2]) if x.shape[1] == 1 else x
        for x in arrays
    ]


def _back(cp, dp, d: np.ndarray, axis: int, stride: int) -> np.ndarray:
    """Back-substitution ``x[i] = dp[i] - cp[i] * x[i + 1]``.

    Returns the solution in the caller's equation order, in the 2-D
    layout of the period-form ``d`` it solves — ``(m, N)`` row-major,
    ``(N, m)`` interleaved (a free reshape) — possibly as a
    non-contiguous view. Row-major is one transposing copy.
    """
    x = np.empty(dp.shape, dtype=dp.dtype)
    x[-1] = dp[-1]
    for i in range(dp.shape[0] - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    if not axis:
        return x.reshape(d.shape[0], -1)
    q, p, n = d.shape
    return x.reshape(n // stride, q, p, stride).transpose(1, 2, 0, 3).reshape(-1, n)


def _thomas(work: _Periodic, check: bool, factors=None) -> np.ndarray:
    """:func:`thomas_solve` on a period form, each of its ``S``
    subsystems per system read in place at stride ``S``; the solution in
    the caller's equation order and the form's 2-D layout, possibly as
    a non-contiguous view.

    ``factors``, if given, is a pair of equation-major arrays at the
    matrix's width (:func:`_rows`) that receive the modified
    super-diagonal ``cp`` and the pivots ``β`` (what
    :func:`_thomas_factored` reuses).
    """
    axis, stride = work.axis, work.stride
    a, b, c, d = _rows(work[:4], axis, stride)
    n = d.shape[0]
    dtype = work.dtype

    # Scratch: modified super-diagonal (matrix width) and RHS (full width)
    # of the forward sweep.
    if factors is None:
        cp, pivots = np.empty(b.shape, dtype=dtype), None
    else:
        cp, pivots = factors
    dp = np.empty(d.shape, dtype=dtype)
    floor = _pivot_floor(dtype)

    beta = b[0].copy()
    if check and (np.abs(beta) <= floor).any():
        raise _singular(beta, floor, 0, axis, stride)
    cp[0] = c[0] / beta
    dp[0] = d[0] / beta
    if pivots is not None:
        pivots[0] = beta

    for i in range(1, n):
        beta = b[i] - a[i] * cp[i - 1]
        if check and (np.abs(beta) <= floor).any():
            raise _singular(beta, floor, i, axis, stride)
        cp[i] = c[i] / beta
        dp[i] = (d[i] - a[i] * dp[i - 1]) / beta
        if pivots is not None:
            pivots[i] = beta

    return _back(cp, dp, work.d, axis, stride)


def _thomas_factored(d, axis: int, stride: int, a, cp, beta) -> np.ndarray:
    """:func:`_thomas` for a matrix whose ``cp`` and ``β`` a recording
    sweep stored: only the ``dp`` update and the back-substitution run.

    ``d`` is a period-form right-hand side with equation axis ``axis``
    and ``stride`` subsystems per system; ``a``, ``cp`` and ``beta`` are
    the matrix's equation-major rows (as :func:`_rows` and
    ``_thomas(..., factors=...)`` give them). Each step divides by the
    stored ``β``, so the result is bit-identical to ``_thomas`` on the
    same system.
    """
    (rhs,) = _rows((d,), axis, stride)
    dp = np.empty(rhs.shape, dtype=rhs.dtype)
    dp[0] = rhs[0] / beta[0]
    for i in range(1, rhs.shape[0]):
        dp[i] = (rhs[i] - a[i] * dp[i - 1]) / beta[i]
    return _back(cp, dp, d, axis, stride)
