"""Banded LU solvers — the MKL-style sequential baseline.

The paper's CPU comparator (Figure 8) is Intel MKL's tridiagonal solver,
"a sequential LU decomposition algorithm". This module provides:

- :func:`lu_solve` — tridiagonal LU without pivoting, factor and solve in
  one call (the registry's ``"lu"`` entry);
- :func:`scipy_banded_solve` — an independent oracle: one LAPACK
  ``gtsv`` call (partial pivoting) over the whole batch, used by the test
  suite to validate every other algorithm.

Repeated solves against one matrix reuse
:func:`~repro.algorithms.factorize`, the hybrid's own factorization.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import SingularSystemError
from ..util.validation import _check_finite
from .thomas import _pivot_floor, _singular

__all__ = ["lu_solve", "scipy_banded_solve"]


def lu_solve(batch: TridiagonalBatch, *, check: bool = True) -> np.ndarray:
    """Factor every system as ``L U`` (no pivoting) and solve.

    ``L`` is unit lower bidiagonal with sub-diagonal ``l``; ``U`` is
    upper bidiagonal with diagonal ``u`` and super-diagonal ``c``.
    Raises :class:`SingularSystemError` on a vanishing pivot when
    ``check`` is true.
    """
    a, b, c, d = batch.a, batch.b, batch.c, batch.d
    m, n = batch.shape
    floor = _pivot_floor(batch.dtype)

    l = np.zeros((m, n), dtype=batch.dtype)
    u = np.empty((m, n), dtype=batch.dtype)
    u[:, 0] = b[:, 0]
    for i in range(1, n):
        piv = u[:, i - 1]
        if check and (np.abs(piv) <= floor).any():
            raise _singular(piv, floor, i - 1)
        l[:, i] = a[:, i] / piv
        u[:, i] = b[:, i] - l[:, i] * c[:, i - 1]
    if check and (np.abs(u[:, -1]) <= floor).any():
        raise _singular(u[:, -1], floor, n - 1)

    y = np.empty_like(d)
    y[:, 0] = d[:, 0]
    for i in range(1, n):
        y[:, i] = d[:, i] - l[:, i] * y[:, i - 1]
    x = np.empty_like(d)
    x[:, -1] = y[:, -1] / u[:, -1]
    for i in range(n - 2, -1, -1):
        x[:, i] = (y[:, i] - c[:, i] * x[:, i + 1]) / u[:, i]
    return x


def scipy_banded_solve(batch: TridiagonalBatch) -> np.ndarray:
    """Oracle solve: one LAPACK ``gtsv`` call (partial pivoting).

    The ``m`` systems are laid end to end as one ``m * n`` system. The
    off-diagonals are zero at every boundary (``a[:, 0]`` and
    ``c[:, -1]``), so no elimination or row interchange crosses one and
    every system's answer is the one its own ``gtsv`` call gives, bit
    for bit — except the sign of a zero: next to a boundary, ``y - 0 *
    x`` turns a ``-0.0`` into ``+0.0`` when ``x`` is negative.
    Failures are the library's typed errors, never scipy's or LAPACK's:
    a NaN or Inf raises :class:`~repro.util.errors.InvalidSystemError`,
    and a system with no solution raises :class:`SingularSystemError`,
    each with the offending ``system_index`` — so callers, the
    escalation ladder included, never see an untyped failure.
    """
    _check_finite(batch, "scipy_banded_solve")
    m, n = batch.shape
    size = m * n
    # dl/d/du share one scratch array that gtsv overwrites; x overwrites
    # a copy of d. The wrapper wants at least one off-diagonal slot.
    work = np.empty((3, size), dtype=batch.dtype)
    for row, arr in zip(work, (batch.a, batch.b, batch.c)):
        row.reshape(m, n)[...] = arr
    span = max(size - 1, 1)
    x = np.array(batch.d, dtype=batch.dtype).reshape(size, 1)
    gtsv = lapack.get_lapack_funcs("gtsv", dtype=batch.dtype)
    _, _, _, x, info = gtsv(
        work[0, size - span :], work[1], work[2, :span], x, True, True, True, True
    )
    if info > 0:
        index = (info - 1) // n
        raise SingularSystemError(
            f"system {index} is singular (zero pivot at row "
            f"{(info - 1) % n})",
            system_index=index,
        )
    return x.reshape(m, n)
