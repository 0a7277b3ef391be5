"""Parallel cyclic reduction (PCR).

PCR (Hockney & Jesshope) is the step-efficient end of the design space:
``log2(n)`` steps, but every step updates all ``n`` equations, for
``O(n log n)`` total work. One PCR step eliminates each equation's
coupling to its distance-``s`` neighbours and doubles the coupling
distance, so after ``k`` steps a system of size ``n`` decomposes into
``2^k`` independent interleaved subsystems of size ``n / 2^k`` — this is
precisely the *splitting* primitive used by the paper's stage 1, stage 2
and stage 3.

Every numeric split in the package runs through one reduction:

- :func:`pcr_reduce_arrays` — ``k`` pad-free steps along either axis
  (``axis=1`` for the row-major ``(m, n)`` layout, ``axis=0`` for the
  interleaved ``(n, m)`` layout of :mod:`repro.kernels.batched`), into
  buffers allocated once per call and reused by every step;
- :func:`pcr_step` — one step on raw ``(m, n)`` coefficient arrays;
- :func:`pcr_reduce` / :func:`pcr_split` — ``k`` steps, the latter plus
  the gather that reorders the interleaved subsystems into a contiguous
  batch (and :func:`pcr_unsplit_solution` to undo the reorder on
  solutions);
- :func:`pcr_solve` — full solve by running ``log2(n)`` steps until every
  subsystem has size 1.

All functions are vectorised over the whole batch.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..systems.tridiagonal import TridiagonalBatch
from ..util.errors import ConfigurationError
from ..util.validation import check_power_of_two, ilog2, require

__all__ = [
    "pcr_reduce_arrays",
    "pcr_step",
    "pcr_split",
    "pcr_unsplit_solution",
    "pcr_solve",
    "pcr_reduce",
]

Coeffs = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _along(axis: int, start, stop) -> tuple:
    """Index tuple selecting ``start:stop`` along ``axis``.

    A negative ``axis`` counts from the end, so a trailing-axis index
    also applies to stacked (broadcast) operands.
    """
    part = slice(start, stop)
    if axis < 0:
        return (Ellipsis, part) + (slice(None),) * (-axis - 1)
    return (slice(None),) * axis + (part,)


def _times_lo(out, mult, src, s: int, axis: int) -> None:
    """``out[i] = mult[i] * src[i - s]``; ``mult[i] * 0.0`` where ``i < s``.

    Rows without a lower neighbour multiply by the identity equation's
    zero literally, so signed zeros match the padded formula.
    """
    n = out.shape[axis]
    e = min(s, n)
    np.multiply(
        mult[_along(axis, e, None)],
        src[_along(axis, None, n - e)],
        out=out[_along(axis, e, None)],
    )
    np.multiply(mult[_along(axis, None, e)], 0.0, out=out[_along(axis, None, e)])


def _times_hi(out, mult, src, s: int, axis: int) -> None:
    """``out[i] = mult[i] * src[i + s]``; ``mult[i] * 0.0`` where ``i + s >= n``."""
    n = out.shape[axis]
    h = max(n - s, 0)
    np.multiply(
        mult[_along(axis, None, h)],
        src[_along(axis, n - h, None)],
        out=out[_along(axis, None, h)],
    )
    np.multiply(mult[_along(axis, h, None)], 0.0, out=out[_along(axis, h, None)])


def _couple(
    out: np.ndarray,
    base: np.ndarray,
    lo_mult: np.ndarray,
    lo_src: np.ndarray,
    hi_mult: np.ndarray,
    hi_src: np.ndarray,
    s: int,
    axis: int,
    scratch: np.ndarray,
) -> None:
    """``out = (base + lo_mult * lo_src[i-s]) + hi_mult * hi_src[i+s]``.

    The shared update of one PCR step (for ``b`` and ``d``) and of a
    factored RHS sweep. ``scratch`` is a buffer shaped like ``out``; the
    multipliers may broadcast against it along the leading axes.
    """
    _times_lo(scratch, lo_mult, lo_src, s, axis)
    np.add(base, scratch, out=out)
    _times_hi(scratch, hi_mult, hi_src, s, axis)
    np.add(out, scratch, out=out)


def pcr_reduce_arrays(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
    steps: int,
    axis: int,
    start_stride: int = 1,
    *,
    multipliers: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None,
) -> Coeffs:
    """Run ``steps`` PCR steps along ``axis``, strides ``start_stride * 2^j``.

    Step ``j`` eliminates each equation's coupling to its distance-``s``
    neighbours (``s = start_stride * 2^j``), producing equations that
    couple at distance ``2s``. Out-of-range neighbours are the identity
    equation (``b=1, a=c=d=0``): boundary rows apply its arithmetic
    literally (``-a``, ``alpha * 0.0``, ``gamma * 0.0``) instead of
    reading padded copies, and every update keeps the order
    ``(b + alpha*c_lo) + gamma*a_hi``, so each element is bit-identical to
    the padded textbook step.

    ``axis=1`` is the row-major ``(m, n)`` layout, ``axis=0`` the
    interleaved ``(n, m)`` one. The steps ping-pong between two sets of
    four output buffers plus one scratch array, allocated once per call;
    the inputs are never written and the result shares no memory with
    them. With a ``multipliers`` list, each step appends copies of its
    ``(alpha, gamma)`` elimination coefficients.
    """
    require(steps >= 0, f"steps must be >= 0, got {steps}")
    s = int(start_stride)
    require(1 <= s, f"stride must be >= 1, got {s}")
    if steps == 0:
        return a.copy(), b.copy(), c.copy(), d.copy()
    dtype = np.result_type(a, b, c, d)
    shape = b.shape
    n = shape[axis]
    scratch = np.empty(shape, dtype)
    sets = [tuple(np.empty(shape, dtype) for _ in range(4))]
    if steps > 1:
        sets.append(tuple(np.empty(shape, dtype) for _ in range(4)))
    for j in range(steps):
        na, nb, nc, nd = sets[j % 2]
        e, h = min(s, n), max(n - s, 0)
        # alpha = -a / b_lo into na; gamma = -c / b_hi into nc. Rows with
        # no neighbour divide by the identity's 1, i.e. keep -a / -c.
        np.negative(a, out=na)
        np.divide(
            na[_along(axis, e, None)],
            b[_along(axis, None, n - e)],
            out=na[_along(axis, e, None)],
        )
        np.negative(c, out=nc)
        np.divide(
            nc[_along(axis, None, h)],
            b[_along(axis, n - h, None)],
            out=nc[_along(axis, None, h)],
        )
        _couple(nb, b, na, c, nc, a, s, axis, scratch)
        _couple(nd, d, na, d, nc, d, s, axis, scratch)
        if multipliers is not None:
            multipliers.append((na.copy(), nc.copy()))
        _times_lo(na, na, a, s, axis)
        _times_hi(nc, nc, c, s, axis)
        a, b, c, d = na, nb, nc, nd
        s *= 2
    return a, b, c, d


def pcr_step(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, stride: int
) -> Coeffs:
    """One PCR reduction step with coupling distance ``stride``.

    For each equation ``i``, eliminates ``x[i-stride]`` and ``x[i+stride]``
    using the neighbouring equations, producing a new system whose
    equations couple at distance ``2 * stride``. Out-of-range neighbours
    are treated as the identity equation (``b=1, a=c=d=0``), which leaves
    boundary equations intact.

    Arrays are ``(m, n)``; returns new arrays (inputs are not modified).
    """
    return pcr_reduce_arrays(a, b, c, d, 1, axis=1, start_stride=stride)


def pcr_reduce(batch: TridiagonalBatch, steps: int) -> TridiagonalBatch:
    """Apply ``steps`` PCR steps, keeping the interleaved equation order.

    After the call, equations whose indices are congruent modulo
    ``2**steps`` form independent subsystems *in place*. Use
    :func:`pcr_split` when you want them gathered contiguously.
    """
    return TridiagonalBatch(
        *pcr_reduce_arrays(batch.a, batch.b, batch.c, batch.d, steps, axis=1)
    )


def _gather(arr: np.ndarray, k: int) -> np.ndarray:
    """Reorder ``(m, n)`` interleaved equations into ``(m * 2^k, n / 2^k)``.

    Subsystem ``j`` of system ``i`` holds equations ``j, j + 2^k, ...`` of
    the original system — the strided access pattern the paper's kernels
    pay a coalescing penalty for.
    """
    m, n = arr.shape
    groups = 1 << k
    sub = n >> k
    return np.ascontiguousarray(
        arr.reshape(m, sub, groups).transpose(0, 2, 1)
    ).reshape(m * groups, sub)


def _scatter(arr: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`_gather` for ``(m * 2^k, sub)`` arrays."""
    groups = 1 << k
    mg, sub = arr.shape
    m = mg // groups
    return np.ascontiguousarray(
        arr.reshape(m, groups, sub).transpose(0, 2, 1)
    ).reshape(m, sub * groups)


def pcr_split(batch: TridiagonalBatch, steps: int) -> TridiagonalBatch:
    """Split each system into ``2**steps`` independent contiguous systems.

    Requires the system size to be divisible by ``2**steps``. The result
    is a batch of shape ``(m * 2^steps, n / 2^steps)``; solving it and
    applying :func:`pcr_unsplit_solution` yields the original systems'
    solutions.
    """
    require(steps >= 0, f"steps must be >= 0, got {steps}")
    if steps == 0:
        return batch
    n = batch.system_size
    groups = 1 << steps
    if n % groups != 0:
        raise ConfigurationError(
            f"system size {n} not divisible by 2**steps = {groups}"
        )
    reduced = pcr_reduce(batch, steps)
    return TridiagonalBatch(
        _gather(reduced.a, steps),
        _gather(reduced.b, steps),
        _gather(reduced.c, steps),
        _gather(reduced.d, steps),
    )


def pcr_unsplit_solution(x: np.ndarray, steps: int) -> np.ndarray:
    """Map a split batch's solution back to the original equation order."""
    require(steps >= 0, f"steps must be >= 0, got {steps}")
    if steps == 0:
        return x
    return _scatter(x, steps)


def pcr_solve(batch: TridiagonalBatch) -> np.ndarray:
    """Solve by pure PCR: reduce until every equation stands alone.

    Requires a power-of-two system size (pad upstream otherwise; see
    :func:`repro.algorithms.padding.pad_pow2`). ``log2(n)`` steps of
    ``O(n)`` work each.
    """
    n = batch.system_size
    check_power_of_two(n, "system_size")
    _, b, _, d = pcr_reduce_arrays(
        batch.a, batch.b, batch.c, batch.d, ilog2(n), axis=1
    )
    # After full reduction every equation reads b * x = d.
    return d / b
