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
  (``axis=1`` for the row-major ``(m, n)`` layout, ``2`` in its 3-D
  period form below, ``axis=0`` for the interleaved ``(n, m)`` layout of
  :mod:`repro.kernels.batched`), into buffers allocated once per call
  and reused by every step. The
  matrix and ``d`` may differ in width: a matrix that broadcasts against
  ``d`` is reduced at its own width, and only ``d`` is coupled at full
  width;
- :func:`pcr_step` — one step on raw ``(m, n)`` coefficient arrays;
- :func:`pcr_reduce` / :func:`pcr_split` — ``k`` steps, the latter plus
  the gather that reorders the interleaved subsystems into a contiguous
  batch (and :func:`pcr_unsplit_solution` to undo the reorder on
  solutions);
- :func:`pcr_solve` — full solve by running ``log2(n)`` steps until every
  subsystem has size 1.

All functions are vectorised over the whole batch and accept either
layout. Internally they run on a private *period form*: the matrix is
held once per period ``P`` of the system axis, and ``d`` at full width
(``(1, P, n)`` against ``(m/P, P, n)``, or ``(n, 1, P)`` against
``(n, m/P, P)`` interleaved). A shared-matrix batch enters with
``P = 1``, any other batch with ``P = m``. The ``2^k``-way gather maps
period ``P`` to ``P * 2^k``, so the form survives every split, and the
per-element arithmetic — hence every bit — is the tiled batch's.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..systems.batched import BatchedTridiagonal
from ..systems.tridiagonal import TridiagonalBatch, _shares_matrix
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
Batch = Union[TridiagonalBatch, BatchedTridiagonal, "_Periodic"]


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
    interleaved ``(n, m)`` one. ``a``, ``b`` and ``c`` may be narrower
    than ``d`` and broadcast against it (the period form): the
    matrix-only quantities — ``alpha``, ``gamma`` and the new ``a``,
    ``b``, ``c`` — are then computed once at the matrix's width, and
    only ``d`` is coupled at full width. The steps ping-pong between two
    sets of four output buffers plus one scratch array per width,
    allocated once per call; the inputs are never written and the
    result shares no memory with them. With a ``multipliers`` list,
    each step appends copies of its ``(alpha, gamma)`` elimination
    coefficients.
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
    d_scratch = scratch if d.shape == shape else np.empty(d.shape, dtype)

    def buffers():
        return tuple(np.empty(shape, dtype) for _ in range(3)) + (
            np.empty(d.shape, dtype),
        )

    sets = [buffers()]
    if steps > 1:
        sets.append(buffers())
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
        _couple(nd, d, na, d, nc, d, s, axis, d_scratch)
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


def _gather_interleaved(arr: np.ndarray, k: int) -> np.ndarray:
    """Interleaved analogue of :func:`_gather`.

    ``(n, m)`` → ``(n / 2^k, m * 2^k)``; subsystem ``j`` of system ``s``
    lands in column ``s * 2^k + j`` — the same logical subsystem order
    as the row-major gather, so solutions stay comparable element for
    element. Pure data movement (a tiled transpose), no arithmetic.
    """
    n, m = arr.shape
    groups = 1 << k
    sub = n >> k
    return np.ascontiguousarray(
        arr.reshape(sub, groups, m).transpose(0, 2, 1)
    ).reshape(sub, m * groups)


def _scatter_interleaved(arr: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`_gather_interleaved` for ``(sub, m * 2^k)`` arrays."""
    groups = 1 << k
    sub, mg = arr.shape
    m = mg // groups
    return np.ascontiguousarray(
        arr.reshape(sub, m, groups).transpose(0, 2, 1)
    ).reshape(sub * groups, m)


class _Periodic(NamedTuple):
    """The period form: ``m = q * P`` systems, matrix row ``s mod P``.

    ``d`` is ``(q, P, n)`` row-major (``axis=2``) or ``(n, q, P)``
    interleaved (``axis=0``); ``a``, ``b`` and ``c`` have ``d``'s shape
    with ``q`` set to 1, so they broadcast against it natively. Private
    to the kernels: public entry points take and return
    :class:`TridiagonalBatch` or :class:`BatchedTridiagonal`.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    axis: int  # the equation axis: 2 row-major, 0 interleaved

    @classmethod
    def of(cls, batch: Batch) -> "_Periodic":
        """``batch`` in period form: ``P = 1`` if it shares one matrix,
        else ``P = m``. No data is copied."""
        if isinstance(batch, _Periodic):
            return batch
        abc = (batch.a, batch.b, batch.c)
        if isinstance(batch, BatchedTridiagonal):
            n, m = batch.layout_shape
            p = 1 if _shares_matrix(abc, 1) else m
            return cls(
                *(x[:, :p].reshape(n, 1, p) for x in abc),
                batch.d.reshape(n, m // p, p),
                axis=0,
            )
        m, n = batch.shape
        p = 1 if _shares_matrix(abc, 0) else m
        return cls(
            *(x[:p].reshape(1, p, n) for x in abc),
            batch.d.reshape(m // p, p, n),
            axis=2,
        )

    @property
    def system_size(self) -> int:
        """Equations per system ``n``."""
        return self.d.shape[self.axis]

    @property
    def total_equations(self) -> int:
        """Total equations ``m * n``."""
        return self.d.size

    @property
    def num_systems(self) -> int:
        """Number of systems ``m``."""
        return self.d.size // self.system_size

    @property
    def dtype(self) -> np.dtype:
        """Common dtype of the coefficient arrays."""
        return self.d.dtype

    def flat(self, arr: np.ndarray) -> np.ndarray:
        """A ``d``-shaped array in its layout's 2-D shape: ``(m, n)``
        row-major, ``(n, m)`` interleaved."""
        if self.axis == 0:
            return arr.reshape(arr.shape[0], -1)
        return arr.reshape(-1, arr.shape[-1])

    def public(self) -> Union[TridiagonalBatch, BatchedTridiagonal]:
        """The public container. A matrix with period ``P = 1`` stays a
        broadcast view; ``1 < P < m`` is tiled out to every system."""
        if self.b.shape == self.d.shape:
            abc = (self.flat(x) for x in (self.a, self.b, self.c))
        else:
            abc = (
                self.flat(np.broadcast_to(x, self.d.shape))
                for x in (self.a, self.b, self.c)
            )
        cls = BatchedTridiagonal if self.axis == 0 else TridiagonalBatch
        return cls(*abc, self.flat(self.d))

    def reduced(self, steps: int) -> "_Periodic":
        """``steps`` PCR steps: the matrix at its period's width, ``d`` at
        full width."""
        return _Periodic(
            *pcr_reduce_arrays(
                self.a, self.b, self.c, self.d, steps, axis=self.axis
            ),
            axis=self.axis,
        )

    def _map(self, fn, axis: int) -> "_Periodic":
        return _Periodic(*(fn(x) for x in (self.a, self.b, self.c, self.d)), axis=axis)

    def interleaved(self) -> "_Periodic":
        """The interleaved mirror of a row-major form (a tiled transpose)."""
        return self._map(lambda x: np.ascontiguousarray(x.transpose(2, 0, 1)), 0)

    def gathered(self, k: int) -> "_Periodic":
        """The ``2^k``-way split's gather; period ``P`` becomes ``P * 2^k``."""
        if self.axis == 0:
            n, _, p = self.d.shape
            return self._map(
                lambda x: _gather_interleaved(x.reshape(n, -1), k).reshape(
                    n >> k, -1, p << k
                ),
                0,
            )
        _, p, n = self.d.shape
        return self._map(
            lambda x: _gather(x.reshape(-1, n), k).reshape(-1, p << k, n >> k),
            2,
        )


def pcr_reduce(batch: TridiagonalBatch, steps: int) -> TridiagonalBatch:
    """Apply ``steps`` PCR steps, keeping the interleaved equation order.

    After the call, equations whose indices are congruent modulo
    ``2**steps`` form independent subsystems *in place*. Use
    :func:`pcr_split` when you want them gathered contiguously.
    """
    return _Periodic.of(batch).reduced(steps).public()


def pcr_split(batch: Batch, steps: int) -> Batch:
    """Split each system into ``2**steps`` independent contiguous systems.

    Requires the system size to be divisible by ``2**steps``. A row-major
    result is a batch of shape ``(m * 2^steps, n / 2^steps)`` (an
    interleaved one ``(n / 2^steps, m * 2^steps)``); solving it and
    applying :func:`pcr_unsplit_solution` yields the original systems'
    solutions. The result has the input's container type.
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
    work = _Periodic.of(batch)
    split = work.reduced(steps).gathered(steps)
    return split if work is batch else split.public()


def pcr_unsplit_solution(x: np.ndarray, steps: int) -> np.ndarray:
    """Map a split batch's solution back to the original equation order."""
    require(steps >= 0, f"steps must be >= 0, got {steps}")
    if steps == 0:
        return x
    return _scatter(x, steps)


def pcr_solve(batch: Batch) -> np.ndarray:
    """Solve by pure PCR: reduce until every equation stands alone.

    Requires a power-of-two system size (pad upstream otherwise; see
    :func:`repro.algorithms.padding.pad_pow2`). ``log2(n)`` steps of
    ``O(n)`` work each. Returns the solution in the batch's layout.
    """
    work = _Periodic.of(batch)
    n = work.system_size
    check_power_of_two(n, "system_size")
    reduced = work.reduced(ilog2(n))
    # After full reduction every equation reads b * x = d.
    return work.flat(reduced.d / reduced.b)
