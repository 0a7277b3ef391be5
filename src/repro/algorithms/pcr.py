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
  and reused by every step. The matrix and ``d`` may differ in width: a
  matrix that broadcasts against ``d`` is reduced at its own width, and
  only ``d`` is coupled at full width. Each step is computed block by
  block, the host's form of the paper's cooperative stage 1: its
  outputs are cut along the equation axis into runs of about half an L2
  of input, shared out across a process-wide thread pool with one
  worker per CPU the process may run on (NumPy releases the GIL inside
  each ufunc), and every block of a step finishes before the next step
  starts. Each worker has one block-sized scratch pair. Batches smaller
  than a block, and row-major batches of many short systems, run as one
  block, inline. Nothing about the cut is configurable, and no bit
  depends on it;
- :func:`pcr_step` — one step on raw ``(m, n)`` coefficient arrays;
- :func:`pcr_reduce` / :func:`pcr_split` — ``k`` steps, the latter plus
  the gather that reorders the interleaved subsystems into a contiguous
  public batch (and :func:`pcr_unsplit_solution` to undo the reorder on
  solutions);
- :func:`pcr_solve` — full solve by running ``log2(n)`` steps until every
  subsystem has size 1.

All functions are vectorised over the whole batch and accept either
layout. Internally they run on a private *period form*: the matrix is
held once per period ``P`` of the system axis, and ``d`` at full width
(``(1, P, n)`` against ``(m/P, P, n)``, or ``(n, 1, P)`` against
``(n, m/P, P)`` interleaved). A shared-matrix batch enters with
``P = 1``, any other batch with ``P = m``. A split is a stride, not a
copy: the form also counts the ``S = 2^k`` subsystems each system has
been split into, interleaved at stride ``S`` in the caller's equation
order, and the next split continues the reduction at ``start_stride=S``
— the paper's stages 2 and 3 on split subsystems in place. Thomas reads
the subsystems as a strided view (:mod:`repro.algorithms.thomas`), so
nothing on a solve is gathered or scattered; only the public
:func:`pcr_split` gathers, because it returns contiguous subsystems.
The per-element arithmetic — hence every bit — is the tiled batch's.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

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
    """Index tuple selecting ``start:stop`` along ``axis``."""
    return (slice(None),) * axis + (slice(start, stop),)


# -- blocks and the worker pool ---------------------------------------------------

# Input bytes (a, b, c and d together) one block of a step covers: half
# of a 2 MB per-core L2, so a block's inputs and outputs together about
# fill it through the step's ~20 passes. ROADMAP item 3 records the
# block-size sweep behind the value.
_BLOCK_BYTES = 1 << 20

_pool_lock = threading.Lock()
_pool: list = []  # [(pid, cpus, helpers)] once created


def _workers() -> Tuple[int, Optional[ThreadPoolExecutor]]:
    """The process-wide pool: the CPUs this process may run on, and an
    executor of one helper thread fewer (the caller is the last worker).
    Created on first use, and again in a forked child."""
    with _pool_lock:
        if not _pool or _pool[0][0] != os.getpid():
            try:
                cpus = len(os.sched_getaffinity(0))
            except AttributeError:  # no affinity call on this platform
                cpus = os.cpu_count() or 1
            helpers = (
                ThreadPoolExecutor(cpus - 1, thread_name_prefix="repro-pcr")
                if cpus > 1
                else None
            )
            _pool[:] = [(os.getpid(), cpus, helpers)]
        return _pool[0][1:]


class _Blocks:
    """The rows of a step, cut along ``axis`` into cache-sized blocks.

    A block is a contiguous run of rows holding at most about
    ``_BLOCK_BYTES`` of input. The blocks are dealt out in equal
    contiguous shares of two or more, one share per worker, and each
    worker owns one block-sized scratch pair (matrix width, ``d`` width;
    one array when the widths agree). A step never writes its inputs,
    so a block reads its ``i ± s`` neighbours straight from the full
    inputs: no halo is copied.

    A batch that fits in one block is one block, run inline. So is a
    row-major batch whose blocks would be short strided runs, under
    ``_BLOCK_BYTES / 2048`` (512 B) per system — many short systems,
    such as ADI's y-sweep: cutting those only scatters each pass.
    """

    def __init__(self, shape: tuple, d_shape: tuple, dtype, axis: int) -> None:
        n = d_shape[axis]
        itemsize = np.dtype(dtype).itemsize
        row_bytes = itemsize * (math.prod(d_shape) + 3 * math.prod(shape)) // max(n, 1)
        rows = max(1, _BLOCK_BYTES // max(row_bytes, 1))
        count = max(1, -(-n // rows))
        if axis == len(d_shape) - 1 and rows * itemsize * 2048 < _BLOCK_BYTES:
            count = 1
        workers, self.helpers = 1, None
        if count > 1:
            # Equal shares of at least two blocks per worker, so all the
            # workers' scratch holds at most half a full-width array.
            workers, self.helpers = _workers()
            count = -(-max(count, 2 * workers) // workers) * workers
        edges = [i * n // count for i in range(count + 1)]
        blocks = list(zip(edges[:-1], edges[1:]))
        share = count // workers
        self.parts = [blocks[t * share : (t + 1) * share] for t in range(workers)]
        self.axis = axis
        width = -(-n // count)

        def block_sized(full: tuple) -> np.ndarray:
            return np.empty(full[:axis] + (width,) + full[axis + 1 :], dtype)

        self.scratch = []
        for _ in range(workers):
            scratch = block_sized(shape)
            d_scratch = scratch if d_shape == shape else block_sized(d_shape)
            self.scratch.append((scratch, d_scratch))

    def _work(self, t: int, block: Callable) -> None:
        for lo, hi in self.parts[t]:
            rows = _along(self.axis, None, hi - lo)
            block(lo, hi, *(x[rows] for x in self.scratch[t]))

    def run(self, block: Callable) -> None:
        """``block(lo, hi, scratch, d_scratch)`` over every block; returns
        when all are done. Helpers run under the caller's floating-point
        error state (``np.errstate`` is per thread), and an error raised
        in any block is re-raised here."""
        if len(self.parts) == 1:
            self._work(0, block)
            return
        err, call = np.geterr(), np.geterrcall()

        def helper(t: int) -> None:
            with np.errstate(call=call, **err):
                self._work(t, block)

        futures = [self.helpers.submit(helper, t) for t in range(1, len(self.parts))]
        try:
            self._work(0, block)
        finally:
            wait(futures)
        for future in futures:
            future.result()


# -- one step, block by block -------------------------------------------------------


class _Side(NamedTuple):
    """A block's rows split by whether their neighbour on one side exists."""

    has: tuple  # block rows with a neighbour
    src: tuple  # those neighbours' rows in the full arrays
    none: tuple  # block rows without one (the identity equation's side)


def _lower(axis: int, s: int, lo: int, hi: int) -> _Side:
    """Rows ``lo:hi`` against their neighbours at ``i - s``."""
    e = min(max(s - lo, 0), hi - lo)
    return _Side(
        _along(axis, e, None), _along(axis, lo + e - s, hi - s), _along(axis, None, e)
    )


def _upper(axis: int, s: int, lo: int, hi: int, n: int) -> _Side:
    """Rows ``lo:hi`` against their neighbours at ``i + s < n``."""
    h = min(max(n - s - lo, 0), hi - lo)
    return _Side(
        _along(axis, None, h), _along(axis, lo + s, lo + s + h), _along(axis, h, None)
    )


def _times(out, mult, src, side: _Side) -> None:
    """``out[i] = mult[i] * src[neighbour(i)]``; ``mult[i] * 0.0`` where
    there is none, so signed zeros match the padded formula."""
    np.multiply(mult[side.has], src[side.src], out=out[side.has])
    np.multiply(mult[side.none], 0.0, out=out[side.none])


def _couple(
    out: np.ndarray,
    base: np.ndarray,
    lo_mult: np.ndarray,
    lo_src: np.ndarray,
    hi_mult: np.ndarray,
    hi_src: np.ndarray,
    lower: _Side,
    upper: _Side,
    scratch: np.ndarray,
) -> None:
    """``out = (base + lo_mult * lo_src[i-s]) + hi_mult * hi_src[i+s]``.

    The shared update of one PCR step (for ``b`` and ``d``) and of a
    factored RHS sweep. ``out``, ``base``, the multipliers and the
    ``scratch`` are one block's rows, the sources full arrays; the
    multipliers may broadcast against ``scratch`` off the equation axis.
    """
    _times(scratch, lo_mult, lo_src, lower)
    np.add(base, scratch, out=out)
    _times(scratch, hi_mult, hi_src, upper)
    np.add(out, scratch, out=out)


def _step(src: Coeffs, dst: Coeffs, s: int, axis: int, record) -> Callable:
    """One PCR step at stride ``s`` from ``src`` into ``dst``, as a
    block function for :meth:`_Blocks.run`; ``record``, if given, is an
    ``(alpha, gamma)`` pair of full arrays that receive the multipliers."""
    a, b, c, d = src
    n = b.shape[axis]

    def block(lo: int, hi: int, scratch: np.ndarray, d_scratch: np.ndarray) -> None:
        rows = _along(axis, lo, hi)
        na, nb, nc, nd = (x[rows] for x in dst)
        lower, upper = _lower(axis, s, lo, hi), _upper(axis, s, lo, hi, n)
        # alpha = -a / b_lo into na; gamma = -c / b_hi into nc. Rows with
        # no neighbour divide by the identity's 1, i.e. keep -a / -c.
        np.negative(a[rows], out=na)
        np.divide(na[lower.has], b[lower.src], out=na[lower.has])
        np.negative(c[rows], out=nc)
        np.divide(nc[upper.has], b[upper.src], out=nc[upper.has])
        _couple(nb, b[rows], na, c, nc, a, lower, upper, scratch)
        _couple(nd, d[rows], na, d, nc, d, lower, upper, d_scratch)
        if record is not None:
            np.copyto(record[0][rows], na)
            np.copyto(record[1][rows], nc)
        _times(na, na, a, lower)
        _times(nc, nc, c, upper)

    return block


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
    only ``d`` is coupled at full width.

    The steps ping-pong between two sets of four output buffers,
    allocated once per call; the inputs are never written and the result
    shares no memory with them. Each step is computed block by block
    (:class:`_Blocks`): cache-sized runs of rows along ``axis``, shared
    out across a process-wide pool of one worker per CPU the process may
    run on, each worker with its own block-sized scratch; every block of
    a step finishes before the next step starts. A batch that fits in
    one block, or a row-major batch of many short systems, runs as one
    block, inline. The per-element arithmetic does not depend on
    the cut, so neither does any bit, and nothing about it is
    configurable. With a ``multipliers`` list, each step appends copies
    of its ``(alpha, gamma)`` elimination coefficients.
    """
    require(steps >= 0, f"steps must be >= 0, got {steps}")
    s = int(start_stride)
    require(1 <= s, f"stride must be >= 1, got {s}")
    if steps == 0:
        return a.copy(), b.copy(), c.copy(), d.copy()
    dtype = np.result_type(a, b, c, d)
    shape = b.shape
    blocks = _Blocks(shape, d.shape, dtype, axis)

    def buffers():
        return tuple(np.empty(shape, dtype) for _ in range(3)) + (
            np.empty(d.shape, dtype),
        )

    sets = [buffers()]
    if steps > 1:
        sets.append(buffers())
    src = (a, b, c, d)
    for j in range(steps):
        dst = sets[j % 2]
        record = None
        if multipliers is not None:
            record = (np.empty(shape, dtype), np.empty(shape, dtype))
        blocks.run(_step(src, dst, s, axis, record))
        if record is not None:
            multipliers.append(record)
        src = dst
        s *= 2
    return src


def _rhs_step(out, d, alpha, gamma, s: int, axis: int) -> Callable:
    """``out = (d + alpha * d_lo) + gamma * d_hi`` at stride ``s``, as a
    block function for :meth:`_Blocks.run`."""
    n = d.shape[axis]

    def block(lo: int, hi: int, _, d_scratch: np.ndarray) -> None:
        rows = _along(axis, lo, hi)
        lower, upper = _lower(axis, s, lo, hi), _upper(axis, s, lo, hi, n)
        _couple(out[rows], d[rows], alpha[rows], d, gamma[rows], d, lower, upper, d_scratch)

    return block


def _reduce_rhs(
    d: np.ndarray, multipliers: List[Tuple[np.ndarray, np.ndarray]], axis: int
) -> np.ndarray:
    """The right-hand side's share of a recorded reduction.

    Replays the ``d`` update of each step that ``pcr_reduce_arrays(...,
    multipliers=...)`` recorded (strides 1, 2, 4, ...) with the stored
    ``(alpha, gamma)``, block by block like the reduction itself, so the
    result equals the ``d`` it would have produced, bit for bit.
    """
    blocks = _Blocks(multipliers[0][0].shape, d.shape, d.dtype, axis)
    bufs = [np.empty(d.shape, d.dtype) for _ in range(min(len(multipliers), 2))]
    for j, (alpha, gamma) in enumerate(multipliers):
        out = bufs[j % 2]
        blocks.run(_rhs_step(out, d, alpha, gamma, 1 << j, axis))
        d = out
    return d


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


def _flat(x: np.ndarray, axis: int) -> np.ndarray:
    """A ``d``-shaped array in its layout's 2-D shape: ``(m, N)``
    row-major, ``(N, m)`` interleaved."""
    return x.reshape(x.shape[0], -1) if axis == 0 else x.reshape(-1, x.shape[-1])


def _public(arrays: list, axis: int, stride: int):
    """The public container of a period form's ``[a, b, c, d]``.

    A form with ``stride`` ``S > 1`` has its ``S`` interleaved subsystems
    per system gathered into contiguous systems (:func:`_gather`,
    :func:`_gather_interleaved`). An unsplit matrix with period ``P = 1``
    stays a broadcast view; any other matrix narrower than ``d`` is
    tiled out to every system. Consumes ``arrays``: each input is
    released once its output exists (``d`` first), so a split's result
    never coexists with all of its source.
    """
    shape = arrays[-1].shape
    k = ilog2(stride)
    out: list = []
    while arrays:
        x = arrays.pop()
        if x.shape != shape:
            x = np.broadcast_to(x, shape)
        x = _flat(x, axis)
        if k:
            x = (_gather_interleaved if axis == 0 else _gather)(x, k)
        out.insert(0, x)
    cls = BatchedTridiagonal if axis == 0 else TridiagonalBatch
    return cls(*out)


class _Periodic(NamedTuple):
    """The period form: ``m = q * P`` systems, matrix row ``s mod P``,
    each system split into ``S = stride`` interleaved subsystems.

    ``d`` is ``(q, P, N)`` row-major (``axis=2``) or ``(N, q, P)``
    interleaved (``axis=0``); ``a``, ``b`` and ``c`` have ``d``'s shape
    with ``q`` set to 1, so they broadcast against it natively.
    Equations ``j, j + S, j + 2S, ...`` of a system form its subsystem
    ``j``: a split is this stride, never a copy, so the form keeps the
    caller's equation order (and a shared matrix its one row) through
    every split. Private to the kernels: public entry points take and
    return :class:`TridiagonalBatch` or :class:`BatchedTridiagonal`.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    axis: int  # the equation axis: 2 row-major, 0 interleaved
    stride: int = 1  # S: interleaved subsystems per system, 2^(steps so far)

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
        """Equations per (sub)system ``N / S``."""
        return self.d.shape[self.axis] // self.stride

    @property
    def total_equations(self) -> int:
        """Total equations ``m * N``."""
        return self.d.size

    @property
    def num_systems(self) -> int:
        """Number of (sub)systems ``m * S``."""
        return self.d.size // self.system_size

    @property
    def dtype(self) -> np.dtype:
        """Common dtype of the coefficient arrays."""
        return self.d.dtype

    def public(self) -> Union[TridiagonalBatch, BatchedTridiagonal]:
        """The public container of the form's ``m * S`` (sub)systems
        (see :func:`_public`)."""
        return _public(list(self[:4]), self.axis, self.stride)

    def reduced(self, steps: int) -> "_Periodic":
        """``steps`` more PCR steps, continuing at stride ``S``: the
        matrix at its period's width, ``d`` at full width. ``S`` becomes
        ``S * 2^steps``."""
        return _Periodic(
            *pcr_reduce_arrays(
                self.a, self.b, self.c, self.d, steps,
                axis=self.axis, start_stride=self.stride,
            ),
            axis=self.axis,
            stride=self.stride << steps,
        )

    def interleaved(self) -> "_Periodic":
        """The interleaved mirror of a row-major form (a tiled transpose)."""
        return _Periodic(
            *(np.ascontiguousarray(x.transpose(2, 0, 1)) for x in self[:4]),
            axis=0,
            stride=self.stride,
        )


def pcr_reduce(batch: TridiagonalBatch, steps: int) -> TridiagonalBatch:
    """Apply ``steps`` PCR steps, keeping the interleaved equation order.

    After the call, equations whose indices are congruent modulo
    ``2**steps`` form independent subsystems *in place*. Use
    :func:`pcr_split` when you want them gathered contiguously.
    """
    work = _Periodic.of(batch)
    return _public(list(pcr_reduce_arrays(*work[:4], steps, axis=work.axis)), work.axis, 1)


def pcr_split(batch: Batch, steps: int) -> Batch:
    """Split each system into ``2**steps`` independent contiguous systems.

    Requires the system size to be divisible by ``2**steps``. A row-major
    result is a batch of shape ``(m * 2^steps, n / 2^steps)`` (an
    interleaved one ``(n / 2^steps, m * 2^steps)``); solving it and
    applying :func:`pcr_unsplit_solution` yields the original systems'
    solutions. The result has the input's container type; given the
    kernels' private period form, it is that form reduced in place, its
    subsystems at stride ``2^steps`` (nothing is gathered).
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
    if work is batch:
        return work.reduced(steps)
    return _public(list(work.reduced(steps)[:4]), work.axis, 1 << steps)


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
    return _flat(reduced.d / reduced.b, work.axis)
