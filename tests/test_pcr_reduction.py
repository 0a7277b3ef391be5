"""Contracts of the shared pad-free PCR reduction.

Every numeric split (row-major and interleaved) runs through
:func:`repro.algorithms.pcr.pcr_reduce_arrays`. Its bit-pattern parity
with the textbook padded step, and with itself cut into blocks, are
property tests in ``test_property_algorithms.py``; this module pins the
rest:

- it never writes into the caller's arrays (read-only ones included,
  and the tiled three-RHS batch SPIKE builds) and returns arrays that
  share no memory with them, in one block or in many;
- its working set is a fixed number of batch-sized buffers, however
  many steps it runs (measured with ``tracemalloc``, not a stopwatch);
- how a step is cut into blocks and shared across the worker pool, and
  that the pool's workers keep the caller's floating-point error state.
"""

import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.algorithms import pcr
from repro.algorithms import (
    factorize,
    pcr_reduce,
    pcr_reduce_arrays,
    pcr_solve,
    pcr_split,
    pcr_step,
)
from repro.algorithms.spike import partition_bounds, spike_rhs, split_chunks
from repro.gpu.executor import make_device
from repro.kernels import BatchedSweepKernel, KernelContext
from repro.systems import generators
from repro.systems.batched import BatchedTridiagonal
from repro.systems.tridiagonal import TridiagonalBatch


def _read_only(batch):
    """``batch`` with every coefficient array frozen, plus pristine copies."""
    for arr in (batch.a, batch.b, batch.c, batch.d):
        arr.setflags(write=False)
    return batch, [arr.copy() for arr in (batch.a, batch.b, batch.c, batch.d)]


def _assert_untouched(batch, snapshot):
    for name, arr, before in zip("abcd", (batch.a, batch.b, batch.c, batch.d), snapshot):
        np.testing.assert_array_equal(arr, before, err_msg=f"input {name} changed")


def _assert_disjoint(outputs, inputs):
    for out in outputs:
        for inp in inputs:
            assert not np.shares_memory(out, inp)


def _spike_batch():
    """The tiled ``[data | left | right]`` batch of one SPIKE chunk."""
    batch = generators.random_dominant(2, 256, rng=11)
    chunk = split_chunks(batch, partition_bounds(256, 4))[1]
    return spike_rhs(chunk)


@pytest.fixture(params=["random", "spike_rhs"])
def frozen_batch(request):
    if request.param == "spike_rhs":
        return _read_only(_spike_batch())
    return _read_only(generators.random_dominant(3, 64, rng=5))


class TestNoMutationNoAliasing:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("steps", [0, 1, 3, 7])
    def test_reduce_arrays(self, frozen_batch, axis, steps):
        batch, snapshot = frozen_batch
        inputs = [
            arr if axis == 1 else arr.T for arr in (batch.a, batch.b, batch.c, batch.d)
        ]
        out = pcr_reduce_arrays(*inputs, steps, axis, start_stride=1)
        _assert_untouched(batch, snapshot)
        _assert_disjoint(out, inputs)
        _assert_disjoint(out[1:], out[:1])

    def test_row_major_entry_points(self, frozen_batch):
        batch, snapshot = frozen_batch
        inputs = (batch.a, batch.b, batch.c, batch.d)
        for steps in (1, 4):
            for result in (pcr_reduce(batch, steps), pcr_split(batch, steps)):
                _assert_disjoint((result.a, result.b, result.c, result.d), inputs)
        _assert_disjoint(pcr_step(*inputs, 2), inputs)
        _assert_disjoint([pcr_solve(batch)], inputs)
        factorize(batch, 3).solve(batch.d)
        _assert_untouched(batch, snapshot)

    def test_interleaved_entry_points(self, frozen_batch):
        batch, _ = frozen_batch
        batched, snapshot = _read_only(BatchedTridiagonal.interleave(batch))
        inputs = (batched.a, batched.b, batched.c, batched.d)
        split = pcr_split(batched, 3)
        _assert_disjoint((split.a, split.b, split.c, split.d), inputs)
        _assert_disjoint([pcr_solve(batched)], inputs)
        _assert_untouched(batched, snapshot)


class TestNoMutationNoAliasingInBlocks(TestNoMutationNoAliasing):
    """The same contracts with a ~5-row block (512 bytes), so every step
    of these batches runs in many blocks, shared across the workers."""

    @pytest.fixture(autouse=True)
    def many_blocks(self, monkeypatch):
        monkeypatch.setattr(pcr, "_BLOCK_BYTES", 512)


# -- allocation bound -----------------------------------------------------------

_N, _M = 262144, 3  # one local dist_long solve: 2^18 rows, SPIKE's 3 RHS


@pytest.fixture(scope="module")
def long_batch():
    rng = np.random.default_rng(0)
    a, c, d = (rng.standard_normal((_M, _N)) for _ in range(3))
    b = rng.standard_normal((_M, _N)) + 4.0
    return TridiagonalBatch(a, b, c, d)


def _peak_in_arrays(fn, arg, steps, array_bytes):
    """Peak traced allocation of ``fn(arg, steps)``, in batch-sized arrays."""
    tracemalloc.start()
    try:
        fn(arg, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / array_bytes


def _shared(batch):
    """``batch`` with every system sharing its first system's matrix."""
    m, n = batch.shape
    abc = (np.broadcast_to(x[:1], (m, n)) for x in (batch.a, batch.b, batch.c))
    return TridiagonalBatch(*abc, batch.d)


def _fused_local_solve(batched, steps):
    """The dist_long local ``BatchedSolve``: splits 4 + 4, then the
    on-chip hybrid at ``T = 2^(steps - 8)`` (``T = 1`` below 8 steps)."""
    kernel = BatchedSweepKernel(4, 4, 1 << max(steps - 8, 0))
    kernel.run(KernelContext(make_device("gtx470").session()), batched)


@pytest.mark.parametrize(
    "layout", ["pcr_split", "pcr_reduce", "shared_split", "fused_local_solve"]
)
def test_reduction_working_set_is_bounded(long_batch, layout):
    """At most 10 batch-sized arrays at peak, flat in the step count.

    Two ping-pong sets of four plus block-sized scratch make eight; a
    per-step allocating step (padded copies plus fresh temporaries)
    peaks at fifteen. Timing-free, so it guards the win in every
    environment.

    ``shared_split`` is the dist_long local solve: one matrix (a third
    of a batch-sized array) against three interleaved right-hand sides.
    Its peak, 5, is the split's tiled-out result (the gathered form's 2
    plus a full-width copy of the matrix, 3). The reduction under it
    holds 4 plus the workers' block scratch, at most 2/3 however many
    CPUs there are; a full-width scratch pair would make it 5.33.

    ``fused_local_solve`` is the whole fused local solve on that batch:
    the reduction's 4 and Thomas's ``x``, ``dp`` and ``cp`` (2.33 on the
    reduced form's 2) peak at about 4.5. Gathering the subsystems after
    each split stage and scattering the solution back peaked at 6.2–6.5.
    """
    bound = 10.0
    if layout == "pcr_split":
        fn, arg = pcr_split, BatchedTridiagonal.interleave(long_batch)
    elif layout == "pcr_reduce":
        fn, arg = pcr_reduce, long_batch
    elif layout == "shared_split":
        fn, arg = pcr_split, BatchedTridiagonal.interleave(_shared(long_batch))
        bound = 5.1
    else:
        fn, arg = _fused_local_solve, BatchedTridiagonal.interleave(_shared(long_batch))
        bound = 5.5
    array_bytes = long_batch.b.nbytes
    peaks = {k: _peak_in_arrays(fn, arg, k, array_bytes) for k in (2, 8, 14)}
    assert max(peaks.values()) <= bound, peaks
    assert peaks[14] - peaks[2] <= 0.25, peaks


# -- blocks and workers ----------------------------------------------------------


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def test_small_and_short_run_batches_are_one_block():
    """A batch under one block, and ADI's y-sweep (65505 row-major
    systems of 16 sharing one matrix), run as one block, inline."""
    for shape, d_shape, axis in [
        ((3, 64), (3, 64), 1),
        ((64, 1, 1), (64, 3, 1), 0),
        ((1, 1, 16), (65505, 1, 16), 2),
    ]:
        blocks = pcr._Blocks(shape, d_shape, np.float64, axis)
        assert blocks.parts == [[(0, d_shape[axis])]]
        assert blocks.helpers is None


@pytest.mark.parametrize(
    "shape, d_shape, axis",
    [
        ((_N, 1, 1), (_N, _M, 1), 0),  # dist_long's local solve
        ((1, 1, 65536), (16, 1, 65536), 2),  # ADI's x-sweep
    ],
)
def test_long_batches_are_cut_in_equal_shares(shape, d_shape, axis):
    """Contiguous blocks of at most about ``_BLOCK_BYTES`` of input cover
    the axis, dealt out in equal shares of two or more to one worker per
    CPU the process may run on."""
    blocks = pcr._Blocks(shape, d_shape, np.float64, axis)
    n = d_shape[axis]
    flat = [block for part in blocks.parts for block in part]
    assert flat[0][0] == 0 and flat[-1][1] == n
    assert all(prev[1] == nxt[0] for prev, nxt in zip(flat, flat[1:]))
    row_bytes = 8 * (np.prod(d_shape) + 3 * np.prod(shape)) / n
    assert max(hi - lo for lo, hi in flat) * row_bytes <= 1.01 * pcr._BLOCK_BYTES
    assert len(blocks.parts) == _cpus()
    assert len({len(part) for part in blocks.parts}) == 1 and len(flat) >= 2 * _cpus()


def _zero_pivot_system():
    """Interleaved (64, 3) with one zero pivot in the last rows."""
    rng = np.random.default_rng(3)
    a, c, d = (rng.standard_normal((64, 3)) for _ in range(3))
    b = np.full((64, 3), 4.0)
    b[60, 1] = 0.0
    return a, b, c, d


@pytest.mark.parametrize("block_bytes", [None, 768], ids=["one-block", "multi-block"])
def test_workers_keep_the_callers_error_state(monkeypatch, block_bytes):
    """``np.errstate`` is per thread: a zero pivot raises under
    ``divide="raise"`` and stays silent under ``"ignore"`` in whichever
    worker computes it (with 768 bytes the step runs in 8-row blocks,
    and the zero's block is the last worker's)."""
    if block_bytes:
        monkeypatch.setattr(pcr, "_BLOCK_BYTES", block_bytes)
    args = _zero_pivot_system()
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        pcr_reduce_arrays(*args, 1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="ignore", invalid="ignore"):
            got = pcr_reduce_arrays(*args, 1, 0)
    assert np.isinf(got[1][59, 1]) and np.isinf(got[1][61, 1])


def test_concurrent_callers_share_the_pool(monkeypatch):
    """More calling threads than CPUs, each reducing its own batch in
    blocks of a few rows through the one pool, under a 1 µs switch interval:
    every result is its one-block reduction, bit for bit, so no block
    used another's scratch or wrote another call's output."""
    rng = np.random.default_rng(7)
    cases = []
    for width in range(2, 2 + max(4, 2 * _cpus())):
        a, c, d = (rng.standard_normal((96, width)) for _ in range(3))
        cases.append((a, rng.uniform(2.0, 4.0, (96, width)), c, d))
    want = [pcr_reduce_arrays(*case, 5, 0) for case in cases]
    monkeypatch.setattr(pcr, "_BLOCK_BYTES", 8 * 8 * 4 * 6)
    results, errors = [None] * len(cases), []

    def run(i):
        try:
            for _ in range(20):
                results[i] = pcr_reduce_arrays(*cases[i], 5, 0)
        except Exception as exc:  # reported below, with its thread's case
            errors.append((i, exc))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for got, ref in zip(results, want):
        for have, expected in zip(got, ref):
            np.testing.assert_array_equal(have.view(np.uint64), expected.view(np.uint64))
