"""Contracts of the shared pad-free PCR reduction.

Every numeric split (row-major and interleaved) runs through
:func:`repro.algorithms.pcr.pcr_reduce_arrays`. Its bit-pattern parity
with the textbook padded step is a property test in
``test_property_algorithms.py``; this module pins the rest:

- it never writes into the caller's arrays (read-only ones included,
  and the tiled three-RHS batch SPIKE builds) and returns arrays that
  share no memory with them;
- its working set is a fixed number of batch-sized buffers, however
  many steps it runs (measured with ``tracemalloc``, not a stopwatch).
"""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms import (
    factorize,
    pcr_reduce,
    pcr_reduce_arrays,
    pcr_solve,
    pcr_split,
    pcr_step,
)
from repro.algorithms.spike import partition_bounds, spike_rhs, split_chunks
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


@pytest.mark.parametrize("layout", ["pcr_split", "pcr_reduce"])
def test_reduction_working_set_is_bounded(long_batch, layout):
    """At most 10 batch-sized arrays at peak, flat in the step count.

    Two ping-pong sets of four plus one scratch make nine; a per-step
    allocating step (padded copies plus fresh temporaries) peaks at
    fifteen. Timing-free, so it guards the win in every environment.
    """
    if layout == "pcr_split":
        fn, arg = pcr_split, BatchedTridiagonal.interleave(long_batch)
    else:
        fn, arg = pcr_reduce, long_batch
    array_bytes = long_batch.b.nbytes
    peaks = {k: _peak_in_arrays(fn, arg, k, array_bytes) for k in (2, 8, 14)}
    assert max(peaks.values()) <= 10.0, peaks
    assert peaks[14] - peaks[2] <= 0.25, peaks
