"""Shared-matrix batches: one matrix, many right-hand sides.

A batch whose ``a``/``b``/``c`` are ``np.broadcast_to`` views of one
``(1, n)`` row is a shared-matrix batch. The solvers reduce that matrix
once, at its own width, and run only ``d`` at full width. These tests
pin that this is the same solve as the tiled twin — the batch with the
row copied out to every system:

- solutions are bit-identical, compared as ``.view(uint)`` so signed
  zeros count, on every execution path: the staged chain, the fused
  interleaved sweep, SPIKE's three right-hand sides and the pipelined
  distributed solve, ADI in two and three dimensions, governed solves;
- the priced clock does not move;
- a singular shared matrix raises the tiled twin's error, with the same
  ``system_index``;
- the containers keep the broadcast views (``nbytes`` stays logical);
- the solve's working set is at most half the tiled one's (measured
  with ``tracemalloc``, not a stopwatch).
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import pad_pow2, pcr_thomas_solve, thomas_solve
from repro.algorithms.spike import partition_bounds, spike_rhs, split_chunks
from repro.apps import AdiDiffusion2D, AdiDiffusion3D
from repro.core import MultiStageSolver, SwitchPoints
from repro.dist import DistributedSolver
from repro.kernels.handlers import ExecState
from repro.kernels.pcr_thomas_smem import VARIANTS
from repro.numerics import Governor
from repro.systems import generators
from repro.systems.batched import BatchedTridiagonal
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import SingularSystemError

COMMON = dict(max_examples=20, deadline=None)


def _shared(a, b, c, d) -> TridiagonalBatch:
    """``d``'s systems against one matrix given as ``(1, n)`` rows."""
    return TridiagonalBatch(*(np.broadcast_to(x, d.shape) for x in (a, b, c)), d)


def _tiled(batch: TridiagonalBatch) -> TridiagonalBatch:
    """The same batch with its matrix copied out to every system."""
    return TridiagonalBatch(*(np.array(x) for x in (batch.a, batch.b, batch.c, batch.d)))


def _is_shared(batch: TridiagonalBatch) -> bool:
    return all(x.strides[0] == 0 for x in (batch.a, batch.b, batch.c))


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint32 if x.dtype == np.float32 else np.uint64)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


@st.composite
def shared_batches(draw):
    """f32/f64, m in {1, 3, 16}, a non-power-of-two n (so Pad runs)."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    m = draw(st.sampled_from([1, 3, 16]))
    n = draw(st.integers(min_value=5, max_value=1500).filter(lambda n: n & (n - 1)))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    row = generators.random_dominant(1, n, rng=seed, dtype=dtype)
    d = np.random.default_rng(seed).standard_normal((m, n)).astype(dtype)
    return _shared(row.a, row.b, row.c, d)


switch_points = st.builds(
    SwitchPoints,
    stage1_target_systems=st.sampled_from([1, 4, 16, 64]),
    stage3_system_size=st.sampled_from([16, 64, 256]),
    thomas_switch=st.sampled_from([1, 4, 16, 64]),
)


# -- containers ----------------------------------------------------------------


class TestContainersKeepTheViews:
    def _batch(self, m=4, n=12):
        row = generators.random_dominant(1, n, rng=3)
        d = np.random.default_rng(3).standard_normal((m, n))
        return _shared(row.a, row.b, row.c, d)

    def test_batch_keeps_views_and_normalises_the_one_row(self):
        a = np.full((1, 12), 0.5)  # corner a[0] and c[-1] are nonzero
        batch = _shared(a, np.full((1, 12), 3.0), a, np.ones((4, 12)))
        assert _is_shared(batch)
        assert batch.a[:, 0].tolist() == [0.0] * 4
        assert batch.c[:, -1].tolist() == [0.0] * 4
        assert batch.nbytes == 4 * 4 * 12 * 8  # logical, as if tiled

    def test_a_partly_broadcast_matrix_is_materialised(self):
        batch = self._batch()
        mixed = TridiagonalBatch(batch.a, np.array(batch.b), batch.c, batch.d)
        assert not any(x.strides[0] == 0 for x in (mixed.a, mixed.b, mixed.c))

    def test_pad_keeps_the_shared_matrix(self):
        batch = self._batch()
        padded, n = pad_pow2(batch)
        assert n == 12 and padded.shape == (4, 16)
        assert _is_shared(padded)
        assert_same_bits(padded.b, pad_pow2(_tiled(batch))[0].b)

    def test_interleave_round_trip_keeps_the_shared_matrix(self):
        batch = self._batch()
        batched = BatchedTridiagonal.interleave(batch)
        assert all(x.strides[1] == 0 for x in (batched.a, batched.b, batched.c))
        back = batched.deinterleave()
        assert _is_shared(back)
        for name in "abcd":
            assert_same_bits(getattr(back, name), getattr(batch, name))


# -- bit identity ----------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@settings(**COMMON)
@given(batch=shared_batches(), switch=switch_points, fuse=st.booleans())
def test_multistage_shared_equals_tiled(variant, batch, switch, fuse):
    """Staged chain and fused sweep, both on-chip variants, any switch points."""
    solver = MultiStageSolver("gtx470", switch.with_(base_variant=variant), fuse=fuse)
    shared = solver.solve(batch)
    tiled = solver.solve(_tiled(batch))
    assert_same_bits(shared.x, tiled.x)
    assert shared.report.total_ms == tiled.report.total_ms


@settings(**COMMON)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    n=st.integers(min_value=64, max_value=3000),
    parts=st.sampled_from([2, 3, 4]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    switch=switch_points,
)
def test_spike_rhs_local_solve_shared_equals_tiled(dtype, n, parts, seed, switch):
    """SPIKE's three right-hand sides on one chunk matrix, fused as in the
    pipelined distributed mode's local solves."""
    batch = generators.random_dominant(1, n, rng=seed, dtype=dtype)
    solver = MultiStageSolver("gtx470", switch, fuse=True)
    for chunk in split_chunks(batch, partition_bounds(n, parts)):
        rhs = spike_rhs(chunk)
        assert rhs.shape == (3, chunk.size) and _is_shared(rhs)
        assert_same_bits(solver.solve(rhs).x, solver.solve(_tiled(rhs)).x)


@pytest.mark.parametrize("n", [3000, (1 << 16) - 5])
def test_pipelined_distributed_solve_equals_tiled_spike(n):
    batch = generators.random_dominant(1, n, rng=n)
    solver = DistributedSolver(4, "static", mode="pipelined")
    shared = solver.solve(batch)
    with mock.patch("repro.dist.solver.spike_rhs", lambda chunk: _tiled(spike_rhs(chunk))):
        tiled = solver.solve(batch)
    assert_same_bits(shared.x, tiled.x)
    assert shared.simulated_ms == tiled.simulated_ms


def _tiled_implicit_batch(r, rhs):
    """ADI's implicit matrix built the tiled way, one full row per line."""
    m, n = rhs.shape
    a = np.full((m, n), -r)
    b = np.full((m, n), 1.0 + 2.0 * r)
    c = np.full((m, n), -r)
    a[:, 0] = 0.0
    c[:, -1] = 0.0
    return TridiagonalBatch(a, b, c, rhs)


@pytest.mark.parametrize(
    "app, shape", [(AdiDiffusion2D, (16, 3000)), (AdiDiffusion3D, (5, 6, 700))]
)
def test_adi_step_equals_tiled_coefficients(app, shape):
    u = np.random.default_rng(1).standard_normal(shape)
    shared = app(shape, solver=MultiStageSolver("gtx470", "static"))
    tiled = app(shape, solver=MultiStageSolver("gtx470", "static"))
    got = shared.run(u, 2)
    with mock.patch("repro.apps.adi._implicit_batch", _tiled_implicit_batch):
        want = tiled.run(u, 2)
    assert_same_bits(got, want)
    assert shared.report.simulated_ms == tiled.report.simulated_ms


@pytest.mark.parametrize("thomas_switch", [1, 4])
def test_row_major_solutions_stay_c_contiguous(thomas_switch):
    """The equation-major Thomas sweep hands back C-ordered ``(m, n)``."""
    row = generators.random_dominant(1, 64, rng=2)
    batch = _shared(row.a, row.b, row.c, np.ones((3, 64)))
    for candidate in (batch, _tiled(batch)):
        assert thomas_solve(candidate).flags.c_contiguous
        assert pcr_thomas_solve(candidate, thomas_switch).flags.c_contiguous


# -- errors and governed solves ----------------------------------------------


@pytest.mark.parametrize("fuse", [False, True])
@pytest.mark.parametrize("dtype, tiny", [(np.float32, 1e-35), (np.float64, 1e-300)])
def test_singular_shared_matrix_reports_the_tiled_system_index(dtype, tiny, fuse):
    """A sub-floor pivot in a diagonal matrix survives the PCR splits
    unchanged, so Thomas finds it in one split subsystem."""
    n = 700
    b = np.linspace(1.0, 2.0, n, dtype=dtype)[None, :]
    b[0, 333] = tiny
    zeros = np.zeros((1, n), dtype)
    batch = _shared(zeros, b, zeros, np.ones((3, n), dtype))
    solver = MultiStageSolver(
        "gtx470",
        SwitchPoints(stage1_target_systems=4, stage3_system_size=64, thomas_switch=4),
        fuse=fuse,
    )
    errors = []
    for candidate in (batch, _tiled(batch)):
        with pytest.raises(SingularSystemError) as info:
            solver.solve(candidate)
        errors.append(info.value)
    shared, tiled = errors
    assert shared.system_index == tiled.system_index == 0
    assert str(shared) == str(tiled)


def test_governed_refine_keeps_the_shared_matrix():
    """A tolerance between the first and the refined residual forces the
    refine rung; its re-solve still reaches the kernels at width 1."""
    row = generators.random_uniform(1, 1000, rng=0)
    d = np.random.default_rng(0).standard_normal((4, 1000))
    batch = _shared(row.a, row.b, row.c, d)

    widths, rungs = [], []
    for_batch, enforce = ExecState.for_batch, Governor.enforce

    def spy_for_batch(cls, b):
        state = for_batch(b)
        widths.append(state.work.b.shape)
        return state

    def spy_enforce(self, *args, **kwargs):
        outcome = enforce(self, *args, **kwargs)
        rungs.append(outcome.rung)
        return outcome

    with mock.patch.object(ExecState, "for_batch", classmethod(spy_for_batch)), \
            mock.patch.object(Governor, "enforce", spy_enforce):
        shared = MultiStageSolver("gtx470", "static").solve(batch, tolerance=1e-14)
    assert rungs == ["refined"]
    assert widths == [(1, 1, 1000), (1, 1, 1000)]
    tiled = MultiStageSolver("gtx470", "static").solve(_tiled(batch), tolerance=1e-14)
    assert_same_bits(shared.x, tiled.x)


# -- working set ---------------------------------------------------------------


def _peak_bytes(fn, arg) -> int:
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shared_matrix_working_set_is_at_most_half_the_tiled():
    """The matrix is reduced at width 1, so only ``d``'s buffers are
    batch-sized; the tiled batch carries four batch-sized arrays."""
    m, n = 16, 1 << 16
    row = generators.random_dominant(1, n, rng=0)
    d = np.random.default_rng(0).standard_normal((m, n))
    shared = _shared(row.a, row.b, row.c, d)
    tiled = _tiled(shared)
    solver = MultiStageSolver("gtx470", "static")
    solver.solve(shared)  # tune outside the measurement
    peaks = {"shared": _peak_bytes(solver.solve, shared), "tiled": _peak_bytes(solver.solve, tiled)}
    assert peaks["shared"] <= 0.5 * peaks["tiled"], peaks
