"""Splits are strides: the solve path reduces in place and never gathers.

A PCR split leaves each system's ``2^k`` subsystems interleaved at
stride ``2^k``. The kernels keep them there: every later split
continues the reduction at that stride, and Thomas reads each
subsystem as a strided view, so the solution comes back in the
caller's equation order with no gather or scatter. These tests pin

- bit patterns (``.view(uint)``, so signed zeros count) against an
  independent reference built from the public calls, which still
  gather: ``pcr_split`` twice, ``pcr_thomas_solve``, then
  ``pcr_unsplit_solution`` twice;
- that no gather or scatter runs on any solve path, and that the
  ``Unsplit`` marker touches no array;
- that a vanishing pivot after a split names the caller's system and
  equation, not a subsystem's.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    factorize,
    pad_pow2,
    pcr,
    pcr_split,
    pcr_thomas_solve,
    pcr_unsplit_solution,
    unpad_solution,
)
from repro.core import MultiStageSolver, SwitchPoints
from repro.ir.instructions import Unsplit
from repro.kernels.handlers import ExecState, execute_step
from repro.systems import generators
from repro.systems.batched import BatchedTridiagonal
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import SingularSystemError


def _bits(x: np.ndarray) -> np.ndarray:
    return x.view(np.uint32 if x.dtype == np.float32 else np.uint64)


def _batch(m, n, dtype, shared, seed) -> TridiagonalBatch:
    g = generators.random_dominant(m, n, rng=seed)
    a, b, c, d = (np.asarray(x, dtype) for x in (g.a, g.b, g.c, g.d))
    if shared:
        a, b, c = (np.broadcast_to(x[:1], (m, n)) for x in (a, b, c))
    return TridiagonalBatch(a, b, c, d)


def _reference(batch, k1, k2, switch, interleaved):
    """The staged solve from public calls on public containers, which
    gather the subsystems after each split and scatter them back."""
    padded, n = pad_pow2(batch)
    work = BatchedTridiagonal.interleave(padded) if interleaved else padded
    x = pcr_thomas_solve(pcr_split(pcr_split(work, k1), k2), switch)
    if interleaved:
        x = x.T
    return unpad_solution(pcr_unsplit_solution(pcr_unsplit_solution(x, k2), k1), n)


def _total_depth(batch, depth, interleaved):
    """``pcr_thomas_solve`` at the whole depth, on the padded batch."""
    padded, n = pad_pow2(batch)
    work = BatchedTridiagonal.interleave(padded) if interleaved else padded
    x = pcr_thomas_solve(work, 1 << depth)
    return unpad_solution(x.T if interleaved else x, n)


@settings(max_examples=40, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    shared=st.booleans(),
    interleaved=st.booleans(),
    m=st.integers(1, 4),
    n=st.integers(65, 1500).filter(lambda n: n & (n - 1)),
    targets=st.sampled_from([1, 2, 8, 64]),
    stage3=st.sampled_from([16, 32, 64]),
    thomas=st.sampled_from([1, 2, 4, 16, 64]),
    seed=st.integers(0, 2**16),
)
def test_strided_solves_match_the_gathering_reference(
    dtype, shared, interleaved, m, n, targets, stage3, thomas, seed
):
    batch = _batch(m, n, dtype, shared, seed)
    switch = SwitchPoints(
        stage1_target_systems=targets, stage3_system_size=stage3, thomas_switch=thomas
    )
    plan = MultiStageSolver("gtx470", switch).plan_for(batch)
    k1, k2 = plan.stage1_steps, plan.stage2_steps
    t = min(plan.thomas_switch, plan.stage3_system_size)
    want = _bits(_reference(batch, k1, k2, t, interleaved))
    for fuse in (False, True):
        got = MultiStageSolver("gtx470", switch, fuse=fuse).solve(batch).x
        np.testing.assert_array_equal(_bits(got), want, err_msg=f"fuse={fuse}")
    depth = k1 + k2 + t.bit_length() - 1
    np.testing.assert_array_equal(_bits(_total_depth(batch, depth, interleaved)), want)


def _no_gathers():
    """Patch every gather and scatter of the period form to fail."""
    def forbidden(*_):
        raise AssertionError("a solve path gathered or scattered")

    return mock.patch.multiple(
        pcr, _gather=forbidden, _gather_interleaved=forbidden, _scatter=forbidden
    )


@pytest.mark.parametrize("shared", [False, True])
def test_no_solve_path_gathers_or_scatters(shared):
    batch = _batch(3, 3000, np.float64, shared, 5)
    switch = SwitchPoints(stage1_target_systems=8, stage3_system_size=64, thomas_switch=4)
    want = [MultiStageSolver("gtx470", switch, fuse=f).solve(batch).x for f in (False, True)]
    pow2 = _batch(3, 1024, np.float64, shared, 6)
    factored = factorize(pow2, 5)
    with _no_gathers():
        for fuse, x in zip((False, True), want):
            got = MultiStageSolver("gtx470", switch, fuse=fuse).solve(batch).x
            np.testing.assert_array_equal(_bits(got), _bits(x))
        pcr_thomas_solve(pow2, 64)
        pcr_thomas_solve(BatchedTridiagonal.interleave(pow2), 64)
        factorize(pow2, 5).solve(pow2.d)
        factored.solve_many(np.stack([pow2.d, pow2.d]))


def test_unsplit_touches_no_array():
    state = ExecState.for_batch(_batch(2, 64, np.float64, False, 0))
    state.x = x = np.zeros((2, 64))
    step = mock.Mock(op=Unsplit(3))
    execute_step(step, None, state)
    assert state.x is x


@pytest.mark.parametrize("fuse", [False, True])
@pytest.mark.parametrize("dtype, tiny", [(np.float32, 1e-35), (np.float64, 1e-300)])
def test_singular_pivot_after_a_split_names_the_callers_system(dtype, tiny, fuse):
    """A sub-floor pivot in a diagonal matrix survives the PCR splits
    unchanged; the error names system 2 and its equation 333."""
    n = 700
    b = np.tile(np.linspace(1.0, 2.0, n, dtype=dtype), (3, 1))
    b[2, 333] = tiny
    zeros = np.zeros((3, n), dtype)
    batch = TridiagonalBatch(zeros, b, zeros.copy(), np.ones((3, n), dtype))
    solver = MultiStageSolver(
        "gtx470",
        SwitchPoints(stage1_target_systems=4, stage3_system_size=64, thomas_switch=4),
        fuse=fuse,
    )
    with pytest.raises(SingularSystemError) as info:
        solver.solve(batch)
    assert info.value.system_index == 2
    assert "zero pivot at row 333 of system 2" in str(info.value)
