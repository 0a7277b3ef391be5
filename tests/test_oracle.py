"""The LAPACK oracle: one ``gtsv`` call over the whole batch.

:func:`repro.algorithms.scipy_banded_solve` lays the batch end to end
and makes one LAPACK call. These tests pin it to the per-system
``solve_banded`` loop it replaced (kept here as the reference), as uint
bit patterns over the generator families that
:func:`repro.systems.suite.build_workload` draws from, with a singular
system first, in the middle or last. The families put no ``-0.0`` in
``d``: next to a system boundary the one call may flip such a zero's
sign, so that case compares values. Failures are typed: a NaN or Inf
is an :class:`InvalidSystemError`, a singular system a
:class:`SingularSystemError`, each naming the offending system.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

from repro.algorithms import scipy_banded_solve
from repro.systems import generators
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import InvalidSystemError, SingularSystemError

_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}

FAMILIES = [
    "random_dominant",
    "random_uniform",
    "poisson_1d",
    "cubic_spline",
    "adi_lines",
    "toeplitz",
    "ocean_mixing",
    "ill_conditioned",
    "huge_dynamic_range",
]


def per_system_reference(batch):
    """One ``solve_banded`` call per system (partial pivoting)."""
    m, n = batch.shape
    x = np.empty((m, n), dtype=batch.dtype)
    ab = np.zeros((3, n), dtype=batch.dtype)
    for i in range(m):
        ab[0, 1:] = batch.c[i, :-1]
        ab[1, :] = batch.b[i]
        ab[2, :-1] = batch.a[i, 1:]
        try:
            x[i] = solve_banded((1, 1), ab, batch.d[i])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"system {i} is singular: {exc}", system_index=i
            ) from exc
    return x


def _outcome(solve, batch):
    """The solution's bit pattern, or the singular system's index."""
    try:
        x = solve(batch)
    except SingularSystemError as exc:
        return ("singular", exc.system_index)
    return ("solved", x.view(_UINT[x.dtype]).tobytes())


def _with_singular(batch, index):
    """``batch`` with system ``index`` replaced by an exactly singular one."""
    bad = generators.singular(1, batch.system_size, dtype=batch.dtype)
    arrays = []
    for good, row in zip(
        (batch.a, batch.b, batch.c, batch.d), (bad.a, bad.b, bad.c, bad.d)
    ):
        arr = good.copy()
        arr[index] = row[0]
        arrays.append(arr)
    return TridiagonalBatch(*arrays)


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    dtype=st.sampled_from([np.float32, np.float64]),
    m=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=1, max_value=200),
    singular_at=st.sampled_from([None, "first", "middle", "last"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_one_call_matches_per_system_loop(family, dtype, m, n, singular_at, seed):
    batch = getattr(generators, family)(m, n, rng=seed, dtype=dtype)
    if singular_at is not None and n >= 2:
        index = {"first": 0, "middle": m // 2, "last": m - 1}[singular_at]
        batch = _with_singular(batch, index)
    with np.errstate(all="ignore"):
        expected = _outcome(per_system_reference, batch)
        got = _outcome(scipy_banded_solve, batch)
    assert got == expected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index", [0, 3, 6])
def test_singular_system_index(dtype, index):
    batch = _with_singular(generators.random_dominant(7, 33, rng=1, dtype=dtype), index)
    with pytest.raises(SingularSystemError) as exc:
        scipy_banded_solve(batch)
    assert exc.value.system_index == index


@pytest.mark.parametrize("poison", ["nan_poisoned", "inf_poisoned"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_non_finite_input_raises_typed_error(poison, seed):
    batch = getattr(generators, poison)(6, 40, rng=seed)
    poisoned = int(np.argmin(np.isfinite(batch.b).all(axis=1)))
    with pytest.raises(InvalidSystemError) as exc:
        scipy_banded_solve(batch)
    assert exc.value.system_index == poisoned


def test_nan_in_rhs_raises_typed_error():
    batch = generators.random_dominant(4, 16, rng=3)
    d = batch.d.copy()
    d[2, 5] = np.nan
    with pytest.raises(InvalidSystemError) as exc:
        scipy_banded_solve(batch.with_rhs(d))
    assert exc.value.system_index == 2


def test_negative_zero_keeps_its_value():
    batch = TridiagonalBatch(
        np.zeros((2, 2)), np.full((2, 2), 2.0), np.zeros((2, 2)),
        np.array([[1.0, -0.0], [-1.0, -1.0]]),
    )
    assert np.array_equal(scipy_banded_solve(batch), per_system_reference(batch))


def test_shared_matrix_batch():
    row = generators.random_dominant(1, 64, rng=4)
    d = np.random.default_rng(5).standard_normal((8, 64))
    shared = TridiagonalBatch(
        *(np.broadcast_to(x, (8, 64)) for x in (row.a, row.b, row.c)), d
    )
    tiled = TridiagonalBatch(
        *(np.ascontiguousarray(x) for x in (shared.a, shared.b, shared.c)), d
    )
    assert np.array_equal(scipy_banded_solve(shared), per_system_reference(tiled))
