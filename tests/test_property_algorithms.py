"""Property-based tests (hypothesis) on the algorithm layer.

Invariants under test:

- every solver agrees with the LAPACK oracle on dominant systems;
- PCR splitting preserves the solution set at every depth;
- PCR preserves diagonal dominance (so later stages remain stable);
- padding round-trips exactly;
- LU factors reproduce Thomas results;
- the shared pad-free PCR reduction reproduces the padded textbook step
  bit for bit (as integer bit patterns, so signed zeros count), along
  both layouts' axes, and cutting its steps into blocks changes no bit;
- solvers are stack-equivariant: stacking independent batches and
  solving once is bit-identical to solving each batch alone (the
  contract the batched solve service is built on).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import pcr
from repro.algorithms import (
    cr_solve,
    lu_solve,
    pad_pow2,
    pcr_reduce,
    pcr_reduce_arrays,
    pcr_solve,
    pcr_split,
    pcr_thomas_solve,
    pcr_unsplit_solution,
    scipy_banded_solve,
    thomas_solve,
    unpad_solution,
)
from repro.systems import generators
from repro.systems.properties import dominance_margin, is_diagonally_dominant
from tests.conftest import assert_close_to_oracle, dominant_batches

COMMON = dict(max_examples=25, deadline=None)


@settings(**COMMON)
@given(batch=dominant_batches(max_size=128))
def test_thomas_matches_oracle(batch):
    assert_close_to_oracle(batch, thomas_solve(batch), factor=4)


@settings(**COMMON)
@given(batch=dominant_batches(max_size=128))
def test_cr_matches_oracle(batch):
    assert_close_to_oracle(batch, cr_solve(batch), factor=8)


@settings(**COMMON)
@given(batch=dominant_batches(max_size=128))
def test_pcr_matches_oracle(batch):
    assert_close_to_oracle(batch, pcr_solve(batch), factor=8)


@settings(**COMMON)
@given(
    batch=dominant_batches(min_size=2, max_size=128),
    switch_exp=st.integers(min_value=0, max_value=7),
)
def test_pcr_thomas_matches_oracle_all_switches(batch, switch_exp):
    x = pcr_thomas_solve(batch, 1 << switch_exp)
    assert_close_to_oracle(batch, x, factor=8)


@settings(**COMMON)
@given(
    batch=dominant_batches(min_size=4, max_size=64),
    depth=st.integers(min_value=0, max_value=4),
)
def test_pcr_split_preserves_solutions(batch, depth):
    depth = min(depth, int(np.log2(batch.system_size)))
    split = pcr_split(batch, depth)
    assert split.shape == (
        batch.num_systems << depth,
        batch.system_size >> depth,
    )
    x = pcr_unsplit_solution(thomas_solve(split), depth)
    assert_close_to_oracle(batch, x, factor=8)


@settings(**COMMON)
@given(
    batch=dominant_batches(min_size=4, max_size=64),
    steps=st.integers(min_value=1, max_value=3),
)
def test_pcr_preserves_dominance(batch, steps):
    """PCR on a strictly dominant system keeps every reduced system dominant.

    This is the stability contract that lets stage 4 run Thomas without
    pivoting on PCR-produced subsystems.
    """
    steps = min(steps, int(np.log2(batch.system_size)))
    reduced = pcr_reduce(batch, steps)
    assert is_diagonally_dominant(reduced)
    assert dominance_margin(reduced).min() >= -1e-9


@settings(**COMMON)
@given(batch=dominant_batches(min_size=3, max_size=150, pow2=False))
def test_padding_roundtrip(batch):
    padded, original = pad_pow2(batch)
    assert padded.system_size >= batch.system_size
    assert padded.system_size & (padded.system_size - 1) == 0
    x = unpad_solution(thomas_solve(padded), original)
    assert_close_to_oracle(batch, x, factor=8)


@settings(**COMMON)
@given(batch=dominant_batches(min_size=3, max_size=150, pow2=False))
def test_padded_equations_decoupled(batch):
    """Padding rows solve to exactly zero and leave real rows untouched."""
    padded, original = pad_pow2(batch)
    x = thomas_solve(padded)
    if padded.system_size > original:
        np.testing.assert_array_equal(x[:, original:], 0.0)
    np.testing.assert_allclose(
        x[:, :original], thomas_solve(batch), atol=1e-12, rtol=1e-12
    )


@settings(**COMMON)
@given(batch=dominant_batches(max_size=64, pow2=False))
def test_lu_equals_thomas(batch):
    np.testing.assert_allclose(
        lu_solve(batch), thomas_solve(batch), atol=1e-10, rtol=1e-10
    )


@settings(**COMMON)
@given(
    batch=dominant_batches(max_size=64),
    scale=st.floats(min_value=0.25, max_value=4.0),
)
def test_solver_linearity(batch, scale):
    """Solutions scale linearly with the RHS (solver is linear in d)."""
    x1 = thomas_solve(batch)
    x2 = thomas_solve(batch.with_rhs(batch.d * scale))
    np.testing.assert_allclose(x2, x1 * scale, atol=1e-9, rtol=1e-9)


@settings(**COMMON)
@given(batch=dominant_batches(max_size=64))
def test_oracle_self_consistency(batch):
    """The scipy oracle itself satisfies the residual contract."""
    x = scipy_banded_solve(batch)
    assert batch.residual(x).max() < 1e-12


# ---------------------------------------------------------------------------
# stack equivariance — the batched-service contract
# ---------------------------------------------------------------------------


@st.composite
def same_size_batch_lists(draw):
    """2-5 independent batches sharing one (power-of-two) system size."""
    from repro.systems.tridiagonal import TridiagonalBatch

    n = 1 << draw(st.integers(min_value=1, max_value=7))
    count = draw(st.integers(min_value=2, max_value=5))
    batches = []
    for _ in range(count):
        m = draw(st.integers(min_value=1, max_value=4))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        batches.append(generators.random_dominant(m, n, rng=seed))
    return batches


@settings(**COMMON)
@given(batches=same_size_batch_lists())
def test_thomas_stack_equivariance(batches):
    """Solving a stack == solving each member, bitwise."""
    from repro.systems.tridiagonal import TridiagonalBatch

    stacked_x = thomas_solve(TridiagonalBatch.stack(batches))
    offset = 0
    for batch in batches:
        rows = slice(offset, offset + batch.num_systems)
        np.testing.assert_array_equal(stacked_x[rows], thomas_solve(batch))
        offset += batch.num_systems


@settings(**COMMON)
@given(
    batches=same_size_batch_lists(),
    switch_exp=st.integers(min_value=0, max_value=6),
)
def test_pcr_thomas_stack_equivariance(batches, switch_exp):
    """The hybrid kernel never couples independent systems in a batch."""
    from repro.systems.tridiagonal import TridiagonalBatch

    switch = 1 << switch_exp
    stacked_x = pcr_thomas_solve(TridiagonalBatch.stack(batches), switch)
    offset = 0
    for batch in batches:
        rows = slice(offset, offset + batch.num_systems)
        np.testing.assert_array_equal(
            stacked_x[rows], pcr_thomas_solve(batch, switch)
        )
        offset += batch.num_systems


@settings(**COMMON)
@given(
    batches=same_size_batch_lists(),
    depth=st.integers(min_value=1, max_value=3),
)
def test_pcr_split_stack_equivariance(batches, depth):
    """Splitting a stack splits each member exactly as it would alone."""
    from repro.systems.tridiagonal import TridiagonalBatch

    depth = min(depth, int(np.log2(batches[0].system_size)))
    split_all = pcr_split(TridiagonalBatch.stack(batches), depth)
    offset = 0
    for batch in batches:
        rows = slice(offset, offset + (batch.num_systems << depth))
        alone = pcr_split(batch, depth)
        np.testing.assert_array_equal(split_all.b[rows], alone.b)
        np.testing.assert_array_equal(split_all.d[rows], alone.d)
        offset += batch.num_systems << depth


def _padded_pcr_step(a, b, c, d, s, axis):
    """The textbook PCR step: pad with the identity equation, then slice.

    The formula the package shipped before the pad-free reduction; kept
    here only as the bit-pattern oracle for it.
    """
    n = b.shape[axis]
    pad = [(0, 0), (0, 0)]
    pad[axis] = (s, s)
    ap = np.pad(a, pad, constant_values=0)
    bp = np.pad(b, pad, constant_values=1)
    cp = np.pad(c, pad, constant_values=0)
    dp = np.pad(d, pad, constant_values=0)
    lo = (slice(None),) * axis + (slice(0, n),)
    hi = (slice(None),) * axis + (slice(2 * s, None),)
    alpha = -a / bp[lo]
    gamma = -c / bp[hi]
    new_a = alpha * ap[lo]
    new_b = b + alpha * cp[lo] + gamma * ap[hi]
    new_c = gamma * cp[hi]
    new_d = d + alpha * dp[lo] + gamma * dp[hi]
    return new_a, new_b, new_c, new_d


@st.composite
def signed_zero_coefficients(draw):
    """Strictly dominant coefficients along a random axis, rich in ±0.0.

    ``|b|`` in ``[2, 4]`` with either sign against ``|a|, |c| < 0.9``
    keeps every reduced diagonal nonzero, so no step divides by zero
    and no NaN (whose payload IEEE leaves unspecified) ever appears.
    A quarter of ``a``, ``c`` and ``d`` are exact zeros of either sign.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    axis = draw(st.sampled_from([0, 1]))
    m = draw(st.sampled_from([1, 3, 16]))
    n = draw(st.integers(min_value=1, max_value=1024))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shape = (m, n) if axis == 1 else (n, m)

    def off_diagonal():
        x = rng.uniform(-0.9, 0.9, shape)
        zeros = rng.random(shape) < 0.25
        x[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
        return x.astype(dtype)

    b = (rng.uniform(2.0, 4.0, shape) * rng.choice([-1.0, 1.0], shape)).astype(dtype)
    return axis, (off_diagonal(), b, off_diagonal(), off_diagonal())


@settings(max_examples=60, deadline=None)
@given(
    coeffs=signed_zero_coefficients(),
    start_exp=st.integers(min_value=0, max_value=11),
    start_odd=st.sampled_from([1, 3]),
    steps=st.integers(min_value=1, max_value=4),
)
def test_reduce_arrays_matches_padded_step_bit_patterns(
    coeffs, start_exp, start_odd, steps
):
    """Every element of every step equals the padded formula's, bit for bit.

    ``assert_array_equal`` treats ``-0.0 == 0.0``, so the comparison is on
    ``.view(uint)``. Start strides run from 1 past ``n = 1024`` (every
    row an identity-neighbour boundary row) and include non-powers of
    two; ``steps`` doubles the stride from there.
    """
    axis, (a, b, c, d) = coeffs
    start_stride = start_odd << start_exp
    uint = np.uint32 if b.dtype == np.float32 else np.uint64
    expected = (a, b, c, d)
    stride = start_stride
    for _ in range(steps):
        expected = _padded_pcr_step(*expected, stride, axis)
        stride *= 2
    got = pcr_reduce_arrays(a, b, c, d, steps, axis, start_stride)
    for name, want, have in zip("abcd", expected, got):
        assert have.dtype == want.dtype, name
        np.testing.assert_array_equal(
            have.view(uint), want.view(uint), err_msg=f"coefficient {name}"
        )


@st.composite
def blocked_reductions(draw):
    """A period-form reduction and a block size that cuts it many ways.

    The equation axis ``axis`` of a 3-D ``d`` has ``n`` rows; the other
    two axes hold ``q`` right-hand sides per matrix and a period ``P``.
    A shared matrix has ``q = 1`` (it broadcasts), a tiled one has
    ``d``'s shape. Returns the arrays, the step parameters and a block
    byte budget of ``1..48`` rows, so ``n`` is rarely a multiple of the
    block and strides often reach two or more blocks away.
    """
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    axis = draw(st.sampled_from([0, 1, 2]))
    n = draw(st.integers(min_value=1, max_value=300))
    q, p = draw(st.sampled_from([1, 3])), draw(st.sampled_from([1, 2, 5]))
    shared = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    d_shape = [q, p]
    d_shape.insert(axis, n)
    m_shape = list(d_shape)
    if shared:
        m_shape[1 if axis == 0 else 0] = 1  # the q axis
    a, c = (rng.uniform(-0.9, 0.9, m_shape) for _ in range(2))
    b = rng.uniform(2.0, 4.0, m_shape) * rng.choice([-1.0, 1.0], m_shape)
    arrays = [x.astype(dtype) for x in (a, b, c, rng.standard_normal(d_shape))]
    row_bytes = np.dtype(dtype).itemsize * (arrays[3].size + 3 * b.size) // n
    block_bytes = row_bytes * draw(st.integers(min_value=1, max_value=48))
    start_stride = draw(st.sampled_from([1, 3])) << draw(st.integers(0, 8))
    steps = draw(st.integers(min_value=1, max_value=4))
    return arrays, axis, start_stride, steps, block_bytes


@settings(max_examples=60, deadline=None)
@given(case=blocked_reductions())
def test_blocked_reduction_matches_one_block_bit_patterns(case):
    """Cutting each step into blocks (and sharing them across workers)
    changes no bit of the result or of the recorded multipliers."""
    (a, b, c, d), axis, start_stride, steps, block_bytes = case
    uint = np.uint32 if d.dtype == np.float32 else np.uint64
    results = []
    for budget in (1 << 62, block_bytes):
        multipliers = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pcr, "_BLOCK_BYTES", budget)
            out = pcr_reduce_arrays(
                a, b, c, d, steps, axis, start_stride, multipliers=multipliers
            )
        results.append(list(out) + [x for pair in multipliers for x in pair])
    for one, blocked in zip(*results):
        np.testing.assert_array_equal(blocked.view(uint), one.view(uint))
