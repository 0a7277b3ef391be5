"""Tests for factorization reuse and the Black-Scholes pricer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    factorize,
    pcr_thomas_solve,
    scipy_banded_solve,
    thomas_solve,
)
from repro.apps import BlackScholesPricer, black_scholes_closed_form
from repro.systems import BatchedTridiagonal, generators
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import ConfigurationError, ShapeError, SingularSystemError

_UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def _bits(x):
    return x.view(_UINT[x.dtype])


def _shared(row, m):
    """``m`` systems sharing ``row``'s matrix (stride-0 views), ``row``'s
    RHS repeated with a per-system offset."""
    n = row.system_size
    d = row.d + np.arange(m, dtype=row.dtype)[:, None]
    return TridiagonalBatch(
        *(np.broadcast_to(x, (m, n)) for x in (row.a, row.b, row.c)), d
    )


def _factor_stored(factors):
    return [x for pair in factors.steps for x in pair] + [
        factors.a,
        factors.cp,
        factors.beta,
    ]


class TestFactorization:
    def test_matches_direct_solve(self):
        batch = generators.random_dominant(8, 256, rng=0)
        factors = factorize(batch)
        x = factors.solve(batch.d)
        np.testing.assert_allclose(x, scipy_banded_solve(batch), atol=1e-10)

    @pytest.mark.parametrize("depth", [0, 1, 3, 6])
    def test_any_split_depth(self, depth):
        batch = generators.random_dominant(4, 128, rng=depth)
        factors = factorize(batch, split_depth=depth)
        np.testing.assert_allclose(
            factors.solve(batch.d), thomas_solve(batch), atol=1e-10
        )

    def test_reuse_across_many_rhs(self):
        batch = generators.random_dominant(4, 512, rng=1)
        factors = factorize(batch)
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = rng.standard_normal(batch.shape)
            x = factors.solve(d)
            assert batch.with_rhs(d).residual(x).max() < 1e-12

    def test_matches_hybrid_exactly_for_same_depth(self):
        """Same split depth -> numerically the same algorithm."""
        batch = generators.random_dominant(2, 256, rng=3)
        factors = factorize(batch, split_depth=4)
        assert np.array_equal(
            factors.solve(batch.d), pcr_thomas_solve(batch, 16)
        )

    def test_shape_validation(self):
        batch = generators.random_dominant(2, 64, rng=4)
        factors = factorize(batch)
        with pytest.raises(ShapeError):
            factors.solve(np.zeros((2, 32)))
        with pytest.raises(ShapeError):
            factorize(batch, split_depth=8)  # 2^8 > 64

    def test_non_pow2_rejected(self):
        batch = generators.random_dominant(1, 100, rng=5)
        with pytest.raises(ConfigurationError):
            factorize(batch)

    def test_interleaved_batch_rejected(self):
        batch = generators.random_dominant(4, 64, rng=5)
        with pytest.raises(ShapeError):
            factorize(BatchedTridiagonal.interleave(batch))


@settings(max_examples=20, deadline=None)
@given(
    n_exp=st.integers(min_value=2, max_value=9),
    depth=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_factorization_property(n_exp, depth, seed):
    n = 1 << n_exp
    depth = min(depth, n_exp)
    batch = generators.random_dominant(3, n, rng=seed)
    factors = factorize(batch, split_depth=depth)
    x = factors.solve(batch.d)
    assert batch.residual(x).max() < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    m=st.integers(min_value=1, max_value=5),
    n_exp=st.integers(min_value=0, max_value=8),
    depth=st.integers(min_value=0, max_value=8),
    shared=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_factorized_solve_is_the_hybrid_bit_for_bit(
    dtype, m, n_exp, depth, shared, seed
):
    """``factorize(b, k).solve(d)`` is ``pcr_thomas_solve`` at ``2**k``,
    as uint bit patterns, for tiled and shared-matrix batches."""
    n, k = 1 << n_exp, min(depth, n_exp)
    if shared:
        batch = _shared(generators.random_dominant(1, n, rng=seed, dtype=dtype), m)
    else:
        batch = generators.random_dominant(m, n, rng=seed, dtype=dtype)
    factors = factorize(batch, k)
    d = np.random.default_rng(seed).standard_normal((m, n)).astype(dtype)
    x = factors.solve(d)
    assert x.dtype == dtype
    assert np.array_equal(
        _bits(x), _bits(pcr_thomas_solve(batch.with_rhs(d), 1 << k))
    )


class TestFactorizedContracts:
    @pytest.mark.parametrize("depth", [0, 1, 3, 4])
    def test_singular_matches_hybrid_error(self, depth):
        good = generators.random_dominant(3, 16, rng=13)
        bad = generators.singular(1, 16, zero_row=5)
        batch = TridiagonalBatch(
            *(np.vstack([g[:1], s, g[1:]]) for g, s in zip(
                (good.a, good.b, good.c, good.d), (bad.a, bad.b, bad.c, bad.d)
            ))
        )
        # The zero row makes the PCR splits divide by zero on the way.
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(SingularSystemError) as hybrid:
                pcr_thomas_solve(batch, 1 << depth)
            with pytest.raises(SingularSystemError) as factored:
                factorize(batch, depth)
        assert factored.value.system_index == hybrid.value.system_index
        assert str(factored.value) == str(hybrid.value)

    def test_shared_matrix_factors_hold_the_matrix_once(self):
        row = generators.random_dominant(1, 512, rng=14)
        one, many = (factorize(_shared(row, m), 5) for m in (1, 64))
        assert sum(x.nbytes for x in _factor_stored(one)) == sum(
            x.nbytes for x in _factor_stored(many)
        )
        d = np.random.default_rng(15).standard_normal((64, 512))
        tiled = TridiagonalBatch(
            *(np.ascontiguousarray(np.broadcast_to(x, (64, 512)))
              for x in (row.a, row.b, row.c)),
            d,
        )
        assert np.array_equal(
            _bits(many.solve(d)), _bits(factorize(tiled, 5).solve(d))
        )


class TestBlackScholes:
    def test_matches_closed_form_calls(self):
        pricer = BlackScholesPricer(
            rate=0.03, sigma=0.25, grid_points=512, time_steps=400
        )
        strikes = np.array([80.0, 100.0, 120.0])
        spot, maturity = 100.0, 1.0
        pde = pricer.price(strikes, maturity, spot, call=True)
        exact = black_scholes_closed_form(spot, strikes, 0.03, 0.25, maturity)
        # With cell-averaged payoffs and interpolated readout the
        # pricer is accurate to well under a cent here.
        np.testing.assert_allclose(pde, exact, atol=0.02)

    def test_matches_closed_form_puts(self):
        pricer = BlackScholesPricer(
            rate=0.05, sigma=0.2, grid_points=512, time_steps=400
        )
        pde = pricer.price(np.array([100.0]), 0.5, 100.0, call=False)
        exact = black_scholes_closed_form(
            100.0, 100.0, 0.05, 0.2, 0.5, call=False
        )
        assert pde[0] == pytest.approx(float(exact), abs=0.02)

    def test_put_call_parity(self):
        pricer = BlackScholesPricer(grid_points=512, time_steps=300)
        strike, spot, maturity = 105.0, 100.0, 1.0
        call = pricer.price(np.array([strike]), maturity, spot, call=True)[0]
        put = pricer.price(np.array([strike]), maturity, spot, call=False)[0]
        parity = spot - strike * np.exp(-pricer.rate * maturity)
        assert call - put == pytest.approx(parity, abs=0.05)

    def test_monotone_in_strike(self):
        pricer = BlackScholesPricer(grid_points=256, time_steps=100)
        strikes = np.array([80.0, 90.0, 100.0, 110.0, 120.0])
        calls = pricer.price(strikes, 1.0, 100.0, call=True)
        assert (np.diff(calls) < 0).all()  # call value falls with strike

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BlackScholesPricer(sigma=-0.1)
        pricer = BlackScholesPricer(grid_points=128, time_steps=10)
        with pytest.raises(ConfigurationError):
            pricer.price(np.array([100.0]), -1.0, 100.0)

    def test_grid_rounded_to_pow2(self):
        pricer = BlackScholesPricer(grid_points=300, time_steps=10)
        assert pricer.grid_points == 512
