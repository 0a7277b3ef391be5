"""Unit tests for Thomas, CR, PCR and the hybrids against the LAPACK oracle."""

import numpy as np
import pytest

from repro.algorithms import (
    cr_pcr_solve,
    cr_solve,
    lu_solve,
    pcr_reduce,
    pcr_solve,
    pcr_split,
    pcr_step,
    pcr_thomas_solve,
    pcr_unsplit_solution,
    recursive_doubling_solve,
    scipy_banded_solve,
    solve_with,
    thomas_solve,
)
from repro.systems import generators
from repro.systems.batched import BatchedTridiagonal
from repro.systems.tridiagonal import TridiagonalBatch
from repro.util.errors import ConfigurationError, SingularSystemError
from tests.conftest import assert_close_to_oracle


class TestThomas:
    def test_matches_oracle(self, small_batch):
        assert_close_to_oracle(small_batch, thomas_solve(small_batch))

    def test_single_equation(self):
        batch = generators.identity(3, 1)
        np.testing.assert_array_equal(thomas_solve(batch), batch.d)

    def test_size_two(self):
        batch = generators.random_dominant(4, 2, rng=0)
        assert_close_to_oracle(batch, thomas_solve(batch))

    def test_float32(self):
        batch = generators.random_dominant(4, 64, rng=0, dtype=np.float32)
        x = thomas_solve(batch)
        assert x.dtype == np.float32
        assert batch.residual(x).max() < 1e-5

    def test_singular_raises_with_index(self):
        batch = generators.singular(3, 8)
        with pytest.raises(SingularSystemError) as exc:
            thomas_solve(batch)
        assert exc.value.system_index == 0

    def test_singular_nocheck_returns_nonfinite(self):
        batch = generators.singular(1, 8)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = thomas_solve(batch, check=False)
        assert not np.isfinite(x).all()

    def test_does_not_mutate_input(self, small_batch):
        b0 = small_batch.b.copy()
        thomas_solve(small_batch)
        np.testing.assert_array_equal(small_batch.b, b0)


class TestCR:
    @pytest.mark.parametrize("n", [1, 2, 4, 16, 128])
    def test_matches_oracle_pow2(self, n):
        batch = generators.random_dominant(5, n, rng=n)
        assert_close_to_oracle(batch, cr_solve(batch))

    def test_rejects_non_pow2(self):
        batch = generators.random_dominant(2, 12, rng=0)
        with pytest.raises(ConfigurationError):
            cr_solve(batch)

    def test_poisson(self):
        batch = generators.poisson_1d(3, 64, rng=0)
        assert_close_to_oracle(batch, cr_solve(batch), factor=16)


class TestPCR:
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 256])
    def test_matches_oracle_pow2(self, n):
        batch = generators.random_dominant(4, n, rng=n)
        assert_close_to_oracle(batch, pcr_solve(batch))

    def test_rejects_non_pow2(self):
        batch = generators.random_dominant(2, 24, rng=0)
        with pytest.raises(ConfigurationError):
            pcr_solve(batch)

    def test_step_preserves_solution(self):
        """After a PCR step the original solution satisfies the new
        (coupling-distance-2) equations: a x[i-2] + b x[i] + c x[i+2] = d."""
        batch = generators.random_dominant(3, 32, rng=1)
        x = scipy_banded_solve(batch)
        a, b, c, d = pcr_step(batch.a, batch.b, batch.c, batch.d, 1)
        xp = np.pad(x, ((0, 0), (2, 2)))
        lhs = a * xp[:, :-4] + b * x + c * xp[:, 4:]
        np.testing.assert_allclose(lhs, d, atol=1e-10)

    def test_reduce_zero_steps_identity(self, pow2_batch):
        out = pcr_reduce(pow2_batch, 0)
        np.testing.assert_array_equal(out.b, pow2_batch.b)

    def test_split_produces_independent_systems(self):
        batch = generators.random_dominant(2, 64, rng=3)
        split = pcr_split(batch, 3)
        assert split.shape == (16, 8)
        # Solving the split systems independently must reproduce the
        # original solution after unsplitting.
        x_split = thomas_solve(split)
        x = pcr_unsplit_solution(x_split, 3)
        assert_close_to_oracle(batch, x)

    def test_split_full_depth_equals_solve(self):
        batch = generators.random_dominant(2, 16, rng=4)
        split = pcr_split(batch, 4)  # size-1 systems
        x = pcr_unsplit_solution(split.d / split.b, 4)
        np.testing.assert_allclose(x, pcr_solve(batch), atol=1e-12)

    def test_split_indivisible_rejected(self):
        batch = generators.random_dominant(1, 12, rng=0)
        with pytest.raises(ConfigurationError):
            pcr_split(batch, 3)

    def test_unsplit_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 32))
        from repro.algorithms.pcr import _gather

        assert np.array_equal(pcr_unsplit_solution(_gather(x, 2), 2), x)


class TestPCRThomas:
    @pytest.mark.parametrize("switch", [1, 2, 16, 64, 1024])
    def test_matches_oracle_any_switch(self, switch):
        batch = generators.random_dominant(3, 128, rng=switch)
        assert_close_to_oracle(batch, pcr_thomas_solve(batch, switch))

    def test_switch_one_is_pure_thomas(self):
        batch = generators.random_dominant(2, 32, rng=0)
        np.testing.assert_allclose(
            pcr_thomas_solve(batch, 1), thomas_solve(batch), atol=1e-13
        )

    def test_switch_n_is_pure_pcr(self):
        batch = generators.random_dominant(2, 32, rng=0)
        np.testing.assert_allclose(
            pcr_thomas_solve(batch, 32), pcr_solve(batch), atol=1e-12
        )

    def test_rejects_non_pow2_switch(self):
        batch = generators.random_dominant(1, 64, rng=0)
        with pytest.raises(ConfigurationError):
            pcr_thomas_solve(batch, 48)

    def test_size_one(self):
        batch = generators.identity(2, 1)
        np.testing.assert_array_equal(pcr_thomas_solve(batch, 64), batch.d)

    @staticmethod
    def _one_equation(b, d, interleaved):
        zeros = np.zeros((len(b), 1))
        batch = TridiagonalBatch(zeros, np.reshape(b, (-1, 1)), zeros, np.reshape(d, (-1, 1)))
        return BatchedTridiagonal.interleave(batch) if interleaved else batch

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_size_one_zero_pivot_raises_like_thomas(self, interleaved):
        batch = self._one_equation([2.0, 0.0], [1.0, 1.0], interleaved)
        for solve in (thomas_solve, pcr_thomas_solve):
            with pytest.raises(SingularSystemError) as exc:
                solve(batch)
            assert exc.value.system_index == 1

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_size_one_is_d_over_b_bit_for_bit(self, interleaved):
        b = np.array([3.0, -7.0, 0.1, -2.5])
        d = np.array([-0.0, 0.0, 1.0, -3.0])
        x = pcr_thomas_solve(self._one_equation(b, d, interleaved), 64)
        want = (d / b).reshape(-1, 1)
        want = want.T if interleaved else want
        np.testing.assert_array_equal(x.view(np.uint64), want.view(np.uint64))


class TestCRPCR:
    @pytest.mark.parametrize("switch", [1, 8, 64, 512])
    def test_matches_oracle(self, switch):
        batch = generators.random_dominant(3, 256, rng=switch)
        assert_close_to_oracle(batch, cr_pcr_solve(batch, switch), factor=4)

    def test_degenerate_pure_pcr(self):
        batch = generators.random_dominant(2, 16, rng=1)
        np.testing.assert_allclose(
            cr_pcr_solve(batch, 16), pcr_solve(batch), atol=1e-12
        )

    def test_size_one(self):
        batch = generators.identity(2, 1)
        np.testing.assert_array_equal(cr_pcr_solve(batch), batch.d)


class TestRecursiveDoubling:
    @pytest.mark.parametrize("n", [1, 2, 16, 128, 1024])
    def test_matches_oracle(self, n):
        batch = generators.random_dominant(3, n, rng=n)
        # Projective scans round more than sweeps; allow extra headroom.
        assert_close_to_oracle(batch, recursive_doubling_solve(batch), factor=64)

    def test_rejects_non_pow2(self):
        batch = generators.random_dominant(1, 10, rng=0)
        with pytest.raises(ConfigurationError):
            recursive_doubling_solve(batch)


class TestLU:
    def test_solve_matches_oracle(self, small_batch):
        assert_close_to_oracle(small_batch, lu_solve(small_batch))

    def test_singular_detected(self):
        batch = generators.singular(1, 8)
        with pytest.raises(SingularSystemError):
            lu_solve(batch)


class TestRegistry:
    def test_all_registered_names_solve(self, odd_batch):
        from repro.algorithms import algorithm_names

        for name in algorithm_names():
            x = solve_with(name, odd_batch)
            assert odd_batch.residual(x).max() < 1e-9, name

    def test_unknown_name(self, odd_batch):
        with pytest.raises(ConfigurationError):
            solve_with("nope", odd_batch)

    def test_kwargs_forwarded(self):
        batch = generators.random_dominant(2, 64, rng=0)
        x = solve_with("pcr_thomas", batch, thomas_switch=8)
        assert batch.residual(x).max() < 1e-12
