"""Wall-clock benchmarks of the reference tridiagonal algorithms.

These time the *actual NumPy numerics* (not the machine model) across
the registry, so regressions in the vectorised implementations show up
as real slowdowns.
"""

import numpy as np
import pytest
from _results import write_results

from repro.algorithms import (
    cr_pcr_solve,
    cr_solve,
    factorize,
    lu_solve,
    pcr_solve,
    pcr_split,
    pcr_thomas_solve,
    recursive_doubling_solve,
    thomas_solve,
)
from repro.systems import generators

M, N = 256, 1024


@pytest.fixture(scope="module")
def batch():
    return generators.random_dominant(M, N, rng=0)


def test_thomas(benchmark, batch):
    benchmark(thomas_solve, batch)


def test_cr(benchmark, batch):
    benchmark(cr_solve, batch)


def test_pcr(benchmark, batch):
    benchmark(pcr_solve, batch)


@pytest.mark.parametrize("switch", [32, 128])
def test_pcr_thomas(benchmark, batch, switch):
    benchmark(pcr_thomas_solve, batch, switch)


def test_cr_pcr(benchmark, batch):
    benchmark(cr_pcr_solve, batch, 64)


def test_recursive_doubling(benchmark, batch):
    benchmark(recursive_doubling_solve, batch)


def test_lu(benchmark, batch):
    benchmark(lu_solve, batch)


def test_factorized_resolve(benchmark, batch):
    factors = factorize(batch)
    benchmark(factors.solve, batch.d)


def test_pcr_split_primitive(benchmark, batch):
    benchmark(pcr_split, batch, 3)


@pytest.mark.fusion
def test_many_small_systems_interleaved_sweep(benchmark, emit, results_dir):
    """The many-small-systems regime: 1k systems of 64 equations.

    Wall clock pits a per-system Thomas loop (the per-request
    interpretation analogue) against one interleaved batched sweep;
    simulated time prices the concatenation of 1k single-system
    programs against the fused batched program the fusion pass rewrites
    them into. Both views must show the >= 2x fused throughput the
    nightly CI step pins, and the sweep's solutions must be
    bit-identical to the per-system loop.
    """
    import time

    from repro.core import plan_solve
    from repro.core.tuning import make_tuner
    from repro.gpu import make_device
    from repro.ir import Engine, concat_solve_programs, lower_solve_plan
    from repro.systems import BatchedTridiagonal
    from repro.systems.tridiagonal import TridiagonalBatch

    m, n = 1000, 64
    batch = generators.random_dominant(m, n, rng=2011)

    def per_system_loop():
        return np.vstack(
            [
                thomas_solve(
                    TridiagonalBatch(
                        batch.a[i : i + 1],
                        batch.b[i : i + 1],
                        batch.c[i : i + 1],
                        batch.d[i : i + 1],
                    )
                )
                for i in range(m)
            ]
        )

    interleaved = BatchedTridiagonal.interleave(batch)
    sweep = benchmark(thomas_solve, interleaved)
    t0 = time.perf_counter()
    loop_x = per_system_loop()
    loop_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    sweep_x = thomas_solve(interleaved)
    sweep_s = time.perf_counter() - t0
    np.testing.assert_array_equal(loop_x, np.ascontiguousarray(sweep_x.T))
    np.testing.assert_array_equal(sweep, sweep_x)

    # Simulated: N concatenated single-system programs vs their fusion.
    dev = make_device("gtx470")
    switch = make_tuner("static").switch_points(dev, m, n, 8)
    single = lower_solve_plan(plan_solve(dev, 1, n, 8, switch), dev, 8)
    programs = [single] * m
    unfused_ms = Engine.for_device(dev).price(
        concat_solve_programs(programs)
    ).total_ms
    fused_ms = Engine.for_device(dev).price(
        concat_solve_programs(programs, fuse=True)
    ).total_ms

    emit(
        "algorithms_many_small_systems",
        f"many small systems ({m} x {n}, f64):\n"
        f"  wall clock  per-system loop:   {loop_s * 1e3:8.2f} ms\n"
        f"  wall clock  interleaved sweep: {sweep_s * 1e3:8.2f} ms "
        f"({loop_s / sweep_s:.1f}x, bit-identical)\n"
        f"  simulated   {m} one-shot programs: {unfused_ms:8.4f} ms\n"
        f"  simulated   fused batched program: {fused_ms:8.4f} ms "
        f"({unfused_ms / fused_ms:.1f}x)",
    )

    # The shared JSON envelope carries only the *simulated* numbers:
    # write_results artefacts must reproduce byte for byte on unchanged
    # code, and wall clocks never do.
    write_results(
        "algorithms_many_small",
        {
            "num_systems": m,
            "system_size": n,
            "dtype_size": 8,
            "unfused_ms": unfused_ms,
            "fused_ms": fused_ms,
            "fused_speedup": unfused_ms / fused_ms,
        },
        results_dir,
    )

    # The nightly acceptance bar: >= 2x fused simulated throughput.
    assert unfused_ms / fused_ms >= 2.0, (
        f"fused only {unfused_ms / fused_ms:.2f}x"
    )
    assert loop_s / sweep_s >= 2.0
