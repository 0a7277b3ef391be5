"""Property-based round-trip tests for the batched solve service.

The service's core promise: however requests are mixed — dtypes,
non-power-of-two sizes, diagonal dominance from comfortable to
near-singular — every answer is **bit-identical** to what a standalone
:class:`MultiStageSolver` (with the same switch points) produces for
that request alone. Grouping, merging, and worker concurrency must be
invisible in the numbers.
"""

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MultiStageSolver, SwitchPoints
from repro.faults import FaultPlan, TransientKernelFault, WorkerStall
from repro.service import (
    AdmissionController,
    BatchSolveService,
    CircuitBreaker,
    TenantQuota,
)
from repro.systems import generators
from repro.util.errors import ReproError, ServiceOverloadedError

from .test_service import _run_bounded

COMMON = dict(max_examples=20, deadline=None)

DEVICE = "gtx470"
SWITCH = SwitchPoints(
    stage1_target_systems=16, stage3_system_size=256, thomas_switch=64
)


@st.composite
def request_batches(draw):
    """One service request: random shape, dtype, and conditioning."""
    n = draw(st.integers(min_value=2, max_value=300))
    m = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["dominant", "barely-dominant", "near-singular"]))
    if kind == "near-singular":
        return generators.ill_conditioned(m, n, epsilon=1e-6, rng=seed, dtype=dtype)
    dominance = 1.01 if kind == "barely-dominant" else draw(
        st.floats(min_value=1.2, max_value=4.0)
    )
    return generators.random_dominant(m, n, dominance=dominance, rng=seed, dtype=dtype)


def _direct(batch):
    return MultiStageSolver(DEVICE, SWITCH).solve(batch)


@settings(**COMMON)
@given(batch=request_batches())
def test_single_request_bit_identical(batch):
    with BatchSolveService(DEVICE, SWITCH) as svc:
        (res,) = svc.solve_many([batch])
    direct = _direct(batch)
    assert res.x.dtype == direct.x.dtype
    np.testing.assert_array_equal(direct.x, res.x)


@settings(**COMMON)
@given(batches=st.lists(request_batches(), min_size=2, max_size=8))
def test_mixed_batch_round_trip_bit_identical(batches):
    """Random request mixes survive grouping + concurrency untouched."""
    with BatchSolveService(DEVICE, SWITCH, max_workers=4) as svc:
        results = svc.solve_many(batches)
        snap = svc.stats.snapshot()
    assert snap["requests_completed"] == len(batches)
    for batch, res in zip(batches, results):
        np.testing.assert_array_equal(_direct(batch).x, res.x)


@settings(**COMMON)
@given(
    n=st.integers(min_value=2, max_value=600),
    m=st.integers(min_value=1, max_value=4),
    copies=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_identical_requests_get_identical_answers(n, m, copies, seed):
    """The same system submitted many times in one mix answers identically
    — merged execution must not couple neighbouring systems."""
    batch = generators.random_dominant(m, n, rng=seed)
    others = [
        generators.random_dominant(m, n, rng=seed + 1 + i) for i in range(copies)
    ]
    mix = [batch] + others + [batch]
    with BatchSolveService(DEVICE, SWITCH) as svc:
        results = svc.solve_many(mix)
    np.testing.assert_array_equal(results[0].x, results[-1].x)


@settings(**COMMON)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=3, max_value=12),
)
def test_mixed_requests_generator_round_trip(seed, count):
    """The serving-workload generator itself round-trips bit-identically."""
    requests = generators.mixed_requests(
        count, rng=seed, sizes=(32, 48, 64, 100), max_systems=4
    )
    with BatchSolveService(DEVICE, SWITCH, max_workers=2) as svc:
        results = svc.solve_many(requests)
    for batch, res in zip(requests, results):
        np.testing.assert_array_equal(_direct(batch).x, res.x)


@settings(max_examples=10, deadline=None)
@given(
    batches=st.lists(request_batches(), min_size=2, max_size=6),
    cap=st.integers(min_value=1, max_value=8),
)
def test_group_cap_does_not_change_answers(batches, cap):
    """max_group_systems only re-partitions work; answers are unchanged."""
    with BatchSolveService(DEVICE, SWITCH, max_group_systems=cap) as svc:
        capped = svc.solve_many(batches)
    with BatchSolveService(DEVICE, SWITCH) as svc:
        uncapped = svc.solve_many(batches)
    for lhs, rhs in zip(capped, uncapped):
        np.testing.assert_array_equal(lhs.x, rhs.x)


def test_concurrent_overload_rejects_cleanly_without_deadlock():
    """Concurrent producers racing a tiny reject-mode queue: every
    submission either lands a future that later resolves bit-correctly
    or raises :class:`ServiceOverloadedError` immediately — none hang,
    none are lost, and the drain completes."""
    producers, per_producer, max_pending = 8, 6, 4
    lock = threading.Lock()
    accepted, rejected = [], [0]

    with BatchSolveService(
        DEVICE, SWITCH, max_workers=2, max_pending=max_pending, overflow="reject"
    ) as svc:

        def produce(worker):
            for i in range(per_producer):
                batch = generators.random_dominant(1, 64, rng=worker * 100 + i)
                try:
                    fut = svc.submit(batch)
                except ServiceOverloadedError:
                    with lock:
                        rejected[0] += 1
                else:
                    with lock:
                        accepted.append((batch, fut))

        threads = [
            threading.Thread(target=produce, args=(w,)) for w in range(producers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "a producer deadlocked"

        # Nothing drained while producing, so the queue's capacity is
        # exactly what got through; the rest were shed, not dropped.
        assert len(accepted) == max_pending
        assert len(accepted) + rejected[0] == producers * per_producer
        assert svc.stats.snapshot()["requests_rejected"] == rejected[0]

        svc.flush()
        for batch, fut in accepted:
            res = fut.result(timeout=30)
            np.testing.assert_array_equal(_direct(batch).x, res.x)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_solve_many_returns_or_raises_typed_never_hangs(data):
    """Liveness: whatever the backpressure, flushing, pool width, breaker,
    admission, deadline and injected-fault settings, ``solve_many``,
    ``solve_many_async`` and a plain ``submit`` loop either answer every
    batch bit-identically or raise a typed error — within a bounded
    time, never blocking on a flush only their caller could issue."""
    max_pending = data.draw(st.integers(min_value=1, max_value=16), "max_pending")
    overflow = data.draw(st.sampled_from(["block", "reject"]), "overflow")
    submit_timeout = data.draw(
        st.one_of(st.none(), st.sampled_from([0.0, 0.01, 0.1])), "submit_timeout"
    )
    auto_flush = data.draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)), "auto_flush"
    )
    max_workers = data.draw(st.sampled_from([1, 2, 4]), "max_workers")
    with_breaker = data.draw(st.booleans(), "breaker")
    tenant_pending = data.draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        "admission pending quota",
    )
    deadline_ms = data.draw(
        st.one_of(st.none(), st.sampled_from([0.0, 1.0, 60_000.0])), "deadline_ms"
    )
    faults = data.draw(
        st.one_of(
            st.none(),
            st.builds(
                lambda seed, p_transient, p_stall: FaultPlan(
                    seed=seed,
                    faults=(
                        TransientKernelFault(probability=p_transient),
                        WorkerStall(probability=p_stall, stall_ms=1.0),
                    ),
                ),
                st.integers(min_value=0, max_value=2**16),
                st.sampled_from([0.0, 0.05, 0.5]),
                st.sampled_from([0.0, 0.5, 1.0]),
            ),
        ),
        "faults",
    )
    batches = data.draw(
        st.lists(request_batches(), max_size=3 * max_pending), "batches"
    )

    def make_service():
        admission = (
            None
            if tenant_pending is None
            else AdmissionController(
                capacity=16, default_quota=TenantQuota(max_pending=tenant_pending)
            )
        )
        return BatchSolveService(
            DEVICE,
            SWITCH,
            max_workers=max_workers,
            max_pending=max_pending,
            overflow=overflow,
            submit_timeout=submit_timeout,
            auto_flush=auto_flush,
            breaker=CircuitBreaker() if with_breaker else None,
            admission=admission,
            faults=faults,
        )

    def solve_sync():
        with make_service() as svc:
            return svc.solve_many(batches)

    async def solve_async():
        async with make_service() as svc:
            return await svc.solve_many_async(batches)

    def solve_with_deadline():
        # solve_many's own submit loop, with a per-request deadline.
        with make_service() as svc:
            futures = []
            for batch in batches:
                if svc.queue_full:
                    svc.flush()
                futures.append(svc.submit(batch, deadline_ms=deadline_ms))
            svc.flush()
            return [fut.result() for fut in futures]

    for call in (
        solve_sync,
        lambda: asyncio.run(solve_async()),
        solve_with_deadline,
    ):
        try:
            results = _run_bounded(call)
        except ReproError:
            continue
        assert len(results) == len(batches)
        for batch, res in zip(batches, results):
            np.testing.assert_array_equal(_direct(batch).x, res.x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dtype_preserved_end_to_end(dtype):
    batch = generators.random_dominant(3, 100, rng=5, dtype=dtype)
    with BatchSolveService(DEVICE, SWITCH) as svc:
        (res,) = svc.solve_many([batch])
    assert res.x.dtype == np.dtype(dtype)
