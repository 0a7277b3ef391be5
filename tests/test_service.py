"""Batched solve service: queue backpressure, golden grouping, stats.

The golden grouping tests pin the batcher's decisions on a fixed request
mix — silent regressions there would otherwise only show up as
throughput drift, never as a wrong answer.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core import MultiStageSolver, SwitchPoints, plan_solve
from repro.gpu import make_device
from repro.service import (
    BatchSolveService,
    BoundedRequestQueue,
    GroupKey,
    ServiceRequest,
    group_requests,
)
from repro.systems import generators
from repro.util.errors import (
    ConfigurationError,
    ServiceError,
    ServiceOverloadedError,
)

DEVICE = "gtx470"
# Fixed switch points so the golden grouping below is fully deterministic
# (no tuner in the loop).
SWITCH = SwitchPoints(
    stage1_target_systems=16, stage3_system_size=256, thomas_switch=64
)


# ---------------------------------------------------------------------------
# queue
# ---------------------------------------------------------------------------


class TestBoundedRequestQueue:
    def test_fifo_drain(self):
        q = BoundedRequestQueue(max_pending=8)
        for i in range(5):
            q.put(i)
        assert q.pending == 5
        assert q.drain() == [0, 1, 2, 3, 4]
        assert q.pending == 0

    def test_reject_policy_raises_when_full(self):
        q = BoundedRequestQueue(max_pending=2, policy="reject")
        q.put("a")
        q.put("b")
        with pytest.raises(ServiceOverloadedError):
            q.put("c")
        # Draining frees space again.
        q.drain()
        q.put("c")

    def test_block_policy_times_out(self):
        q = BoundedRequestQueue(max_pending=1, policy="block")
        q.put("a")
        with pytest.raises(ServiceOverloadedError):
            q.put("b", timeout=0.05)

    def test_block_policy_unblocks_on_drain(self):
        q = BoundedRequestQueue(max_pending=1, policy="block")
        q.put("a")
        done = threading.Event()

        def producer():
            q.put("b", timeout=5.0)
            done.set()

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.02)
        assert not done.is_set()
        q.drain()
        t.join(timeout=5.0)
        assert done.is_set()
        assert q.drain() == ["b"]

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedRequestQueue(max_pending=0)
        with pytest.raises(ConfigurationError):
            BoundedRequestQueue(policy="drop-newest")


# ---------------------------------------------------------------------------
# golden grouping
# ---------------------------------------------------------------------------


def _requests(mix):
    """Build ServiceRequests for (m, n, dtype) triples under SWITCH."""
    dev = make_device(DEVICE)
    out = []
    for seq, (m, n, dtype) in enumerate(mix):
        batch = generators.random_dominant(m, n, rng=seq, dtype=dtype)
        dsize = batch.dtype.itemsize
        plan = plan_solve(dev, m, n, dsize, SWITCH)
        key = GroupKey(
            device=dev.name,
            dtype=str(batch.dtype),
            system_size=n,
            signature=plan.signature,
        )
        out.append(
            ServiceRequest(seq=seq, batch=batch, device=dev.name, key=key, plan=plan)
        )
    return out


GOLDEN_MIX = [
    (4, 512, np.float64),   # 0: stage-1 split depth 1 (4 < target of 16)
    (16, 512, np.float64),  # 1: fills the machine -> stage-2 only
    (2, 512, np.float64),   # 2: also depth 1 -> merges with request 0
    (8, 100, np.float64),   # 3: pads to 128, fits on-chip
    (1, 100, np.float64),   # 4: same raw size & plan -> merges with 3
    (8, 100, np.float32),   # 5: dtype differs -> own group
    (8, 128, np.float64),   # 6: same padded size as 3 but raw 128 != 100
    (1, 2048, np.float64),  # 7: deep stage-1 split -> own group
    (4, 512, np.float64),   # 8: merges with 0 and 2
    (16, 512, np.float64),  # 9: merges with 1
]

# The documented expectation: groups in order of first member, members in
# submission order. Requests 0/2/8 share a plan signature even though
# their system counts differ (the stage-1 depth their own count implies
# is identical); request 6 shares a *padded* size with 3/4 but raw sizes
# must match for the arrays to stack.
GOLDEN_GROUPS = [
    [0, 2, 8],
    [1, 9],
    [3, 4],
    [5],
    [6],
    [7],
]


class TestGoldenGrouping:
    def test_fixed_mix_groups_exactly(self):
        groups = group_requests(_requests(GOLDEN_MIX))
        got = [[r.seq for r in g.requests] for g in groups]
        assert got == GOLDEN_GROUPS

    def test_group_heights(self):
        groups = group_requests(_requests(GOLDEN_MIX))
        assert [g.num_systems for g in groups] == [10, 32, 9, 8, 8, 1]

    def test_max_group_systems_splits_oversized_groups(self):
        groups = group_requests(_requests(GOLDEN_MIX), max_group_systems=8)
        got = [[r.seq for r in g.requests] for g in groups]
        # Requests that would push an open group past 8 systems open fresh
        # groups instead: 8 can't join [0, 2] (4+2+4 > 8), 9 can't join [1]
        # (16 alone already exceeds the cap — a single oversized request
        # still forms its own group), and 4 can't join [3] (8+1 > 8).
        assert got == [[0, 2], [1], [3], [4], [5], [6], [7], [8], [9]]
        assert all(g.num_systems <= 8 or g.num_requests == 1 for g in groups)

    def test_merged_batch_preserves_rows_exactly(self):
        groups = group_requests(_requests(GOLDEN_MIX))
        merged = groups[0].merged_batch()
        offsets = groups[0].offsets()
        for req, off in zip(groups[0].requests, offsets):
            rows = slice(off, off + req.batch.num_systems)
            np.testing.assert_array_equal(merged.b[rows], req.batch.b)
            np.testing.assert_array_equal(merged.d[rows], req.batch.d)


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------


class TestBatchSolveService:
    def test_solve_many_matches_direct_and_counts(self):
        batches = [
            generators.random_dominant(m, n, rng=i)
            for i, (m, n) in enumerate([(4, 512), (2, 512), (16, 512), (8, 100)])
        ]
        with BatchSolveService(DEVICE, SWITCH, max_workers=2) as svc:
            results = svc.solve_many(batches)
            direct = MultiStageSolver(DEVICE, SWITCH)
            for batch, res in zip(batches, results):
                np.testing.assert_array_equal(direct.solve(batch).x, res.x)
            snap = svc.stats.snapshot()
        assert snap["requests_submitted"] == 4
        assert snap["requests_completed"] == 4
        assert snap["groups_executed"] == 3  # (4,512)+(2,512) merge
        assert snap["requests_failed"] == 0

    def test_result_carries_group_provenance(self):
        batches = [generators.random_dominant(4, 512, rng=i) for i in range(3)]
        with BatchSolveService(DEVICE, SWITCH) as svc:
            results = svc.solve_many(batches)
        assert all(r.group_requests == 3 for r in results)
        assert all(r.group_systems == 12 for r in results)
        assert results[0].simulated_ms == results[1].simulated_ms

    def test_reject_backpressure_counts_rejections(self):
        svc = BatchSolveService(
            DEVICE, SWITCH, max_pending=2, overflow="reject"
        )
        with svc:
            b = generators.random_dominant(1, 64, rng=0)
            svc.submit(b)
            svc.submit(b)
            with pytest.raises(ServiceOverloadedError):
                svc.submit(b)
            assert svc.stats.snapshot()["requests_rejected"] == 1
            svc.flush()
            svc.submit(b)  # space again after the flush drained the queue
        assert svc.stats.snapshot()["requests_completed"] == 3

    def test_auto_flush_dispatches_without_explicit_flush(self):
        with BatchSolveService(DEVICE, SWITCH, auto_flush=2) as svc:
            b = generators.random_dominant(2, 128, rng=1)
            f1 = svc.submit(b)
            f2 = svc.submit(b)  # hits the auto_flush threshold
            assert f1.result(timeout=30).x.shape == (2, 128)
            assert f2.result(timeout=30).x.shape == (2, 128)

    def test_failed_group_propagates_to_every_future(self):
        # Exactly singular systems are rejected typed at submit now, so
        # the poison here is a *valid* but hopeless batch: near-singular
        # with a tolerance the escalation ladder cannot reach. The
        # merged solve raises typed, the group bisects, and every member
        # future observes its own failure.
        bad = generators.ill_conditioned(2, 64, epsilon=1e-13, rng=0)
        with BatchSolveService(DEVICE, SWITCH) as svc:
            futures = [
                svc.submit(bad, tolerance=1e-12),
                svc.submit(bad, tolerance=1e-12),
            ]
            svc.flush()
            for fut in futures:
                with pytest.raises(Exception):
                    fut.result(timeout=30)
            svc.drain()
        assert svc.stats.snapshot()["requests_failed"] == 2

    def test_singular_rejected_typed_at_submit(self):
        from repro.util.errors import InvalidSystemError

        with BatchSolveService(DEVICE, SWITCH) as svc:
            with pytest.raises(InvalidSystemError):
                svc.submit(generators.singular(2, 64))
        assert svc.metrics.get("repro_service_invalid_total").total() == 1

    def test_submit_after_close_raises(self):
        svc = BatchSolveService(DEVICE, SWITCH)
        svc.close()
        with pytest.raises(Exception):
            svc.submit(generators.random_dominant(1, 64, rng=0))

    def test_per_group_stats_labels(self):
        batches = [
            generators.random_dominant(2, 128, rng=0),
            generators.random_dominant(2, 128, rng=1, dtype=np.float32),
        ]
        with BatchSolveService(DEVICE, SWITCH) as svc:
            svc.solve_many(batches)
            snap = svc.stats.snapshot()
        labels = set(snap["per_group"])
        assert labels == {
            "GeForce GTX 470|float64|n=128",
            "GeForce GTX 470|float32|n=128",
        }
        describe = svc.stats.describe()
        assert "2 merged solves" in describe


def _run_bounded(call, bound_s: float = 30.0):
    """Run ``call`` on a daemon thread; fail instead of hanging the suite."""
    box = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:  # re-raised on the test thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(bound_s)
    assert not thread.is_alive(), f"call still blocked after {bound_s} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


@pytest.mark.parametrize("entry", ["service", "facade_async"])
def test_solve_many_past_max_pending_does_not_hang(entry):
    # More requests than max_pending, with the default overflow="block"
    # and no auto_flush: solve_many (and its asyncio twin) must flush as
    # the queue fills rather than block on a flush only its own caller
    # could issue.
    batches = [generators.random_dominant(1, 64, rng=i) for i in range(200)]
    svc = BatchSolveService(DEVICE, SWITCH, max_workers=2, max_pending=128)
    if entry == "service":
        results = _run_bounded(lambda: svc.solve_many(batches))
    else:
        results = _run_bounded(
            lambda: asyncio.run(svc.solve_many_async(batches))
        )
    svc.close()
    direct = MultiStageSolver(DEVICE, SWITCH)
    assert len(results) == len(batches)
    for batch, res in zip(batches, results):
        np.testing.assert_array_equal(direct.solve(batch).x, res.x)


def test_flush_on_a_refused_pool_fails_every_drained_request_typed():
    # The pool refuses work (it was shut down under the service), after
    # flush already drained the queue: nothing else will ever settle
    # those requests, so flush must fail each one typed instead of
    # leaving its future pending and its result() caller hung.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1)
    svc = BatchSolveService(DEVICE, SWITCH, executor=pool)
    batches = [
        generators.random_dominant(1, n, rng=i)
        for i, n in enumerate((64, 64, 128, 128))
    ]
    futures = [svc.submit(batch) for batch in batches]
    pool.shutdown()
    with pytest.raises(ServiceError):
        svc.flush()
    for fut in futures:
        assert isinstance(fut.exception(timeout=5), ServiceError)
    assert svc.stats.snapshot()["requests_failed"] == len(batches)
    svc.close()


# ---------------------------------------------------------------------------
# stress (nightly)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_service_1k_request_stress():
    """1k mixed requests: >= 5x simulated throughput, answers bit-identical."""
    requests = generators.mixed_requests(1000, rng=7)
    with BatchSolveService(
        DEVICE, "static", max_workers=8, max_pending=1000
    ) as svc:
        results = svc.solve_many(requests)
        batched_ms = svc.stats.simulated_ms
        solvers = {
            dt: MultiStageSolver(DEVICE, svc.switch_points_for(dtype=np.dtype(dt)))
            for dt in ("float32", "float64")
        }
    sequential_ms = 0.0
    for batch, res in zip(requests, results):
        direct = solvers[str(batch.dtype)].solve(batch)
        sequential_ms += direct.report.total_ms
        np.testing.assert_array_equal(direct.x, res.x)
    assert sequential_ms / batched_ms >= 5.0
