"""Unit tests for the service's serving building blocks.

Covers per-tenant admission (quota order, typed errors, starvation
prevention via pending caps) and the serving additions to the service
primitives (breaker probes, queue-wait histogram, histogram
quantiles).
"""

import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.service import (
    PRIORITIES,
    AdmissionController,
    TenantQuota,
)
from repro.service.queue import BoundedRequestQueue, CircuitBreaker
from repro.util.errors import (
    ConfigurationError,
    PriorityShedError,
    ServiceOverloadedError,
    TenantQuotaExceededError,
)

pytestmark = pytest.mark.serve


# ---------------------------------------------------------------------------
# AdmissionController
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_admits_until_pending_quota_then_sheds_typed(self):
        ctl = AdmissionController(
            capacity=100, default_quota=TenantQuota(max_pending=2)
        )
        t1 = ctl.admit("a")
        ctl.admit("a")
        with pytest.raises(TenantQuotaExceededError) as err:
            ctl.admit("a")
        assert err.value.tenant == "a"
        assert err.value.quota == "pending"
        # Releasing frees the slot.
        ctl.release(t1)
        ctl.admit("a")

    def test_rate_quota_refills_on_injected_clock(self):
        now = [0.0]
        ctl = AdmissionController(
            capacity=100,
            default_quota=TenantQuota(
                max_pending=100, rate_per_s=10.0, burst=2
            ),
            clock=lambda: now[0],
        )
        ctl.admit("a")
        ctl.admit("a")
        with pytest.raises(TenantQuotaExceededError) as err:
            ctl.admit("a")
        assert err.value.quota == "rate"
        now[0] += 0.1  # one token refilled
        ctl.admit("a")

    def test_priority_watermarks_shed_lowest_class_first(self):
        ctl = AdmissionController(
            capacity=10, default_quota=TenantQuota(max_pending=100)
        )
        # Fill to just under batch's 50% watermark.
        for _ in range(5):
            ctl.admit("a", "interactive")
        # batch is now over its watermark; standard and interactive OK.
        with pytest.raises(PriorityShedError) as err:
            ctl.admit("b", "batch")
        assert err.value.priority == "batch"
        for _ in range(3):
            ctl.admit("b", "standard")
        with pytest.raises(PriorityShedError):
            ctl.admit("b", "standard")  # 8/10 = standard's 80% ceiling
        ctl.admit("b", "interactive")
        ctl.admit("b", "interactive")
        with pytest.raises(PriorityShedError) as err:
            ctl.admit("b", "interactive")  # the tier is genuinely full
        assert err.value.priority == "interactive"

    def test_tenant_default_priority_and_override(self):
        ctl = AdmissionController(
            capacity=10,
            quotas={"batchy": TenantQuota(priority="batch")},
        )
        assert ctl.admit("batchy").priority == "batch"
        assert ctl.admit("batchy", "interactive").priority == "interactive"

    def test_snapshot_and_pending(self):
        ctl = AdmissionController(capacity=10)
        ctl.admit("a", "interactive")
        ctl.admit("b", "batch")
        assert ctl.pending() == 2
        assert ctl.pending("a") == 1
        snap = ctl.snapshot()
        assert snap["by_priority"]["interactive"] == 1
        assert snap["by_tenant"] == {"a": 1, "b": 1}

    def test_metrics_count_admits_and_sheds(self):
        registry = MetricsRegistry()
        ctl = AdmissionController(
            capacity=10, default_quota=TenantQuota(max_pending=1)
        )
        ctl.attach_metrics(registry)
        ctl.admit("a")
        with pytest.raises(TenantQuotaExceededError):
            ctl.admit("a")
        admitted = registry.get("repro_serve_admitted_total")
        shed = registry.get("repro_serve_shed_total")
        assert admitted.value(tenant="a", priority="standard") == 1
        assert shed.value(tenant="a", reason="tenant_pending") == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=0)
        with pytest.raises(ConfigurationError):
            TenantQuota(max_pending=0)
        with pytest.raises(ConfigurationError):
            TenantQuota(priority="urgent")
        with pytest.raises(ConfigurationError):
            AdmissionController(watermarks={"urgent": 1.0})
        with pytest.raises(ConfigurationError):
            AdmissionController().admit("a", "urgent")

    def test_priorities_ordering_is_documented(self):
        assert PRIORITIES == ("batch", "standard", "interactive")


# ---------------------------------------------------------------------------
# Serving-tier additions to the service primitives
# ---------------------------------------------------------------------------


class TestBreakerProbes:
    def test_multi_probe_half_open_requires_streak(self):
        now = [0.0]
        brk = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=1.0,
            clock=lambda: now[0],
            half_open_probes=3,
        )
        brk.record_failure()
        assert brk.state == "open"
        now[0] += 1.0
        assert brk.state == "half_open"
        brk.record_success()
        assert brk.state == "half_open"  # 1/3 probes
        brk.record_success()
        assert brk.state == "half_open"  # 2/3 probes
        brk.record_success()
        assert brk.state == "closed"
        assert brk.probe_ok == 3

    def test_probe_failure_reopens_and_resets_streak(self):
        now = [0.0]
        brk = CircuitBreaker(
            failure_threshold=1,
            cooldown_s=1.0,
            clock=lambda: now[0],
            half_open_probes=2,
        )
        brk.record_failure()
        now[0] += 1.0
        brk.record_success()  # probe 1 ok
        brk.record_failure()  # probe fails: back to open
        assert brk.state == "open"
        assert brk.probe_fail == 1
        now[0] += 1.0
        brk.record_success()
        brk.record_success()  # needs the full streak again
        assert brk.state == "closed"

    def test_probe_metrics_replay_on_attach(self):
        now = [0.0]
        brk = CircuitBreaker(
            failure_threshold=1, cooldown_s=0.0, clock=lambda: now[0],
            half_open_probes=2,
        )
        brk.record_failure()
        brk.record_success()  # half-open probe (cooldown 0)
        registry = MetricsRegistry()
        brk.attach_metrics(registry)
        probes = registry.get("repro_service_breaker_probes_total")
        assert probes.value(outcome="probe_ok") == 1

    def test_default_single_probe_closes_immediately(self):
        now = [0.0]
        brk = CircuitBreaker(
            failure_threshold=1, cooldown_s=0.0, clock=lambda: now[0]
        )
        brk.record_failure()
        brk.record_success()
        assert brk.state == "closed"

    def test_rejects_bad_probe_count(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(half_open_probes=0)


class TestQueueServing:
    def test_qsize_matches_pending(self):
        q = BoundedRequestQueue(max_pending=4)
        q.put("a")
        q.put("b")
        assert q.qsize() == 2 == q.pending == len(q)
        q.drain()
        assert q.qsize() == 0

    def test_wait_histogram_observes_every_put(self):
        registry = MetricsRegistry()
        q = BoundedRequestQueue(max_pending=4)
        q.attach_metrics(registry)
        q.put("a")
        hist = registry.get("repro_service_queue_wait_ms")
        assert hist.count() == 1

    def test_wait_histogram_records_blocked_time(self):
        registry = MetricsRegistry()
        q = BoundedRequestQueue(max_pending=1, policy="block")
        q.attach_metrics(registry)
        q.put("a")

        def drain_later():
            time.sleep(0.05)
            q.drain()

        t = threading.Thread(target=drain_later)
        t.start()
        q.put("b")  # blocks ~50 ms until the drain
        t.join()
        hist = registry.get("repro_service_queue_wait_ms")
        assert hist.count() == 2
        assert hist.sum() >= 10.0  # the blocked put shows up

    def test_timed_out_put_still_observed(self):
        registry = MetricsRegistry()
        q = BoundedRequestQueue(max_pending=1, policy="block")
        q.attach_metrics(registry)
        q.put("a")
        with pytest.raises(ServiceOverloadedError):
            q.put("b", timeout=0.01)
        hist = registry.get("repro_service_queue_wait_ms")
        assert hist.count() == 2


class TestHistogramQuantile:
    def test_quantile_walks_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.5, 5.0, 50.0):
            hist.observe(v)
        assert hist.quantile(0.5) == 1.0  # 2/4 inside the 1.0 bucket
        assert hist.quantile(0.75) == 10.0
        assert hist.quantile(1.0) == 100.0

    def test_quantile_empty_and_bounds(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "")
        assert hist.quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_caps_at_last_finite_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "", buckets=(1.0, 2.0))
        hist.observe(1000.0)
        assert hist.quantile(0.99) == 2.0
