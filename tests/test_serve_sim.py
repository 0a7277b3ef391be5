"""The serving-load simulation: determinism and the scaling story.

The simulator drives the *real* admission controller and autoscaler on
a simulated clock, so these tests pin (a) bit-for-bit determinism in
the seed, (b) the headline contrast — the fixed thread-pool tier
saturates into a reject storm while the autoscaled async tier holds
p99 — and (c) the accounting invariant that every request is either
served or shed, never lost.
"""

import pytest

from repro.service import ServingSimConfig, compare_tiers, simulate_serving

pytestmark = pytest.mark.serve

# Small but past the thread-pool tier's saturation point.
CONFIG = ServingSimConfig(requests=4000, rate_per_s=12_000.0, seed=7)


@pytest.fixture(scope="module")
def tiers():
    return compare_tiers(CONFIG)


def test_every_request_is_served_or_shed(tiers):
    for report in tiers.values():
        assert report.served + report.shed_total == report.requests


def test_threadpool_tier_saturates_into_reject_storm(tiers):
    tp = tiers["threadpool"]
    assert tp.shed["queue_full"] > 0  # the reject storm
    assert tp.max_workers == CONFIG.workers  # nobody grew the fleet


def test_async_tier_holds_p99_where_threadpool_saturates(tiers):
    tp, ac = tiers["threadpool"], tiers["async"]
    assert ac.latency_p99_ms * 10 < tp.latency_p99_ms
    assert ac.shed_rate < 0.01
    assert ac.served == CONFIG.requests
    # It held p99 *by scaling*, not by luck.
    assert ac.max_workers > CONFIG.workers
    assert ac.autoscaler_actions["up"] > 0


def test_simulation_is_deterministic_in_the_seed():
    a = simulate_serving(CONFIG, "async")
    b = simulate_serving(CONFIG, "async")
    assert a.as_dict() == b.as_dict()
    c = simulate_serving(
        ServingSimConfig(requests=4000, rate_per_s=12_000.0, seed=8), "async"
    )
    assert c.as_dict() != a.as_dict()


def test_autoscale_off_keeps_the_fleet_fixed():
    config = ServingSimConfig(
        requests=2000, rate_per_s=12_000.0, seed=7, autoscale=False
    )
    report = simulate_serving(config, "async")
    assert report.max_workers == config.workers
    assert report.autoscaler_actions == {}


def test_rejects_unknown_tier():
    with pytest.raises(ValueError):
        simulate_serving(CONFIG, "gpu")
