"""Bounded request queue with backpressure.

The service's front door: submissions land here before the batcher
groups them. The queue is a thread-safe FIFO with a hard ``max_pending``
bound and one of two overflow policies:

- ``"block"`` — a full queue makes ``put`` wait until a drain frees
  space (optionally bounded by a timeout, after which the request is
  rejected). This is the latency-for-safety default.
- ``"reject"`` — a full queue raises
  :class:`~repro.util.errors.ServiceOverloadedError` immediately, for
  callers that prefer shedding load over queueing it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Generic, List, Optional, TypeVar

from ..util.errors import ConfigurationError, ServiceOverloadedError

__all__ = ["BoundedRequestQueue", "CircuitBreaker", "OVERFLOW_POLICIES"]

T = TypeVar("T")

OVERFLOW_POLICIES = ("block", "reject")


class BoundedRequestQueue(Generic[T]):
    """Thread-safe FIFO with a pending bound and an overflow policy."""

    def __init__(self, max_pending: int = 1024, policy: str = "block"):
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if policy not in OVERFLOW_POLICIES:
            raise ConfigurationError(
                f"unknown overflow policy {policy!r}; "
                f"expected one of {OVERFLOW_POLICIES}"
            )
        self.max_pending = max_pending
        self.policy = policy
        self._items: Deque[T] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._wait_ms = None
        self._clock = time.monotonic

    def attach_metrics(self, registry) -> None:
        """Record per-request queue-wait time into an
        :class:`~repro.obs.MetricsRegistry` histogram,
        ``repro_service_queue_wait_ms``.

        Every ``put`` observes how long it spent blocked on a full
        queue (0 for the uncontended fast path), so a ``block``-policy
        queue quietly absorbing latency shows up in the dump instead of
        hiding in submit-side wall time.
        """
        with self._lock:
            self._wait_ms = registry.histogram(
                "repro_service_queue_wait_ms",
                "Wall-clock time a put() spent waiting for queue space.",
            )

    def put(self, item: T, timeout: Optional[float] = None) -> None:
        """Enqueue ``item``, applying the overflow policy when full.

        Raises :class:`ServiceOverloadedError` under the ``reject``
        policy, or under ``block`` when ``timeout`` (seconds) elapses
        without space freeing up.
        """
        t0 = self._clock()
        with self._not_full:
            if len(self._items) >= self.max_pending:
                if self.policy == "reject":
                    raise ServiceOverloadedError(
                        f"queue full ({self.max_pending} pending); "
                        "request rejected"
                    )
                if not self._not_full.wait_for(
                    lambda: len(self._items) < self.max_pending,
                    timeout=timeout,
                ):
                    self._observe_wait_locked(t0)
                    raise ServiceOverloadedError(
                        f"queue full ({self.max_pending} pending); gave up "
                        f"after {timeout}s"
                    )
            self._items.append(item)
            self._observe_wait_locked(t0)

    def _observe_wait_locked(self, t0: float) -> None:
        if self._wait_ms is not None:
            self._wait_ms.observe((self._clock() - t0) * 1e3)

    def drain(self) -> List[T]:
        """Atomically take every pending item (FIFO order) and free space."""
        with self._not_full:
            items = list(self._items)
            self._items.clear()
            self._not_full.notify_all()
        return items

    @property
    def pending(self) -> int:
        """Number of items waiting to be drained."""
        with self._lock:
            return len(self._items)

    def qsize(self) -> int:
        """Current depth, for any poller.

        Same value as :attr:`pending`; the method form matches the
        stdlib queue API so pollers don't reach into ``_items``.
        """
        return self.pending

    def __len__(self) -> int:
        return self.pending


class CircuitBreaker:
    """Shed load while the backend is failing, probe for recovery.

    The classic three-state breaker, sized for the solve service:

    - **closed** — requests flow; ``failure_threshold`` *consecutive*
      merged-solve failures trip it open.
    - **open** — :meth:`allow` refuses everything (the service raises
      :class:`~repro.util.errors.ServiceOverloadedError`) until
      ``cooldown_s`` has elapsed.
    - **half-open** — after the cooldown, requests probe the backend:
      ``half_open_probes`` consecutive successes close the breaker, one
      failure re-opens it and the cooldown restarts.

    ``half_open_probes`` tunes recovery caution: 1 (the default, the
    classic breaker) closes on the first good solve, larger values
    demand a streak before trusting the backend again. Probe outcomes
    are counted as ``probe_ok``/``probe_fail`` in the metrics registry
    so the trade-off is observable rather than guessed.

    ``clock`` is injectable so tests control time.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 1.0,
        clock=time.monotonic,
        half_open_probes: int = 1,
    ):
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ConfigurationError("cooldown_s must be non-negative")
        if half_open_probes < 1:
            raise ConfigurationError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive = 0
        self._probe_successes = 0
        self.probe_ok = 0
        self.probe_fail = 0
        self._state = "closed"
        self._opened_at = 0.0
        self.times_opened = 0
        self._metric = None
        self._probe_metric = None

    def attach_metrics(self, registry) -> None:
        """Count state changes into an
        :class:`~repro.obs.MetricsRegistry` as
        ``repro_service_breaker_transitions_total{to}``, and half-open
        probe outcomes as
        ``repro_service_breaker_probes_total{outcome=probe_ok|probe_fail}``
        (outcomes counted before attachment are replayed)."""
        with self._lock:
            self._metric = registry.counter(
                "repro_service_breaker_transitions_total",
                "Circuit-breaker state transitions, by target state.",
            )
            self._probe_metric = registry.counter(
                "repro_service_breaker_probes_total",
                "Half-open probe outcomes (ok closes, fail re-opens).",
            )
            if self.probe_ok:
                self._probe_metric.inc(self.probe_ok, outcome="probe_ok")
            if self.probe_fail:
                self._probe_metric.inc(self.probe_fail, outcome="probe_fail")

    def _probe_locked(self, outcome: str) -> None:
        if outcome == "probe_ok":
            self.probe_ok += 1
        else:
            self.probe_fail += 1
        if self._probe_metric is not None:
            self._probe_metric.inc(outcome=outcome)

    def _transition_locked(self, state: str) -> None:
        if state != self._state:
            self._state = state
            if self._metric is not None:
                self._metric.inc(to=state)

    def _state_locked(self) -> str:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._transition_locked("half_open")
        return self._state

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (cooldown lapsed)."""
        with self._lock:
            return self._state_locked()

    def allow(self) -> bool:
        """Whether a request may proceed right now."""
        with self._lock:
            return self._state_locked() != "open"

    def record_success(self) -> None:
        """A merged solve finished: reset the failure streak; a
        half-open breaker counts the probe and closes once
        ``half_open_probes`` consecutive probes succeeded."""
        with self._lock:
            self._consecutive = 0
            if self._state_locked() == "half_open":
                self._probe_locked("probe_ok")
                self._probe_successes += 1
                if self._probe_successes < self.half_open_probes:
                    return  # stay half-open: more probes required
            self._probe_successes = 0
            self._transition_locked("closed")

    def record_failure(self) -> None:
        """A merged solve failed: extend the streak, maybe trip open."""
        with self._lock:
            self._consecutive += 1
            half_open = self._state_locked() == "half_open"
            if half_open:
                self._probe_locked("probe_fail")
                self._probe_successes = 0
            if half_open or self._consecutive >= self.failure_threshold:
                if self._state != "open":
                    self.times_opened += 1
                self._transition_locked("open")
                self._opened_at = self._clock()
