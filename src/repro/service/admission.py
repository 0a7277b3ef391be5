"""Per-tenant admission control: quotas, priority classes, typed shedding.

The admission controller is the service's optional front gate. Every
request names a **tenant** (billing/isolation unit) and a **priority
class**; before a request touches the queue the controller checks

1. the tenant's **pending quota** — an in-flight cap so one tenant
   cannot monopolise the worker pool,
2. the tenant's **rate quota** — a token bucket over admissions per
   second of (injectable) clock time, and
3. the priority class's **occupancy watermark** — class ``p`` may only
   admit while *total* in-flight occupancy is under its fraction of
   ``capacity``, so as the tier fills, ``batch`` sheds before
   ``standard`` sheds before ``interactive``, no matter whose traffic
   filled it.

Each check sheds with its own typed error —
:class:`~repro.util.errors.TenantQuotaExceededError` (naming the tenant
*and* which quota tripped) or
:class:`~repro.util.errors.PriorityShedError` — so callers, the chaos
auditor, and the metrics all see *why* a request was refused, never a
bare "overloaded".

Crucially the pending quota is also what prevents **starvation**: a
saturating high-priority tenant is capped at its own
``max_pending``, leaving capacity below every watermark, so a
low-priority tenant keeps being admitted (the starvation test pins
this).

Admission returns an :class:`AdmissionTicket`; releasing it (the
batched solve service does so when the request's future settles)
frees the tenant's and class's slots. The controller is clock-injectable and
fully deterministic for simulated time, which is how the serving
simulator drives the *production* policy code at 100k requests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..util.errors import (
    ConfigurationError,
    PriorityShedError,
    TenantQuotaExceededError,
)

__all__ = [
    "PRIORITIES",
    "TenantQuota",
    "AdmissionTicket",
    "AdmissionController",
]

#: Priority classes, lowest first. Watermarks below are fractions of
#: ``capacity`` the class may occupy together with everything above it.
PRIORITIES = ("batch", "standard", "interactive")

_DEFAULT_WATERMARKS = {"batch": 0.5, "standard": 0.8, "interactive": 1.0}


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission limits.

    ``max_pending`` caps in-flight (admitted, not yet released)
    requests. ``rate_per_s``/``burst`` form a token bucket over
    admissions; ``rate_per_s=None`` disables rate limiting.
    ``priority`` is the tenant's default class (overridable per
    request).
    """

    max_pending: int = 64
    rate_per_s: Optional[float] = None
    burst: int = 16
    priority: str = "standard"

    def __post_init__(self):
        if self.max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ConfigurationError(
                f"rate_per_s must be positive, got {self.rate_per_s}"
            )
        if self.burst < 1:
            raise ConfigurationError(f"burst must be >= 1, got {self.burst}")
        if self.priority not in PRIORITIES:
            raise ConfigurationError(
                f"priority must be one of {PRIORITIES}, got {self.priority!r}"
            )


@dataclass(frozen=True)
class AdmissionTicket:
    """Proof of admission; release it when the request settles."""

    tenant: str
    priority: str
    seq: int


class _TenantState:
    __slots__ = ("quota", "pending", "tokens", "refilled_at")

    def __init__(self, quota: TenantQuota, now: float):
        self.quota = quota
        self.pending = 0
        self.tokens = float(quota.burst)
        self.refilled_at = now


class AdmissionController:
    """Admit or shed requests against tenant quotas and class watermarks.

    Parameters
    ----------
    capacity:
        Total in-flight requests the tier is sized for; the priority
        watermarks are fractions of it.
    quotas:
        Per-tenant :class:`TenantQuota` by name; tenants not named get
        ``default_quota``.
    default_quota:
        Quota for unnamed tenants (default: 64 pending, no rate limit).
    watermarks:
        ``{priority: fraction}`` occupancy ceilings; defaults to
        batch 0.5 / standard 0.8 / interactive 1.0.
    clock:
        Injectable seconds clock (simulated time in the load sim).
    """

    def __init__(
        self,
        capacity: int = 256,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        *,
        default_quota: Optional[TenantQuota] = None,
        watermarks: Optional[Dict[str, float]] = None,
        clock=time.monotonic,
    ):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.default_quota = default_quota or TenantQuota()
        self.watermarks = dict(_DEFAULT_WATERMARKS)
        if watermarks:
            unknown = set(watermarks) - set(PRIORITIES)
            if unknown:
                raise ConfigurationError(
                    f"unknown priority classes in watermarks: {sorted(unknown)}"
                )
            self.watermarks.update(watermarks)
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantState] = {}
        self._quotas = dict(quotas or {})
        self._pending_by_priority = {p: 0 for p in PRIORITIES}
        self._seq = 0
        self._admitted = None
        self._shed = None
        self._pending_gauge = None

    def attach_metrics(self, registry) -> None:
        """Publish ``repro_serve_admitted_total{tenant,priority}``,
        ``repro_serve_shed_total{tenant,reason}`` and the
        ``repro_serve_inflight`` gauge (by priority)."""
        with self._lock:
            self._admitted = registry.counter(
                "repro_serve_admitted_total",
                "Requests admitted, by tenant and priority class.",
            )
            self._shed = registry.counter(
                "repro_serve_shed_total",
                "Requests shed at admission, by tenant and reason.",
            )
            self._pending_gauge = registry.gauge(
                "repro_serve_inflight",
                "Admitted, unreleased requests by priority class.",
            )

    def _state(self, tenant: str, now: float) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            quota = self._quotas.get(tenant, self.default_quota)
            state = self._tenants[tenant] = _TenantState(quota, now)
        return state

    def _refill(self, state: _TenantState, now: float) -> None:
        quota = state.quota
        if quota.rate_per_s is None:
            return
        elapsed = max(0.0, now - state.refilled_at)
        state.tokens = min(
            float(quota.burst), state.tokens + elapsed * quota.rate_per_s
        )
        state.refilled_at = now

    def _shed_locked(self, tenant: str, reason: str) -> None:
        if self._shed is not None:
            self._shed.inc(tenant=tenant, reason=reason)

    def admit(
        self,
        tenant: str = "default",
        priority: Optional[str] = None,
        now: Optional[float] = None,
    ) -> AdmissionTicket:
        """Admit one request or raise the typed shed error.

        Checks run cheapest-first: pending quota, rate quota, then the
        priority watermark over aggregate occupancy.
        """
        if now is None:
            now = self._clock()
        with self._lock:
            state = self._state(tenant, now)
            quota = state.quota
            prio = priority if priority is not None else quota.priority
            if prio not in PRIORITIES:
                raise ConfigurationError(
                    f"priority must be one of {PRIORITIES}, got {prio!r}"
                )
            if state.pending >= quota.max_pending:
                self._shed_locked(tenant, "tenant_pending")
                raise TenantQuotaExceededError(
                    f"tenant {tenant!r} pending quota "
                    f"({quota.max_pending} in flight) exceeded",
                    tenant=tenant,
                    quota="pending",
                )
            if quota.rate_per_s is not None:
                self._refill(state, now)
                if state.tokens < 1.0:
                    self._shed_locked(tenant, "tenant_rate")
                    raise TenantQuotaExceededError(
                        f"tenant {tenant!r} rate quota "
                        f"({quota.rate_per_s:g}/s, burst {quota.burst}) "
                        "exceeded",
                        tenant=tenant,
                        quota="rate",
                    )
            # Priority watermark: class ``p`` may only admit while
            # *total* occupancy stays under watermark[p] * capacity, so
            # as the tier fills, batch stops admitting at 50%, standard
            # at 80%, and only interactive can use the last slots —
            # shed order is strictly lowest-class-first no matter who
            # generated the load.
            ceiling = self.watermarks[prio] * self.capacity
            occupancy = sum(self._pending_by_priority.values())
            if occupancy + 1 > ceiling:
                self._shed_locked(tenant, f"priority_{prio}")
                raise PriorityShedError(
                    f"priority class {prio!r} is over its watermark "
                    f"({occupancy}/{ceiling:g} of capacity "
                    f"{self.capacity}); request shed",
                    priority=prio,
                )
            if quota.rate_per_s is not None:
                state.tokens -= 1.0
            state.pending += 1
            self._pending_by_priority[prio] += 1
            self._seq += 1
            if self._admitted is not None:
                self._admitted.inc(tenant=tenant, priority=prio)
            if self._pending_gauge is not None:
                self._pending_gauge.set(
                    self._pending_by_priority[prio], priority=prio
                )
            return AdmissionTicket(tenant=tenant, priority=prio, seq=self._seq)

    def release(self, ticket: AdmissionTicket) -> None:
        """Free the slots an admitted request held (idempotence is the
        caller's job — release once per ticket)."""
        with self._lock:
            state = self._tenants.get(ticket.tenant)
            if state is not None and state.pending > 0:
                state.pending -= 1
            if self._pending_by_priority[ticket.priority] > 0:
                self._pending_by_priority[ticket.priority] -= 1
            if self._pending_gauge is not None:
                self._pending_gauge.set(
                    self._pending_by_priority[ticket.priority],
                    priority=ticket.priority,
                )

    # -- reading -------------------------------------------------------------

    def pending(self, tenant: Optional[str] = None) -> int:
        """In-flight count for one tenant, or the aggregate."""
        with self._lock:
            if tenant is not None:
                state = self._tenants.get(tenant)
                return state.pending if state is not None else 0
            return sum(self._pending_by_priority.values())

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time occupancy by tenant and by priority class."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "by_priority": dict(self._pending_by_priority),
                "by_tenant": {
                    name: state.pending
                    for name, state in sorted(self._tenants.items())
                },
            }
