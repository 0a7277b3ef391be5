"""Distributed report types, their renderers, and failover splicing.

A :class:`TimelineEvent` is one interval on a device's compute lane or
one of its transfer lanes, a :class:`DeviceTimeline` collects them per
device, and a :class:`DistReport` aggregates the makespan. Compute and
transfer lanes are independent per device (the DMA-overlap assumption
every real multi-GPU pipeline relies on), so a device may stream
boundary data out while its next solve runs.

Reports are produced by the shared :class:`~repro.ir.Engine`, which
prices a lowered :class:`~repro.dist.plan.DistPlan` program; this module
only holds their shape. :func:`render_dist_timeline` draws one row per
event, :func:`render_overlap_gantt` one row per lane, and
:func:`failover_report` splices a recovery run after an aborted one.

:class:`DistReport` mirrors the single-device
:class:`~repro.gpu.executor.SimReport` interface (``total_ms``,
``stage_ms``, ``describe``) so service stats and benchmarks treat local
and distributed solves uniformly; ``total_ms`` is the *makespan* across
devices, not a sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..util.errors import ConfigurationError

__all__ = [
    "TimelineEvent",
    "DeviceTimeline",
    "DistReport",
    "render_dist_timeline",
    "render_overlap_gantt",
    "failover_report",
]


@dataclass(frozen=True)
class TimelineEvent:
    """One scheduled interval on a device's compute or transfer engine.

    ``lane`` names the per-device scheduler lane the interval occupied:
    ``"compute"``, ``"out"`` (egress transfer), ``"in"`` (ingress
    transfer), or ``"xfer"`` (a device-local transfer).
    """

    kind: str  # "compute" | "xfer"
    label: str
    start_ms: float
    end_ms: float
    lane: str

    def __post_init__(self) -> None:
        if self.end_ms < self.start_ms or self.start_ms < 0:
            raise ConfigurationError(
                f"event {self.label!r} has invalid interval "
                f"[{self.start_ms}, {self.end_ms}]"
            )

    @property
    def duration_ms(self) -> float:
        """Length of the interval."""
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class DeviceTimeline:
    """All events scheduled on one device, in start order."""

    index: int
    device_name: str
    events: Tuple[TimelineEvent, ...]

    @property
    def end_ms(self) -> float:
        """When this device's last event finishes."""
        return max((e.end_ms for e in self.events), default=0.0)

    @property
    def compute_ms(self) -> float:
        """Total compute-engine occupancy (transfers overlap separately)."""
        return sum(e.duration_ms for e in self.events if e.kind == "compute")


@dataclass(frozen=True)
class DistReport:
    """Aggregated timing of one distributed solve.

    Duck-types the parts of :class:`~repro.gpu.executor.SimReport` the
    service and benchmarks read; ``total_ms`` is the makespan.
    """

    group_label: str
    schedule: str
    timelines: Tuple[DeviceTimeline, ...]

    @property
    def total_ms(self) -> float:
        """Simulated end-to-end time: when the last device finishes."""
        return max((t.end_ms for t in self.timelines), default=0.0)

    @property
    def num_devices(self) -> int:
        """Devices with a timeline (idle devices included)."""
        return len(self.timelines)

    @property
    def compute_utilization(self) -> float:
        """Mean fraction of the makespan each device spends computing."""
        total = self.total_ms
        if total <= 0 or not self.timelines:
            return 0.0
        return sum(t.compute_ms for t in self.timelines) / (
            total * len(self.timelines)
        )

    def stage_ms(self) -> Dict[str, float]:
        """Per-label busy totals across all devices, insertion ordered."""
        out: Dict[str, float] = {}
        for timeline in self.timelines:
            for event in timeline.events:
                out[event.label] = out.get(event.label, 0.0) + event.duration_ms
        return out

    def describe(self) -> str:
        """The rendered per-device timeline."""
        return render_dist_timeline(self)


def render_dist_timeline(report: DistReport, *, width: int = 56) -> str:
    """Proportional ASCII Gantt chart of a distributed solve.

    One row per event, grouped by device, on a shared time axis —
    ``#`` marks compute, ``~`` marks transfers.
    """
    total = report.total_ms
    header = (
        f"{report.group_label}: {total:.3f} ms makespan "
        f"({report.schedule} schedule, "
        f"{report.compute_utilization:.0%} compute utilization)"
    )
    if total <= 0:
        return header + " (no events)"
    label_width = max(
        (len(e.label) for t in report.timelines for e in t.events),
        default=8,
    )
    label_width = min(max(label_width, 8), 28)
    lines = [header]
    for timeline in report.timelines:
        for event in timeline.events:
            begin = int(round(width * event.start_ms / total))
            end = max(begin + 1, int(round(width * event.end_ms / total)))
            end = min(end, width)
            begin = min(begin, end - 1)
            mark = "#" if event.kind == "compute" else "~"
            bar = " " * begin + mark * (end - begin) + " " * (width - end)
            lines.append(
                f"dev{timeline.index:<2d} {event.label:<{label_width}} "
                f"|{bar}| {event.duration_ms:9.3f} ms"
            )
    return "\n".join(lines)


_LANE_MARKS = {"compute": "#", "out": ">", "in": "<", "xfer": "~"}
_LANE_ORDER = ("compute", "out", "in", "xfer")


def render_overlap_gantt(report: DistReport, *, width: int = 60) -> str:
    """Lane-resolved ASCII Gantt chart of a distributed schedule.

    One row per *lane* per device — ``compute`` (``#``), ``out``
    (egress, ``>``), and ``in`` (ingress, ``<``) — on a shared time
    axis, so communication/compute overlap is visible as marks sharing
    a column across a device's rows. Events that fall into the same
    lane (they serialised on that lane's resource) share its row. This
    is what ``repro plan --devices N`` prints; the numbers column gives
    each lane's total busy milliseconds.
    """
    total = report.total_ms
    header = (
        f"{report.group_label}: {total:.3f} ms makespan "
        f"({report.schedule} schedule, "
        f"{report.compute_utilization:.0%} compute utilization)"
    )
    if total <= 0:
        return header + " (no events)"
    lines = [header]
    for timeline in report.timelines:
        lanes: Dict[str, List[TimelineEvent]] = {}
        for event in timeline.events:
            lanes.setdefault(event.lane, []).append(event)
        for lane in _LANE_ORDER:
            events = lanes.pop(lane, None)
            if not events:
                continue
            bar = [" "] * width
            mark = _LANE_MARKS.get(lane, "~")
            for event in events:
                begin = int(round(width * event.start_ms / total))
                end = max(begin + 1, int(round(width * event.end_ms / total)))
                end = min(end, width)
                begin = min(begin, end - 1)
                for col in range(begin, end):
                    bar[col] = mark
            busy = sum(e.duration_ms for e in events)
            lines.append(
                f"dev{timeline.index:<2d} {lane:<8s} "
                f"|{''.join(bar)}| {busy:9.3f} ms"
            )
    lines.append(
        f"lanes: {_LANE_MARKS['compute']} compute   "
        f"{_LANE_MARKS['out']} egress (out)   "
        f"{_LANE_MARKS['in']} ingress (in)"
    )
    return "\n".join(lines)


def failover_report(
    aborted: DistReport,
    recovery: DistReport,
    survivor_ids: Sequence[int] = None,
) -> DistReport:
    """Splice a recovery run's timelines after an aborted run.

    When a device dies mid-solve the work already scheduled is wasted:
    the aborted run's events stand as-is, and the recovery run — the
    re-partitioned solve on the survivors — replays starting at the
    aborted makespan. ``survivor_ids`` maps recovery device ``j`` back
    to its index in the original group (identity when omitted), so the
    combined report keeps the original group's device numbering and its
    ``total_ms`` prices the failure's true end-to-end cost: wasted
    attempt plus full replay.
    """
    offset = aborted.total_ms
    merged = {t.index: list(t.events) for t in aborted.timelines}
    names = {t.index: t.device_name for t in aborted.timelines}
    for j, timeline in enumerate(recovery.timelines):
        target = survivor_ids[j] if survivor_ids is not None else timeline.index
        merged.setdefault(target, []).extend(
            TimelineEvent(
                e.kind, e.label, e.start_ms + offset, e.end_ms + offset,
                lane=e.lane,
            )
            for e in timeline.events
        )
        names.setdefault(target, timeline.device_name)
    timelines = tuple(
        DeviceTimeline(i, names[i], tuple(merged[i])) for i in sorted(merged)
    )
    return DistReport(
        group_label=aborted.group_label,
        schedule=f"failover:{recovery.schedule}",
        timelines=timelines,
    )
