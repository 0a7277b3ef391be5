"""repro.dist — multi-device domain decomposition over a simulated interconnect.

Solves workloads that overflow one simulated device by partitioning
across a :class:`DeviceGroup`: SPIKE-style row chunking for enormous
systems (``rows`` mode) or system sharding for wide on-chip batches
(``batch`` mode), with halo/spike exchanges priced on a
:class:`LinkSpec` interconnect model. Each plan lowers to an instruction
program whose overlap-aware pricing on the shared :class:`~repro.ir.Engine`
yields a :class:`DistReport`.

Entry points: :class:`DistributedSolver` (plan/price/solve),
:func:`make_device_group`, and the two report renderers from
:mod:`~repro.dist.pipeline` — :func:`render_dist_timeline` (one row per
event, what benchmarks print) and :func:`render_overlap_gantt` (one row
per lane, what ``repro plan --devices N`` prints).
"""

from .pipeline import (
    DeviceTimeline,
    DistReport,
    TimelineEvent,
    render_dist_timeline,
    render_overlap_gantt,
)
from .partition import batch_shares, partition_bounds
from .plan import DistPlan
from .solver import DistributedSolver, DistSolveResult, working_set_nbytes
from .topology import (
    LINK_PRESETS,
    DeviceGroup,
    Interconnect,
    LinkSpec,
    get_link,
    make_device_group,
)

__all__ = [
    "DeviceGroup",
    "DeviceTimeline",
    "DistPlan",
    "DistReport",
    "DistSolveResult",
    "DistributedSolver",
    "Interconnect",
    "LINK_PRESETS",
    "LinkSpec",
    "TimelineEvent",
    "batch_shares",
    "get_link",
    "partition_bounds",
    "make_device_group",
    "render_dist_timeline",
    "render_overlap_gantt",
    "working_set_nbytes",
]
