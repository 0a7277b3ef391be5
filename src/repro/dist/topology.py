"""The simulated interconnect: links, topologies, device groups.

A :class:`LinkSpec` prices one point-to-point transfer the same way the
kernel cost model prices a launch — a fixed latency plus a
bandwidth-proportional term — so interconnect time and kernel time live
in the same simulated-milliseconds currency and can be compared,
overlapped, and summed by the :class:`~repro.ir.Engine` list scheduler.

An :class:`Interconnect` adds the wiring: ``all_to_all`` (every pair one
hop — NVLink-switch or PCIe-switch style) or ``ring`` (neighbour links
only; a transfer store-and-forwards across the shorter arc). A
:class:`DeviceGroup` binds ``N`` identical simulated devices to an
interconnect — the machine the distributed solver runs on.

The presets are deliberately round-number models of familiar fabrics,
not measurements; like the hidden device-spec fields they are data, not
logic, and benchmarks sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Tuple, Union

from ..gpu.executor import Device, make_device
from ..util.errors import ConfigurationError
from ..util.units import gb_per_s_to_bytes_per_ms, us_to_ms

__all__ = [
    "LinkSpec",
    "PCIE_GEN3",
    "PCIE_GEN4",
    "NVLINK2",
    "LINK_PRESETS",
    "get_link",
    "Interconnect",
    "DeviceGroup",
    "make_device_group",
]


@dataclass(frozen=True)
class LinkSpec:
    """One point-to-point link: fixed latency + bandwidth term."""

    name: str
    bandwidth_gb_s: float
    latency_us: float

    def __post_init__(self) -> None:
        if self.bandwidth_gb_s <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if self.latency_us < 0:
            raise ConfigurationError("link latency must be non-negative")

    @property
    def bytes_per_ms(self) -> float:
        """Link bandwidth in bytes per millisecond."""
        return gb_per_s_to_bytes_per_ms(self.bandwidth_gb_s)

    def transfer_ms(self, nbytes: float, hops: int = 1) -> float:
        """Store-and-forward cost of moving ``nbytes`` across ``hops`` links."""
        if nbytes < 0:
            raise ConfigurationError("transfer bytes must be non-negative")
        if hops <= 0:
            return 0.0
        return hops * (us_to_ms(self.latency_us) + nbytes / self.bytes_per_ms)

    def with_(self, **kwargs) -> "LinkSpec":
        """A copy with selected fields replaced (for sweeps/ablations)."""
        return replace(self, **kwargs)


PCIE_GEN3 = LinkSpec("pcie3", bandwidth_gb_s=12.0, latency_us=5.0)
PCIE_GEN4 = LinkSpec("pcie4", bandwidth_gb_s=24.0, latency_us=3.0)
NVLINK2 = LinkSpec("nvlink2", bandwidth_gb_s=25.0, latency_us=1.9)

LINK_PRESETS = {
    PCIE_GEN3.name: PCIE_GEN3,
    PCIE_GEN4.name: PCIE_GEN4,
    NVLINK2.name: NVLINK2,
}


def get_link(link: Union[LinkSpec, str]) -> LinkSpec:
    """Resolve a link preset name (or pass a spec through)."""
    if isinstance(link, LinkSpec):
        return link
    try:
        return LINK_PRESETS[link]
    except KeyError:
        raise ConfigurationError(
            f"unknown link {link!r}; presets: {sorted(LINK_PRESETS)}"
        ) from None


_TOPOLOGY_KINDS = ("all_to_all", "ring")


@dataclass(frozen=True)
class Interconnect:
    """A link spec plus the wiring between group members."""

    link: LinkSpec
    kind: str = "all_to_all"

    def __post_init__(self) -> None:
        if self.kind not in _TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}; one of {_TOPOLOGY_KINDS}"
            )

    def hops(self, src: int, dst: int, num_devices: int) -> int:
        """Links a message crosses from ``src`` to ``dst``."""
        if not (0 <= src < num_devices and 0 <= dst < num_devices):
            raise ConfigurationError(
                f"device index out of range: {src} -> {dst} of {num_devices}"
            )
        if src == dst:
            return 0
        if self.kind == "all_to_all":
            return 1
        forward = (dst - src) % num_devices
        return min(forward, num_devices - forward)

    def transfer_ms(
        self, nbytes: float, src: int, dst: int, num_devices: int
    ) -> float:
        """Simulated milliseconds to move ``nbytes`` from ``src`` to ``dst``."""
        return self.link.transfer_ms(nbytes, self.hops(src, dst, num_devices))

    def describe(self) -> str:
        """Compact label, e.g. ``ring:pcie3``."""
        return f"{self.kind}:{self.link.name}"


class DeviceGroup:
    """``N`` identical simulated devices joined by an interconnect."""

    def __init__(self, devices, interconnect: Interconnect):
        devices = tuple(make_device(d) for d in devices)
        if not devices:
            raise ConfigurationError("a device group needs at least one device")
        names = {d.name for d in devices}
        if len(names) != 1:
            raise ConfigurationError(
                f"device groups must be homogeneous; got {sorted(names)}"
            )
        self.devices: Tuple[Device, ...] = devices
        self.interconnect = interconnect

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    def __getitem__(self, i: int) -> Device:
        return self.devices[i]

    @property
    def device_name(self) -> str:
        """Name of the (identical) member devices."""
        return self.devices[0].name

    @property
    def signature(self) -> Tuple:
        """What fixes the group's behaviour — for :class:`DistPlan` keys."""
        return (
            self.device_name,
            len(self.devices),
            self.interconnect.describe(),
        )

    def describe(self) -> str:
        """Compact label, e.g. ``GeForce GTX 470 x8 (all_to_all:pcie3)``."""
        return (
            f"{self.device_name} x{len(self.devices)} "
            f"({self.interconnect.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeviceGroup({self.describe()!r})"


def make_device_group(
    device="gtx470",
    count: int = 4,
    link: Union[LinkSpec, str] = "pcie3",
    topology: str = "all_to_all",
) -> DeviceGroup:
    """Build a homogeneous :class:`DeviceGroup` of ``count`` devices."""
    if count < 1:
        raise ConfigurationError(f"device count must be >= 1, got {count}")
    base = make_device(device)
    devices = [base] + [make_device(base.spec) for _ in range(count - 1)]
    return DeviceGroup(devices, Interconnect(get_link(link), topology))
