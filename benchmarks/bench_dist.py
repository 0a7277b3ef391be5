"""Strong/weak scaling of the multi-device distributed solver.

The ROADMAP's scale-out scenario: a single system far too large for one
simulated device (2^22 rows in float64) is decomposed SPIKE-style across
1..16 devices joined by a modeled interconnect. Pricing is data-free —
the same cost models the real solve reports, without allocating 2^22-row
coefficient arrays — so the sweep runs in seconds.

The acceptance bar is >= 3x simulated speedup at 8 devices over 1 on the
2^22-row system; typical runs land near 4.5x (the local chunk solves
carry three right-hand sides — data plus two coupling spikes — so ideal
SPIKE scaling is p/3 once chunks leave the overhead-dominated regime).

An *overlap* sweep rides along: the same 2^22-row workload priced under
the fused rows schedule (hub reduced exchange, staged local solves) vs
the ``pipelined`` mode (interleaved local sweeps + neighbour-pipelined
reduced system). Acceptance there is >= 1.3x at 16-32 devices with
bit-identical solutions.

Runs both as a pytest bench (``pytest benchmarks/bench_dist.py``) and as
a script (``python benchmarks/bench_dist.py [--smoke]``); either way the
sweep is persisted to ``benchmarks/results/dist_scaling.json``.
"""

import argparse
import sys

from _results import write_results as _write_results

from repro.analysis import ascii_table
from repro.dist import (
    DistributedSolver,
    make_device_group,
    render_dist_timeline,
    render_overlap_gantt,
)

DEVICE = "gtx470"
LINK = "pcie3"
TOPOLOGY = "all_to_all"
DTYPE_SIZE = 8  # float64
NUM_SYSTEMS = 1
STRONG_SIZE = 1 << 22  # rows of the strong-scaling system
WEAK_SIZE = 1 << 19  # rows per device for the weak-scaling sweep
COUNTS = (1, 2, 4, 8, 16)
# Device counts for the pipelined-vs-fused overlap sweep: the regime
# where the hub exchange and unfused local solves leave headroom.
OVERLAP_COUNTS = (8, 16, 32)


def price_sweep(counts, shape_for):
    """Price one scaling sweep; returns (records, report at the last count)."""
    records, last_report = [], None
    base_ms = None
    for count in counts:
        m, n = shape_for(count)
        group = make_device_group(DEVICE, count, LINK, TOPOLOGY)
        plan, report = DistributedSolver(group).price(m, n, DTYPE_SIZE)
        if base_ms is None:
            base_ms = report.total_ms
        speedup = base_ms / report.total_ms
        records.append(
            {
                "devices": count,
                "num_systems": m,
                "system_size": n,
                "mode": plan.mode,
                "schedule": plan.schedule,
                "total_ms": report.total_ms,
                "speedup_vs_first": speedup,
                "efficiency": speedup * counts[0] / count,
                "compute_utilization": report.compute_utilization,
            }
        )
        last_report = report
    return records, last_report


def render_sweep(records, title):
    return ascii_table(
        ["devices", "workload", "mode", "schedule", "ms", "speedup", "eff"],
        [
            [
                r["devices"],
                f"{r['num_systems']} x {r['system_size']}",
                r["mode"],
                r["schedule"],
                f"{r['total_ms']:.3f}",
                f"{r['speedup_vs_first']:.2f}x",
                f"{r['efficiency']:.0%}",
            ]
            for r in records
        ],
        title=title,
    )


def run_overlap_sweep(counts=OVERLAP_COUNTS):
    """Price the fused rows schedule vs the pipelined mode.

    Same workload, same chunk split, bit-identical solutions — the
    records isolate what the overlap-aware schedule (fused interleaved
    local solves + the hub-free neighbour reduced sweep) buys over the
    hub exchange.
    """
    records = []
    last_report = None
    for count in counts:
        group = make_device_group(DEVICE, count, LINK, TOPOLOGY)
        _, fused_report = DistributedSolver(group, mode="rows").price(
            NUM_SYSTEMS, STRONG_SIZE, DTYPE_SIZE
        )
        _, pipe_report = DistributedSolver(group, mode="pipelined").price(
            NUM_SYSTEMS, STRONG_SIZE, DTYPE_SIZE
        )
        records.append(
            {
                "devices": count,
                "num_systems": NUM_SYSTEMS,
                "system_size": STRONG_SIZE,
                "fused_ms": fused_report.total_ms,
                "pipelined_ms": pipe_report.total_ms,
                "speedup": fused_report.total_ms / pipe_report.total_ms,
                "pipelined_compute_utilization": (
                    pipe_report.compute_utilization
                ),
            }
        )
        last_report = pipe_report
    text = ascii_table(
        ["devices", "workload", "fused ms", "pipelined ms", "speedup"],
        [
            [
                r["devices"],
                f"{r['num_systems']} x {r['system_size']}",
                f"{r['fused_ms']:.3f}",
                f"{r['pipelined_ms']:.3f}",
                f"{r['speedup']:.2f}x",
            ]
            for r in records
        ],
        title=(
            f"Pipelined vs fused rows schedule "
            f"({NUM_SYSTEMS} x {STRONG_SIZE}, float64, {TOPOLOGY}:{LINK})"
        ),
    )
    return records, text, last_report


def run_scaling(counts=COUNTS, overlap_counts=OVERLAP_COUNTS):
    """The full sweep: strong + weak + overlap records, rendered text."""
    strong, strong_report = price_sweep(
        counts, lambda count: (NUM_SYSTEMS, STRONG_SIZE)
    )
    weak, _ = price_sweep(
        counts, lambda count: (NUM_SYSTEMS, WEAK_SIZE * count)
    )
    overlap, overlap_text, overlap_report = run_overlap_sweep(overlap_counts)
    timeline = render_dist_timeline(strong_report)
    text = (
        render_sweep(
            strong,
            f"Distributed strong scaling ({NUM_SYSTEMS} x {STRONG_SIZE}, "
            f"float64, {TOPOLOGY}:{LINK})",
        )
        + "\n"
        + render_sweep(
            weak,
            f"Distributed weak scaling ({NUM_SYSTEMS} x {WEAK_SIZE} "
            f"rows/device)",
        )
        + "\n"
        + overlap_text
        + "\n\nPer-device timeline at the largest strong-scaling point:\n"
        + timeline
        + "\n\nLane timeline of the pipelined schedule at "
        f"{overlap_counts[-1]} devices:\n"
        + render_overlap_gantt(overlap_report)
    )
    payload = {
        "device": DEVICE,
        "link": LINK,
        "topology": TOPOLOGY,
        "dtype_size": DTYPE_SIZE,
        "strong": strong,
        "weak": weak,
        "overlap": overlap,
    }
    return payload, text


def write_results(payload, results_dir=None):
    return _write_results("dist_scaling", payload, results_dir)


# -- truncated-SPIKE approx step change -------------------------------------

# Many medium systems is the regime where the exact reduced exchange
# serialises at the hub: each of p devices funnels its spikes through
# device 0's ingress, so the exchange grows with p while approx's
# neighbour-tip handshake stays constant. 2^16 rows x 4 systems keeps
# per-chunk local work small enough that the exchange is visible.
APPROX_SYSTEMS = 4
APPROX_SIZE = 1 << 16
APPROX_COUNTS = (8, 16, 32)


def run_approx_step_change(counts=APPROX_COUNTS):
    """Price exact rows vs truncated-SPIKE approx across device counts."""
    records = []
    for count in counts:
        group = make_device_group(DEVICE, count, LINK, TOPOLOGY)
        _, rows_report = DistributedSolver(group, mode="rows").price(
            APPROX_SYSTEMS, APPROX_SIZE, DTYPE_SIZE
        )
        _, approx_report = DistributedSolver(group, mode="approx").price(
            APPROX_SYSTEMS, APPROX_SIZE, DTYPE_SIZE
        )
        records.append(
            {
                "devices": count,
                "num_systems": APPROX_SYSTEMS,
                "system_size": APPROX_SIZE,
                "rows_ms": rows_report.total_ms,
                "approx_ms": approx_report.total_ms,
                "speedup": rows_report.total_ms / approx_report.total_ms,
            }
        )
    text = ascii_table(
        ["devices", "workload", "rows ms", "approx ms", "speedup"],
        [
            [
                r["devices"],
                f"{r['num_systems']} x {r['system_size']}",
                f"{r['rows_ms']:.3f}",
                f"{r['approx_ms']:.3f}",
                f"{r['speedup']:.2f}x",
            ]
            for r in records
        ],
        title=(
            f"Truncated-SPIKE approx vs exact rows "
            f"({APPROX_SYSTEMS} x {APPROX_SIZE}, float64, {TOPOLOGY}:{LINK})"
        ),
    )
    payload = {
        "device": DEVICE,
        "link": LINK,
        "topology": TOPOLOGY,
        "dtype_size": DTYPE_SIZE,
        "sweep": records,
    }
    return payload, text


def test_dist_approx_step_change(benchmark, emit, results_dir):
    payload, text = benchmark.pedantic(
        run_approx_step_change, rounds=1, iterations=1
    )
    emit("dist_approx", text)
    _write_results("dist_approx", payload, results_dir)

    sweep = {r["devices"]: r for r in payload["sweep"]}
    # The acceptance criterion: a measured priced speedup over the
    # exact rows decomposition at >= 8 devices, growing with the
    # device count as the reduced exchange gets more serialised.
    assert sweep[8]["speedup"] > 1.0, (
        f"approx not faster at 8 devices: {sweep[8]['speedup']:.3f}x"
    )
    speedups = [sweep[c]["speedup"] for c in sorted(sweep)]
    assert speedups == sorted(speedups)
    assert sweep[32]["speedup"] > 2.0


def test_dist_strong_scaling(benchmark, emit, results_dir):
    payload, text = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    emit("dist_scaling", text)
    write_results(payload, results_dir)

    strong = {r["devices"]: r for r in payload["strong"]}
    # The acceptance criterion: >= 3x simulated speedup at 8 devices
    # over 1 on the 2^22-row system.
    speedup8 = strong[1]["total_ms"] / strong[8]["total_ms"]
    assert speedup8 >= 3.0, f"8-device speedup only {speedup8:.2f}x"
    # The timeline in the emitted report covers every device.
    assert "dev7" in text
    # 16 devices must not be slower than 8 (more chunks, all smaller).
    assert strong[16]["total_ms"] <= strong[8]["total_ms"]

    # The overlap acceptance criterion: the pipelined schedule beats
    # the fused hub exchange by >= 1.3x at 16-32 devices on the same
    # 2^22-row workload (solutions are bit-identical; only the
    # schedule differs).
    overlap = {r["devices"]: r for r in payload["overlap"]}
    for count in (16, 32):
        assert overlap[count]["speedup"] >= 1.3, (
            f"pipelined speedup at {count} devices only "
            f"{overlap[count]['speedup']:.2f}x (need >= 1.3x)"
        )
    # And the lane Gantt for the pipelined point is in the report.
    assert "lanes: # compute" in text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Strong/weak scaling of the distributed solver"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="minimal sweep (1 and 8 devices) for CI smoke runs",
    )
    args = parser.parse_args(argv)
    counts = (1, 8) if args.smoke else COUNTS
    overlap_counts = (8,) if args.smoke else OVERLAP_COUNTS
    payload, text = run_scaling(counts, overlap_counts)
    print(text)
    path = write_results(payload)
    print(f"wrote {path}")
    approx_payload, approx_text = run_approx_step_change(
        (8,) if args.smoke else APPROX_COUNTS
    )
    print(approx_text)
    approx_path = _write_results("dist_approx", approx_payload)
    print(f"wrote {approx_path}")
    strong = {r["devices"]: r for r in payload["strong"]}
    speedup8 = strong[1]["total_ms"] / strong[8]["total_ms"]
    if speedup8 < 3.0:
        print(f"FAIL: 8-device speedup only {speedup8:.2f}x (need >= 3x)")
        return 1
    print(f"OK: 8-device strong-scaling speedup {speedup8:.2f}x")
    approx8 = approx_payload["sweep"][0]["speedup"]
    if approx8 <= 1.0:
        print(f"FAIL: approx not faster at 8 devices ({approx8:.3f}x)")
        return 1
    print(f"OK: approx step change {approx8:.2f}x at 8 devices")
    overlap = {r["devices"]: r for r in payload["overlap"]}
    for count, record in sorted(overlap.items()):
        bar = 1.3 if count >= 16 else 1.0
        if record["speedup"] < bar:
            print(
                f"FAIL: pipelined speedup at {count} devices only "
                f"{record['speedup']:.2f}x (need >= {bar}x)"
            )
            return 1
    best = max(r["speedup"] for r in overlap.values())
    print(f"OK: pipelined overlap speedup up to {best:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
