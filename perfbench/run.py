"""Two-clock benchmark of the tridiagonal solver.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 24 --trace 0

``--trace 0`` runs the workload with nothing wrapped and prints every
end-to-end metric; ``--trace 1`` runs it twice, once plain and once with
the layer boundaries wrapped (see ``layers.py``), and prints the
per-layer metrics and the tracing overhead. Each metric line names its
clock: *host* is wall time on this machine, *priced* the simulated GPU
clock. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit code is 0 only when every unit was answered and verified, 1
otherwise, and 2 when the program's sources (``src/repro``) are not next
to this directory; then no result line is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One process, at most two busy threads (driver + one service worker):
# keep BLAS from adding its own. Must precede the first numpy import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import spec  # noqa: E402
from machine import fingerprint, peak_rss_mb  # noqa: E402


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        _fail(f"no program sources at {os.path.relpath(src)}/repro; run from a checkout of the repository")
    sys.path.insert(0, src)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != src:
        _fail(f"imported repro from {repro.__file__}, not from this checkout")


def _start_hard_limit(seconds: float) -> None:
    """Exit without a result if the process outlives ``seconds``."""

    def expire():
        time.sleep(seconds)
        print(f"perfbench: run exceeded {seconds:.0f} s; exiting without a result", file=sys.stderr)
        sys.stderr.flush()
        os._exit(3)

    threading.Thread(target=expire, name="perfbench-hard-limit", daemon=True).start()


def _setup(workload, watchdog, executor=None):
    """One set-up under the watchdog; returns ``(system, seconds)``."""
    return watchdog.call(lambda: workload.setup(executor))


def _setups_between(workload, watchdog, times, extra: int):
    """A ``between`` hook for ``workload.run``: ``extra`` more set-ups,
    spread over the timed units in the untimed gaps after their checks."""

    def between(k: int, count: int) -> None:
        if watchdog.remaining() <= 0:  # a unit hung: leave the system alone
            return
        if len(times) <= extra and (k + 1) % max(1, count // (extra + 1)) == 0:
            system, seconds = _setup(workload, watchdog)
            workload.close(system)
            times.append(seconds)

    return between


def _freeze_inputs() -> None:
    """Keep the collector from rescanning the generated inputs and references.

    They live for the whole run; frozen, the collector's pauses are the
    program's own rather than the size of the benchmark's data.
    """
    gc.collect()
    gc.freeze()


def _median(values):
    return statistics.median(values) if values else float("nan")


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive linear interpolation), or NaN when empty."""
    if len(values) < 2:
        return float(values[0]) if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, phase, setup_times, tally):
    """Every end-to-end metric of one plain run, with the notes printed beside it."""
    lat = phase.latencies_ms
    n = len(lat)
    beyond = n // 100
    limit = spec.LATENCY_LIMIT_MS[workload.name]
    where = "paced phase" if workload.name == "serve_mixed" else "timed units"
    rates = [rows * 1e3 / ns for rows, ns in zip(phase.unit_rows, phase.unit_ns)]
    values = {
        "setup_s": (_median(setup_times), f"median of {len(setup_times)} set-ups spread over the run"),
        "mrows_per_s": (
            _median(rates),
            f"median over {len(rates)} "
            + ("closed-loop windows" if workload.name == "serve_mixed" else "units")
            + f", {sum(phase.unit_rows)} rows in {sum(phase.unit_ns) / 1e9:.3f} s",
        ),
        "latency_p50_ms": (percentile(lat, 50), f"{where}, n={n}"),
        "latency_p99_ms": (
            percentile(lat, 99),
            f"{where}, n={n}, {beyond} beyond p99"
            + ("" if beyond >= 10 else "; fewer than 10 beyond: an upper-tail estimate"),
        ),
        "slo_met_ratio": (
            phase.slo_met / phase.slo_sent if phase.slo_sent else 0.0,
            f"{phase.slo_met}/{phase.slo_sent} within {limit:g} ms",
        ),
        "priced_ms": (phase.priced_ms, "deterministic for a seed"),
        "peak_rss_mb": (peak_rss_mb(), "ru_maxrss"),
        "failed_ratio": (tally.failed / tally.attempted if tally.attempted else 0.0, f"{tally.failed}/{tally.attempted}"),
    }
    return values


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    try:
        code = _measure(args)
    except Exception:  # a failed set-up: report it, then leave without a result
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    sys.stderr.flush()
    # Leave at once: a unit abandoned at the watchdog, or a set-up that
    # failed, may hold a worker thread that interpreter shutdown would wait for.
    os._exit(code)


def _measure(args) -> int:
    """Run the workload; print the report and the result line; return the exit code."""
    _start_hard_limit(spec.HARD_LIMIT_S)
    _import_program()
    # These drive the program, so they load once its sources are on the path.
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, Phase, Tally, Watchdog

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    started = time.monotonic()
    watchdog = Watchdog(started + spec.WORKLOAD_BOUND_S)
    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, args.seconds)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True))

    if not args.trace:
        # One set-up readies the system; the others are spread over the
        # timed phase, so their median spans the run, not one moment of it.
        system, seconds = _setup(workload, watchdog)
        setup_times = [seconds]
        watchdog.call(lambda: workload.prepare(system))
        _freeze_inputs()
        between = _setups_between(workload, watchdog, setup_times, workload.setups - 1)
        phase = workload.run(system, 1.0, tally, watchdog, between)
        values = end_to_end(workload, phase, setup_times, tally)
        for name, (value, note) in values.items():
            unit, clock, meaning = {**spec.END_TO_END, **spec.REPORTED_ONLY}[name]
            print(f"metric {name:<16} {value:>14.6g} {unit:<8} {clock:<6} {meaning}; {note}")
        if not tally.abandoned:  # an abandoned unit may still hold the system
            det = workload.determinism(system)
            workload.close(system)
            print(f"determinism priced_ms={phase.priced_ms!r} switch_points={det['switch_points']} signatures={det['signatures']}")
        metrics = {name: {"value": values[name][0], "unit": spec.END_TO_END[name][0]} for name in spec.END_TO_END}
    else:
        # Plain pass, then the same work traced: the ratio of their median
        # unit times is the tracing overhead.
        system, _ = _setup(workload, watchdog)
        watchdog.call(lambda: workload.prepare(system))
        _freeze_inputs()
        plain = workload.run(system, 0.5, tally, watchdog)
        tracer = Tracer()
        counts = layers.LayerCounts()
        traced, setup_s = Phase(), 0.0
        if not tally.abandoned:  # an abandoned unit may still hold the system
            workload.close(system)
            layers.install(tracer, counts)
            try:
                executor = layers.TracedExecutor(tracer, counts) if args.workload == "serve_mixed" else None
                system, setup_s = _setup(workload, watchdog, executor)
                traced = workload.run(system, 0.5, tally, watchdog)
                tracer.enabled = False
                if not tally.abandoned:
                    workload.close(system)
            finally:
                tracer.restore()
        overhead = (
            statistics.median(traced.unit_ns) / statistics.median(plain.unit_ns) - 1.0
            if traced.unit_ns and plain.unit_ns
            else 0.0
        )
        wall_ns = int(setup_s * 1e9) + traced.wall_ns
        values = layers.layer_metrics(
            tracer,
            counts,
            wall_ns=wall_ns,
            overhead_ratio=overhead,
            gen_late_p99_ms=percentile(traced.late_ms, 99) if traced.late_ms else 0.0,
        )
        for name, unit in layers.PER_LAYER:
            print(f"layer {name:<28} {values[name]:>14.6g} {unit}")
        pool_busy = tracer.covered_ns() - tracer.covered_ns(skip_thread_prefix=layers.POOL_THREAD)
        print(
            f"trace spans={len(tracer.spans)} wall_ms={values['trace.wall_ms']:.3f} = "
            f"driver-side self time {values['trace.wall_ms'] - values['trace.uncovered_ms']:.3f}"
            f" + uncovered {values['trace.uncovered_ms']:.3f}; pool thread busy {pool_busy / 1e6:.3f} ms"
        )
        for metrics_moved, (moves, where) in spec.LAYER_EFFECTS.items():
            print(f"effect {metrics_moved} -> {moves} [{where}]")
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(
            os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "fingerprint": fingerprint()},
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}

    watchdog.close()
    for text in tally.notes:
        print(f"failure {text}")
    correct = tally.wrong == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
        )
    )
    return 0 if correct and tally.failed == 0 else 1


if __name__ == "__main__":
    main()
