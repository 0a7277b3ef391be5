"""Fixed settings of the benchmark: workload sizes, limits and the metric catalogue.

Everything a reader needs to interpret a run lives here, next to the
reasons for each choice. ``BENCHMARK.json`` holds only the fields its
fixed schema allows (the serve_mixed rate, flush window and latency limit
fit in that workload's one-line rationale), so the latency limits and the
layer-to-metric map are recorded here; traced runs print the map.

Unit counts scale with ``--seconds`` and never with elapsed time, so one
seed always does the same work and its priced total repeats exactly. The
per-second rates below were calibrated so that a run's timed phases last
about ``--seconds`` on a 2-core Xeon (Python 3.11, numpy 2.4, OpenBLAS
0.3); on a faster host a run simply ends sooner.
"""

from __future__ import annotations

DEVICE = "gtx470"

# -- serve_mixed --------------------------------------------------------------
# Distinct requests generated per seed; both phases cycle through them, so
# every answer is compared against a reference computed once per request.
SERVE_POOL = 4096
# Closed loop: one caller submits a window of requests, flushes, waits.
SERVE_WINDOW = 128
SERVE_WINDOWS_PER_SECOND = 8.0
# Open loop: requests are due at a fixed rate, pending work is flushed on
# a fixed time window, and latency runs from a request's due time.
SERVE_RATE_PER_S = 200.0
SERVE_FLUSH_WINDOW_MS = 20.0
# Share of --seconds spent in the paced phase: at 200/s, 24 s give 1920
# samples, 19 of them beyond p99.
SERVE_PACED_SHARE = 0.4
# Share of requests that carry a tolerance, and the tolerance per dtype:
# loose enough that a dominant system is accepted without refinement, so
# governed answers stay bit-identical to the standalone reference.
SERVE_GOVERNED_SHARE = 0.25
SERVE_TOLERANCE = {"float32": 1e-4, "float64": 1e-10}
SERVE_SETUPS = 25

# -- adi_aniso -----------------------------------------------------------------
# The long side is drawn from the seed just below 2**16, so the x-sweeps pad
# and the priced total differs between seeds (an unchanged shape would
# price identically for every seed).
ADI_SHORT = 16
ADI_LONG = 1 << 16
ADI_LONG_JITTER = 64
ADI_STEPS_PER_SECOND = 0.8
ADI_DT = 0.1
# Relative L2 distance of the field from the analytic sine-mode decay.
# The (1, ky=1) mode on a 16-row side carries a 0.24% eigenvalue error, so
# the distance grows to ~1e-4 per unit of time; 1e-3 holds to t = 6.
ADI_BOUND = 1e-3
ADI_SETUPS = 5

# -- dist_long -----------------------------------------------------------------
# As for adi_aniso, the seed draws the length just below 2**20 so that the
# priced total differs between seeds.
DIST_DEVICES = 4
DIST_LONG = 1 << 20
DIST_LONG_JITTER = 4096
DIST_SYSTEMS = 2  # distinct right-hand sides/matrices, solved in turn
DIST_TOLERANCE = 1e-8
DIST_SOLVES_PER_SECOND = 0.35
# Max-norm distance from scipy's banded LU, relative to the reference.
DIST_AGREEMENT = 1e-7
DIST_SETUPS = 3

# -- limits --------------------------------------------------------------------
# A unit answered later than its workload's limit misses the SLO. The
# serve_mixed limit applies to the paced phase; for the other workloads the
# unit is one ADI step or one distributed solve.
LATENCY_LIMIT_MS = {"serve_mixed": 100.0, "adi_aniso": 3000.0, "dist_long": 8000.0}
# A unit that has not returned after this long is abandoned and counted
# as failed; after that, or once the workload bound has passed, no new
# unit starts.
UNIT_TIMEOUT_S = 30.0
WORKLOAD_BOUND_S = 150.0
# The whole process exits (without a result) if it runs longer than this.
HARD_LIMIT_S = 175.0

# -- metric catalogue ------------------------------------------------------------
# name -> (unit, clock, meaning). "host" is wall time on this machine,
# "priced" the simulated GPU clock of the machine model.
END_TO_END = {
    "setup_s": ("s", "host", "constructor to ready: empty TuningCache, switch points, one warm-up unit"),
    "mrows_per_s": ("Mrows/s", "host", "unpadded rows verified per wall second"),
    "latency_p50_ms": ("ms", "host", "median time per unit"),
    "priced_ms": ("ms", "priced", "sum of report.total_ms over the timed units (serve_mixed: the closed loop)"),
    "peak_rss_mb": ("MB", "host", "peak resident memory of the process"),
}
# Printed by every run but not bounded in BENCHMARK.json. failed_ratio is
# 0 on a passing run, and any failure already fails the run. The tail
# metrics follow the host's stalls: on a shared 2-vCPU VM a stall of a
# second or more now and then backs the paced queue up, and across ten
# seeds the spread of latency_p99_ms (0.6-0.7) and of slo_met_ratio (up to
# 0.26) exceeded the largest bound allowed. latency_p99_ms also has fewer
# than 10 samples beyond it on adi_aniso and dist_long.
REPORTED_ONLY = {
    "latency_p99_ms": ("ms", "host", "99th percentile time per unit"),
    "slo_met_ratio": ("ratio", "host", "share of units answered, verified, within the latency limit"),
    "failed_ratio": ("ratio", "host", "(typed errors + wrong answers + abandoned units) / units attempted"),
}

KERNEL_OPS = ("OnChipSolve", "Pad", "Unpad", "SplitCoop", "SplitBlock", "Unsplit", "BatchedSolve", "Interleave")

# Per-layer metric -> (end-to-end metrics it should move, where it does the
# work / where it does little). Written down before measuring, so a later
# change can show its saving lands where it claims.
LAYER_EFFECTS = {
    "service.{submit,flush,group,merge,exec}.self_ms": ("mrows_per_s, latency_p50_ms", "serve_mixed / absent elsewhere"),
    "service.pool_wait_ms_p50, service.requests_per_group": ("latency_p99_ms, slo_met_ratio; priced_ms", "serve_mixed / absent elsewhere"),
    "validation.self_ms, validation.calls": ("mrows_per_s", "serve_mixed / absent elsewhere"),
    "core.tuning.self_ms, core.tuning.cache_{hits,misses}": ("setup_s", "all at set-up / ~0 after warm-up"),
    "core.plan.self_ms, ir.lower.*, ir.price.*": ("mrows_per_s, latency_p50_ms", "serve_mixed / <1% in adi_aniso, dist_long"),
    "ir.engine.self_ms": ("mrows_per_s", "serve_mixed (many tiny programs) / small elsewhere"),
    "kernels.OnChipSolve.*": ("mrows_per_s, latency_p50_ms", "adi_aniso, serve_mixed / absent in dist_long"),
    "kernels.{Pad,Unpad}.*": ("mrows_per_s", "all: every long side sits just below a power of two / -"),
    "kernels.{SplitCoop,SplitBlock,Unsplit}.*": ("mrows_per_s, latency_p50_ms", "adi_aniso only"),
    "kernels.{BatchedSolve,Interleave}.*": ("mrows_per_s, latency_p50_ms", "dist_long only"),
    "numerics.{decide,enforce}.self_ms, numerics.outcome.*": ("mrows_per_s, failed_ratio", "dist_long, governed serve_mixed / adi_aniso"),
    "dist.{price,partition,reduced,reconstruct}.self_ms": ("mrows_per_s, latency_p50_ms", "dist_long only"),
    "apps.adi.self_ms": ("mrows_per_s", "adi_aniso only"),
    "gen.late_p99_ms, trace.*": ("none: they show whether the run itself is valid", "serve_mixed paced / all"),
}
