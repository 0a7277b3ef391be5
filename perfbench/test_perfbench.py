"""Tests of the benchmark itself: tracer arithmetic, restoration, determinism.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import UnitAbandoned, Watchdog  # noqa: E402


class ManualClock:
    """A clock that only moves when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _synthetic(clock: ManualClock):
    mod = types.ModuleType("synthetic")

    def inner(ns):
        clock.now += ns

    def outer():
        clock.now += 10
        mod.inner(3)
        clock.now += 2
        mod.inner(4)

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_of_nested_calls():
    clock = ManualClock()
    mod = _synthetic(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "inner", "inner")
    mod.outer()
    clock.now += 100  # untraced time between calls
    mod.inner(5)

    totals = tracer.totals()
    assert totals["outer"].self_ns == 12  # 19 ns long, 7 ns inside inner
    assert totals["inner"].self_ns == 12 and totals["inner"].calls == 3
    # Self times of all spans add up to the time the root spans cover.
    assert sum(t.self_ns for t in totals.values()) == tracer.covered_ns() == 24


def test_rows_names_and_outcome_hooks():
    clock = ManualClock()
    mod = _synthetic(clock)
    seen = []
    tracer = Tracer(clock=clock)
    tracer.wrap(mod, "inner", lambda ns: f"inner.{ns}", rows=lambda ns: 2 * ns, after=lambda a, r, e: seen.append(a))
    mod.inner(3)
    mod.inner(3)
    assert tracer.totals()["inner.3"].rows == 12
    assert seen == [(3,), (3,)]


def test_class_methods_and_exceptions_close_spans():
    clock = ManualClock()

    class Solver:
        def solve(self, ns):
            clock.now += ns
            raise ValueError("bad system")

    errors = []
    tracer = Tracer(clock=clock)
    tracer.wrap(Solver, "solve", "solve", after=lambda a, r, e: errors.append(type(e).__name__))
    with pytest.raises(ValueError):
        Solver().solve(7)
    assert tracer.totals()["solve"].self_ns == 7
    assert errors == ["ValueError"]
    tracer.restore()
    assert "solve" in vars(Solver) and not hasattr(vars(Solver)["solve"], "__wrapped__")


def test_worker_thread_spans_never_nest_under_the_driver():
    tracer = Tracer()
    mod = _synthetic(ManualClock())
    tracer.wrap(mod, "inner", "worker")
    driver = tracer.begin("driver")
    worker = threading.Thread(target=mod.inner, args=(1,), name="pool-1")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end(driver)

    by_name = {s.name: s for s in tracer.spans}
    assert by_name["worker"].depth == 0 and by_name["worker"].thread == "pool-1"
    assert by_name["driver"].child_ns == 0
    assert by_name["driver"].self_ns == by_name["driver"].duration_ns


def test_every_layer_wrapper_is_restored():
    def snapshot():
        return {
            (name, getattr(owner, "__qualname__", name), attr): value
            for name, module in list(sys.modules.items())
            if name.startswith("repro")
            for owner in [module, *[v for v in vars(module).values() if isinstance(v, type)]]
            for attr, value in list(vars(owner).items())
            if callable(value)
        }

    before = snapshot()
    tracer = Tracer()
    layers.install(tracer, layers.LayerCounts())
    installed = tracer.wrapped
    assert len(installed) >= 25
    for owner, attr, original in installed:
        assert getattr(vars(owner)[attr], "__wrapped__", None) is original
    tracer.restore()
    assert tracer.wrapped == []
    for owner, attr, original in installed:
        assert vars(owner)[attr] is original
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_watchdog_abandons_a_unit_that_never_returns():
    import time

    release = threading.Event()
    watchdog = Watchdog(time.monotonic() + 60, unit_timeout=0.2)
    t0 = time.monotonic()
    with pytest.raises(UnitAbandoned):
        watchdog.call(release.wait)
    assert time.monotonic() - t0 < 5
    release.set()  # let the abandoned daemon thread finish
    # Whatever hung may still hold the system: no further unit starts.
    with pytest.raises(UnitAbandoned):
        watchdog.call(lambda: 42)
    healthy = Watchdog(time.monotonic() + 60)
    assert [healthy.call(lambda: 42)[0] for _ in range(2)] == [42, 42]
    unit_thread = healthy._thread
    healthy.close()
    assert not unit_thread.is_alive()
    with pytest.raises(UnitAbandoned):
        Watchdog(time.monotonic() - 1).call(lambda: 42)


def _run(workload: str, seed: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("workload", ["serve_mixed", "adi_aniso", "dist_long"])
def test_priced_clock_repeats_exactly_for_one_seed(workload):
    lines = []
    for _ in range(2):
        out = _run(workload, 7)
        assert out.returncode == 0, out.stdout + out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        (det,) = [line for line in out.stdout.splitlines() if line.startswith("determinism ")]
        lines.append(det)
    # priced_ms, switch points and program signatures, byte for byte.
    assert lines[0] == lines[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = _run("serve_mixed", 1, cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
