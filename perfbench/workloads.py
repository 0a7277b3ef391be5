"""The three workloads: seeded inputs, set-up, timed phases, correctness gate.

Each workload drives the program only through its public API. Every
answer is checked against an independent reference *outside* the timed
intervals; a wrong answer, a typed error and a unit abandoned at the
watchdog all count as failures.
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time
from concurrent.futures import wait as wait_futures
from typing import Callable, Dict, List, Optional

import numpy as np
from repro.algorithms.lu import scipy_banded_solve
from repro.apps.adi import AdiDiffusion2D
from repro.core.planner import plan_solve
from repro.core.solver import MultiStageSolver
from repro.core.tuning import TuningCache
from repro.dist import DistributedSolver
from repro.ir.instructions import signature_text
from repro.kernels import dtype_size
from repro.service import BatchSolveService
from repro.systems import generators
from repro.util.errors import ReproError

import spec


class UnitAbandoned(Exception):
    """A unit overran its watchdog bound and was left running."""


class Watchdog:
    """Runs units on one daemon thread and abandons one that never returns.

    All units share the thread, so they allocate from one malloc arena and
    the process's peak memory does not depend on which arena a fresh
    thread happened to get. The workload as a whole is bounded too: once
    ``deadline`` (a ``time.monotonic`` value) has passed, or once a unit
    has been abandoned (whatever hung may hold the system), no further
    unit starts.
    """

    def __init__(self, deadline: float, unit_timeout: float = spec.UNIT_TIMEOUT_S):
        self.deadline = deadline
        self.unit_timeout = unit_timeout
        self.tripped = False
        self._jobs: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None

    def remaining(self) -> float:
        """Seconds the next unit may take; 0 when no unit may start."""
        if self.tripped:
            return 0.0
        return max(0.0, min(self.unit_timeout, self.deadline - time.monotonic()))

    def _serve(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            fn, box, done = job
            t0 = time.perf_counter()
            try:
                box["value"] = fn()
            except BaseException as exc:  # handed to the caller
                box["error"] = exc
            box["seconds"] = time.perf_counter() - t0
            done.set()

    def call(self, fn: Callable):
        """``fn()`` on the unit thread; returns ``(value, seconds)``.

        The time is taken on the unit thread around ``fn``.
        """
        timeout = self.remaining()
        if timeout <= 0:
            raise UnitAbandoned("the workload bound passed or an earlier unit hung")
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve, name="perfbench-unit", daemon=True)
            self._thread.start()
        box: Dict[str, object] = {}
        done = threading.Event()
        self._jobs.put((fn, box, done))
        if not done.wait(timeout):
            self.tripped = True
            raise UnitAbandoned(f"unit did not return within {timeout:.1f} s")
        if "error" in box:
            raise box["error"]
        return box["value"], box["seconds"]

    def close(self) -> None:
        """Stop the unit thread and wait for it, unless a unit hung on it."""
        if self._thread is not None and not self.tripped:
            self._jobs.put(None)
            self._thread.join()
        self._thread = None


class Tally:
    """Units attempted and how each failure happened."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.errors = 0
        self.abandoned = 0
        self.notes: List[str] = []

    @property
    def failed(self) -> int:
        return self.wrong + self.errors + self.abandoned

    def note(self, kind: str, text: str) -> None:
        setattr(self, kind, getattr(self, kind) + 1)
        if len(self.notes) < 5:
            self.notes.append(f"{kind}: {text}")


class Phase:
    """What one timed pass measured."""

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []  # one per unit answered
        self.slo_met = 0
        self.slo_sent = 0
        self.priced_ms = 0.0
        self.late_ms: List[float] = []  # open-loop generator lateness
        self.wall_ns = 0  # time covered by the timed intervals
        # Per closed-loop window (serve_mixed) or per unit: wall time and
        # verified rows. The same order on every pass over one seed, so the
        # traced pass can compare its median with the plain one.
        self.unit_ns: List[int] = []
        self.unit_rows: List[int] = []


def digest(*parts) -> str:
    return hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest()[:16]


# -- serve_mixed ------------------------------------------------------------------


class ServeMixed:
    """Serving traffic through ``BatchSolveService``: closed loop, then paced."""

    name = "serve_mixed"
    setups = spec.SERVE_SETUPS

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        self.pool = generators.mixed_requests(spec.SERVE_POOL, rng=rng)
        governed = rng.random(spec.SERVE_POOL) < spec.SERVE_GOVERNED_SHARE
        self.tolerances = [
            spec.SERVE_TOLERANCE[str(b.dtype)] if g else None for b, g in zip(self.pool, governed)
        ]
        self.units = max(1, round(seconds * spec.SERVE_WINDOWS_PER_SECOND))  # closed-loop windows
        self.paced = max(1, round(seconds * spec.SERVE_PACED_SHARE * spec.SERVE_RATE_PER_S))
        self.references: Optional[List[np.ndarray]] = None
        self.bad_references: set = set()

    def setup(self, executor=None):
        service = BatchSolveService(
            spec.DEVICE, "static", cache=TuningCache(), max_workers=1, executor=executor
        )
        for dtype in (np.float32, np.float64):
            service.switch_points_for(spec.DEVICE, dtype)
        future = service.submit(self.pool[0], tolerance=self.tolerances[0])
        service.flush()
        future.result(timeout=spec.UNIT_TIMEOUT_S)
        service.drain()
        return service

    def close(self, service) -> None:
        service.close()

    def prepare(self, service) -> None:
        """Standalone answers, from solvers built with the service's switch points."""
        if self.references is not None:
            return
        solvers = {
            dtype: MultiStageSolver(spec.DEVICE, service.switch_points_for(spec.DEVICE, dtype))
            for dtype in (np.float32, np.float64)
        }
        self.references = [
            solvers[b.dtype.type].solve(b, tolerance=tol).x for b, tol in zip(self.pool, self.tolerances)
        ]
        # Bit-identity catches merging faults but not a numerics fault both
        # sides share, so each reference must also meet its dtype's bound.
        self.bad_references = {
            i
            for i, (b, x) in enumerate(zip(self.pool, self.references))
            if not float(b.residual(x).max()) <= spec.SERVE_TOLERANCE[str(b.dtype)]
        }

    def _check(self, index: int, result, tally: Tally) -> bool:
        if index in self.bad_references:
            tally.note("wrong", f"request {index}: the standalone solve misses the residual bound")
            return False
        if np.array_equal(result.x, self.references[index]):
            return True
        tally.note("wrong", f"request {index} differs from the standalone solve")
        return False

    @staticmethod
    def _collect(sent, watchdog: Watchdog, tally: Tally) -> list:
        """``(*key, result)`` for every ``(*key, future)`` answered in time.

        One wait, bounded by the watchdog, covers them all; a request still
        unanswered after it is abandoned, one that raised a typed error failed.
        """
        wait_futures([entry[-1] for entry in sent], timeout=watchdog.remaining())
        results = []
        for *key, future in sent:
            if not future.done():
                watchdog.tripped = True
                tally.note("abandoned", "no answer within the watchdog bound")
                continue
            try:
                results.append((*key, future.result()))
            except ReproError as exc:
                tally.note("errors", f"{type(exc).__name__}: {exc}")
        return results

    def run(self, service, share: float, tally: Tally, watchdog: Watchdog, between=None) -> Phase:
        phase = Phase()
        pool, tol = self.pool, self.tolerances
        size = len(pool)
        # Closed loop: fixed-count windows, so grouping and the priced
        # total depend only on the seed.
        windows = max(1, round(self.units * share))
        for w in range(windows):
            if watchdog.remaining() <= 0:
                left = (windows - w) * spec.SERVE_WINDOW
                tally.attempted += left
                tally.note("abandoned", f"{left} closed-loop requests not sent: bound passed or a unit hung")
                tally.abandoned += left - 1
                break
            picks = [(w * spec.SERVE_WINDOW + i) % size for i in range(spec.SERVE_WINDOW)]
            tally.attempted += len(picks)
            answers = []
            t0 = time.perf_counter_ns()
            for i in picks:
                try:
                    answers.append((i, service.submit(pool[i], tolerance=tol[i])))
                except ReproError as exc:
                    tally.note("errors", f"submit: {type(exc).__name__}: {exc}")
            service.flush()
            # One wait for the whole window: waking on every answer would
            # make the caller compete with the pool thread for the
            # interpreter lock.
            results = self._collect(answers, watchdog, tally)
            t1 = time.perf_counter_ns()
            if not tally.abandoned:  # drain would wait on a group that never returns
                service.drain()
            phase.wall_ns += t1 - t0
            phase.unit_ns.append(t1 - t0)
            seen = set()
            rows = 0
            for i, result in results:
                if id(result.report) not in seen:
                    seen.add(id(result.report))
                    phase.priced_ms += result.report.total_ms
                if self._check(i, result, tally):
                    rows += pool[i].num_systems * pool[i].system_size
            phase.unit_rows.append(rows)
            if between is not None:
                between(w, windows)
        self._paced(service, share, tally, watchdog, phase)
        return phase

    def _paced(self, service, share: float, tally: Tally, watchdog: Watchdog, phase: Phase) -> None:
        """Open loop: send on schedule, flush on a fixed window, time from due."""
        count = max(1, round(self.paced * share))
        interval = 1.0 / spec.SERVE_RATE_PER_S
        window = spec.SERVE_FLUSH_WINDOW_MS / 1e3
        offset = (self.units * spec.SERVE_WINDOW) % len(self.pool)
        done_at: Dict[int, float] = {}
        sent = []
        start = time.perf_counter() + 0.005
        next_flush = start + window
        for k in range(count):
            due = start + k * interval
            while True:
                now = time.perf_counter()
                if next_flush <= now:
                    service.flush()
                    next_flush += window
                    continue
                if now >= due:
                    break
                time.sleep(min(due, next_flush) - now)
            if watchdog.remaining() <= 0:
                tally.attempted += count - k
                tally.note("abandoned", f"{count - k} paced requests not sent: bound passed or a unit hung")
                tally.abandoned += count - k - 1
                break
            phase.late_ms.append((time.perf_counter() - due) * 1e3)
            i = (offset + k) % len(self.pool)
            tally.attempted += 1
            try:
                future = service.submit(self.pool[i], tolerance=self.tolerances[i])
            except ReproError as exc:
                tally.note("errors", f"submit: {type(exc).__name__}: {exc}")
                continue
            future.add_done_callback(lambda _f, k=k: done_at.__setitem__(k, time.perf_counter()))
            sent.append((k, i, due, future))
        time.sleep(max(0.0, next_flush - time.perf_counter()))
        service.flush()
        results = self._collect(sent, watchdog, tally)
        end = time.perf_counter()
        if not tally.abandoned:  # drain would wait on a group that never returns
            service.drain()
        phase.wall_ns += int((end - start) * 1e9)
        phase.slo_sent += count
        for k, i, due, result in results:
            if not self._check(i, result, tally):
                continue
            latency = (done_at[k] - due) * 1e3
            phase.latencies_ms.append(latency)
            if latency <= spec.LATENCY_LIMIT_MS[self.name]:
                phase.slo_met += 1

    def determinism(self, service) -> Dict[str, str]:
        switch = {str(np.dtype(d)): service.switch_points_for(spec.DEVICE, d) for d in (np.float32, np.float64)}
        sigs = set()
        for batch in self.pool:
            plan = service.plan_for(batch, spec.DEVICE)
            sigs.add(signature_text(plan.lower(service.default_device, dtype_size(batch.dtype)).signature))
        return {"switch_points": digest(sorted(switch.items())), "signatures": digest(sorted(sigs))}


# -- adi_aniso --------------------------------------------------------------------


class AdiAniso:
    """Peaceman-Rachford ADI on a 16 x ~65536 grid, stepped from a sine mode."""

    name = "adi_aniso"
    setups = spec.ADI_SETUPS

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        ny = spec.ADI_SHORT
        nx = spec.ADI_LONG - int(rng.integers(1, spec.ADI_LONG_JITTER + 1))
        self.shape = (ny, nx)
        self.kx = int(rng.integers(1, 4))
        amplitude = float(rng.uniform(0.5, 2.0))
        y = np.arange(1, ny + 1)[:, None]
        x = np.arange(1, nx + 1)[None, :]
        self.u0 = amplitude * np.sin(np.pi * y / (ny + 1)) * np.sin(self.kx * np.pi * x / (nx + 1))
        self.units = max(1, round(seconds * spec.ADI_STEPS_PER_SECOND))

    def setup(self, executor=None):
        adi = AdiDiffusion2D(self.shape, dt=spec.ADI_DT, solver=MultiStageSolver(spec.DEVICE, "dynamic"))
        return {"adi": adi, "u": adi.step(self.u0), "t": spec.ADI_DT}

    def close(self, state) -> None:
        state.clear()

    def prepare(self, state) -> None:
        pass

    def _check(self, adi, u: np.ndarray, t: float, tally: Tally) -> bool:
        expected = adi.analytic_mode_decay(self.kx, 1, t) * self.u0
        err = float(np.linalg.norm(u - expected) / np.linalg.norm(expected))
        if np.isfinite(err) and err <= spec.ADI_BOUND:
            return True
        tally.note("wrong", f"t={t:.2f}: distance {err:.3e} from the analytic decay exceeds {spec.ADI_BOUND:g}")
        return False

    def run(self, state, share: float, tally: Tally, watchdog: Watchdog, between=None) -> Phase:
        phase = Phase()
        adi = state["adi"]
        ny, nx = self.shape
        steps = max(1, round(self.units * share))
        for k in range(steps):
            tally.attempted += 1
            priced_before = adi.report.simulated_ms
            try:
                u, seconds = watchdog.call(lambda: adi.step(state["u"]))
            except (UnitAbandoned, ReproError) as exc:
                # Each step needs the field the failed one did not return:
                # the steps left count as abandoned.
                kind = "abandoned" if isinstance(exc, UnitAbandoned) else "errors"
                tally.note(kind, f"{type(exc).__name__}: {exc}")
                tally.attempted += steps - k - 1
                tally.abandoned += steps - k - 1
                break
            phase.wall_ns += int(seconds * 1e9)
            phase.unit_ns.append(int(seconds * 1e9))
            phase.priced_ms += adi.report.simulated_ms - priced_before
            state["u"] = u
            state["t"] += adi.dt
            ok = self._check(adi, u, state["t"], tally)
            phase.unit_rows.append(2 * ny * nx if ok else 0)
            if ok:
                phase.latencies_ms.append(seconds * 1e3)
                phase.slo_met += seconds * 1e3 <= spec.LATENCY_LIMIT_MS[self.name]
            if between is not None:
                between(k, steps)
        phase.slo_sent = steps
        return phase

    def determinism(self, state) -> Dict[str, str]:
        solver = state["adi"].solver
        ny, nx = self.shape
        switch, sigs = [], []
        for m, n in ((ny, nx), (nx, ny)):
            points = solver.switch_points_for(m, n, 8)
            plan = plan_solve(solver.device, m, n, 8, points)
            switch.append(points)
            sigs.append(signature_text(plan.lower(solver.device, 8).signature))
        return {"switch_points": digest(switch), "signatures": digest(sigs)}


# -- dist_long --------------------------------------------------------------------


class DistLong:
    """One ~2**20-row f64 system across four simulated devices, governed."""

    name = "dist_long"
    setups = spec.DIST_SETUPS

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng(seed)
        n = spec.DIST_LONG - int(rng.integers(1, spec.DIST_LONG_JITTER + 1))
        self.systems = [generators.random_dominant(1, n, rng=rng) for _ in range(spec.DIST_SYSTEMS)]
        self.units = max(1, round(seconds * spec.DIST_SOLVES_PER_SECOND))
        self.references: Optional[List[np.ndarray]] = None
        self.plans = set()  # the plans the timed solves ran

    def setup(self, executor=None):
        solver = DistributedSolver(spec.DIST_DEVICES, "static", cache=TuningCache())
        solver.solve(self.systems[0], tolerance=spec.DIST_TOLERANCE)
        return solver

    def close(self, solver) -> None:
        pass

    def prepare(self, solver) -> None:
        if self.references is None:
            self.references = [scipy_banded_solve(b) for b in self.systems]

    def _check(self, index: int, x: np.ndarray, tally: Tally) -> bool:
        batch, ref = self.systems[index], self.references[index]
        residual = float(batch.residual(x).max())
        agreement = float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))
        if residual <= spec.DIST_TOLERANCE and agreement <= spec.DIST_AGREEMENT:
            return True
        tally.note(
            "wrong",
            f"system {index}: residual {residual:.3e} (limit {spec.DIST_TOLERANCE:g}), "
            f"distance from scipy {agreement:.3e} (limit {spec.DIST_AGREEMENT:g})",
        )
        return False

    def run(self, solver, share: float, tally: Tally, watchdog: Watchdog, between=None) -> Phase:
        phase = Phase()
        count = max(1, round(self.units * share))
        for k in range(count):
            index = k % len(self.systems)
            batch = self.systems[index]
            tally.attempted += 1
            try:
                result, seconds = watchdog.call(lambda: solver.solve(batch, tolerance=spec.DIST_TOLERANCE))
            except UnitAbandoned as exc:
                tally.note("abandoned", str(exc))
                continue
            except ReproError as exc:
                tally.note("errors", f"{type(exc).__name__}: {exc}")
                continue
            phase.wall_ns += int(seconds * 1e9)
            phase.unit_ns.append(int(seconds * 1e9))
            phase.priced_ms += result.report.total_ms
            self.plans.add(result.plan)
            ok = self._check(index, result.x, tally)
            phase.unit_rows.append(batch.num_systems * batch.system_size if ok else 0)
            if ok:
                phase.latencies_ms.append(seconds * 1e3)
                phase.slo_met += seconds * 1e3 <= spec.LATENCY_LIMIT_MS[self.name]
            if between is not None:
                between(k, count)
        phase.slo_sent = count
        return phase

    def determinism(self, solver) -> Dict[str, str]:
        sigs = sorted(f"{p.mode} {signature_text(solver.lower(p, 8).signature)}" for p in self.plans)
        return {"switch_points": digest(solver.switch_points_for(8)), "signatures": digest(sigs)}


WORKLOADS = {cls.name: cls for cls in (ServeMixed, AdiAniso, DistLong)}
