"""A worker fleet the autoscaler can grow and shrink at runtime.

``concurrent.futures.ThreadPoolExecutor`` fixes its size at
construction; the service needs a pool whose width tracks load.
:class:`ScalableWorkerFleet` is the minimal executor every
:class:`~repro.service.BatchSolveService` runs its merged solves on —
``submit`` / ``shutdown`` compatible, backed by a shared work queue and
N threads, plus :meth:`resize`:

- growing spawns threads immediately;
- shrinking enqueues poison pills, so busy workers finish their merged
  solve before retiring (no solve is ever interrupted).

Each worker models one device replica of the simulated backend — the
"worker/device fleet" the ROADMAP's autoscaling item names. The fleet
publishes its width as the ``repro_serve_fleet_workers`` gauge, the
signal the autoscaler's decisions are audited against.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Optional

from ..util.errors import ConfigurationError

__all__ = ["ScalableWorkerFleet"]

_POISON = object()


class ScalableWorkerFleet:
    """Thread fleet with runtime :meth:`resize`; executor-compatible."""

    def __init__(self, workers: int = 4, *, name: str = "repro-serve"):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._name = name
        self._work: "queue.SimpleQueue" = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads: "list[threading.Thread]" = []
        self._target = 0
        self._spawned = 0
        self._closed = False
        self._gauge = None
        self.resize(workers)

    def attach_metrics(self, registry) -> None:
        """Publish the live worker count as ``repro_serve_fleet_workers``."""
        with self._lock:
            self._gauge = registry.gauge(
                "repro_serve_fleet_workers",
                "Worker threads currently in the fleet.",
            )
            self._gauge.set(self._target)

    @property
    def size(self) -> int:
        """The fleet's target width (threads converge to it)."""
        with self._lock:
            return self._target

    def resize(self, workers: int) -> int:
        """Set the fleet width; returns the delta applied.

        Growth is immediate; shrink retires workers only between merged
        solves (poison pills drain in queue order).
        """
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        with self._lock:
            if self._closed:
                raise ConfigurationError("fleet is shut down")
            delta = workers - self._target
            self._target = workers
            if self._gauge is not None:
                self._gauge.set(workers)
            for _ in range(max(0, delta)):
                self._spawned += 1
                thread = threading.Thread(
                    target=self._run,
                    name=f"{self._name}-{self._spawned}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        for _ in range(max(0, -delta)):
            self._work.put(_POISON)
        return delta

    def submit(self, fn, *args, **kwargs) -> Future:
        """Queue one call; returns its :class:`Future`."""
        if self._closed:
            raise ConfigurationError("fleet is shut down")
        future: Future = Future()
        self._work.put((future, fn, args, kwargs))
        return future

    def _run(self) -> None:
        while True:
            item = self._work.get()
            if item is _POISON:
                return
            future, fn, args, kwargs = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # mirror Executor semantics
                future.set_exception(exc)

    def shutdown(self, wait: bool = True) -> None:
        """Retire every worker; idempotent."""
        with self._lock:
            if self._closed:
                threads = []
            else:
                self._closed = True
                threads = list(self._threads)
                for _ in range(self._target):
                    self._work.put(_POISON)
                self._target = 0
                if self._gauge is not None:
                    self._gauge.set(0)
        if wait:
            for thread in threads:
                thread.join()
