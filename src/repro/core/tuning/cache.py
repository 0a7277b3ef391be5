"""Persistence for tuned switch points ("save those results for future
runs", paper §IV-D).

Results are keyed by ``(device name, dtype size)`` — the axes that change
the answers — and stored as plain JSON so they survive across processes
and are human-inspectable. A cache without a path is memory-only.

The cache is thread-safe: the batched solve service resolves switch
points from many worker threads at once, so every read-modify-write on
the store (and every disk load/save) happens under one reentrant lock.
:meth:`get_or_tune` is the concurrent fast path — a hit costs one lock
acquisition; on a miss the (expensive) tuning callable runs outside the
lock and the first finisher's result wins, so every caller observes the
same switch points.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Callable, Dict, Optional, Tuple, Union

from ...util.errors import TuningError
from ..config import SwitchPoints

__all__ = ["TuningCache", "WorkloadClass"]

#: A cache workload class: a plain string, or a structured tuple
#: (canonicalised via :func:`repro.ir.instructions.signature_text`).
WorkloadClass = Union[str, Tuple]

_FORMAT_VERSION = 1


class TuningCache:
    """In-memory + optional on-disk store of tuned :class:`SwitchPoints`."""

    def __init__(self, path: Union[str, os.PathLike, None] = None):
        self.path = os.fspath(path) if path is not None else None
        self._store: Dict[str, dict] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._metric = None
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def attach_metrics(self, registry) -> None:
        """Mirror lookups into an :class:`~repro.obs.MetricsRegistry` as
        ``repro_tuning_cache_lookups_total{result=hit|miss}``. Lookups
        counted before attachment are replayed.
        """
        counter = registry.counter(
            "repro_tuning_cache_lookups_total",
            "Tuning-cache lookups, by result.",
        )
        with self._lock:
            self._metric = counter
            if self._hits:
                counter.inc(self._hits, result="hit")
            if self._misses:
                counter.inc(self._misses, result="miss")

    @staticmethod
    def key(
        device_name: str,
        dtype_size: int,
        workload_class: WorkloadClass = "generic",
    ) -> str:
        """Stable cache key for a device/precision/workload-class triple.

        The self-tuner keys its results by the workload class it tuned
        for ("a typical self-tuning run for a particular system and GPU",
        paper §IV-D); ``generic`` covers shape-oblivious tuning. The
        class may be a plain string or a structured tuple (e.g. one
        containing a lowered :attr:`repro.ir.Program.signature`), which
        is canonicalised to stable text so keys survive the JSON
        round-trip of a persistent cache.
        """
        if not isinstance(workload_class, str):
            from ...ir.instructions import signature_text

            workload_class = signature_text(tuple(workload_class))
        return f"{device_name}|dsize={dtype_size}|{workload_class}"

    def _peek(
        self, device_name: str, dtype_size: int, workload_class: WorkloadClass
    ) -> Optional[SwitchPoints]:
        # Lookup without touching the hit/miss counters (used by the
        # double-check under the lock in get_or_tune, which has already
        # counted the initial miss).
        with self._lock:
            entry = self._store.get(
                self.key(device_name, dtype_size, workload_class)
            )
        if entry is None:
            return None
        try:
            return SwitchPoints(**entry)
        except TypeError:
            # Persisted by a different SwitchPoints schema (field added
            # or removed since): a stale entry is a miss, not a crash —
            # the caller re-tunes and overwrites it.
            return None

    def get(
        self,
        device_name: str,
        dtype_size: int,
        workload_class: WorkloadClass = "generic",
    ) -> Optional[SwitchPoints]:
        """Cached switch points, or ``None``. Counts one hit or miss."""
        found = self._peek(device_name, dtype_size, workload_class)
        with self._lock:
            if found is None:
                self._misses += 1
            else:
                self._hits += 1
            metric = self._metric
        if metric is not None:
            metric.inc(result="hit" if found is not None else "miss")
        return found

    def put(
        self,
        device_name: str,
        dtype_size: int,
        switch: SwitchPoints,
        workload_class: WorkloadClass = "generic",
    ) -> None:
        """Store switch points and persist when a path is configured."""
        with self._lock:
            self._store[self.key(device_name, dtype_size, workload_class)] = {
                "stage1_target_systems": switch.stage1_target_systems,
                "stage3_system_size": switch.stage3_system_size,
                "thomas_switch": switch.thomas_switch,
                "base_variant": switch.base_variant,
                "variant_crossover_stride": switch.variant_crossover_stride,
                "source": switch.source,
            }
            if self.path is not None:
                self._save()

    def get_or_tune(
        self,
        device_name: str,
        dtype_size: int,
        tune: Callable[[], SwitchPoints],
        workload_class: WorkloadClass = "generic",
    ) -> SwitchPoints:
        """Cached switch points, tuning (and storing) on first miss.

        ``tune`` runs *outside* the lock — a full self-tune prices dozens
        of configurations and must not stall concurrent readers. When
        several threads miss the same key at once each runs ``tune``, but
        only the first finisher's result is stored; later finishers
        discard their own result and return the stored one, so every
        caller agrees on the switch points in use.
        """
        cached = self.get(device_name, dtype_size, workload_class)
        if cached is not None:
            return cached
        tuned = tune()
        with self._lock:
            cached = self._peek(device_name, dtype_size, workload_class)
            if cached is not None:
                return cached
            self.put(device_name, dtype_size, tuned, workload_class)
        return tuned

    def counters(self) -> Dict[str, int]:
        """Lifetime lookup counters: hits, misses, and current entries.

        One ``get``/``get_or_tune`` call counts exactly one hit or miss
        (the tune-then-recheck path does not double-count), so
        ``hits / (hits + misses)`` is the fraction of lookups served
        without re-tuning.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "entries": len(self._store),
            }

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (entries are untouched)."""
        with self._lock:
            self._hits = 0
            self._misses = 0

    def clear(self) -> None:
        """Drop every entry (and the on-disk file's contents)."""
        with self._lock:
            self._store.clear()
            if self.path is not None:
                self._save()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    # -- disk ----------------------------------------------------------------

    def _save(self) -> None:
        # Callers hold the lock; write-to-temp + atomic rename keeps the
        # on-disk file consistent even across processes.
        payload = {"version": _FORMAT_VERSION, "entries": self._store}
        tmp = f"{self.path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.path)

    def _load(self) -> None:
        with self._lock:
            with open(self.path, encoding="utf-8") as fh:
                text = fh.read()
            if not text.strip():
                # An empty (e.g. freshly-touched) file is an empty cache.
                self._store = {}
                return
            payload = json.loads(text)
            if payload.get("version") != _FORMAT_VERSION:
                raise TuningError(
                    f"tuning cache {self.path} has unsupported version "
                    f"{payload.get('version')!r}"
                )
            self._store = dict(payload.get("entries", {}))
