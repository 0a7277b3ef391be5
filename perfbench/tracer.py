"""Outside-in span tracer: times calls into the program's public functions.

The tracer never edits the program. It replaces a function at the name its
caller looks up (a module attribute or a class attribute) with a wrapper
that opens a span, calls the original and closes the span, and it puts
every original back on :meth:`Tracer.restore`.

Spans nest per thread: each thread keeps its own stack, so a span opened
on a worker thread is never a child of a span the driver thread holds
open. A span's *self time* is its duration minus the durations of its
direct children on the same thread; because children of one span run one
after another on that thread, the children's durations are exactly the
part of the parent's interval they cover.

Spans stay in memory until :meth:`Tracer.write` dumps them once.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer", "LayerTotal"]


class Span:
    """One timed call. Times are integer nanoseconds of the tracer's clock."""

    __slots__ = ("name", "thread", "depth", "start", "end", "child_ns", "rows")

    def __init__(self, name: str, thread: str, depth: int, start: int, rows: int):
        self.name = name
        self.thread = thread
        self.depth = depth
        self.start = start
        self.end = start
        self.child_ns = 0
        self.rows = rows

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class LayerTotal:
    """Self time, call count and rows of every span with one name."""

    __slots__ = ("self_ns", "calls", "rows")

    def __init__(self) -> None:
        self.self_ns = 0
        self.calls = 0
        self.rows = 0


class Tracer:
    """Records spans around wrapped functions; restores them afterwards."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self.enabled = True
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.current_thread().name
        return stack

    def begin(self, name: str, rows: int = 0) -> Span:
        """Open a span on the calling thread's stack."""
        stack = self._stack()
        span = Span(name, self._local.thread, len(stack), self.clock(), rows)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span``, which must be the innermost open span of this thread."""
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if stack:
            stack[-1].child_ns += span.end - span.start
        self.spans.append(span)

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name,
        *,
        rows: Optional[Callable[..., int]] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a module or a class that defines ``attr`` itself.
        ``name`` is the span name, or a function of the call's arguments
        that returns it; ``rows(*args, **kwargs)`` gives the rows the call
        works on. ``after(args, result, exc)`` runs once the span is
        closed, with the result or the exception the call raised.
        """
        raw = vars(owner).get(attr)
        if not callable(raw) or isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return raw(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            span = tracer.begin(label, rows(*args, **kwargs) if rows else 0)
            try:
                result = raw(*args, **kwargs)
            except BaseException as exc:
                tracer.end(span)
                if after is not None:
                    after(args, None, exc)
                raise
            tracer.end(span)
            if after is not None:
                after(args, result, None)
            return result

        wrapper.__wrapped__ = raw
        wrapper.__name__ = getattr(raw, "__name__", attr)
        wrapper.__qualname__ = getattr(raw, "__qualname__", attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @property
    def wrapped(self) -> List[Tuple[object, str, object]]:
        """``(owner, attr, original)`` for every wrapper still installed."""
        return list(self._patches)

    # -- arithmetic ----------------------------------------------------------

    def totals(self) -> Dict[str, LayerTotal]:
        """Per-name self time, calls and rows over every closed span."""
        out: Dict[str, LayerTotal] = {}
        for span in self.spans:
            total = out.get(span.name)
            if total is None:
                total = out[span.name] = LayerTotal()
            total.self_ns += span.self_ns
            total.calls += 1
            total.rows += span.rows
        return out

    def covered_ns(self, skip_thread_prefix: str = "") -> int:
        """Time covered by root spans (depth 0), summed over threads.

        Threads whose name starts with ``skip_thread_prefix`` (when given)
        are left out.
        """
        return sum(
            s.duration_ns
            for s in self.spans
            if s.depth == 0 and not (skip_thread_prefix and s.thread.startswith(skip_thread_prefix))
        )

    def write(self, path: str, meta: dict) -> None:
        """Dump ``meta`` and every span as JSON, once, at the end of a run."""
        spans = [
            [s.name, s.thread, s.depth, s.start, s.end, s.self_ns, s.rows]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "columns": ["name", "thread", "depth", "start_ns", "end_ns", "self_ns", "rows"],
                    "spans": spans,
                },
                fh,
            )
