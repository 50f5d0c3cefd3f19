"""Tracing spans: nestable timed sections with a thread-safe collector.

A *span* marks one timed region of work — an experiment, a simulated layer,
one NoC drain — with a name, free-form attributes, wall-clock start time, and
a monotonic (``perf_counter``) duration.  Spans nest: entering a span makes it
the parent of any span opened on the same thread before it exits, so a trace
reconstructs the experiment → layer → drain call tree exactly.

Overhead policy
---------------
Tracing is **off by default** and :func:`span` then returns a shared no-op
context manager after a single module-flag check, so instrumented hot paths
pay one branch and no allocation.  ``tests/obs/test_disabled_telemetry.py``
holds that structurally: with tracing off, no :class:`Span` is ever built.

Usage::

    from repro import obs

    obs.enable_tracing()
    with obs.span("simulate.layer", layer="conv1") as sp:
        ...
        sp.set(comm_cycles=cycles)
    obs.get_collector().export_jsonl("trace.jsonl")

Records are plain dicts (``{"type": "span", "name": ..., "id": ...,
"parent": ..., "t_wall": ..., "dur_s": ..., "attrs": {...}}``) serialized one
per line; :func:`read_jsonl` loads them back.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "Span",
    "TraceCollector",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "get_collector",
    "read_jsonl",
    "write_jsonl",
]


class Span:
    """One live span; context-manager entry starts the clock, exit records it."""

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "t_wall", "dur_s", "_collector", "_t0",
    )

    def __init__(self, collector: "TraceCollector", name: str, attrs: dict[str, Any]) -> None:
        self._collector = collector
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: int | None = None
        self.t_wall = 0.0
        self.dur_s = 0.0
        self._t0 = 0

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (e.g. results known only at exit)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._collector._open(self)
        self.t_wall = time.time()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.dur_s = (time.perf_counter_ns() - self._t0) / 1e9
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._collector._close(self)
        return False

    def to_record(self) -> dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "thread": threading.current_thread().name,
            "t_wall": self.t_wall,
            "dur_s": self.dur_s,
            "attrs": self.attrs,
        }


class _NoopSpan:
    """Returned by :func:`span` when tracing is disabled; does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP = _NoopSpan()


class TraceCollector:
    """Thread-safe in-process store of finished span records.

    Nesting is tracked with a per-thread stack of open spans; finished spans
    are appended to a single lock-protected record list (children therefore
    appear before their parents, which closes later).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[dict[str, Any]] = []
        self._next_id = 0
        self._local = threading.local()

    # -- span lifecycle (called by Span) ------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if span in stack:  # tolerate out-of-order exits
            del stack[stack.index(span):]
        record = span.to_record()
        with self._lock:
            self._records.append(record)

    # -- cross-process merge -------------------------------------------------------

    def adopt_records(self, records: Iterable[dict[str, Any]], parent_id: int | None = None) -> None:
        """Merge span records produced by another collector (e.g. a worker
        process), remapping their ids into this collector's id space.

        Intra-batch parent/child links are preserved; spans that were roots in
        the source collector (or whose parent is missing from ``records``) are
        re-parented under ``parent_id``, so a worker's span tree hangs off the
        span that dispatched the work.
        """
        records = list(records)
        with self._lock:
            mapping = {rec["id"]: self._next_id + i for i, rec in enumerate(records)}
            self._next_id += len(records)
            for rec in records:
                adopted = dict(rec)
                adopted["id"] = mapping[rec["id"]]
                source_parent = rec.get("parent")
                adopted["parent"] = (
                    mapping.get(source_parent, parent_id)
                    if source_parent is not None
                    else parent_id
                )
                self._records.append(adopted)

    def current_span_id(self) -> int | None:
        """Id of the innermost open span on this thread (None outside spans)."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # -- access --------------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Snapshot copy of all finished span records."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def export_jsonl(self, path: str | Path) -> Path:
        """Write all finished spans to ``path``, one JSON record per line."""
        return write_jsonl(self.records(), path)


def write_jsonl(records: Iterable[dict[str, Any]], path: str | Path) -> Path:
    path = Path(path)
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, default=float) + "\n")
    return path


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace; blank lines are skipped."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# -- module-level tracing state --------------------------------------------------------

_enabled = False
_collector = TraceCollector()


def span(name: str, **attrs: Any) -> Span | _NoopSpan:
    """A context-managed span, or a shared no-op when tracing is disabled."""
    if not _enabled:
        return _NOOP
    return Span(_collector, name, attrs)


def enable_tracing(collector: TraceCollector | None = None) -> TraceCollector:
    """Turn span collection on (optionally into a caller-provided collector)."""
    global _enabled, _collector
    if collector is not None:
        _collector = collector
    _enabled = True
    return _collector


def disable_tracing() -> None:
    global _enabled
    _enabled = False


def tracing_enabled() -> bool:
    return _enabled


def get_collector() -> TraceCollector:
    return _collector
