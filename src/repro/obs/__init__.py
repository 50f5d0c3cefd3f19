"""``repro.obs`` — zero-dependency observability: tracing, metrics, NoC profiling.

Five cooperating pieces, all pure Python + numpy:

* :mod:`repro.obs.trace` — nestable :func:`span` context managers with a
  thread-safe collector and JSONL export (off by default, no-op when off);
* :mod:`repro.obs.metrics` — the always-on :data:`METRICS` registry of named
  counters/gauges/histograms with labeled dimensions, plus the repo's one
  nearest-rank :func:`percentile`;
* :mod:`repro.obs.nocprof` — per-link/per-router NoC flit profiling,
  accumulated post-drain so simulator hot loops stay untouched;
* :mod:`repro.obs.timeseries` — sim-time windowed serving telemetry
  (rolling percentiles, rates, queue depth, utilization, SLO burn);
* :mod:`repro.obs.chrometrace` — Chrome trace-event export of spans and
  serve timelines for https://ui.perfetto.dev.

:func:`export_trace` bundles the collected state into one JSONL file: span
records, then a ``{"type": "metrics"}`` snapshot, then one
``{"type": "timeseries"}`` record per serving run, then one
``{"type": "noc_profile"}`` record per mesh shape — the format
``scripts/report_trace.py`` summarizes and :func:`export_perfetto` converts.
"""

from __future__ import annotations

from pathlib import Path

from . import nocprof
from .chrometrace import chrome_trace_events, export_chrome_trace, validate_chrome_trace
from .metrics import METRICS, MetricsRegistry, percentile
from .nocprof import (
    NoCProfile,
    disable_noc_profiling,
    enable_noc_profiling,
    merge_profile_dict,
    noc_profiling_enabled,
)
from .timeseries import (
    ServeTimeSeries,
    adopt_timeseries,
    clear_timeseries,
    disable_timeseries,
    enable_timeseries,
    global_timeseries,
    start_series,
    timeseries_config,
    timeseries_enabled,
)
from .trace import (
    Span,
    TraceCollector,
    disable_tracing,
    enable_tracing,
    get_collector,
    read_jsonl,
    span,
    tracing_enabled,
    write_jsonl,
)
from .payload import begin_capture, end_capture, merge_payload

__all__ = [
    "span",
    "Span",
    "TraceCollector",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "get_collector",
    "read_jsonl",
    "write_jsonl",
    "METRICS",
    "MetricsRegistry",
    "percentile",
    "NoCProfile",
    "enable_noc_profiling",
    "disable_noc_profiling",
    "noc_profiling_enabled",
    "merge_profile_dict",
    "ServeTimeSeries",
    "enable_timeseries",
    "disable_timeseries",
    "timeseries_enabled",
    "timeseries_config",
    "start_series",
    "global_timeseries",
    "clear_timeseries",
    "adopt_timeseries",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "begin_capture",
    "end_capture",
    "merge_payload",
    "export_trace",
    "export_perfetto",
]


def _bundle_records() -> list[dict]:
    """Everything collected so far, in the canonical bundle order."""
    records = get_collector().records()
    records.append({"type": "metrics", "snapshot": METRICS.snapshot()})
    records.extend(global_timeseries())
    for profile in nocprof.global_profiles():
        records.append({"type": "noc_profile", **profile.to_dict()})
    return records


def export_trace(path: str | Path) -> Path:
    """Write spans + metrics snapshot + time-series + NoC profiles as JSONL."""
    return write_jsonl(_bundle_records(), path)


def export_perfetto(path: str | Path) -> Path:
    """Write the collected state as a Chrome trace for ui.perfetto.dev."""
    return export_chrome_trace(_bundle_records(), path)
