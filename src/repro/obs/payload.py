"""Cross-process observability payloads: worker-side capture, parent-side merge.

One ``pmap`` task's observability delta travels as a plain dict::

    {"metrics": <MetricsRegistry.snapshot()>,
     "spans": [<span record>, ...],
     "timeseries": [<ServeTimeSeries.to_dict()>, ...],
     "noc_profiles": [<NoCProfile.to_dict()>, ...]}

:func:`begin_capture` resets the worker's process-global state so the
payload is exactly one task's delta — this matters twice over for **warm**
pool workers, which outlive both the task and the ``pmap`` call that
dispatched it: fork-inherited parent state and every previous task's state
must be cleared, and a worker left tracing by a ``--trace`` run must stop
tracing when a later untraced run reuses it.

:func:`merge_payload` folds a payload into the parent's registries **in
input order** — counters add, histogram extrema combine, span ids are
remapped and root spans re-parent under the dispatching ``pmap`` span,
serve time-series append in collection order, NoC profiles accumulate per
mesh shape — so a parallel run's trace and metrics are byte-identical to
the serial run's for deterministic workloads.
"""

from __future__ import annotations

from . import nocprof, timeseries
from .metrics import METRICS
from .nocprof import merge_profile_dict
from .trace import TraceCollector, disable_tracing, enable_tracing, get_collector

__all__ = ["begin_capture", "end_capture", "merge_payload"]


def begin_capture(
    tracing: bool, profiling: bool, ts_config: dict | None = None
) -> TraceCollector | None:
    """Reset worker-global obs state ahead of one task; returns the task's
    fresh collector when tracing, else None (tracing explicitly disabled).

    ``ts_config`` is the parent's :func:`~repro.obs.timeseries
    .timeseries_config` when time-series collection is on (its window
    width) and None when it is off — workers must mirror the parent's
    collection state, not inherit whatever a previous task left enabled.
    """
    METRICS.reset()
    nocprof.clear_profiles()
    timeseries.clear_timeseries()
    collector: TraceCollector | None = None
    if tracing:
        collector = enable_tracing(TraceCollector())
    else:
        disable_tracing()
    if profiling:
        nocprof.enable_noc_profiling()
    else:
        nocprof.disable_noc_profiling()
    if ts_config is not None:
        timeseries.enable_timeseries(**ts_config)
    else:
        timeseries.disable_timeseries()
    return collector


def end_capture(collector: TraceCollector | None) -> dict:
    """Snapshot the task's observability delta into a picklable payload."""
    return {
        "metrics": METRICS.snapshot(),
        "spans": collector.records() if collector is not None else [],
        "timeseries": timeseries.global_timeseries(),
        "noc_profiles": [p.to_dict() for p in nocprof.global_profiles()],
    }


def merge_payload(payload: dict, parent_span_id: int | None = None) -> None:
    """Fold one worker payload into this process's registries (in call order)."""
    METRICS.merge_snapshot(payload["metrics"])
    if payload["spans"]:
        get_collector().adopt_records(payload["spans"], parent_id=parent_span_id)
    for record in payload.get("timeseries", []):
        timeseries.adopt_timeseries(record)
    for profile in payload["noc_profiles"]:
        merge_profile_dict(profile)
