"""``pmap``: run a map serially, or one task per item on the warm pool.

The worker count is the ``workers=`` argument (``None`` means 1, serial).
Inside a worker process the answer is always 1, so nested ``pmap`` calls
degrade to the serial path instead of spawning pools-of-pools.

Dispatch is decided **here**, once per call — call sites never measure or
guess.  A call runs serially when any of these hold (first match is the
recorded reason):

==============  ========================================================
reason          condition
==============  ========================================================
``nested``      already inside a worker process (no metric recorded)
``single_item`` at most one item (nothing to shard)
``cpu_clamp``   requested workers exceed ``os.cpu_count()`` and the
                clamp leaves 1 (parallelism would oversubscribe)
``workers``     effective worker count resolves to 1
``unpicklable`` the callable or first item cannot be pickled
==============  ========================================================

Otherwise every item becomes one task on the persistent warm pool
(:mod:`repro.parallel.warmpool`), sized at the call's effective worker
count.  Either way the decision lands in
``parallel.dispatch{path=serial|pool}``, and a serial decision also in
``parallel.dispatch.serial{reason=}``.

Each task runs through :func:`_run_task`, which isolates the child's
observability state and returns ``(result, obs_payload)``; the parent folds
every payload back into the process-global collector/registry **in input
order**, so merged metrics and traces are byte-identical to a serial run's
for deterministic workloads.
"""

from __future__ import annotations

import os
import pickle
import warnings
from typing import Any, Callable, Iterable, TypeVar

from ..obs import (
    METRICS,
    begin_capture,
    end_capture,
    get_collector,
    merge_payload,
    noc_profiling_enabled,
    span,
    timeseries_config,
    timeseries_enabled,
    tracing_enabled,
)
from . import warmpool
from .warmpool import in_worker

__all__ = ["pmap", "resolve_workers", "in_worker"]

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None) -> int:
    """Effective worker count: the ``workers`` argument, or 1 when ``None``.

    Always 1 inside a worker process — an outer pmap owns the pool.  The
    result is clamped to ``os.cpu_count()``: oversubscribing cores is a net
    slowdown for these CPU-bound tasks (2 workers on a 1-CPU box measured
    12% *slower* than serial), so asking for more warns and runs with one
    worker per core instead.
    """
    if in_worker():
        return 1
    requested = max(1, int(workers or 1))
    cpus = os.cpu_count() or 1
    if requested > cpus:
        warnings.warn(
            f"requested {requested} workers but only {cpus} CPU(s) are "
            f"available; clamping to {cpus} to avoid oversubscription",
            RuntimeWarning,
            stacklevel=2,
        )
        return cpus
    return requested


def _run_task(
    payload: tuple[Callable[[Any], Any], Any, bool, bool, dict | None]
) -> tuple[Any, dict]:
    """Child-side wrapper: run one task with isolated observability state.

    The child's registry/collector/profiles/series start empty for each task
    (a warm pool worker serves many tasks across many ``pmap`` calls; with
    the fork start method it also inherits the parent's accumulated state),
    so what ships back is exactly this task's delta.
    """
    fn, item, tracing, profiling, ts_config = payload
    collector = begin_capture(tracing, profiling, ts_config)
    result = fn(item)
    return result, end_capture(collector)


def _serial(
    fn: Callable[[T], R], items: list[T], reason: str, record: bool = True
) -> list[R]:
    if record:
        METRICS.inc("parallel.dispatch", path="serial")
        METRICS.inc("parallel.dispatch.serial", reason=reason)
    return [fn(item) for item in items]


def pmap(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
    label: str | None = None,
) -> list[R]:
    """Map ``fn`` over ``items``, one task per item across worker processes.

    Results come back in input order.  ``fn`` and every item must be
    picklable (module-level functions, ``functools.partial`` of them, plain
    dataclasses) — an unpicklable callable falls back to the serial loop.
    With an effective worker count of 1 — the default — this is exactly
    ``[fn(item) for item in items]`` in the calling process.  See the module
    docstring for the full dispatch decision table.

    A task that raises propagates its exception to the caller; observability
    payloads of tasks earlier in input order are still merged.
    """
    items = list(items)
    if in_worker():
        return _serial(fn, items, "nested", record=False)
    if len(items) <= 1:
        return _serial(fn, items, "single_item")

    requested = max(1, int(workers or 1))
    n = min(resolve_workers(workers), len(items))
    if n <= 1:  # with two or more items, only the CPU clamp can undercut a request
        return _serial(fn, items, "cpu_clamp" if requested > 1 else "workers")
    try:
        pickle.dumps((fn, items[0]), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return _serial(fn, items, "unpicklable")

    METRICS.inc("parallel.dispatch", path="pool")
    name = label or getattr(fn, "__name__", None) or type(fn).__name__
    METRICS.inc("parallel.pmap.pools", pool=name)
    METRICS.inc("parallel.pmap.tasks", len(items), pool=name)
    tracing = tracing_enabled()
    profiling = noc_profiling_enabled()
    ts_config = timeseries_config() if timeseries_enabled() else None

    with span("pmap", pool=name, workers=n, tasks=len(items)):
        parent_span_id = get_collector().current_span_id() if tracing else None
        executor = warmpool.get_executor(n)
        futures = []
        results: list[R] = []
        try:
            for item in items:
                futures.append(
                    executor.submit(
                        _run_task, (fn, item, tracing, profiling, ts_config)
                    )
                )
            for future in futures:
                result, obs_payload = future.result()
                merge_payload(obs_payload, parent_span_id)
                results.append(result)
        except BaseException:
            METRICS.inc("parallel.pmap.failed", pool=name)
            for future in futures:
                future.cancel()
            if getattr(executor, "_broken", False):
                warmpool.shutdown(wait=False)  # drop it without joining
            raise
        return results
