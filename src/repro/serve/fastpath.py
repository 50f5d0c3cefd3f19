"""Columnar (struct-of-arrays) fast path for the serving event loop.

The object loop in :mod:`repro.serve.simulator` spends most of a
million-request sweep allocating: one ``Request`` per arrival, one heap
tuple per event and one frozen ``RequestRecord`` per completion.  This
module runs the *same* discrete event simulation over plain int64 columns
instead:

* arrivals are an :class:`~repro.serve.workload.ArrivalColumns` block —
  a sorted int64 array consumed by cursor, never a heap entry;
* the scheduler is an :class:`~repro.serve.scheduler.IndexQueue` — the
  identical policy over request ids, popping contiguous ``(lo, hi)``
  rid ranges;
* completions write ``start``/``finish``/``replica`` column slices and
  append one ``(lo, hi)`` range to the completion order, from which
  :meth:`~repro.serve.results.RecordColumns.materialize` reproduces the
  object loop's record list bit-exactly;
* metrics are reduced from the columns at the end and folded in by
  :func:`fold_run_metrics`, the object loop's own end-of-run fold —
  histograms only track count/total/min/max, so batching is exact.

**Bit-exactness contract** (pinned by ``tests/serve/test_fastpath.py``):
a seeded workload produces the identical record list, latency
percentiles, SLO report, and time-series cumulative block on either
loop.  The argument: the object heap orders events by ``(cycle,
insertion seq)``; arrivals are pushed first (seqs ``0..n-1`` in rid
order), so at any cycle arrivals drain before completions/releases —
exactly this loop's arrival-cursor-first order — and release/completion
pushes here mirror the object loop's push sequence one-for-one.
Service times come from the same ``batch_cycles``/``occupancy_cycles``
methods (memoized per ``(model, batch)``), multi-stage groups keep
release-before-completion and the backpressure floor, and the shared
DRAM channel heap is byte-for-byte the object loop's.

Selection: the simulator's ``fastpath`` argument, ``auto`` (default;
columnar when eligible), ``off`` (always the object loop), or ``force``
(error if a run cannot take the fast path).  Eligible means: an open-loop
workload that can columnize its stream, and a scheduler exposing an index
queue.  Closed-loop generators, scripted streams with out-of-order rids,
and custom policies fall back to the object loop under ``auto``; each
fallback is counted as ``serve.fastpath.fallback{reason=}``.
"""

from __future__ import annotations

import gc
import heapq
from array import array

import numpy as np

from ..obs import METRICS
from .cluster import Cluster
from .results import RecordColumns
from .scheduler import IndexQueue, Scheduler
from .workload import ArrivalColumns, LoadGenerator

__all__ = ["fastpath_mode", "fold_run_metrics", "plan_columnar", "run_columnar"]

_MODES = ("auto", "off", "force")


def fastpath_mode(mode: str) -> str:
    """Validate a loop-selection mode (one of ``auto``, ``off``, ``force``)."""
    if mode not in _MODES:
        raise ValueError(f"fastpath must be one of {_MODES}, got {mode!r}")
    return mode


def fold_run_metrics(
    requests: int,
    batch: tuple[int, int, int, int],
    wait: tuple[int, int, int, int],
    backpressure: tuple[int, int, int, int],
    latency: tuple[int, int, int, int],
    queue: tuple[int, int, int, int],
) -> None:
    """Fold one serving run's ``serve.*`` series into :data:`METRICS`.

    Both event loops end every run with this call, one registry transaction
    per series.  ``requests`` counts the arrivals; each histogram argument
    is ``(count, total, min, max)`` of its observations, which is all a
    histogram keeps, so the fold equals ``count`` single
    :meth:`~repro.obs.metrics.MetricsRegistry.observe` calls bit for bit.
    ``serve.dispatches`` is the batch-size count.
    """
    inc, observe_agg = METRICS.inc, METRICS.observe_agg
    inc("serve.requests", requests)
    if batch[0]:
        inc("serve.dispatches", batch[0])
    observe_agg("serve.batch_size", *batch)
    observe_agg("serve.memory_channel.wait_cycles", *wait)
    observe_agg("serve.pipeline.backpressure_cycles", *backpressure)
    observe_agg("serve.latency_cycles", *latency)
    observe_agg("serve.queue_cycles", *queue)


def _column_stats(values: np.ndarray) -> tuple[int, int, int, int]:
    """``(count, total, min, max)`` of an int64 column (zeros when empty)."""
    if not len(values):
        return 0, 0, 0, 0
    return len(values), int(values.sum()), int(values.min()), int(values.max())


class _Plan:
    """Everything the columnar loop needs, resolved before the clock starts."""

    __slots__ = (
        "cols", "arrivals", "model_ids", "queue", "services", "input_loads",
        "intervals", "num_groups", "memory_channels",
    )

    def __init__(
        self,
        cols: ArrivalColumns,
        arrivals: list[int],
        model_ids: list[int],
        queue: IndexQueue,
        services: list,
        num_groups: int,
        memory_channels: int | None,
    ) -> None:
        self.cols = cols
        self.arrivals = arrivals
        self.model_ids = model_ids
        self.queue = queue
        self.services = services
        self.input_loads = [svc.input_load_cycles for svc in services]
        self.intervals = [svc.interval_cycles for svc in services]
        self.num_groups = num_groups
        self.memory_channels = memory_channels


def plan_columnar(
    cluster: Cluster, scheduler: Scheduler, workload: LoadGenerator
) -> tuple[_Plan | None, str | None]:
    """Check eligibility and prepare a columnar run.

    Returns ``(plan, None)`` when the fast path can run, else
    ``(None, reason)`` — the caller falls back to the object loop (or
    raises, under ``force``).  ``reason`` is a fixed key: ``closed_loop``,
    ``no_index_queue`` (custom scheduler), ``no_columns`` (the stream cannot
    be columnized) or ``unknown_model`` (the cluster lacks a model).
    """
    if not getattr(workload, "is_open_loop", False):
        return None, "closed_loop"
    # Cheap probe before generating the stream: custom policies without an
    # index queue never needed the columns.
    if scheduler.index_queue([], [], [], []) is None:
        return None, "no_index_queue"
    cols = workload.arrival_columns()
    if cols is None:
        return None, "no_columns"
    try:
        services = [cluster.service(name) for name in cols.models]
    except KeyError:
        return None, "unknown_model"
    model_ids = cols.model_id.tolist()
    arrivals = cols.arrival.tolist()
    queue = scheduler.index_queue(
        model_ids,
        arrivals,
        cols.priority.tolist(),
        [svc.latency_cycles for svc in services],
    )
    if queue is None:  # pragma: no cover - probe above already rejected
        return None, "no_index_queue"
    return (
        _Plan(
            cols=cols,
            arrivals=arrivals,
            model_ids=model_ids,
            queue=queue,
            services=services,
            num_groups=cluster.num_groups,
            memory_channels=cluster.memory_channels,
        ),
        None,
    )


def run_columnar(plan: _Plan, ts, busy_cycles: dict[int, int], feed_stages) -> RecordColumns:
    """Run the event loop over ``plan``'s columns; returns the filled store.

    ``ts`` is an optional :class:`~repro.obs.timeseries.ServeTimeSeries`
    fed in the object loop's exact event order; ``busy_cycles`` is the
    result's per-replica busy map, filled in place; ``feed_stages`` is
    ``ServeSimulator._feed_stage_intervals`` (passed in to keep this
    module import-free of the simulator).

    The loop allocates millions of short-lived, acyclic heap tuples, so the
    cyclic garbage collector is paused for the duration (worth ~15%); it is
    restored even on error, and nothing observable changes.
    """
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _run_columnar(plan, ts, busy_cycles, feed_stages)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_columnar(plan: _Plan, ts, busy_cycles: dict[int, int], feed_stages) -> RecordColumns:
    n = len(plan.arrivals)
    arrivals = plan.arrivals
    model_ids = plan.model_ids
    queue = plan.queue
    services = plan.services
    input_loads = plan.input_loads
    intervals = plan.intervals

    # Output columns: C int64 storage with list-speed scalar writes; viewed
    # as numpy (zero-copy) once the loop ends.
    start_c = array("q", bytes(8 * n))
    finish_c = array("q", bytes(8 * n))
    replica_c = array("q", bytes(8 * n))
    batch_c = array("q", (1,)) * n
    order_lo: list[int] = []
    order_hi: list[int] = []
    olo_append, ohi_append = order_lo.append, order_hi.append

    heappush, heappop = heapq.heappush, heapq.heappop
    groups = plan.num_groups
    free = list(range(groups))
    heapq.heapify(free)
    busy_l = [0] * groups
    mem = plan.memory_channels
    channels: list[int] | None = [0] * mem if mem else None
    last_finish: dict[int, int] = {}
    # Completion/release heap: (cycle, seq, kind, replica[, started, lo, hi])
    # with kind 2 = release, 1 = completion freeing its group, 0 = completion
    # whose group was already released.  Ordering is (cycle, seq), mirroring
    # the object heap; arrivals never enter (the cursor drains them first,
    # which is where their lower seqs would have put them anyway).
    heap: list[tuple] = []
    seq = 0
    ptr = 0
    # Positional queues (FIFO family) are inlined below: the queue *is* the
    # rid interval [head, ptr), so admission is the arrival cursor itself
    # and a pop is integer arithmetic — no method calls on the hot path.
    positional = getattr(queue, "positional", False)
    head = 0
    max_batch = getattr(queue, "max_batch", 1) if positional else 1
    # Heap policies expose their live heap and per-rid sort keys, so both
    # admission and pop inline to plain heapq calls.
    q_entries = getattr(queue, "entries", None)
    q_heap = getattr(queue, "heap", None)
    queue_len = queue.__len__
    next_range = queue.next_range
    # Any multi-stage service in the mix?  One-stage groups skip the
    # release and backpressure bookkeeping with one bool test per dispatch:
    # their release coincides with completion and the floor never binds.
    pipelined = any(svc.stage_count > 1 for svc in services)
    # Per-model service time for the ubiquitous k=1 dispatch; larger
    # batches are memoized per (model, k) on first use.
    dur1 = [svc.batch_cycles(1) for svc in services]
    dur_memo: dict[tuple[int, int], int] = {}
    occ_memo: dict[tuple[int, int], int] = {}

    # Deferred metric aggregates (histograms are order-independent).
    cw_count = cw_total = cw_min = cw_max = 0
    bp_count = bp_total = bp_min = bp_max = 0

    while ptr < n or heap:
        if heap:
            head_cycle = heap[0][0]
            now = arrivals[ptr] if ptr < n and arrivals[ptr] <= head_cycle else head_cycle
        else:
            now = arrivals[ptr]
        if ptr < n and arrivals[ptr] == now:
            if ts is None:
                if positional:
                    while ptr < n and arrivals[ptr] == now:
                        ptr += 1
                elif q_entries is not None:
                    while ptr < n and arrivals[ptr] == now:
                        heappush(q_heap, q_entries[ptr])
                        ptr += 1
                else:
                    while ptr < n and arrivals[ptr] == now:
                        queue.push(ptr)
                        ptr += 1
            else:
                while ptr < n and arrivals[ptr] == now:
                    ts.on_arrival(now)
                    if not positional:
                        queue.push(ptr)
                    ptr += 1
        while heap and heap[0][0] == now:
            ev = heappop(heap)
            kind = ev[2]
            if kind == 2:
                heappush(free, ev[3])
                continue
            replica = ev[3]
            if kind == 1:
                heappush(free, replica)
            started = ev[4]
            lo = ev[5]
            hi = ev[6]
            if hi - lo == 1:
                start_c[lo] = started
                finish_c[lo] = now
                replica_c[lo] = replica
            else:
                k = hi - lo
                for i in range(lo, hi):
                    start_c[i] = started
                    finish_c[i] = now
                    replica_c[i] = replica
                    batch_c[i] = k
            olo_append(lo)
            ohi_append(hi)
            if ts is not None:
                ts.on_completion_batch(lo, hi, arrivals, now, started, replica)
        while free:
            if positional:
                if head >= ptr:
                    break
                lo = head
                if max_batch == 1:
                    head = hi = lo + 1
                else:
                    model = model_ids[lo]
                    hi = lo + 1
                    cap = lo + max_batch
                    if cap > ptr:
                        cap = ptr
                    while hi < cap and model_ids[hi] == model:
                        hi += 1
                    head = hi
            elif q_entries is not None:
                if not q_heap:
                    break
                lo = heappop(q_heap)[-1]
                hi = lo + 1
            else:
                if not queue_len():
                    break
                lo, hi = next_range(now)
            k = hi - lo
            m = model_ids[lo]
            wait = 0
            if channels is not None and input_loads[m] > 0:
                channel_free = heappop(channels)
                stream_start = channel_free if channel_free > now else now
                wait = stream_start - now
                heappush(channels, stream_start + input_loads[m])
                if wait:
                    if cw_count == 0:
                        cw_min = cw_max = wait
                    elif wait < cw_min:
                        cw_min = wait
                    elif wait > cw_max:
                        cw_max = wait
                    cw_count += 1
                    cw_total += wait
            replica = heappop(free)
            if k == 1:
                duration = dur1[m]
            else:
                duration = dur_memo.get((m, k))
                if duration is None:
                    duration = services[m].batch_cycles(k)
                    dur_memo[(m, k)] = duration
            finish = now + wait + duration
            busy = wait + duration
            release = finish  # == now + busy for a one-stage group
            if pipelined:
                prev = last_finish.get(replica)
                if prev is not None and prev + k * intervals[m] > finish:
                    delay = prev + k * intervals[m] - finish
                    finish += delay
                    if bp_count == 0:
                        bp_min = bp_max = delay
                    elif delay < bp_min:
                        bp_min = delay
                    elif delay > bp_max:
                        bp_max = delay
                    bp_count += 1
                    bp_total += delay
                else:
                    delay = 0
                occ = occ_memo.get((m, k))
                if occ is None:
                    occ = services[m].occupancy_cycles(k)
                    occ_memo[(m, k)] = occ
                busy = wait + occ + delay
                last_finish[replica] = finish
                release = now + busy
            busy_l[replica] += busy
            if ts is not None:
                ts.on_dispatch(now, replica, busy, k)
                if ts.stages:
                    feed_stages(ts, services[m], replica, now + wait, k)
            if release < finish:
                heappush(heap, (release, seq, 2, replica))
                heappush(heap, (finish, seq + 1, 0, replica, now, lo, hi))
                seq += 2
            else:
                heappush(heap, (finish, seq, 1, replica, now, lo, hi))
                seq += 1

    for g in range(groups):
        busy_cycles[g] = busy_l[g]
    order_lo_np = np.asarray(order_lo, dtype=np.int64)
    order_hi_np = np.asarray(order_hi, dtype=np.int64)
    cols = plan.cols
    start_np = np.frombuffer(start_c, dtype=np.int64)
    finish_np = np.frombuffer(finish_c, dtype=np.int64)

    # Every dispatch completes before the loop exits, so the completion
    # order *is* the dispatch log: one batch-size observation per range.
    METRICS.inc("serve.fastpath.runs")
    fold_run_metrics(
        requests=n,
        batch=_column_stats(order_hi_np - order_lo_np),
        wait=(cw_count, cw_total, cw_min, cw_max),
        backpressure=(bp_count, bp_total, bp_min, bp_max),
        latency=_column_stats(finish_np - cols.arrival),
        queue=_column_stats(start_np - cols.arrival),
    )
    return RecordColumns(
        arrival=cols.arrival,
        model_id=cols.model_id,
        priority=cols.priority,
        models=cols.models,
        start=start_np,
        finish=finish_np,
        replica=np.frombuffer(replica_c, dtype=np.int64),
        batch_size=np.frombuffer(batch_c, dtype=np.int64),
        order_lo=order_lo_np,
        order_hi=order_hi_np,
    )
