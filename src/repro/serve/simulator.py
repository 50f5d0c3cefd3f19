"""The request-level discrete-event loop.

Three event kinds drive the simulation: request **arrivals** (from the load
generator), replica-group **releases** (a group's front stage drains and
can accept the next batch), and **completions** (every request of a batch
finishes).  After every event the scheduler is drained onto free replica
groups.  Every group runs a :class:`~repro.mcm.service.PipelineService`:
a batch of ``k`` frees its group after ``occupancy_cycles(k)`` — the
pipeline front drains while the tail is still in flight — and completes
after ``batch_cycles(k)``, with a backpressure floor: a group completes at
most one request per steady-state interval, so a batch dispatched hot on
the heels of its predecessor finishes no earlier than ``previous finish +
k * interval`` (the extra wait is charged to the group as busy time).  For
a one-stage group release coincides with completion and the floor never
binds, so the loop reduces to two events per batch.

``cluster.memory_channels`` (when set) serializes DRAM input streaming
across co-resident groups: each dispatch claims the earliest-free of M
channels before its input load starts, and the stream wait delays the
whole batch.  ``None`` keeps the independent-channel behavior bit-exactly.

Closed-loop generators are fed each completion so they can issue the
client's next request.

Determinism: the event heap orders by ``(cycle, insertion sequence)`` and
free replica groups are taken lowest-id first, so a seeded workload always
produces the identical trace.  The loop runs until both the event heap and
the queue are empty — open-loop generators produce a finite stream, and
closed-loop generators a finite quota per client, so termination is
structural rather than horizon-clipped.

Observability: the run is wrapped in a ``serve.run`` span.  The loop keeps
its counts and histogram aggregates (count/total/min/max) in locals and
folds them into :data:`repro.obs.METRICS` once, when the run ends
(:func:`~repro.serve.fastpath.fold_run_metrics`, shared with the columnar
loop): ``serve.requests``, ``serve.dispatches``, ``serve.batch_size``,
``serve.latency_cycles``, ``serve.queue_cycles``,
``serve.memory_channel.wait_cycles`` and
``serve.pipeline.backpressure_cycles``.  Per-request spans are deliberately
not emitted — a serving sweep completes millions of requests, and the
records themselves are the per-request truth.
When time-series collection is on (:func:`repro.obs.timeseries_enabled`),
the loop additionally feeds every arrival/dispatch/completion into a
:class:`~repro.obs.timeseries.ServeTimeSeries` — including per-stage busy
intervals for multi-stage clusters (occupancy/bubble metrics, per-chip
Perfetto tracks; one-stage clusters export no stage keys); when off, the
cost is one ``is None`` branch per event and no series is built
(``tests/obs/test_disabled_telemetry.py``).
"""

from __future__ import annotations

import heapq
import math

from ..obs import METRICS, span
from ..obs.timeseries import start_series, timeseries_enabled
from .cluster import Cluster
from .fastpath import fastpath_mode, fold_run_metrics, plan_columnar, run_columnar
from .results import RequestRecord, ServeResult
from .scheduler import Scheduler
from .slo import SLO, SLOReport, evaluate_slo
from .workload import LoadGenerator, Request

__all__ = ["ServeSimulator", "simulate_serving"]

_ARRIVAL, _COMPLETION, _RELEASE = 0, 1, 2


class ServeSimulator:
    """Run one (cluster, scheduler, workload) configuration to completion.

    ``slo`` only annotates telemetry: when a time-series is collected its
    violation counts and burn rates are computed against this target.  The
    pass/fail scoring itself stays in :func:`repro.serve.slo.evaluate_slo`.

    ``fastpath`` picks the loop implementation — ``auto`` (the default;
    columnar when eligible, see :mod:`repro.serve.fastpath`; each fallback
    counts ``serve.fastpath.fallback{reason=}``), ``off`` (always the object
    loop), or ``force`` (error when ineligible).  Both loops produce
    bit-identical results for the same seeded workload.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        workload: LoadGenerator,
        slo: SLO | None = None,
        fastpath: str = "auto",
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.workload = workload
        self.slo = slo
        self.fastpath = fastpath_mode(fastpath)
        scheduler.bind(cluster)

    def run(self) -> ServeResult:
        plan = None
        if self.fastpath != "off":
            plan, reason = plan_columnar(self.cluster, self.scheduler, self.workload)
            if plan is None:
                if self.fastpath == "force":
                    raise RuntimeError(
                        f"serve fastpath forced but this run is ineligible: {reason}"
                    )
                METRICS.inc("serve.fastpath.fallback", reason=reason)
        ts = None
        if timeseries_enabled():
            stages = self.cluster.stages
            ts = start_series(
                label=(
                    f"{self.cluster.scheme}/{self.scheduler.name} "
                    f"{self.cluster.num_groups}x{self.cluster.group_cores}"
                ),
                groups=self.cluster.num_groups,
                slo_cycles=self.slo.target_cycles if self.slo is not None else None,
                attrs={
                    "scheme": self.cluster.scheme,
                    "scheduler": self.scheduler.name,
                    "group_cores": self.cluster.group_cores,
                },
                stages=stages if stages > 1 else 0,
            )
        with span(
            "serve.run",
            scheme=self.cluster.scheme,
            scheduler=self.scheduler.name,
            groups=self.cluster.num_groups,
            group_cores=self.cluster.group_cores,
        ) as sp:
            busy_cycles = {g: 0 for g in range(self.cluster.num_groups)}
            columns = None
            if plan is not None:
                columns = run_columnar(
                    plan, ts, busy_cycles, self._feed_stage_intervals
                )
            result = ServeResult(
                scheme=self.cluster.scheme,
                scheduler=self.scheduler.name,
                total_cores=self.cluster.total_cores,
                group_cores=self.cluster.group_cores,
                busy_cycles=busy_cycles,
                columns=columns,
            )
            if plan is None:
                self._run_object_loop(result, ts)
            if ts is not None:
                ts.finalize()
            sp.set(
                requests=result.num_requests,
                makespan=result.makespan,
                utilization=round(result.utilization, 4),
            )
        return result

    def _run_object_loop(self, result: ServeResult, ts) -> None:
        """The historical per-``Request`` event loop (the reference path)."""
        events: list[tuple[int, int, int, object]] = []
        free = list(range(self.cluster.num_groups))
        heapq.heapify(free)
        seq = 0

        # Hot-loop locals: the event loop runs millions of iterations per
        # sweep, so global/attribute lookups are bound once here.  Pure
        # aliasing — the event sequence is bit-identical.
        heappush, heappop = heapq.heappush, heapq.heappop
        scheduler = self.scheduler
        get_service = self.cluster.service
        busy_cycles = result.busy_cycles

        # M shared DRAM channels (next-free cycle each), or None for the
        # historical one-independent-channel-per-group model.
        mem = self.cluster.memory_channels
        channels: list[int] | None = [0] * mem if mem else None
        # Per-replica last batch finish: the backpressure floor (a group
        # emits at most one completion per interval).
        last_finish: dict[int, int] = {}

        # Run totals for the end-of-run metric fold: count, total, min and
        # max per histogram.  Every observed value is a non-negative int, so
        # the minima start at +inf and the maxima at 0.
        arrived = 0
        batches = batch_total = batch_max = 0
        cw_count = cw_total = cw_max = 0
        bp_count = bp_total = bp_max = 0
        lat_total = lat_max = que_total = que_max = 0
        batch_min = cw_min = bp_min = lat_min = que_min = math.inf

        def push(cycle: int, kind: int, payload: object) -> None:
            nonlocal seq
            heappush(events, (cycle, seq, kind, payload))
            seq += 1

        def dispatch(now: int) -> None:
            nonlocal batches, batch_total, batch_min, batch_max
            nonlocal cw_count, cw_total, cw_min, cw_max
            nonlocal bp_count, bp_total, bp_min, bp_max
            while free and len(scheduler):
                batch = scheduler.next_batch(now)
                if not batch:
                    break
                service = get_service(batch[0].model)
                k = len(batch)
                batches += 1
                batch_total += k
                if k < batch_min:
                    batch_min = k
                if k > batch_max:
                    batch_max = k
                wait = 0
                if channels is not None and service.input_load_cycles > 0:
                    channel_free = heappop(channels)
                    stream_start = max(now, channel_free)
                    wait = stream_start - now
                    heappush(channels, stream_start + service.input_load_cycles)
                    if wait:
                        cw_count += 1
                        cw_total += wait
                        if wait < cw_min:
                            cw_min = wait
                        if wait > cw_max:
                            cw_max = wait
                replica = heappop(free)
                finish = now + wait + service.batch_cycles(k)
                interval = service.interval_cycles
                prev = last_finish.get(replica)
                if prev is not None and prev + k * interval > finish:
                    delay = prev + k * interval - finish
                    finish += delay
                    bp_count += 1
                    bp_total += delay
                    if delay < bp_min:
                        bp_min = delay
                    if delay > bp_max:
                        bp_max = delay
                else:
                    delay = 0
                busy = wait + service.occupancy_cycles(k) + delay
                last_finish[replica] = finish
                release = now + busy
                busy_cycles[replica] += busy
                if ts is not None:
                    ts.on_dispatch(now, replica, busy, k)
                    if ts.stages:
                        self._feed_stage_intervals(ts, service, replica, now + wait, k)
                if release < finish:
                    push(release, _RELEASE, replica)
                    push(finish, _COMPLETION, (replica, now, batch, False))
                else:
                    push(finish, _COMPLETION, (replica, now, batch, True))

        enqueue = scheduler.enqueue
        records_append = result.records.append
        workload_completion = self.workload.on_completion
        for request in self.workload.initial():
            push(request.arrival, _ARRIVAL, request)
        while events:
            now = events[0][0]
            # Drain every event stamped `now` before dispatching, so
            # simultaneous arrivals are all visible to the scheduler as
            # one instant (a batcher can group them) and a completion
            # freeing a replica can serve an arrival at the same cycle.
            while events and events[0][0] == now:
                _, _, kind, payload = heappop(events)
                if kind == _ARRIVAL:
                    assert isinstance(payload, Request)
                    arrived += 1
                    if ts is not None:
                        ts.on_arrival(now)
                    enqueue(payload)
                elif kind == _RELEASE:
                    heappush(free, payload)
                else:
                    replica, started, batch, free_now = payload
                    if free_now:
                        heappush(free, replica)
                    for request in batch:
                        record = RequestRecord(
                            rid=request.rid,
                            model=request.model,
                            arrival=request.arrival,
                            start=started,
                            finish=now,
                            replica=replica,
                            batch_size=len(batch),
                            priority=request.priority,
                        )
                        records_append(record)
                        latency = now - request.arrival
                        lat_total += latency
                        if latency < lat_min:
                            lat_min = latency
                        if latency > lat_max:
                            lat_max = latency
                        queued = started - request.arrival
                        que_total += queued
                        if queued < que_min:
                            que_min = queued
                        if queued > que_max:
                            que_max = queued
                        if ts is not None:
                            ts.on_completion(
                                record.rid, record.arrival, record.start,
                                record.finish, replica, record.batch_size,
                            )
                        follow_up = workload_completion(request, now)
                        if follow_up is not None:
                            push(follow_up.arrival, _ARRIVAL, follow_up)
            dispatch(now)

        completed = len(result.records)
        fold_run_metrics(
            requests=arrived,
            batch=(batches, batch_total, batch_min, batch_max),
            wait=(cw_count, cw_total, cw_min, cw_max),
            backpressure=(bp_count, bp_total, bp_min, bp_max),
            latency=(completed, lat_total, lat_min, lat_max),
            queue=(completed, que_total, que_min, que_max),
        )

    @staticmethod
    def _feed_stage_intervals(ts, service, replica: int, start: int, k: int) -> None:
        """Report each stage's busy window for one batch to the time-series.

        Steady-state model: stage ``s`` starts after the upstream first
        item (its inbound transfer included) and stays busy for its own
        first-item time plus ``(k - 1)`` intervals.  Empty stages (no
        layers) are skipped — the chip is idle, which is exactly what the
        bubble metric should show.
        """
        interval = service.interval_cycles
        entry = start
        for s, (stage, transfer) in enumerate(
            zip(service.stage_cycles, service.transfer_cycles)
        ):
            entry += transfer
            first = stage + (service.input_load_cycles if s == 0 else 0)
            if first > 0:
                ts.on_stage_busy(entry, entry + first + (k - 1) * interval, replica, s)
            entry += first


def simulate_serving(
    cluster: Cluster,
    scheduler: Scheduler,
    workload: LoadGenerator,
    slo: SLO | None = None,
    fastpath: str = "auto",
    records: str = "full",
) -> tuple[ServeResult, SLOReport | None]:
    """One-call convenience: run the loop and (optionally) score an SLO.

    ``records="summary"`` compacts the result after SLO scoring — the
    per-request storage is dropped and only scalar aggregates (and the
    report) survive, which is what keeps a large sweep's memory flat.
    """
    if records not in ("full", "summary"):
        raise ValueError(f"records must be 'full' or 'summary', got {records!r}")
    result = ServeSimulator(cluster, scheduler, workload, slo=slo, fastpath=fastpath).run()
    report = evaluate_slo(result, slo) if slo is not None else None
    if records == "summary":
        result.compact()
    return result, report
