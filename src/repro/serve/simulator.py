"""The request-level discrete-event loop.

Three event kinds drive the simulation: request **arrivals** (from the load
generator), replica-group **releases** (a pipelined group's front drains and
can accept the next batch), and **completions** (every request of a batch
finishes).  After every event the scheduler is drained onto free replica
groups.  For a plain :class:`~repro.serve.cluster.PlanService` a batch
occupies its group for ``batch_cycles`` and release coincides with
completion — exactly the historical two-event loop, preserved bit-exactly.
A :class:`~repro.mcm.service.PipelineService` (detected by its
``interval_cycles`` attribute) instead frees its group after
``occupancy_cycles`` — the pipeline front drains while the tail is still
in flight — with a backpressure floor: a pipeline completes at most one
request per steady-state interval, so a batch dispatched hot on the heels
of its predecessor finishes no earlier than ``previous finish + k *
interval`` (the extra wait is charged to the group as busy time).

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

Observability: the run is wrapped in a ``serve.run`` span; arrivals,
dispatches, and batch sizes feed :data:`repro.obs.METRICS`
(``serve.requests``, ``serve.dispatches``, ``serve.latency_cycles`` ...).
Per-request spans are deliberately not emitted — a serving sweep completes
millions of requests, and the records themselves are the per-request truth.
When time-series collection is on (:func:`repro.obs.timeseries_enabled`),
the loop additionally feeds every arrival/dispatch/completion into a
:class:`~repro.obs.timeseries.ServeTimeSeries` — including per-stage busy
intervals for pipelined clusters (occupancy/bubble metrics, per-chip
Perfetto tracks); when off, the cost is one ``is None`` branch per event
(budgeted by ``benchmarks/bench_serve.py`` and ``bench_mcm.py``).
"""

from __future__ import annotations

import heapq

from ..obs import METRICS, span
from ..obs.timeseries import start_series, timeseries_enabled
from .cluster import Cluster
from .fastpath import fastpath_mode, plan_columnar, run_columnar
from .results import RequestRecord, ServeResult
from .scheduler import Scheduler
from .slo import SLO, SLOReport, evaluate_slo
from .workload import LoadGenerator, Request

__all__ = ["ServeSimulator", "simulate_serving"]

_ARRIVAL, _COMPLETION, _RELEASE = 0, 1, 2


class ServeSimulator:
    """Run one (cluster, scheduler, workload) configuration to completion.

    ``cluster`` is any object with the :class:`~repro.serve.cluster.Cluster`
    surface — including :class:`~repro.serve.pipelined.PipelinedCluster`.

    ``slo`` only annotates telemetry: when a time-series is collected its
    violation counts and burn rates are computed against this target.  The
    pass/fail scoring itself stays in :func:`repro.serve.slo.evaluate_slo`.

    ``fastpath`` picks the loop implementation — ``auto`` (columnar when
    eligible, see :mod:`repro.serve.fastpath`; each fallback counts
    ``serve.fastpath.fallback{reason=}``), ``off`` (always the object
    loop), or ``force`` (error when ineligible); ``None`` defers to the
    ``REPRO_SERVE_FASTPATH`` environment variable.  Both loops produce
    bit-identical results for the same seeded workload.
    """

    def __init__(
        self,
        cluster: Cluster,
        scheduler: Scheduler,
        workload: LoadGenerator,
        slo: SLO | None = None,
        fastpath: str | None = None,
    ) -> None:
        self.cluster = cluster
        self.scheduler = scheduler
        self.workload = workload
        self.slo = slo
        self.fastpath = fastpath_mode(fastpath) if fastpath is not None else fastpath
        scheduler.bind(cluster)

    def _pipeline_stages(self) -> int:
        """Stage count for telemetry: 0 when no service is pipelined."""
        return max(
            (
                len(getattr(svc, "stage_cycles", ()))
                for svc in self.cluster.services.values()
                if getattr(svc, "interval_cycles", None) is not None
            ),
            default=0,
        )

    def run(self) -> ServeResult:
        mode = fastpath_mode(self.fastpath)
        plan = None
        if mode != "off":
            plan, reason = plan_columnar(self.cluster, self.scheduler, self.workload)
            if plan is None:
                if mode == "force":
                    raise RuntimeError(
                        f"serve fastpath forced but this run is ineligible: {reason}"
                    )
                METRICS.inc("serve.fastpath.fallback", reason=reason)
        ts = None
        if timeseries_enabled():
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
                stages=self._pipeline_stages(),
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
        inc, observe = METRICS.inc, METRICS.observe
        scheduler = self.scheduler
        get_service = self.cluster.service
        busy_cycles = result.busy_cycles

        # M shared DRAM channels (next-free cycle each), or None for the
        # historical one-independent-channel-per-group model.
        mem = getattr(self.cluster, "memory_channels", None)
        channels: list[int] | None = [0] * mem if mem else None
        # Per-replica last batch finish: the backpressure floor for
        # pipelined groups (a pipeline emits one completion per interval).
        last_finish: dict[int, int] = {}

        def push(cycle: int, kind: int, payload: object) -> None:
            nonlocal seq
            heappush(events, (cycle, seq, kind, payload))
            seq += 1

        def dispatch(now: int) -> None:
            while free and len(scheduler):
                batch = scheduler.next_batch(now)
                if not batch:
                    break
                service = get_service(batch[0].model)
                k = len(batch)
                duration = service.batch_cycles(k)
                wait = 0
                if channels is not None and service.input_load_cycles > 0:
                    channel_free = heappop(channels)
                    stream_start = max(now, channel_free)
                    wait = stream_start - now
                    heappush(channels, stream_start + service.input_load_cycles)
                    if wait:
                        observe("serve.memory_channel.wait_cycles", wait)
                replica = heappop(free)
                finish = now + wait + duration
                busy = wait + duration
                interval = getattr(service, "interval_cycles", None)
                if interval is not None:
                    prev = last_finish.get(replica)
                    if prev is not None and prev + k * interval > finish:
                        delay = prev + k * interval - finish
                        finish += delay
                        observe("serve.pipeline.backpressure_cycles", delay)
                    else:
                        delay = 0
                    busy = wait + service.occupancy_cycles(k) + delay
                    last_finish[replica] = finish
                release = now + busy
                busy_cycles[replica] += busy
                inc("serve.dispatches")
                observe("serve.batch_size", k)
                if ts is not None:
                    ts.on_dispatch(now, replica, busy, k)
                    if interval is not None and ts.stages:
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
                    inc("serve.requests")
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
                        observe("serve.latency_cycles", record.latency)
                        observe("serve.queue_cycles", record.queue_cycles)
                        if ts is not None:
                            ts.on_completion(
                                record.rid, record.arrival, record.start,
                                record.finish, replica, record.batch_size,
                            )
                        follow_up = workload_completion(request, now)
                        if follow_up is not None:
                            push(follow_up.arrival, _ARRIVAL, follow_up)
            dispatch(now)

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
    fastpath: str | None = None,
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
