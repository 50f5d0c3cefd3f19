"""Bit-exactness of the columnar serving loop against the object event loop.

The fast path (:mod:`repro.serve.fastpath`) replays the exact event
sequence of ``ServeSimulator``'s per-``Request`` loop over preallocated
int64 columns, so on any seeded workload both loops must produce *the
same simulation*: identical request records, percentiles, SLO report,
makespan, per-replica busy cycles, and time-series records (cumulative
block included).  The property test below drives both loops across every
built-in scheduler, open-loop generator, cluster family (single-chip and
pipelined MCM, with and without shared memory channels), and telemetry
state, and asserts full equality.

Both loops must also fold the same ``serve.*`` counters and histograms
into :data:`~repro.obs.METRICS`.

Eligibility is also pinned: closed-loop workloads and custom schedulers
must fall back to the object loop under ``auto`` and raise under
``force``.  So are the makespans of three seeded streams of 100k to 1M
requests.
"""

from __future__ import annotations

import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import lenet_spec
from repro.obs import (
    METRICS,
    clear_timeseries,
    disable_timeseries,
    enable_timeseries,
)
from repro.obs.metrics import percentile
from repro.obs.timeseries import global_timeseries
from repro.serve import build_mcm_cluster, build_spec_cluster
from repro.serve.fastpath import fastpath_mode, plan_columnar
from repro.serve.scheduler import FIFOScheduler, make_scheduler
from repro.serve.simulator import ServeSimulator, simulate_serving
from repro.serve.slo import SLO, evaluate_slo
from repro.serve.workload import ClosedLoopWorkload, MMPPWorkload, PoissonWorkload

CLUSTER_KINDS = ("plain", "channels", "mcm", "mcm_channels")


@functools.cache
def _cluster(kind: str):
    """One shared cluster per family (plan simulation is the slow part)."""
    spec = lenet_spec()
    if kind == "plain":
        return build_spec_cluster(spec, 16, 4)
    if kind == "channels":
        return build_spec_cluster(spec, 16, 4, memory_channels=1)
    if kind == "mcm":
        return build_mcm_cluster(spec, 2, stages=2)
    if kind == "mcm_channels":
        return build_mcm_cluster(spec, 2, stages=2, memory_channels=1)
    raise AssertionError(kind)


def _make_workload(gen: str, rate: float, n: int, seed: int):
    mix = {"lenet": 1.0}
    if gen == "poisson":
        return PoissonWorkload(rate, n, seed=seed, mix=mix)
    return MMPPWorkload(rate, 8 * rate, n, seed=seed, mix=mix)


def _serve_metrics() -> dict:
    """The ``serve.*`` counters and histograms in :data:`METRICS`, minus the
    fast path's own ``serve.fastpath.*`` bookkeeping."""
    snap = METRICS.snapshot()
    return {
        kind: {
            key: value for key, value in snap[kind].items()
            if key.startswith("serve.") and not key.startswith("serve.fastpath.")
        }
        for kind in ("counters", "histograms")
    }


def _run(cluster, scheduler_name: str, workload, fastpath: str, ts: bool):
    """One simulation; returns (result, captured time-series records, the
    run's ``serve.*`` metrics)."""
    scheduler = make_scheduler(scheduler_name, max_batch=4)
    sim = ServeSimulator(cluster, scheduler, workload, fastpath=fastpath)
    METRICS.reset()
    if ts:
        enable_timeseries()
    try:
        result = sim.run()
        series = copy.deepcopy(global_timeseries()) if ts else None
    finally:
        disable_timeseries()
        clear_timeseries()
    return result, series, _serve_metrics()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(CLUSTER_KINDS),
    scheduler=st.sampled_from(("fifo", "sjf", "priority", "batch")),
    gen=st.sampled_from(("poisson", "mmpp")),
    rate=st.floats(20.0, 400.0),
    n=st.integers(5, 80),
    seed=st.integers(0, 2**16),
    ts=st.booleans(),
)
def test_fastpath_matches_object_loop(kind, scheduler, gen, rate, n, seed, ts):
    cluster = _cluster(kind)
    fast, fast_series, fast_metrics = _run(
        cluster, scheduler, _make_workload(gen, rate, n, seed), "force", ts
    )
    ref, ref_series, ref_metrics = _run(
        cluster, scheduler, _make_workload(gen, rate, n, seed), "off", ts
    )
    assert fast.columns is not None and ref.columns is None  # distinct loops

    assert fast.records == ref.records
    assert fast.makespan == ref.makespan
    assert fast.busy_cycles == ref.busy_cycles
    lats_fast, lats_ref = fast.latencies(), ref.latencies()
    for pct in (50, 95, 99):
        assert percentile(lats_fast, pct) == percentile(lats_ref, pct)

    slo = SLO(2 * cluster.unloaded_latency("lenet"), name="equivalence")
    assert evaluate_slo(fast, slo) == evaluate_slo(ref, slo)

    # Full time-series equality — windows, per-replica depth, and the
    # cumulative block all derive from the same event stream.
    assert fast_series == ref_series

    # Both loops fold the same serve.* counters and histograms.
    assert fast_metrics == ref_metrics
    assert fast_metrics["counters"]["serve.requests"] == n


@pytest.mark.parametrize(
    "scheduler, batch, rate, n, seed, makespan",
    [
        pytest.param("fifo", 1, 120.0, 100_000, 7, 832_800_620, id="fifo_100k"),
        pytest.param("batch", 4, 240.0, 100_000, 11, 416_859_833, id="batch_100k"),
        pytest.param("fifo", 1, 120.0, 1_000_000, 7, 8_330_441_659, id="fifo_1m"),
    ],
)
def test_pinned_columnar_runs(scheduler, batch, rate, n, seed, makespan):
    """Seeded lenet streams at scale on the forced columnar loop: every
    request completes, and the makespan is pinned."""
    workload = PoissonWorkload(rate, n, seed=seed, mix={"lenet": 1.0})
    result = ServeSimulator(
        _cluster("plain"), make_scheduler(scheduler, max_batch=batch), workload,
        fastpath="force",
    ).run()
    assert result.columns is not None
    assert result.num_requests == n
    assert result.makespan == makespan


def test_summary_mode_keeps_report_and_scalars():
    cluster = _cluster("plain")
    slo = SLO(2 * cluster.unloaded_latency("lenet"), name="summary")

    def serve(records):
        workload = PoissonWorkload(100.0, 60, seed=9, mix={"lenet": 1.0})
        return simulate_serving(
            cluster, make_scheduler("fifo"), workload, slo=slo, records=records
        )

    full, full_report = serve("full")
    summary, summary_report = serve("summary")
    assert summary_report == full_report
    assert summary.num_requests == full.num_requests
    assert summary.makespan == full.makespan
    assert summary.mean_batch_size == full.mean_batch_size
    # The whole point: per-request storage is gone.
    assert summary.columns is None
    with pytest.raises(RuntimeError):
        summary.records  # noqa: B018 - property access raises


def test_closed_loop_falls_back_under_auto():
    cluster = _cluster("plain")

    def workload():
        return ClosedLoopWorkload(
            clients=4, requests_per_client=5, think_cycles=5e4,
            seed=3, mix={"lenet": 1.0},
        )

    plan, reason = plan_columnar(cluster, make_scheduler("fifo"), workload())
    assert plan is None and reason == "closed_loop"
    METRICS.reset()
    result = ServeSimulator(cluster, make_scheduler("fifo"), workload(), fastpath="auto").run()
    assert result.columns is None  # served by the object loop
    assert result.num_requests == 20
    assert METRICS.counter("serve.fastpath.fallback", reason="closed_loop") == 1
    ServeSimulator(cluster, make_scheduler("fifo"), workload(), fastpath="off").run()
    assert METRICS.counter("serve.fastpath.fallback", reason="closed_loop") == 1


def test_force_raises_on_closed_loop():
    cluster = _cluster("plain")
    workload = ClosedLoopWorkload(
        clients=2, requests_per_client=3, think_cycles=5e4, seed=1, mix={"lenet": 1.0}
    )
    sim = ServeSimulator(cluster, make_scheduler("fifo"), workload, fastpath="force")
    with pytest.raises(RuntimeError, match="closed_loop"):
        sim.run()


class _CustomFifo(FIFOScheduler):
    """Subclass overriding dispatch: must not inherit the index queue."""

    def next_batch(self, now):
        return super().next_batch(now)


def test_custom_scheduler_falls_back_and_force_raises():
    cluster = _cluster("plain")

    def workload():
        return PoissonWorkload(50.0, 20, seed=5, mix={"lenet": 1.0})

    plan, reason = plan_columnar(cluster, _CustomFifo(), workload())
    assert plan is None and reason == "no_index_queue"
    METRICS.reset()
    auto = ServeSimulator(cluster, _CustomFifo(), workload(), fastpath="auto").run()
    assert auto.columns is None
    assert METRICS.counter("serve.fastpath.fallback", reason="no_index_queue") == 1
    ref = ServeSimulator(cluster, FIFOScheduler(), workload(), fastpath="off").run()
    assert auto.records == ref.records  # the subclass changed nothing
    with pytest.raises(RuntimeError, match="no_index_queue"):
        ServeSimulator(cluster, _CustomFifo(), workload(), fastpath="force").run()
    assert METRICS.counter("serve.fastpath.fallback", reason="no_index_queue") == 1


def test_fastpath_mode_resolution():
    for mode in ("auto", "off", "force"):
        assert fastpath_mode(mode) == mode
    for bad in ("on", "banana", "OFF", None):
        with pytest.raises(ValueError):
            fastpath_mode(bad)
    with pytest.raises(ValueError):
        ServeSimulator(None, None, None, fastpath="on")  # resolved up front
