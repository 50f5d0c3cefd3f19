"""Disabled telemetry builds nothing.

With tracing, NoC profiling and serve time series all off (the default),
the hot paths must not construct a single recorder.  The fixture below makes
the ``Span``, ``NoCProfile`` and ``ServeTimeSeries`` constructors raise; each
test then runs one hot path to completion.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.accel import ChipConfig
from repro.models import lenet_spec
from repro.obs import NoCProfile, ServeTimeSeries, Span
from repro.partition import build_traditional_plan
from repro.serve import PoissonWorkload, ServeSimulator, build_mcm_cluster, build_spec_cluster
from repro.serve.scheduler import make_scheduler
from repro.sim.engine import InferenceSimulator

RECORDERS = (Span, NoCProfile, ServeTimeSeries)


@pytest.fixture(autouse=True)
def recorders_forbidden(monkeypatch):
    assert not obs.tracing_enabled()
    assert not obs.noc_profiling_enabled()
    assert not obs.timeseries_enabled()

    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built with telemetry off")

    for cls in RECORDERS:
        monkeypatch.setattr(cls, "__init__", forbidden)


@pytest.fixture
def cold_drains(tmp_path, monkeypatch):
    """An empty drain memo, so every burst drains cycle by cycle."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def _drain_lenet_plan():
    """Every layer burst of a lenet plan, through the engine's drain memo."""
    sim = InferenceSimulator(ChipConfig.table2(16))
    return sim.simulate(build_traditional_plan(lenet_spec(), 16))


def _serve(cluster, fastpath: str):
    workload = PoissonWorkload(120.0, 200, seed=7, mix={"lenet": 1.0})
    return ServeSimulator(cluster, make_scheduler("fifo"), workload, fastpath=fastpath).run()


def test_noc_burst_drains(cold_drains):
    result = _drain_lenet_plan()
    assert result.comm_cycles > 0
    assert result.drain_memo_misses > 0 and result.drain_memo_hits == 0


def test_object_loop_serve():
    result = _serve(build_spec_cluster(lenet_spec(), 16, 4), "off")
    assert result.columns is None
    assert result.num_requests == 200


def test_columnar_serve():
    result = _serve(build_spec_cluster(lenet_spec(), 16, 4), "force")
    assert result.columns is not None
    assert result.num_requests == 200


def test_pipelined_mcm_serve():
    cluster = build_mcm_cluster(lenet_spec(), 4, stages=2, scheme="structure")
    result = _serve(cluster, "off")
    assert result.num_requests == 200


def test_guard_fires_once_enabled(cold_drains):
    """The guard is live: turning each recorder on reaches its constructor."""
    obs.enable_tracing()
    with pytest.raises(AssertionError, match="Span"):
        obs.span("probe")
    obs.disable_tracing()

    obs.enable_noc_profiling()
    with pytest.raises(AssertionError, match="NoCProfile"):
        _drain_lenet_plan()
    obs.disable_noc_profiling()

    obs.enable_timeseries()
    with pytest.raises(AssertionError, match="ServeTimeSeries"):
        _serve(build_spec_cluster(lenet_spec(), 16, 4), "off")
