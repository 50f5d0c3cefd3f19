"""Unit tests for result-record arithmetic using synthetic timelines."""

import pytest

from repro.noc.energy import EnergyBreakdown
from repro.sim import LayerTimeline, SimulationResult


def timeline(name="l", compute=100, comm=50, traffic=1000, energy=1e-9):
    return LayerTimeline(
        layer_name=name,
        compute_cycles=compute,
        comm_cycles=comm,
        traffic_bytes=traffic,
        flit_hops=traffic // 64,
        noc_energy=EnergyBreakdown(energy, 0, 0, 0),
        compute_energy_j=2e-9,
        comm_mode="cycle",
    )


def result(layers, input_load=0):
    return SimulationResult(
        model_name="m", scheme="s", num_cores=16, layers=layers,
        input_load_cycles=input_load,
    )


class TestLayerTimeline:
    def test_total_cycles_comm_plus_compute(self):
        assert timeline(compute=100, comm=50).total_cycles == 150


class TestSimulationResult:
    def test_totals(self):
        r = result([timeline(), timeline(compute=200, comm=100)], input_load=25)
        assert r.total_cycles == 25 + 150 + 300
        assert r.comm_cycles == 150
        assert r.compute_cycles == 300

    def test_comm_fraction(self):
        r = result([timeline(compute=100, comm=100)])
        assert r.comm_fraction == 0.5

    def test_comm_fraction_empty(self):
        assert result([]).comm_fraction == 0.0

    def test_speedup_and_reduction(self):
        base = result([timeline(compute=100, comm=100, energy=4e-9)])
        fast = result([timeline(compute=100, comm=0, traffic=0, energy=1e-9)])
        assert fast.speedup_vs(base) == 2.0
        assert fast.comm_energy_reduction_vs(base) == pytest.approx(0.75)
        assert fast.traffic_rate_vs(base) == 0.0

    def test_traffic_rate_zero_baseline(self):
        base = result([timeline(traffic=0)])
        some = result([timeline(traffic=10)])
        assert base.traffic_rate_vs(base) == 0.0
        assert some.traffic_rate_vs(base) == float("inf")

    def test_speedup_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            result([]).speedup_vs(result([timeline()]))

    def test_energy_totals(self):
        r = result([timeline(energy=3e-9)])
        assert r.noc_energy_j == pytest.approx(3e-9)
        assert r.total_energy_j == pytest.approx(3e-9 + 2e-9)

    def test_comm_speedup(self):
        base = result([timeline(comm=100)])
        half = result([timeline(comm=50)])
        assert half.comm_speedup_vs(base) == 2.0
