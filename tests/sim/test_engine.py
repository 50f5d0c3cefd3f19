"""Tests for the end-to-end inference simulator."""

from dataclasses import replace

import pytest

from repro.accel import ChipConfig
from repro.models import lenet_spec, mlp_spec, table3_convnet_spec
from repro.noc import estimate_drain_cycles
from repro.partition import build_traditional_plan
from repro.sim import InferenceSimulator, SimConfig
from repro.sim.engine import input_load_cycles


@pytest.fixture(scope="module")
def chip():
    return ChipConfig.table2(16)


@pytest.fixture(scope="module")
def mlp_plan():
    return build_traditional_plan(mlp_spec(), 16)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(max_cycle_sim_flits=10)


class TestBasicSimulation:
    def test_result_structure(self, chip, mlp_plan):
        result = InferenceSimulator(chip).simulate(mlp_plan)
        assert result.num_cores == 16
        assert [l.layer_name for l in result.layers] == ["ip1", "ip2", "ip3"]
        assert result.total_cycles > 0

    def test_zero_traffic_layer_has_no_comm(self, chip, mlp_plan):
        result = InferenceSimulator(chip).simulate(mlp_plan)
        ip1 = result.layers[0]
        assert ip1.comm_cycles == 0
        assert ip1.comm_mode == "none"
        assert ip1.noc_energy.total_j == 0.0

    def test_comm_layers_cost_cycles_and_energy(self, chip, mlp_plan):
        result = InferenceSimulator(chip).simulate(mlp_plan)
        ip2 = result.layers[1]
        assert ip2.comm_cycles > 0
        assert ip2.noc_energy.total_j > 0

    def test_total_is_sum_of_parts(self, chip, mlp_plan):
        result = InferenceSimulator(chip).simulate(mlp_plan)
        expected = result.input_load_cycles + sum(
            l.comm_cycles + l.compute_cycles
            for l in result.layers
        )
        assert result.total_cycles == expected

    def test_core_count_mismatch(self, chip):
        plan = build_traditional_plan(mlp_spec(), 4)
        with pytest.raises(ValueError):
            InferenceSimulator(chip).simulate(plan)

    def test_input_load_toggle(self, chip, mlp_plan):
        """Every run charges the input load and reports it on its own."""
        result = InferenceSimulator(chip).simulate(mlp_plan)
        in_shape = mlp_plan.layers[0].layer.in_shape
        assert result.input_load_cycles == input_load_cycles(chip, in_shape) > 0
        assert result.total_cycles - result.input_load_cycles == sum(
            l.total_cycles for l in result.layers
        )


class TestCommModes:
    def test_cycle_mode_used_for_small_traffic(self, chip, mlp_plan):
        result = InferenceSimulator(chip).simulate(mlp_plan)
        assert all(l.comm_mode in ("cycle", "none") for l in result.layers)

    def test_analytical_close_to_cycle(self, chip, mlp_plan):
        """The closed-form drain estimate stays near the cycle-level drains."""
        cyc = InferenceSimulator(chip).simulate(mlp_plan)
        ana = chip.noc.core_clock_divider * sum(
            estimate_drain_cycles(lp.traffic, chip.mesh, chip.noc).cycles
            for lp in mlp_plan.layers
        )
        assert 0.3 < ana / cyc.comm_cycles < 3.0

    def test_scaled_cycle_extrapolation(self, chip):
        """Force scaling on a real burst; extrapolation within 2x of exact."""
        plan = build_traditional_plan(lenet_spec(), 16)
        exact = InferenceSimulator(chip, SimConfig(max_cycle_sim_flits=10**9)).simulate(plan)
        scaled = InferenceSimulator(chip, SimConfig(max_cycle_sim_flits=1000)).simulate(plan)
        assert all(l.comm_mode in ("cycle", "none") for l in exact.layers)
        assert any(l.comm_mode == "scaled-cycle" for l in scaled.layers)
        assert 0.5 < scaled.comm_cycles / exact.comm_cycles < 2.0

    def test_clock_divider_scales_comm(self, mlp_plan):
        chip1 = ChipConfig.table2(16)
        chip1.noc = replace(chip1.noc, core_clock_divider=1)
        chip4 = ChipConfig.table2(16)
        chip4.noc = replace(chip4.noc, core_clock_divider=4)
        c1 = InferenceSimulator(chip1).simulate(mlp_plan)
        c4 = InferenceSimulator(chip4).simulate(mlp_plan)
        assert c4.comm_cycles == 4 * c1.comm_cycles


class TestSchemeOrdering:
    def test_structure_beats_traditional(self, chip):
        base = build_traditional_plan(table3_convnet_spec(groups=1), 16)
        grouped = build_traditional_plan(table3_convnet_spec(groups=16), 16)
        sim = InferenceSimulator(chip)
        r_base = sim.simulate(base)
        r_grouped = sim.simulate(grouped)
        assert r_grouped.speedup_vs(r_base) > 1.5
        assert r_grouped.comm_energy_reduction_vs(r_base) > 0.3

    def test_more_cores_faster_compute(self):
        plan4 = build_traditional_plan(lenet_spec(), 4)
        plan16 = build_traditional_plan(lenet_spec(), 16)
        r4 = InferenceSimulator(ChipConfig.table2(4)).simulate(plan4)
        r16 = InferenceSimulator(ChipConfig.table2(16)).simulate(plan16)
        assert r16.compute_cycles < r4.compute_cycles


class TestResultMetrics:
    def test_speedup_identity(self, chip, mlp_plan):
        r = InferenceSimulator(chip).simulate(mlp_plan)
        assert r.speedup_vs(r) == 1.0
        assert r.traffic_rate_vs(r) == 1.0
        assert r.comm_energy_reduction_vs(r) == 0.0

    def test_comm_fraction_in_range(self, chip, mlp_plan):
        r = InferenceSimulator(chip).simulate(mlp_plan)
        assert 0.0 < r.comm_fraction < 1.0

    def test_latency_ms(self, chip, mlp_plan):
        r = InferenceSimulator(chip).simulate(mlp_plan)
        assert r.latency_ms(1.0) == pytest.approx(r.total_cycles / 1e6)

    def test_summary_renders(self, chip, mlp_plan):
        text = InferenceSimulator(chip).simulate(mlp_plan).summary()
        assert "ip2" in text and "communication" in text

    def test_comm_speedup_infinite_when_zero(self, chip, mlp_plan):
        r = InferenceSimulator(chip).simulate(mlp_plan)
        silent = InferenceSimulator(chip).simulate(mlp_plan)
        for layer in silent.layers:
            layer.comm_cycles = 0
        assert silent.comm_speedup_vs(r) == float("inf")
