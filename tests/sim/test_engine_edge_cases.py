"""Edge cases of the end-to-end engine: degenerate chips, rectangular
meshes, grouped specs at several scales."""

import pytest

from repro.accel import ChipConfig
from repro.models import get_spec, lenet_spec, mlp_spec, table3_convnet_spec
from repro.noc import estimate_drain_cycles
from repro.partition import build_traditional_plan
from repro.sim import InferenceSimulator


class TestSingleCoreChip:
    def test_no_communication(self):
        chip = ChipConfig.table2(1)
        plan = build_traditional_plan(mlp_spec(), 1)
        result = InferenceSimulator(chip).simulate(plan)
        assert result.comm_cycles == 0
        assert result.total_traffic_bytes == 0
        assert result.total_cycles > 0

    def test_single_core_slower_than_sixteen(self):
        one = InferenceSimulator(ChipConfig.table2(1)).simulate(
            build_traditional_plan(lenet_spec(), 1)
        )
        sixteen = InferenceSimulator(ChipConfig.table2(16)).simulate(
            build_traditional_plan(lenet_spec(), 16)
        )
        assert one.compute_cycles > sixteen.compute_cycles


class TestRectangularMeshes:
    @pytest.mark.parametrize("cores", [2, 8, 32])
    def test_non_square_chips_simulate(self, cores):
        chip = ChipConfig.table2(cores)
        plan = build_traditional_plan(lenet_spec(), cores)
        result = InferenceSimulator(chip).simulate(plan)
        assert result.total_cycles > 0
        assert result.comm_cycles > 0


class TestGroupedSpecsAcrossScales:
    @pytest.mark.parametrize("cores,groups", [(4, 16), (8, 8), (16, 4)])
    def test_grouped_conv_layers(self, cores, groups):
        """Groups below, equal to, and above the core count all simulate."""
        spec = table3_convnet_spec(groups=groups)
        chip = ChipConfig.table2(cores)
        plan = build_traditional_plan(spec, cores, scheme="structure")
        result = InferenceSimulator(chip).simulate(plan)
        assert result.total_cycles > 0

    def test_groups_above_cores_no_conv_traffic(self):
        spec = table3_convnet_spec(groups=16)
        plan = build_traditional_plan(spec, 4, scheme="structure")
        assert plan.traffic_by_layer()["conv2"] == 0


class TestCommModesLargeTraffic:
    def test_vgg19_simulates_via_scaling(self):
        """VGG19's megabyte bursts must go through the scaled-cycle path and
        produce finite, ordered results."""
        chip = ChipConfig.table2(16)
        plan = build_traditional_plan(get_spec("vgg19"), 16)
        result = InferenceSimulator(chip).simulate(plan)
        modes = {l.comm_mode for l in result.layers if l.traffic_bytes}
        assert "scaled-cycle" in modes
        assert result.total_cycles > 0
        # Conv1_2 moves the most data and must cost the most comm time.
        comm = {l.layer_name: l.comm_cycles for l in result.layers}
        assert comm["conv1_2"] == max(comm.values())

    def test_scaled_matches_analytical_within_factor(self):
        chip = ChipConfig.table2(16)
        plan = build_traditional_plan(get_spec("vgg19"), 16)
        scaled = InferenceSimulator(chip).simulate(plan)
        ana = chip.noc.core_clock_divider * sum(
            estimate_drain_cycles(lp.traffic, chip.mesh, chip.noc).cycles
            for lp in plan.layers
        )
        assert 0.3 < scaled.comm_cycles / ana < 4.0
