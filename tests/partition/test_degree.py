"""Degree plans: per-layer core subsets built on the traditional machinery."""

import numpy as np
import pytest

from repro.models.zoo import alexnet_spec, convnet_spec, lenet_spec
from repro.partition import (
    build_degree_plan,
    build_traditional_plan,
    degree_out_bounds,
    valid_degree,
)


class TestDegreeOutBounds:
    def test_pads_idle_cores_with_empty_slices(self):
        layer = lenet_spec().compute_layers()[0]
        bounds = degree_out_bounds(layer, 4, 16)
        assert len(bounds) == 16
        active = [b for b in bounds if b[1] > b[0]]
        assert len(active) == 4
        c = layer.out_channels
        assert bounds[4:] == [(c, c)] * 12

    def test_full_degree_matches_default_split(self):
        layer = lenet_spec().compute_layers()[0]
        from repro.partition.layout import default_out_bounds

        assert degree_out_bounds(layer, 16, 16) == default_out_bounds(layer, 16)

    def test_degree_out_of_range(self):
        layer = lenet_spec().compute_layers()[0]
        with pytest.raises(ValueError):
            degree_out_bounds(layer, 0, 16)
        with pytest.raises(ValueError):
            degree_out_bounds(layer, 17, 16)


class TestValidDegree:
    def test_ungrouped_always_valid(self):
        layer = convnet_spec().compute_layers()[0]
        assert layer.groups <= 1
        assert all(valid_degree(layer, d) for d in (1, 2, 3, 5, 16))

    def test_grouped_alignment(self):
        grouped = [l for l in alexnet_spec().compute_layers() if l.groups > 1]
        assert grouped, "alexnet spec should contain grouped convs"
        layer = grouped[0]
        g = layer.groups
        assert valid_degree(layer, 1)  # whole layer on one core
        assert valid_degree(layer, g)
        assert valid_degree(layer, 2 * g)
        assert not valid_degree(layer, g + 1)

    def test_negative_degree(self):
        layer = lenet_spec().compute_layers()[0]
        assert not valid_degree(layer, 0)


class TestBuildDegreePlan:
    @pytest.mark.parametrize(
        "spec_fn", [lenet_spec, convnet_spec, alexnet_spec], ids=lambda f: f.__name__
    )
    def test_all_cores_degrees_equal_traditional(self, spec_fn):
        """Every layer at num_cores: bit-identical to the traditional plan."""
        spec = spec_fn()
        layers = spec.compute_layers()
        degree = build_degree_plan(spec, 16, [16] * len(layers))
        traditional = build_traditional_plan(spec, 16)
        for dp, tp in zip(degree.layers, traditional.layers):
            assert dp.out_bounds == tp.out_bounds
            assert np.array_equal(
                dp.traffic.bytes_matrix, tp.traffic.bytes_matrix
            )

    def test_degree_one_layer_has_single_worker(self):
        spec = lenet_spec()
        n = len(spec.compute_layers())
        plan = build_degree_plan(spec, 16, [1] * n)
        for lp in plan.layers:
            working = [w for w in lp.workloads() if w.out_channels > 0]
            assert len(working) == 1

    def test_lower_degree_moves_fewer_bytes(self):
        """A 16 -> 1 funnel ships less than a 16 -> 16 broadcast."""
        spec = convnet_spec()
        n = len(spec.compute_layers())
        narrow = build_degree_plan(spec, 16, [16] + [1] * (n - 1))
        wide = build_degree_plan(spec, 16, [16] * n)
        assert (
            narrow.layers[1].traffic.total_bytes
            < wide.layers[1].traffic.total_bytes
        )

    def test_first_layer_has_no_noc_traffic(self):
        spec = lenet_spec()
        n = len(spec.compute_layers())
        plan = build_degree_plan(spec, 16, [4] + [16] * (n - 1))
        assert plan.layers[0].traffic.total_bytes == 0

    def test_wrong_degree_count(self):
        with pytest.raises(ValueError):
            build_degree_plan(lenet_spec(), 16, [16, 16])

    def test_invalid_grouped_degree_rejected(self):
        spec = alexnet_spec()
        layers = spec.compute_layers()
        degrees = [16] * len(layers)
        grouped_idx = next(i for i, l in enumerate(layers) if l.groups > 1)
        degrees[grouped_idx] = layers[grouped_idx].groups + 1
        with pytest.raises(ValueError):
            build_degree_plan(spec, 16, degrees)

    def test_engine_simulatable(self):
        """Degree plans run through the exact engine unchanged."""
        from repro.accel import ChipConfig
        from repro.sim.engine import InferenceSimulator, SimConfig

        spec = lenet_spec()
        n = len(spec.compute_layers())
        plan = build_degree_plan(spec, 16, [16, 16] + [4] * (n - 2))
        sim = InferenceSimulator(ChipConfig.table2(16), SimConfig())
        result = sim.simulate(plan)
        assert result.total_cycles > 0
