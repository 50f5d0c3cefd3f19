"""Tests for the communication-aware sparsified scheme."""

import numpy as np
import pytest

from repro.models import build_lenet, build_mlp
from repro.partition import (
    build_sparsified_plan,
    build_traditional_plan,
    layer_block_partitions,
    sparsified_needs,
)
from repro.models.spec import LayerSpec, NetworkSpec


class TestSparsifiedNeeds:
    def conv_layer(self):
        return LayerSpec(
            name="c", kind="conv", in_shape=(8, 4, 4), out_shape=(8, 4, 4),
            kernel=3, pad=1,
        )

    def test_dense_weight_pattern(self):
        layer = LayerSpec(name="d", kind="dense", in_shape=(8,), out_shape=(4,))
        w = np.zeros((8, 4))
        w[0, 0] = 1.0  # feature 0 feeds consumer slice 0
        w[5, 3] = 1.0  # feature 5 feeds consumer slice 1
        needs = sparsified_needs(layer, w, [(0, 2), (2, 4)])
        assert needs[0, 0] and not needs[0, 1]
        assert needs[5, 1] and not needs[5, 0]
        assert not needs[1].any()

    def test_conv_weight_pattern(self):
        layer = self.conv_layer()
        w = np.zeros((8, 8, 3, 3))
        w[0, 3, 1, 1] = 0.5  # output 0 (core 0) uses input channel 3
        needs = sparsified_needs(layer, w, [(0, 4), (4, 8)])
        assert needs[3, 0]
        assert not needs[3, 1]
        assert needs[:, 1].sum() == 0

    def test_tolerance(self):
        layer = self.conv_layer()
        w = np.full((8, 8, 3, 3), 1e-6)
        assert not sparsified_needs(layer, w, [(0, 8)], tol=1e-3).any()
        assert sparsified_needs(layer, w, [(0, 8)], tol=0.0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sparsified_needs(self.conv_layer(), np.zeros((4, 4, 3, 3)), [(0, 8)])


class TestLayerBlockPartitions:
    def test_excludes_first_layer(self):
        parts = layer_block_partitions(build_mlp(), 16)
        assert "ip1.weight" not in parts
        assert set(parts) == {"ip2.weight", "ip3.weight"}

    def test_lenet_includes_conv2_and_fcs(self):
        parts = layer_block_partitions(build_lenet(), 4)
        assert set(parts) == {"conv2.weight", "ip1.weight", "ip2.weight"}

    def test_dense_after_conv_producer_scaled(self):
        """ip1's producer bounds follow conv2's physical channel layout."""
        parts = layer_block_partitions(build_lenet(), 4)
        ip1 = parts["ip1.weight"]
        # conv2 has 50 channels -> bounds (13,13,12,12); each channel is 4x4.
        expected = [(0, 13 * 16), (13 * 16, 26 * 16), (26 * 16, 38 * 16), (38 * 16, 800)]
        assert ip1.producer_bounds == expected

    def test_partition_shapes_match_weights(self):
        model = build_lenet()
        for name, part in layer_block_partitions(model, 4).items():
            assert part.shape == model.get_parameter(name).shape

    def test_grouped_model_rejected(self):
        from repro.models import build_table3_convnet

        with pytest.raises(ValueError):
            layer_block_partitions(build_table3_convnet(groups=4), 4)


class TestBuildSparsifiedPlan:
    def test_dense_model_equals_traditional_traffic(self):
        """A dense (nothing pruned) model must reproduce the traditional plan."""
        model = build_mlp(seed=0)
        spec = NetworkSpec.from_sequential(model)
        sparsified = build_sparsified_plan(model, 16)
        traditional = build_traditional_plan(spec, 16)
        for sp, tr in zip(sparsified.layers, traditional.layers):
            np.testing.assert_array_equal(
                sp.traffic.bytes_matrix, tr.traffic.bytes_matrix
            )
            # On dense weights the need-derived and grouped workload rules agree.
            assert sp.core_workloads == tr.core_workloads

    def test_pruned_block_removes_traffic(self):
        model = build_mlp(seed=0)
        parts = layer_block_partitions(model, 16)
        baseline = build_sparsified_plan(model, 16).total_traffic_bytes
        # Zero the block from producer core 0 to consumer core 5 in ip2.
        w = model.get_parameter("ip2.weight")
        part = parts["ip2.weight"]
        w.data[part.block_slices(0, 5)] = 0.0
        plan = build_sparsified_plan(model, 16)
        ip2 = next(lp for lp in plan.layers if lp.layer.name == "ip2")
        assert ip2.traffic.bytes_matrix[0, 5] == 0
        assert plan.total_traffic_bytes < baseline

    def test_fully_block_diagonal_no_traffic(self):
        model = build_mlp(seed=0)
        parts = layer_block_partitions(model, 16)
        for name, part in parts.items():
            part.apply_block_mask(
                model.get_parameter(name).data, np.eye(16, dtype=bool)
            )
        plan = build_sparsified_plan(model, 16)
        assert plan.total_traffic_bytes == 0

    def test_in_channels_used_reflects_sparsity(self):
        model = build_mlp(seed=0)
        parts = layer_block_partitions(model, 16)
        parts["ip2.weight"].apply_block_mask(
            model.get_parameter("ip2.weight").data, np.eye(16, dtype=bool)
        )
        plan = build_sparsified_plan(model, 16)
        ip2 = next(lp for lp in plan.layers if lp.layer.name == "ip2")
        # Each core now consumes only its own 32 producer features.
        assert all(w.in_channels_used == 32 for w in ip2.workloads())

    def test_first_layer_full_compute(self):
        model = build_mlp(seed=0)
        plan = build_sparsified_plan(model, 16)
        ip1 = plan.layers[0]
        assert ip1.traffic.total_bytes == 0
        assert all(w.in_channels_used == 784 for w in ip1.workloads())

    def test_nonfinite_weights_rejected(self):
        model = build_mlp(seed=0)
        model.get_parameter("ip2.weight").data[0, 0] = np.nan
        with pytest.raises(ValueError):
            build_sparsified_plan(model, 16)

    def test_traffic_rate_metric(self):
        model = build_mlp(seed=0)
        base = build_sparsified_plan(model, 16, scheme="baseline")
        assert base.traffic_rate_vs(base) == 1.0
