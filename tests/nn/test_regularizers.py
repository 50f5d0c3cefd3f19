"""Tests for the (masked) group-Lasso regularizer."""

import numpy as np
import pytest

from repro.nn import Dense, GroupLassoRegularizer, ReLU, Sequential
from repro.nn.sparsity import CoreBlockPartition

from ..conftest import numeric_gradient


def two_layer_model(rng=None):
    rng = rng or np.random.default_rng(0)
    return Sequential(
        [Dense(8, 8, name="ip1", rng=rng), ReLU(), Dense(8, 4, name="ip2", rng=rng)],
        input_shape=(8,),
        name="m",
    )


def group_lasso_for(model, num_cores=4, lam=0.1, strength=None, normalize=False):
    partitions = {
        "ip1.weight": CoreBlockPartition((8, 8), "dense", num_cores),
    }
    return GroupLassoRegularizer(partitions, lam=lam, strength=strength,
                                 normalize=normalize)


class TestGroupLasso:
    def test_loss_matches_block_norms(self):
        model = two_layer_model()
        reg = group_lasso_for(model, lam=0.1)
        w = model.get_parameter("ip1.weight").data
        norms = reg.partitions["ip1.weight"].block_norms(w)
        assert np.isclose(reg.loss(model), 0.1 * norms.sum())

    def test_strength_zero_diagonal_ignores_diag(self):
        model = two_layer_model()
        s = np.ones((4, 4))
        np.fill_diagonal(s, 0.0)
        reg = group_lasso_for(model, strength=s)
        w = model.get_parameter("ip1.weight").data
        norms = reg.partitions["ip1.weight"].block_norms(w)
        off = ~np.eye(4, dtype=bool)
        assert np.isclose(reg.loss(model), 0.1 * norms[off].sum())

    def test_subgradient_matches_numeric(self):
        model = two_layer_model()
        reg = group_lasso_for(model, lam=0.05)
        model.zero_grad()
        reg.add_gradients(model)
        p = model.get_parameter("ip1.weight")

        def loss():
            return reg.loss(model)

        num = numeric_gradient(loss, p.data)
        np.testing.assert_allclose(p.grad, num, atol=1e-5)

    def test_prox_shrinks_block_norms(self):
        model = two_layer_model()
        reg = group_lasso_for(model, lam=0.5)
        w = model.get_parameter("ip1.weight")
        before = reg.partitions["ip1.weight"].block_norms(w.data)
        reg.prox_step(model, lr=0.1)
        after = reg.partitions["ip1.weight"].block_norms(w.data)
        assert np.all(after <= before + 1e-12)

    def test_prox_produces_exact_zeros(self):
        model = two_layer_model()
        w = model.get_parameter("ip1.weight")
        w.data *= 1e-4  # tiny weights: one prox step kills them
        reg = group_lasso_for(model, lam=1.0)
        reg.prox_step(model, lr=0.1)
        assert np.all(w.data == 0.0)

    def test_prox_is_proximal_operator(self):
        """Manual check of the soft-threshold formula on one block."""
        model = two_layer_model()
        w = model.get_parameter("ip1.weight")
        part = CoreBlockPartition((8, 8), "dense", 4)
        block_before = w.data[part.block_slices(0, 1)].copy()
        norm = np.sqrt(np.sum(block_before ** 2))
        lam, lr = 0.2, 0.05
        reg = GroupLassoRegularizer({"ip1.weight": part}, lam=lam, normalize=False)
        reg.prox_step(model, lr)
        expected = max(0.0, 1 - lr * lam / norm) * block_before
        np.testing.assert_allclose(
            w.data[part.block_slices(0, 1)], expected, atol=1e-12
        )

    def test_zero_masks(self):
        model = two_layer_model()
        part = CoreBlockPartition((8, 8), "dense", 4)
        reg = GroupLassoRegularizer({"ip1.weight": part}, lam=0.1)
        w = model.get_parameter("ip1.weight")
        w.data[part.block_slices(2, 3)] = 0.0
        masks = reg.zero_masks(model)
        assert masks["ip1.weight"][2, 3]
        assert not masks["ip1.weight"][0, 0]

    def test_normalize_scales_by_block_size(self):
        model = two_layer_model()
        reg_plain = group_lasso_for(model, lam=0.1, normalize=False)
        reg_norm = group_lasso_for(model, lam=0.1, normalize=True)
        # 2x2 blocks: sqrt(4) = 2x penalty.
        assert np.isclose(reg_norm.loss(model), 2 * reg_plain.loss(model))

    def test_strength_shape_check(self):
        model = two_layer_model()
        with pytest.raises(ValueError):
            group_lasso_for(model, strength=np.ones((3, 3)))

    def test_negative_strength_rejected(self):
        model = two_layer_model()
        with pytest.raises(ValueError):
            group_lasso_for(model, strength=-np.ones((4, 4)))

    def test_empty_partitions_rejected(self):
        with pytest.raises(ValueError):
            GroupLassoRegularizer({}, lam=0.1)

    def test_mismatched_core_counts_rejected(self):
        with pytest.raises(ValueError):
            GroupLassoRegularizer(
                {
                    "a": CoreBlockPartition((8, 8), "dense", 4),
                    "b": CoreBlockPartition((8, 8), "dense", 2),
                },
                lam=0.1,
            )
