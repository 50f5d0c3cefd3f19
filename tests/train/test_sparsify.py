"""Tests for the SS / SS_Mask sparsified training recipes."""

import numpy as np
import pytest

from repro.datasets import SyntheticImageDataset
from repro.nn import Dense, ReLU, Sequential
from repro.partition import build_sparsified_plan
from repro.train import SparsifyConfig, TrainConfig, Trainer, train_sparsified


@pytest.fixture(scope="module")
def trained_setup():
    """A pretrained small MLP on an easy dataset, shared across tests."""
    dataset = SyntheticImageDataset.generate(
        "sp", (1, 12, 12), num_classes=4, train_size=200, test_size=80,
        noise=0.8, max_shift=1, seed=11, flat=True,
    )
    rng = np.random.default_rng(0)
    model = Sequential(
        [
            Dense(144, 64, name="fc1", rng=rng),
            ReLU(),
            Dense(64, 32, name="fc2", rng=rng),
            ReLU(),
            Dense(32, 4, name="fc3", rng=rng),
        ],
        input_shape=(144,),
        name="sp-mlp",
    )
    Trainer(model, TrainConfig(epochs=8, lr=0.05)).fit(dataset)
    return model, dataset, model.state_dict()


def quick_config(lam=0.3):
    return SparsifyConfig(
        lam_g=lam,
        sparsify=TrainConfig(epochs=4, lr=0.05, weight_decay=0.0),
        finetune=TrainConfig(epochs=2, lr=0.02),
    )


class TestTrainSparsified:
    def test_produces_block_zeros(self, trained_setup):
        model, dataset, state = trained_setup
        model.load_state_dict(state)
        result = train_sparsified(model, dataset, 4, "ss", quick_config())
        assert result.offdiag_zero_fraction > 0.1

    def test_ss_mask_prefers_near_blocks(self, trained_setup):
        """Surviving off-diagonal blocks sit closer than pruned ones."""
        model, dataset, state = trained_setup
        model.load_state_dict(state)
        result = train_sparsified(model, dataset, 4, "ss_mask", quick_config())
        from repro.partition import hop_distance_matrix

        d = hop_distance_matrix(4)
        survived, pruned = [], []
        for name, part in result.partitions.items():
            mask = result.pruned_blocks[name]
            for i in range(4):
                for j in range(4):
                    if i == j:
                        continue
                    (pruned if mask[i, j] else survived).append(d[i, j])
        if survived and pruned:
            assert np.mean(survived) <= np.mean(pruned) + 1e-9

    def test_zeros_survive_finetuning(self, trained_setup):
        model, dataset, state = trained_setup
        model.load_state_dict(state)
        result = train_sparsified(model, dataset, 4, "ss", quick_config())
        for name, part in result.partitions.items():
            w = model.get_parameter(name).data
            mask = part.zero_mask(w)
            # Everything hard-pruned is still exactly zero post-finetune.
            np.testing.assert_array_equal(
                mask & result.pruned_blocks[name], result.pruned_blocks[name]
            )

    def test_accuracy_not_destroyed(self, trained_setup):
        model, dataset, state = trained_setup
        model.load_state_dict(state)
        base_acc = model.accuracy(dataset.x_test, dataset.y_test)
        result = train_sparsified(model, dataset, 4, "ss", quick_config(lam=0.1))
        assert result.accuracy >= base_acc - 0.15

    def test_reduces_plan_traffic(self, trained_setup):
        model, dataset, state = trained_setup
        model.load_state_dict(state)
        base_traffic = build_sparsified_plan(model, 4).total_traffic_bytes
        train_sparsified(model, dataset, 4, "ss", quick_config())
        new_traffic = build_sparsified_plan(model, 4).total_traffic_bytes
        assert new_traffic < base_traffic

    def test_unknown_scheme(self, trained_setup):
        model, dataset, state = trained_setup
        model.load_state_dict(state)
        with pytest.raises(ValueError):
            train_sparsified(model, dataset, 4, "magic", quick_config())

    def test_histories_recorded(self, trained_setup):
        model, dataset, state = trained_setup
        model.load_state_dict(state)
        result = train_sparsified(model, dataset, 4, "ss", quick_config())
        assert len(result.sparsify_history.loss) == 4
        assert len(result.finetune_history.loss) == 2


class TestSparsifyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparsifyConfig(lam_g=-1)
        with pytest.raises(ValueError):
            SparsifyConfig(prune_rms_threshold=-1)
