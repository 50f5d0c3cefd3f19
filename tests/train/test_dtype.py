"""Configurable-precision training: float32 end-to-end vs the float64 default.

Covers the full hot path in reduced precision — forward, backward, group
Lasso (fused kernels), gradient clipping, optimizer state — and pins the
contract that the default dtype leaves every tensor float64 exactly as
before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import synthetic_mnist
from repro.experiments.config import FAST
from repro.models.factory import build_mlp
from repro.train.sparsify import SparsifyConfig, train_sparsified
from repro.train.trainer import TrainConfig, Trainer


@pytest.fixture(scope="module")
def dataset():
    # The table1 fast profile sizes: enough signal for stable accuracy.
    return synthetic_mnist(
        flat=True, train_size=FAST.train_size, test_size=FAST.test_size, seed=FAST.seed
    )


def _train(dataset, dtype: str) -> tuple[float, "np.dtype"]:
    model = build_mlp(seed=FAST.seed)
    cfg = TrainConfig(
        epochs=FAST.baseline.epochs,
        lr=FAST.baseline.lr,
        momentum=FAST.baseline.momentum,
        weight_decay=FAST.baseline.weight_decay,
        dtype=dtype,
    )
    history = Trainer(model, cfg).fit(dataset, eval_every=1)
    dtypes = {p.data.dtype for p in model.parameters()}
    assert len(dtypes) == 1
    return history.final_test_accuracy, dtypes.pop()


class TestFloat32EndToEnd:
    def test_accuracy_within_tolerance_of_float64(self, dataset):
        acc64, dt64 = _train(dataset, "float64")
        acc32, dt32 = _train(dataset, "float32")
        assert dt64 == np.dtype(np.float64)
        assert dt32 == np.dtype(np.float32)
        # Precision changes rounding, not learnability: the fast-profile MLP
        # must land within two points of the float64 run, either way.
        assert abs(acc32 - acc64) <= 0.02

    def test_float32_sparsified_training_produces_exact_zeros(self, dataset):
        model = build_mlp(seed=FAST.seed)
        result = train_sparsified(
            model, dataset, num_cores=16, scheme="ss",
            config=SparsifyConfig(
                lam_g=0.1,
                sparsify=TrainConfig(epochs=1, lr=0.02, dtype="float32"),
                finetune=TrainConfig(epochs=1, lr=0.01, dtype="float32"),
                prune_rms_threshold=FAST.prune_rms_threshold,
            ),
        )
        assert all(p.data.dtype == np.float32 for p in model.parameters())
        # The proximal operator must still drive whole blocks to exact zero.
        zero_fracs = [
            partition.zero_mask(model.get_parameter(name).data).mean()
            for name, partition in result.partitions.items()
        ]
        assert max(zero_fracs) > 0.0

    def test_env_var_selects_dtype(self, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_DTYPE", "float32")
        model = build_mlp(seed=FAST.seed)
        Trainer(model, TrainConfig(epochs=0)).fit(dataset)
        assert all(p.data.dtype == np.float32 for p in model.parameters())


class TestDefaultDtypeUnchanged:
    def test_default_run_stays_float64(self, dataset, monkeypatch):
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        model = build_mlp(seed=FAST.seed)
        Trainer(model, TrainConfig(epochs=1)).fit(dataset)
        assert all(p.data.dtype == np.float64 for p in model.parameters())
        assert all(p.grad.dtype == np.float64 for p in model.parameters())

    def test_state_dict_roundtrip_preserves_dtype(self, dataset):
        model = build_mlp(seed=FAST.seed)
        model.astype(np.float32)
        state = model.state_dict()
        assert all(a.dtype == np.float32 for a in state.values())
        fresh = build_mlp(seed=FAST.seed)  # float64 model
        fresh.load_state_dict(state)  # silent upcast into float64 params
        assert all(p.data.dtype == np.float64 for p in fresh.parameters())
