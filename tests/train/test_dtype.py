"""Training computes in float64 end to end.

Pins the contract that a default training run leaves every parameter and
gradient float64, and that loading a state stored at another precision
casts it into the model's float64 parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import synthetic_mnist
from repro.experiments.config import FAST
from repro.models.factory import build_mlp
from repro.train.trainer import TrainConfig, Trainer


@pytest.fixture(scope="module")
def dataset():
    # The table1 fast profile sizes: enough signal for stable accuracy.
    return synthetic_mnist(
        flat=True, train_size=FAST.train_size, test_size=FAST.test_size, seed=FAST.seed
    )


class TestDefaultDtypeUnchanged:
    def test_default_run_stays_float64(self, dataset):
        model = build_mlp(seed=FAST.seed)
        Trainer(model, TrainConfig(epochs=1)).fit(dataset)
        assert all(p.data.dtype == np.float64 for p in model.parameters())
        assert all(p.grad.dtype == np.float64 for p in model.parameters())

    def test_state_dict_roundtrip_preserves_dtype(self, dataset):
        model = build_mlp(seed=FAST.seed)
        state = {k: v.astype(np.float32) for k, v in model.state_dict().items()}
        fresh = build_mlp(seed=FAST.seed)
        fresh.load_state_dict(state)  # silent upcast into float64 params
        assert all(p.data.dtype == np.float64 for p in fresh.parameters())
        roundtrip = fresh.state_dict()
        assert all(a.dtype == np.float64 for a in roundtrip.values())
        for name, value in state.items():
            np.testing.assert_array_equal(roundtrip[name], value)
