"""Tests for the training loop."""

import numpy as np
import pytest

from repro.nn import Conv2D, Dense, Flatten, Regularizer, ReLU, Sequential
from repro.train import TrainConfig, Trainer


class L2Regularizer(Regularizer):
    """``lam * sum w^2`` over weight matrices: a penalty with no prox step,
    so the trainer adds its gradients through ``add_gradients``."""

    def __init__(self, lam: float) -> None:
        self.lam = lam

    def _weights(self, model):
        return [p for name, p in model.named_parameters() if name.endswith(".weight")]

    def loss(self, model) -> float:
        return self.lam * sum(float(np.sum(p.data ** 2)) for p in self._weights(model))

    def add_gradients(self, model) -> None:
        for p in self._weights(model):
            p.grad += 2.0 * self.lam * p.data


def tiny_model(in_dim, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [Dense(in_dim, 32, name="fc1", rng=rng), ReLU(), Dense(32, classes, name="fc2", rng=rng)],
        input_shape=(in_dim,),
        name="tiny",
    )


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_grad_norm=-1)


class TestTrainer:
    def test_loss_decreases(self, tiny_flat_dataset):
        model = tiny_model(144)
        history = Trainer(model, TrainConfig(epochs=6, lr=0.05)).fit(tiny_flat_dataset)
        assert history.loss[-1] < history.loss[0]

    def test_learns_easy_data(self, tiny_flat_dataset):
        model = tiny_model(144)
        history = Trainer(model, TrainConfig(epochs=8, lr=0.05)).fit(
            tiny_flat_dataset, eval_every=1
        )
        assert history.final_test_accuracy > 0.8

    def test_history_lengths(self, tiny_flat_dataset):
        model = tiny_model(144)
        history = Trainer(model, TrainConfig(epochs=3)).fit(
            tiny_flat_dataset, eval_every=1
        )
        assert len(history.loss) == 3
        assert len(history.test_accuracy) == 3

    def test_eval_every(self, tiny_flat_dataset):
        model = tiny_model(144)
        history = Trainer(model, TrainConfig(epochs=4)).fit(
            tiny_flat_dataset, eval_every=2
        )
        assert len(history.test_accuracy) == 2

    def test_default_fit_scores_nothing(self, tiny_flat_dataset, monkeypatch):
        calls = []
        original = Sequential.accuracy

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Sequential, "accuracy", counting)
        history = Trainer(tiny_model(144), TrainConfig(epochs=3)).fit(tiny_flat_dataset)
        assert calls == []
        assert history.train_accuracy == [] and history.test_accuracy == []
        assert len(history.loss) == 3

    def test_negative_eval_every_rejected_before_training(self, tiny_flat_dataset):
        model = tiny_model(144)
        before = model.state_dict()
        steps = []
        trainer = Trainer(
            model, TrainConfig(epochs=1), post_step=lambda m: steps.append(1)
        )
        with pytest.raises(ValueError, match="eval_every"):
            trainer.fit(tiny_flat_dataset, eval_every=-1)
        assert steps == []
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])

    def test_model_left_in_eval_mode(self, tiny_flat_dataset):
        model = tiny_model(144)
        Trainer(model, TrainConfig(epochs=1)).fit(tiny_flat_dataset)
        assert all(not layer.training for layer in model.layers)

    def test_regularizer_loss_recorded(self, tiny_flat_dataset):
        model = tiny_model(144)
        trainer = Trainer(
            model, TrainConfig(epochs=2), regularizer=L2Regularizer(0.01),
            use_prox=False,
        )
        history = trainer.fit(tiny_flat_dataset)
        assert all(r > 0 for r in history.reg_loss)

    def test_regularizer_shrinks_weights(self, tiny_flat_dataset):
        plain = tiny_model(144, seed=3)
        reg = tiny_model(144, seed=3)
        Trainer(plain, TrainConfig(epochs=4, weight_decay=0.0)).fit(tiny_flat_dataset)
        Trainer(
            reg, TrainConfig(epochs=4, weight_decay=0.0),
            regularizer=L2Regularizer(0.01), use_prox=False,
        ).fit(tiny_flat_dataset)
        def norm(m):
            return sum(np.sum(p.data ** 2) for p in m.parameters())
        assert norm(reg) < norm(plain)

    def test_second_fit_reuses_scratch_buffers(self, tiny_image_dataset):
        """Sparsify-then-finetune trains one model twice; the second fit keeps
        the conv layer's work buffers instead of reallocating them."""
        rng = np.random.default_rng(0)
        conv = Conv2D(1, 4, 3, name="conv1", rng=rng)
        model = Sequential(
            [conv, ReLU(), Flatten(), Dense(4 * 10 * 10, 4, name="fc", rng=rng)],
            input_shape=(1, 12, 12),
            name="tiny-conv",
        )
        cfg = TrainConfig(epochs=1, batch_size=40)
        Trainer(model, cfg).fit(tiny_image_dataset)
        before = dict(conv._scratch_buffers)
        assert before
        Trainer(model, cfg).fit(tiny_image_dataset)
        assert all(conv._scratch_buffers[k] is buf for k, buf in before.items())

    def test_post_step_hook_runs(self, tiny_flat_dataset):
        model = tiny_model(144)
        calls = []
        Trainer(
            model, TrainConfig(epochs=1, batch_size=40),
            post_step=lambda m: calls.append(1),
        ).fit(tiny_flat_dataset)
        assert len(calls) == 4  # 160 samples / 40 per batch

    def test_gradient_clipping_caps_norm(self, tiny_flat_dataset):
        """With a tiny clip threshold, training stays finite even at lr=5."""
        model = tiny_model(144)
        history = Trainer(
            model, TrainConfig(epochs=2, lr=5.0, max_grad_norm=0.001)
        ).fit(tiny_flat_dataset)
        assert np.isfinite(history.loss[-1])
        for p in model.parameters():
            assert np.all(np.isfinite(p.data))

    def test_lr_decay_applied(self, tiny_flat_dataset):
        model = tiny_model(144)
        trainer = Trainer(model, TrainConfig(epochs=3, lr=0.1, lr_decay=0.5))
        trainer.fit(tiny_flat_dataset)
        # No direct handle on the optimizer; train longer and check stability.
        assert np.isfinite(trainer.model.forward(tiny_flat_dataset.x_test[:4])).all()

    def test_deterministic_given_seed(self, tiny_flat_dataset):
        accs = []
        for _ in range(2):
            model = tiny_model(144, seed=2)
            h = Trainer(model, TrainConfig(epochs=2, seed=9)).fit(
                tiny_flat_dataset, eval_every=1
            )
            accs.append(h.final_test_accuracy)
        assert accs[0] == accs[1]
