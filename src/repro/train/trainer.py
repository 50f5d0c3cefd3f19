"""Training loop with regularizer and post-step hooks.

The trainer runs plain SGD-with-momentum minimization of softmax
cross-entropy, with two extension points the sparsification recipes use:

* a :class:`~repro.nn.regularizers.Regularizer` whose subgradients are added
  each step, and whose proximal operator (when it has one and ``use_prox``)
  runs after each optimizer step — group Lasso needs the proximal step to
  reach *exact* zeros;
* a ``post_step`` hook invoked after every update, used to keep pruned
  blocks at zero during fine-tuning.

Each epoch runs inside a ``train.epoch`` span (loss, reg-loss, and — when
tracing is on — weight sparsity as attributes) and reports
``train.epoch_loss`` into the global metrics registry.  Scoring is opt-in:
only when the caller passes ``eval_every`` does the span also carry the
epoch's train and test accuracy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ..datasets.loaders import DataLoader
from ..datasets.synthetic import SyntheticImageDataset
from ..nn.loss import SoftmaxCrossEntropy
from ..nn.network import Sequential
from ..nn.optim import SGD
from ..nn.regularizers import Regularizer
from ..obs import METRICS, span, tracing_enabled

__all__ = ["TrainConfig", "TrainHistory", "Trainer", "train_settings"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run."""

    epochs: int = 10
    batch_size: int = 64
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay: float = 1.0  # multiplicative per-epoch decay (1.0 = constant)
    max_grad_norm: float = 5.0  # global gradient-norm clip (0 disables)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if not 0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.max_grad_norm < 0:
            raise ValueError("max_grad_norm must be non-negative")


def train_settings(cfg: TrainConfig) -> dict:
    """Cache-key view of a :class:`TrainConfig`: every field, by name.

    ``tests/experiments/test_cache_keys.py`` pins the keys these settings
    mint, so a new field here re-keys every cached state.
    """
    return asdict(cfg)


@dataclass
class TrainHistory:
    """Per-epoch records of a training run."""

    loss: list[float] = field(default_factory=list)
    reg_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")


class Trainer:
    """Train a :class:`Sequential` on a :class:`SyntheticImageDataset`."""

    def __init__(
        self,
        model: Sequential,
        config: TrainConfig | None = None,
        regularizer: Regularizer | None = None,
        use_prox: bool = True,
        post_step: Callable[[Sequential], None] | None = None,
    ) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self.regularizer = regularizer
        self.use_prox = use_prox
        self.post_step = post_step
        self.loss_fn = SoftmaxCrossEntropy()

    def _weight_sparsity(self) -> float:
        """Fraction of exactly-zero parameter values (traced per epoch).

        Only computed when tracing is enabled — it scans every parameter,
        which is not free at per-epoch granularity.
        """
        total = 0
        zeros = 0
        for p in self.model.parameters():
            total += p.data.size
            zeros += p.data.size - np.count_nonzero(p.data)
        return zeros / total if total else 0.0

    def _clip_gradients(self, max_norm: float) -> None:
        """Scale all gradients so their global L2 norm is at most ``max_norm``.

        The squared norm accumulates per-parameter BLAS dot products over the
        flattened gradients (one reduction per tensor, no ``grad ** 2``
        temporaries); the scaling pass only runs when the norm exceeds the
        cap.  The observed norm lands in METRICS as ``train.grad_norm``.
        """
        total = 0.0
        params = list(self.model.parameters())
        for p in params:
            g = p.grad.reshape(-1)
            total += float(g @ g)
        norm = float(np.sqrt(total))
        METRICS.observe("train.grad_norm", norm, model=self.model.name)
        if norm > max_norm:
            scale = max_norm / norm
            for p in params:
                p.grad *= scale

    def fit(
        self,
        dataset: SyntheticImageDataset,
        eval_every: int = 0,
        verbose: bool = False,
    ) -> TrainHistory:
        """Run the configured number of epochs; returns the history.

        ``eval_every=n`` scores train and test accuracy every ``n`` epochs
        and after the last one; the default ``0`` scores nothing and leaves
        both accuracy lists of the history empty.  ``verbose`` prints each
        epoch's loss, plus its scores when the epoch was scored.
        """
        if eval_every < 0:
            raise ValueError(f"eval_every must be non-negative, got {eval_every}")
        cfg = self.config
        optimizer = SGD(
            self.model.parameters(),
            lr=cfg.lr,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )
        loader = DataLoader(
            dataset.x_train, dataset.y_train, batch_size=cfg.batch_size,
            shuffle=True, seed=cfg.seed,
        )
        history = TrainHistory()
        prox = getattr(self.regularizer, "prox_step", None) if self.use_prox else None

        self.model.train()
        for epoch in range(cfg.epochs):
            with span("train.epoch", model=self.model.name, epoch=epoch) as sp:
                epoch_loss = 0.0
                for xb, yb in loader:
                    logits = self.model.forward(xb)
                    loss = self.loss_fn(logits, yb)
                    self.model.zero_grad()
                    self.model.backward(self.loss_fn.backward())
                    if self.regularizer is not None and prox is None:
                        self.regularizer.add_gradients(self.model)
                    if cfg.max_grad_norm:
                        self._clip_gradients(cfg.max_grad_norm)
                    optimizer.step()
                    if prox is not None:
                        prox(self.model, optimizer.lr)
                    if self.post_step is not None:
                        self.post_step(self.model)
                    epoch_loss += loss
                optimizer.lr *= cfg.lr_decay

                history.loss.append(epoch_loss / max(1, len(loader)))
                history.reg_loss.append(
                    self.regularizer.loss(self.model) if self.regularizer else 0.0
                )
                METRICS.observe("train.epoch_loss", history.loss[-1], model=self.model.name)
                METRICS.set_gauge("train.last_loss", history.loss[-1], model=self.model.name)
                sp.set(loss=history.loss[-1], reg_loss=history.reg_loss[-1])
                if tracing_enabled():
                    sp.set(sparsity=self._weight_sparsity())
                line = f"epoch {epoch + 1}/{cfg.epochs}: loss={history.loss[-1]:.4f}"
                if eval_every and (
                    (epoch + 1) % eval_every == 0 or epoch == cfg.epochs - 1
                ):
                    train_acc = self.model.accuracy(dataset.x_train, dataset.y_train)
                    test_acc = self.model.accuracy(dataset.x_test, dataset.y_test)
                    history.train_accuracy.append(train_acc)
                    history.test_accuracy.append(test_acc)
                    sp.set(train_accuracy=train_acc, test_accuracy=test_acc)
                    line += f" train={train_acc:.4f} test={test_acc:.4f}"
                if verbose:  # pragma: no cover - console output
                    print(line)
                self.model.train()
        self.model.eval()
        return history
