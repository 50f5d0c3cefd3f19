"""Loss functions.

Each loss exposes ``forward(logits_or_pred, targets) -> float`` and
``backward() -> np.ndarray`` returning the gradient w.r.t. the predictions,
already divided by the batch size so optimizers see per-sample averages.
"""

from __future__ import annotations

import numpy as np

from .functional import log_softmax, one_hot, softmax

__all__ = ["SoftmaxCrossEntropy"]


class SoftmaxCrossEntropy:
    """Fused softmax + cross-entropy over integer class labels."""

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
        labels = np.asarray(labels)
        if labels.shape[0] != logits.shape[0]:
            raise ValueError(
                f"batch mismatch: logits {logits.shape[0]}, labels {labels.shape[0]}"
            )
        self._probs = softmax(logits, axis=1)
        self._labels = labels
        logp = log_softmax(logits, axis=1)
        return float(-np.mean(logp[np.arange(labels.shape[0]), labels]))

    def backward(self) -> np.ndarray:
        if self._probs is None or self._labels is None:
            raise RuntimeError("backward called before forward")
        n, k = self._probs.shape
        grad = (self._probs - one_hot(self._labels, k, dtype=self._probs.dtype)) / n
        return grad

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)

