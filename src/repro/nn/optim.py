"""Gradient-descent optimizers.

Optimizers operate on the flat parameter list of a model.  Regularizer
gradients are added by the trainer before ``step`` is called, so optimizers
stay oblivious to the group-Lasso machinery.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .layers.base import Parameter

__all__ = ["Optimizer", "SGD"]


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum and weight decay."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for i, p in enumerate(self.parameters):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v = self._velocity[i]
                v *= self.momentum
                v -= self.lr * grad
                p.data += v
            else:
                p.data -= self.lr * grad
