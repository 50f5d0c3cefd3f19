"""Tests for loss functions and optimizers."""

import numpy as np
import pytest

from repro.nn import Parameter, SGD, SoftmaxCrossEntropy
from repro.nn.functional import log_softmax

from ..conftest import numeric_gradient


class TestSoftmaxCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        loss = SoftmaxCrossEntropy()(logits, labels)
        manual = -np.mean(log_softmax(logits, axis=1)[np.arange(4), labels])
        assert np.isclose(loss, manual)

    def test_perfect_prediction_low_loss(self):
        logits = np.eye(3) * 50.0
        assert SoftmaxCrossEntropy()(logits, np.array([0, 1, 2])) < 1e-6

    def test_gradient(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 0, 3])
        fn = SoftmaxCrossEntropy()
        fn(logits, labels)
        grad = fn.backward()

        def loss():
            return fn.forward(logits, labels)

        num = numeric_gradient(loss, logits)
        np.testing.assert_allclose(grad, num, atol=1e-6)

    def test_gradient_rows_sum_to_zero(self, rng):
        fn = SoftmaxCrossEntropy()
        fn(rng.normal(size=(5, 3)), np.array([0, 1, 2, 0, 1]))
        np.testing.assert_allclose(fn.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_batch_mismatch(self, rng):
        with pytest.raises(ValueError):
            SoftmaxCrossEntropy()(rng.normal(size=(3, 2)), np.array([0, 1]))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropy().backward()


def quadratic_params(rng):
    """Parameters of a convex quadratic; gradient = 2*(x - target)."""
    p = Parameter(rng.normal(size=5))
    target = rng.normal(size=5)
    return p, target


class TestSGD:
    def test_converges_on_quadratic(self, rng):
        p, target = quadratic_params(rng)
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            p.zero_grad()
            p.grad += 2 * (p.data - target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-6)

    def test_momentum_accelerates(self, rng):
        losses = {}
        for momentum in (0.0, 0.9):
            p = Parameter(np.full(4, 10.0))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                p.zero_grad()
                p.grad += 2 * p.data
                opt.step()
            losses[momentum] = float(np.sum(p.data ** 2))
        assert losses[0.9] < losses[0.0]

    def test_weight_decay_shrinks(self):
        p = Parameter(np.ones(3))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.step()  # grad 0, decay pulls toward zero
        assert np.all(p.data < 1.0)

    def test_zero_grad(self):
        p = Parameter(np.ones(2))
        p.grad += 5.0
        SGD([p], lr=0.1).zero_grad()
        np.testing.assert_array_equal(p.grad, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(1))], lr=0.0)

    def test_rejects_bad_momentum(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(1))], lr=0.1, momentum=1.0)
