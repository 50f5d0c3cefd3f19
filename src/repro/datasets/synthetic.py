"""Deterministic synthetic image-classification datasets.

The paper trains on MNIST, CIFAR-10 and ImageNet(10).  Those corpora are not
available offline, so this module generates *class-conditional* synthetic
images with matching tensor shapes: each class is defined by a smooth random
prototype; samples are noisy, randomly shifted renditions of their class
prototype.  The task difficulty is controlled by the noise level and shift
range, chosen so the benchmark networks land in a non-trivial accuracy regime
(clearly above chance, clearly below 100%) where accuracy *differences*
between parallelization schemes are observable — which is what the paper's
comparisons need.

Everything is seeded: the same constructor arguments always produce the same
arrays, so experiments and tests are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "smooth_prototypes",
    "render_samples",
    "SyntheticImageDataset",
    "synthetic_mnist",
    "synthetic_cifar10",
    "synthetic_imagenet10",
    "MNIST_NAME",
    "CIFAR10_NAME",
    "IMAGENET10_NAME",
]

#: Names the ``synthetic_*`` builders give their datasets, readable before
#: any array is generated (cache keys embed them).
MNIST_NAME = "synthetic-mnist"
CIFAR10_NAME = "synthetic-cifar10"
IMAGENET10_NAME = "synthetic-imagenet10"


def _box_blur(img: np.ndarray, passes: int = 3) -> np.ndarray:
    """Cheap separable 3-tap blur used to make prototypes smooth."""
    out = img
    for _ in range(passes):
        padded = np.pad(out, ((0, 0), (1, 1), (1, 1)), mode="edge")
        out = (
            padded[:, :-2, 1:-1] + padded[:, 1:-1, 1:-1] + padded[:, 2:, 1:-1]
        ) / 3.0
        padded = np.pad(out, ((0, 0), (1, 1), (1, 1)), mode="edge")
        out = (
            padded[:, 1:-1, :-2] + padded[:, 1:-1, 1:-1] + padded[:, 1:-1, 2:]
        ) / 3.0
    return out


def smooth_prototypes(
    num_classes: int, shape: tuple[int, int, int], rng: np.random.Generator
) -> np.ndarray:
    """Per-class smooth prototype images of shape ``(num_classes, C, H, W)``.

    Prototypes are blurred white noise normalized to unit RMS, so every class
    has comparable energy and classes differ only in spatial structure.
    """
    c, h, w = shape
    protos = rng.normal(0.0, 1.0, size=(num_classes, c, h, w))
    protos = np.stack([_box_blur(p) for p in protos])
    rms = np.sqrt(np.mean(protos ** 2, axis=(1, 2, 3), keepdims=True))
    return protos / np.maximum(rms, 1e-9)


def render_samples(
    prototypes: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    noise: float = 0.8,
    max_shift: int = 2,
) -> np.ndarray:
    """Render one sample per label: shifted prototype + white noise.

    Shifts are circular (so no information is lost at borders) and sampled
    uniformly from ``[-max_shift, max_shift]`` per axis.  Samples are scaled
    to roughly unit variance regardless of the noise level — task difficulty
    is the signal-to-noise ratio, and keeping the input scale fixed keeps one
    training configuration valid across difficulty settings.
    """
    num = labels.shape[0]
    _, c, h, w = prototypes.shape
    out = np.empty((num, c, h, w), dtype=np.float64)
    shifts_y = rng.integers(-max_shift, max_shift + 1, size=num)
    shifts_x = rng.integers(-max_shift, max_shift + 1, size=num)
    for k in range(num):
        img = prototypes[labels[k]]
        img = np.roll(img, (int(shifts_y[k]), int(shifts_x[k])), axis=(1, 2))
        out[k] = img
    out += rng.normal(0.0, noise, size=out.shape)
    out /= np.sqrt(1.0 + noise * noise)
    return out


@dataclass
class SyntheticImageDataset:
    """A train/test split of class-conditional synthetic images.

    Attributes
    ----------
    x_train, y_train, x_test, y_test:
        NCHW float images and integer labels.
    shape:
        Per-sample shape ``(C, H, W)``.
    num_classes:
        Number of classes.
    name:
        Dataset name used in reports.
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    shape: tuple[int, int, int]
    num_classes: int
    name: str = "synthetic"
    flat: bool = field(default=False)

    def __post_init__(self) -> None:
        if self.flat:
            self.x_train = self.x_train.reshape(self.x_train.shape[0], -1)
            self.x_test = self.x_test.reshape(self.x_test.shape[0], -1)

    @property
    def input_shape(self) -> tuple[int, ...]:
        """Per-sample input shape as the model sees it (flat or NCHW)."""
        if self.flat:
            return (int(np.prod(self.shape)),)
        return self.shape

    @staticmethod
    def generate(
        name: str,
        shape: tuple[int, int, int],
        num_classes: int = 10,
        train_size: int = 2000,
        test_size: int = 500,
        noise: float = 0.8,
        max_shift: int = 2,
        seed: int = 0,
        flat: bool = False,
    ) -> "SyntheticImageDataset":
        """Generate a deterministic dataset from a seed."""
        if train_size <= 0 or test_size <= 0:
            raise ValueError("train_size and test_size must be positive")
        rng = np.random.default_rng(seed)
        protos = smooth_prototypes(num_classes, shape, rng)
        y_train = rng.integers(0, num_classes, size=train_size)
        y_test = rng.integers(0, num_classes, size=test_size)
        x_train = render_samples(protos, y_train, rng, noise=noise, max_shift=max_shift)
        x_test = render_samples(protos, y_test, rng, noise=noise, max_shift=max_shift)
        return SyntheticImageDataset(
            x_train=x_train,
            y_train=y_train,
            x_test=x_test,
            y_test=y_test,
            shape=shape,
            num_classes=num_classes,
            name=name,
            flat=flat,
        )


def synthetic_mnist(
    train_size: int = 2000,
    test_size: int = 500,
    seed: int = 0,
    flat: bool = False,
    noise: float = 2.3,
) -> SyntheticImageDataset:
    """MNIST-shaped dataset: 1x28x28 grey images, 10 classes.

    ``flat=True`` returns 784-dim vectors, the input layout of the paper's MLP.
    """
    return SyntheticImageDataset.generate(
        MNIST_NAME, (1, 28, 28), train_size=train_size, test_size=test_size,
        seed=seed, flat=flat, noise=noise,
    )


def synthetic_cifar10(
    train_size: int = 2000, test_size: int = 500, seed: int = 1, noise: float = 3.4
) -> SyntheticImageDataset:
    """CIFAR-10-shaped dataset: 3x32x32 colour images, 10 classes."""
    return SyntheticImageDataset.generate(
        CIFAR10_NAME, (3, 32, 32), train_size=train_size,
        test_size=test_size, seed=seed, noise=noise,
    )


def synthetic_imagenet10(
    train_size: int = 2000,
    test_size: int = 500,
    size: int = 32,
    seed: int = 2,
    noise: float = 4.2,
) -> SyntheticImageDataset:
    """ImageNet10-shaped dataset (paper: 10 ILSVRC-2012 classes), down-scaled.

    The paper crops/resizes ImageNet to the network's input; we default to
    3x32x32 so numpy training stays tractable while keeping 3-channel,
    10-class structure.
    """
    return SyntheticImageDataset.generate(
        IMAGENET10_NAME, (3, size, size), train_size=train_size,
        test_size=test_size, seed=seed, noise=noise, max_shift=3,
    )
