"""Trainable (numpy-scale) builders of the paper's benchmark networks.

Full-scale ImageNet training is infeasible in a numpy framework, so the
*trainable* variants used by the accuracy experiments are faithfully scaled
down (fewer channels, 32x32 inputs) while keeping the layer topology — conv
depth, grouping points, fc structure — that the paper's schemes act on.  The
scaling of each model is documented in its builder.  Full-scale geometry for
traffic analytics lives in :mod:`repro.models.zoo`.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
)

__all__ = [
    "build_mlp",
    "build_lenet",
    "build_convnet",
    "build_table3_convnet",
    "build_caffenet_scaled",
    "TRAINABLE_BUILDERS",
    "build_model",
]


def build_mlp(
    input_dim: int = 784,
    hidden: tuple[int, int] = (512, 304),
    num_classes: int = 10,
    seed: int = 0,
) -> Sequential:
    """The paper's MLP: 512/304/10 fully-connected layers on flat MNIST input.

    This one needs no scaling — it is small enough to train as specified.
    """
    rng = np.random.default_rng(seed)
    h1, h2 = hidden
    return Sequential(
        [
            Dense(input_dim, h1, name="ip1", rng=rng),
            ReLU(name="relu1"),
            Dense(h1, h2, name="ip2", rng=rng),
            ReLU(name="relu2"),
            Dense(h2, num_classes, name="ip3", rng=rng),
        ],
        input_shape=(input_dim,),
        name="mlp",
    )


def build_lenet(num_classes: int = 10, width: int = 1, seed: int = 0) -> Sequential:
    """Caffe LeNet on 1x28x28 input.

    ``width`` scales the conv kernel counts (20/50) and ip1 width; the default
    is the paper's exact geometry, which numpy handles at MNIST scale.
    """
    rng = np.random.default_rng(seed)
    c1, c2, fc = 20 * width, 50 * width, 500 * width
    return Sequential(
        [
            Conv2D(1, c1, kernel_size=5, name="conv1", rng=rng),
            MaxPool2D(2, 2, name="pool1"),
            Conv2D(c1, c2, kernel_size=5, name="conv2", rng=rng),
            MaxPool2D(2, 2, name="pool2"),
            Flatten(name="flatten"),
            Dense(c2 * 4 * 4, fc, name="ip1", rng=rng),
            ReLU(name="relu1"),
            Dense(fc, num_classes, name="ip2", rng=rng),
        ],
        input_shape=(1, 28, 28),
        name="lenet",
    )


def build_convnet(num_classes: int = 10, seed: int = 0) -> Sequential:
    """Caffe cifar10_quick (32/32/64 conv kernels) on 3x32x32 input — exact.

    Xavier initialization rather than He: the conv+max-pool stack amplifies
    activation magnitude layer over layer under He init (max pooling keeps
    the largest responses), which destabilizes training on unit-scale
    inputs; Xavier's smaller gain keeps the initial logits sane.
    """
    rng = np.random.default_rng(seed)
    init = "xavier_normal"
    return Sequential(
        [
            Conv2D(3, 32, kernel_size=5, padding=2, name="conv1", rng=rng,
                   weight_init=init),
            MaxPool2D(3, 2, name="pool1"),
            ReLU(name="relu1"),
            Conv2D(32, 32, kernel_size=5, padding=2, name="conv2", rng=rng,
                   weight_init=init),
            ReLU(name="relu2"),
            MaxPool2D(3, 2, name="pool2"),
            Conv2D(32, 64, kernel_size=5, padding=2, name="conv3", rng=rng,
                   weight_init=init),
            ReLU(name="relu3"),
            MaxPool2D(3, 2, name="pool3"),
            Flatten(name="flatten"),
            Dense(64 * 3 * 3, 64, name="ip1", rng=rng, weight_init=init),
            Dense(64, num_classes, name="ip2", rng=rng, weight_init=init),
        ],
        input_shape=(3, 32, 32),
        name="convnet",
    )


def build_table3_convnet(
    groups: int = 1,
    wide: bool = False,
    num_classes: int = 10,
    input_size: int = 32,
    seed: int = 0,
) -> Sequential:
    """Scaled Table III ConvNet for the structure-level experiments.

    Paper geometry: conv kernels 64-128-256 (base) or 64-160-320 (wide,
    Parallel#3), conv2/conv3 split into ``groups`` non-interacting groups.
    Scaled here by 2x in channels (base 32-64-128) on 32x32 input so a full
    train/eval sweep over group counts stays tractable.  The wide variant
    uses 32-96-192 — a 1.5x widening instead of the paper's 1.25x, because
    the half-scale 1.25x widths (80/160) are not divisible by the 32 groups
    Table V needs; the role of the variant (recover grouped accuracy by
    adding kernels) is unchanged.
    """
    c1 = 32
    c2, c3 = (96, 192) if wide else (64, 128)
    for c in (c2, c3):
        if c % groups:
            raise ValueError(f"groups={groups} does not divide channel count {c}")
    if c1 % groups:
        raise ValueError(f"groups={groups} does not divide conv2 input width {c1}")
    rng = np.random.default_rng(seed)
    init = "xavier_normal"  # see build_convnet: He overshoots under max pooling
    s = input_size
    after_pools = s // 8  # three 2x2 pools
    name = f"table3-convnet-{'wide' if wide else 'base'}-n{groups}"
    return Sequential(
        [
            Conv2D(3, c1, kernel_size=5, padding=2, name="conv1", rng=rng,
                   weight_init=init),
            ReLU(name="relu1"),
            MaxPool2D(2, 2, name="pool1"),
            Conv2D(c1, c2, kernel_size=5, padding=2, groups=groups, name="conv2",
                   rng=rng, weight_init=init),
            ReLU(name="relu2"),
            MaxPool2D(2, 2, name="pool2"),
            Conv2D(c2, c3, kernel_size=3, padding=1, groups=groups, name="conv3",
                   rng=rng, weight_init=init),
            ReLU(name="relu3"),
            MaxPool2D(2, 2, name="pool3"),
            Flatten(name="flatten"),
            Dense(c3 * after_pools * after_pools, 128, name="ip1", rng=rng,
                  weight_init=init),
            ReLU(name="relu4"),
            Dense(128, num_classes, name="ip2", rng=rng, weight_init=init),
        ],
        input_shape=(3, s, s),
        name=name,
    )


def build_caffenet_scaled(
    num_classes: int = 10, input_size: int = 32, seed: int = 0
) -> Sequential:
    """Scaled CaffeNet for the Table IV sparsified experiments.

    Keeps CaffeNet's 5-conv + 3-fc topology and pooling points; channels are
    scaled ~1/8 (96/256/384/384/256 -> 16/32/48/48/32) and the input is
    32x32 instead of 227x227, so numpy training of the group-Lasso variants
    is feasible.  Grouping in conv2/4/5 is dropped (dense baseline) because
    Table IV sparsifies a *dense* baseline.
    """
    rng = np.random.default_rng(seed)
    s = input_size
    final = s // 8  # pool1, pool2, pool5 halve the spatial dims
    return Sequential(
        [
            Conv2D(3, 16, kernel_size=5, padding=2, name="conv1", rng=rng),
            ReLU(name="relu1"),
            MaxPool2D(2, 2, name="pool1"),
            Conv2D(16, 32, kernel_size=5, padding=2, name="conv2", rng=rng),
            ReLU(name="relu2"),
            MaxPool2D(2, 2, name="pool2"),
            Conv2D(32, 48, kernel_size=3, padding=1, name="conv3", rng=rng),
            ReLU(name="relu3"),
            Conv2D(48, 48, kernel_size=3, padding=1, name="conv4", rng=rng),
            ReLU(name="relu4"),
            Conv2D(48, 32, kernel_size=3, padding=1, name="conv5", rng=rng),
            ReLU(name="relu5"),
            MaxPool2D(2, 2, name="pool5"),
            Flatten(name="flatten"),
            Dense(32 * final * final, 256, name="ip1", rng=rng),
            ReLU(name="relu6"),
            Dropout(0.25, name="drop6", seed=seed),
            Dense(256, 128, name="ip2", rng=rng),
            ReLU(name="relu7"),
            Dense(128, num_classes, name="ip3", rng=rng),
        ],
        input_shape=(3, s, s),
        name="caffenet-scaled",
    )


TRAINABLE_BUILDERS = {
    "mlp": build_mlp,
    "lenet": build_lenet,
    "convnet": build_convnet,
    "caffenet": build_caffenet_scaled,
    "table3": build_table3_convnet,
}


def build_model(name: str, **kwargs) -> Sequential:
    """Build a trainable benchmark model by (experiment) name."""
    try:
        builder = TRAINABLE_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown trainable model {name!r}; known: {sorted(TRAINABLE_BUILDERS)}"
        ) from None
    return builder(**kwargs)
