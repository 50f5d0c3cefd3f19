"""Pure-numpy DNN framework: layers, losses, optimizers, structured sparsity.

This subpackage is the training/inference substrate the paper assumes (it used
Caffe); everything needed to train the benchmark networks with (masked) group
Lasso regularization is implemented here from scratch.
"""

from . import functional
from .initializers import get_initializer
from .layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    Parameter,
    ReLU,
    Sigmoid,
    Tanh,
)
from .loss import SoftmaxCrossEntropy
from .network import Sequential
from .optim import SGD, Optimizer
from .quantize import FixedPointFormat, dequantize, quantize, quantize_model
from .regularizers import GroupLassoRegularizer, Regularizer
from .sparsity import CoreBlockPartition, split_boundaries

__all__ = [
    "functional",
    "get_initializer",
    "Layer",
    "Parameter",
    "Conv2D",
    "Dense",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
    "Dropout",
    "Sequential",
    "SoftmaxCrossEntropy",
    "Optimizer",
    "SGD",
    "Regularizer",
    "GroupLassoRegularizer",
    "CoreBlockPartition",
    "split_boundaries",
    "FixedPointFormat",
    "quantize",
    "dequantize",
    "quantize_model",
]
