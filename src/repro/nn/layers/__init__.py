"""Layer implementations for the numpy DNN framework."""

from .activation import ReLU, Sigmoid, Tanh
from .base import Layer, Parameter
from .conv import Conv2D
from .dense import Dense
from .dropout import Dropout
from .pool import AvgPool2D, MaxPool2D
from .shape import Flatten

__all__ = [
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
]
