"""Static network architecture specifications.

The partitioning and traffic analyses (Table I in particular) only need layer
*geometry* — channel counts, feature-map sizes, kernel shapes, grouping — not
trained weights.  :class:`NetworkSpec` captures that geometry for full-scale
networks (AlexNet, VGG19, ...) that would be infeasible to train in numpy,
and can also be derived from a trained :class:`~repro.nn.Sequential` so that
trained models and their hardware mappings always agree.

Only ``conv`` and ``dense`` layers carry computation and cause inter-core
synchronization; pooling/activation layers are tracked for shape propagation
and are assumed to execute locally on whichever core holds their input slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn.layers import (
    AvgPool2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Tanh,
)
from ..nn.network import Sequential

__all__ = ["LayerSpec", "NetworkSpec", "SpecBuilder"]

#: Layer kinds that perform MACs and whose inputs must be synchronized.
COMPUTE_KINDS = ("conv", "dense")


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one layer.

    ``in_shape``/``out_shape`` are per-sample shapes: ``(C, H, W)`` for
    spatial layers, ``(F,)`` for flat ones.
    """

    name: str
    kind: str  # conv | dense | pool | act | flatten | dropout | other
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    groups: int = 1

    @property
    def is_compute(self) -> bool:
        return self.kind in COMPUTE_KINDS

    @property
    def in_channels(self) -> int:
        """Producer feature count: channels for conv, features for dense."""
        return self.in_shape[0]

    @property
    def out_channels(self) -> int:
        return self.out_shape[0]

    @property
    def input_volume(self) -> int:
        """Number of values in one sample's input tensor."""
        return int(np.prod(self.in_shape))

    @property
    def output_volume(self) -> int:
        return int(np.prod(self.out_shape))

    @property
    def macs(self) -> int:
        """Multiply-accumulates for one sample."""
        if self.kind == "conv":
            per_output = (self.in_channels // self.groups) * self.kernel * self.kernel
            return self.output_volume * per_output
        if self.kind == "dense":
            return self.in_shape[0] * self.out_shape[0]
        return 0

    @property
    def weight_count(self) -> int:
        """Number of weight values (biases excluded)."""
        if self.kind == "conv":
            return (
                self.out_channels
                * (self.in_channels // self.groups)
                * self.kernel
                * self.kernel
            )
        if self.kind == "dense":
            return self.in_shape[0] * self.out_shape[0]
        return 0


@dataclass
class NetworkSpec:
    """An ordered list of layer specs with the network input shape."""

    name: str
    input_shape: tuple[int, ...]
    layers: list[LayerSpec] = field(default_factory=list)

    def compute_layers(self) -> list[LayerSpec]:
        """Only the layers that perform MACs (conv + dense), in order."""
        return [l for l in self.layers if l.is_compute]

    def layer(self, name: str) -> LayerSpec:
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(f"no layer named {name!r} in spec {self.name!r}")

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def total_weights(self) -> int:
        return sum(l.weight_count for l in self.layers)

    def validate(self) -> None:
        """Check that consecutive layer shapes chain correctly."""
        shape = self.input_shape
        for l in self.layers:
            if l.in_shape != shape:
                raise ValueError(
                    f"{self.name}: layer {l.name!r} expects input {l.in_shape} "
                    f"but receives {shape}"
                )
            shape = l.out_shape

    # -- construction from a trained model ------------------------------------------

    @staticmethod
    def from_sequential(model: Sequential) -> "NetworkSpec":
        """Derive the spec of a trained model (requires ``model.input_shape``)."""
        spec = NetworkSpec(name=model.name, input_shape=model.input_shape)
        for layer, (in_shape, out_shape) in zip(model.layers, model.layer_shapes()):
            spec.layers.append(_layer_to_spec(layer, in_shape, out_shape))
        return spec


def _layer_to_spec(
    layer: Layer, in_shape: tuple[int, ...], out_shape: tuple[int, ...]
) -> LayerSpec:
    common = {"name": layer.name, "in_shape": in_shape, "out_shape": out_shape}
    if isinstance(layer, Conv2D):
        return LayerSpec(
            kind="conv", kernel=layer.kernel_h, stride=layer.stride,
            pad=layer.padding, groups=layer.groups, **common,
        )
    if isinstance(layer, Dense):
        return LayerSpec(kind="dense", **common)
    if isinstance(layer, (MaxPool2D, AvgPool2D)):
        return LayerSpec(
            kind="pool", kernel=layer.kernel, stride=layer.stride,
            pad=layer.padding, **common,
        )
    if isinstance(layer, (ReLU, Sigmoid, Tanh)):
        return LayerSpec(kind="act", **common)
    if isinstance(layer, Flatten):
        return LayerSpec(kind="flatten", **common)
    if isinstance(layer, Dropout):
        return LayerSpec(kind="dropout", **common)
    return LayerSpec(kind="other", **common)


class SpecBuilder:
    """Fluent builder that chains layer geometry, computing shapes as it goes.

    Used by the model zoo to declare full-scale architectures concisely::

        spec = (SpecBuilder("alexnet", (3, 227, 227))
                .conv("conv1", 96, kernel=11, stride=4)
                .pool("pool1", 3, 2)
                ...
                .build())
    """

    def __init__(self, name: str, input_shape: tuple[int, ...]) -> None:
        self.name = name
        self.input_shape = tuple(input_shape)
        self._shape = tuple(input_shape)
        self._layers: list[LayerSpec] = []

    @staticmethod
    def _conv_out(size: int, kernel: int, stride: int, pad: int) -> int:
        out = (size + 2 * pad - kernel) // stride + 1
        if out <= 0:
            raise ValueError(
                f"window (k={kernel}, s={stride}, p={pad}) does not fit size {size}"
            )
        return out

    def conv(
        self,
        name: str,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        groups: int = 1,
    ) -> "SpecBuilder":
        c, h, w = self._shape
        out_h = self._conv_out(h, kernel, stride, pad)
        out_w = self._conv_out(w, kernel, stride, pad)
        out_shape = (out_channels, out_h, out_w)
        self._layers.append(
            LayerSpec(
                name=name, kind="conv", in_shape=self._shape, out_shape=out_shape,
                kernel=kernel, stride=stride, pad=pad, groups=groups,
            )
        )
        self._shape = out_shape
        return self

    def pool(self, name: str, kernel: int, stride: int | None = None, pad: int = 0) -> "SpecBuilder":
        stride = stride if stride is not None else kernel
        c, h, w = self._shape
        out_shape = (
            c,
            self._conv_out(h, kernel, stride, pad),
            self._conv_out(w, kernel, stride, pad),
        )
        self._layers.append(
            LayerSpec(
                name=name, kind="pool", in_shape=self._shape, out_shape=out_shape,
                kernel=kernel, stride=stride, pad=pad,
            )
        )
        self._shape = out_shape
        return self

    def flatten(self, name: str = "flatten") -> "SpecBuilder":
        out_shape = (int(np.prod(self._shape)),)
        self._layers.append(
            LayerSpec(name=name, kind="flatten", in_shape=self._shape, out_shape=out_shape)
        )
        self._shape = out_shape
        return self

    def dense(self, name: str, out_features: int) -> "SpecBuilder":
        if len(self._shape) != 1:
            self.flatten(f"flatten_before_{name}")
        out_shape = (out_features,)
        self._layers.append(
            LayerSpec(name=name, kind="dense", in_shape=self._shape, out_shape=out_shape)
        )
        self._shape = out_shape
        return self

    def act(self, name: str = "relu") -> "SpecBuilder":
        self._layers.append(
            LayerSpec(name=name, kind="act", in_shape=self._shape, out_shape=self._shape)
        )
        return self

    def build(self) -> NetworkSpec:
        spec = NetworkSpec(
            name=self.name, input_shape=self.input_shape, layers=list(self._layers)
        )
        spec.validate()
        return spec
