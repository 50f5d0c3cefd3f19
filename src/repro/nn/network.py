"""Sequential network container.

A :class:`Sequential` chains layers, propagates forward/backward, and gives
uniform access to parameters.  It also exposes the static per-layer geometry
(`layer_shapes`) that the partitioning and simulation packages consume, so a
trained model and its hardware mapping always agree on tensor shapes.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .layers.base import Layer, Parameter

__all__ = ["Sequential"]


class Sequential:
    """An ordered stack of layers forming a feed-forward network.

    Parameters
    ----------
    layers:
        Layers applied in order.
    input_shape:
        Per-sample input shape without the batch dimension, e.g. ``(1, 28, 28)``
        for MNIST-like tensors or ``(784,)`` for flat MLP input.  Required for
        geometry queries (``layer_shapes``, ``total_macs``); forward/backward
        work without it.
    name:
        Model name used in reports.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        input_shape: tuple[int, ...] | None = None,
        name: str = "sequential",
    ) -> None:
        self.layers = list(layers)
        self.input_shape = input_shape
        self.name = name
        self._uniquify_layer_names()

    def _uniquify_layer_names(self) -> None:
        """Ensure layer (and therefore parameter) names are unique."""
        seen: dict[str, int] = {}
        for layer in self.layers:
            count = seen.get(layer.name, 0)
            seen[layer.name] = count + 1
            if count:
                layer.name = f"{layer.name}_{count}"
        for layer in self.layers:
            for key, param in layer.named_parameters():
                param.name = f"{layer.name}.{key}"

    # -- computation -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions in eval mode, processed in batches."""
        was_training = self.layers[0].training if self.layers else False
        self.eval()
        preds = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start:start + batch_size])
            preds.append(np.argmax(logits, axis=1))
        if was_training:
            self.train()
        return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)

    def accuracy(self, x: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy on a labelled dataset."""
        return float(np.mean(self.predict(x, batch_size=batch_size) == labels))

    # -- parameter access --------------------------------------------------------

    def parameters(self) -> Iterator[Parameter]:
        for layer in self.layers:
            yield from layer.parameters()

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for param in self.parameters():
            yield param.name, param

    def get_parameter(self, name: str) -> Parameter:
        for pname, param in self.named_parameters():
            if pname == name:
                return param
        raise KeyError(f"no parameter named {name!r} in model {self.name!r}")

    @property
    def num_parameters(self) -> int:
        return sum(layer.num_parameters for layer in self.layers)

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def train(self) -> None:
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        for layer in self.layers:
            layer.eval()

    # -- state dict ---------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter tensors keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, param in self.named_parameters():
            if name not in state:
                raise KeyError(f"state dict missing parameter {name!r}")
            if state[name].shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: model {param.data.shape}, "
                    f"state {state[name].shape}"
                )
            param.data[...] = state[name]

    # -- geometry ------------------------------------------------------------------

    def layer_shapes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per-layer (input_shape, output_shape) pairs, batch dim excluded."""
        if self.input_shape is None:
            raise ValueError(
                f"model {self.name!r} was built without input_shape; geometry "
                "queries need it"
            )
        shapes = []
        shape = self.input_shape
        for layer in self.layers:
            out = layer.output_shape(shape)
            shapes.append((shape, out))
            shape = out
        return shapes

    def output_shape(self) -> tuple[int, ...]:
        """Per-sample shape of the network output."""
        shapes = self.layer_shapes()
        return shapes[-1][1] if shapes else self.input_shape

    def total_macs(self) -> int:
        """Total multiply-accumulates for one forward pass of one sample."""
        total = 0
        for layer, (in_shape, _) in zip(self.layers, self.layer_shapes()):
            macs = getattr(layer, "macs", None)
            if macs is not None:
                total += macs(in_shape)
        return total

    def summary(self) -> str:
        """Human-readable architecture table."""
        lines = [f"Model: {self.name}"]
        header = f"{'layer':<20} {'output shape':<20} {'params':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        if self.input_shape is not None:
            for layer, (_, out_shape) in zip(self.layers, self.layer_shapes()):
                lines.append(
                    f"{layer.name:<20} {str(out_shape):<20} {layer.num_parameters:>10}"
                )
        else:
            for layer in self.layers:
                lines.append(f"{layer.name:<20} {'?':<20} {layer.num_parameters:>10}")
        lines.append("-" * len(header))
        lines.append(f"total parameters: {self.num_parameters}")
        return "\n".join(lines)
