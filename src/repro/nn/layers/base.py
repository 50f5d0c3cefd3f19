"""Layer and Parameter abstractions.

Every layer implements ``forward``/``backward`` with cached intermediates, and
exposes its learnable state as named :class:`Parameter` objects so optimizers
and regularizers can iterate over them uniformly.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Parameter", "Layer"]


class Parameter:
    """A learnable tensor with an accumulated gradient.

    Attributes
    ----------
    data:
        The parameter values (mutated in place by optimizers).
    grad:
        Gradient of the loss w.r.t. ``data``, populated during ``backward``.
    name:
        Qualified name (``<layer>.<param>``) assigned when the layer is added
        to a network; used by regularizers to target specific parameters.
    """

    def __init__(
        self, data: np.ndarray, name: str = "", dtype: np.dtype | type = np.float64
    ) -> None:
        self.data = np.asarray(data, dtype=dtype)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.shape})"


class Layer:
    """Base class for all layers.

    Subclasses register parameters in ``self._params`` (an ordered dict of
    name -> Parameter) and implement :meth:`forward` and :meth:`backward`.
    ``backward`` receives the gradient w.r.t. the layer output and must return
    the gradient w.r.t. the layer input, while accumulating parameter
    gradients into each ``Parameter.grad``.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__.lower()
        self.training = True
        self._params: dict[str, Parameter] = {}
        self._scratch_buffers: dict[str, np.ndarray] = {}

    # -- parameter management -------------------------------------------------

    def add_parameter(self, key: str, data: np.ndarray) -> Parameter:
        param = Parameter(data, name=f"{self.name}.{key}")
        self._params[key] = param
        return param

    def parameters(self) -> Iterator[Parameter]:
        yield from self._params.values()

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        yield from self._params.items()

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self._params.values())

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    # -- scratch buffers ---------------------------------------------------------

    def _scratch(
        self, key: str, shape: tuple[int, ...], dtype: np.dtype, zero: bool = False
    ) -> np.ndarray:
        """A per-layer reusable work buffer of the requested shape and dtype.

        Training reallocates the same large intermediates (im2col columns,
        padded inputs) every batch; reusing them avoids the malloc/page-fault
        cost at the price of holding the buffers between steps.  Only one
        buffer is kept per key — a shape or dtype change (e.g. the trailing
        partial batch) reallocates, so memory stays bounded by the largest
        recent batch.  Buffers are *uninitialized* on reuse unless ``zero``
        asked for zeros at allocation; callers relying on zeroed contents
        must either pass ``zero=True`` and preserve the zeros (the padding
        border trick) or clear the buffer themselves.
        """
        buf = self._scratch_buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
            self._scratch_buffers[key] = buf
        return buf

    # -- mode switches ---------------------------------------------------------

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    # -- computation -----------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-sample output shape given a per-sample input shape (no batch dim).

        Layers without shape changes inherit this identity default.
        """
        return input_shape

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
