"""Communication-aware sparsified parallelization (§IV.C).

The network is trained with group Lasso over (producer-core, consumer-core)
weight blocks (see :mod:`repro.nn.regularizers` and
:mod:`repro.train.sparsify`); whatever block pattern training converges to,
this module turns the trained weights into a partition plan whose traffic
matrix reflects the zeros:

* an input channel whose weights in a consumer core's slice are *all* zero
  need not be sent to that core (Fig. 5 of the paper);
* the analysis is per-channel, so it credits both whole zero blocks (the
  group-Lasso outcome) and any incidental per-channel zeros.

:func:`layer_block_partitions` builds the exact :class:`CoreBlockPartition`
objects the trainer must regularize so that training-time groups and
mapping-time traffic agree on which weights belong to which core pair.
"""

from __future__ import annotations

import numpy as np

from ..accel.core import CoreWorkload
from ..models.spec import LayerSpec, NetworkSpec
from ..nn.network import Sequential
from ..nn.sparsity import CoreBlockPartition
from .layout import _build_plan, default_out_bounds, producer_layout_for
from .plan import ModelParallelPlan

__all__ = [
    "layer_block_partitions",
    "sparsified_needs",
    "build_sparsified_plan",
]


def layer_block_partitions(
    model: Sequential, num_cores: int
) -> dict[str, CoreBlockPartition]:
    """Core-block partitions for every sparsifiable weight tensor.

    Keys are qualified parameter names (``conv2.weight``).  The first compute
    layer is excluded — its input is the network input, broadcast from
    memory, so sparsifying its blocks would save no communication.  Producer
    boundaries follow the *physical* layout of the previous layer's output
    (:func:`~repro.partition.layout.producer_layout_for`, the layout the plan
    builders use), so regularized groups and traffic analysis always line up.
    """
    layers = NetworkSpec.from_sequential(model).compute_layers()
    partitions: dict[str, CoreBlockPartition] = {}
    for prev_layer, layer in zip(layers, layers[1:]):
        if layer.kind == "conv" and layer.groups != 1:
            raise ValueError(
                f"{layer.name}: sparsified parallelization expects a dense "
                f"(ungrouped) baseline, got groups={layer.groups}"
            )
        prev_bounds = default_out_bounds(prev_layer, num_cores)
        layout = producer_layout_for(layer, prev_layer, prev_bounds, num_cores)
        param = model.get_parameter(f"{layer.name}.weight")
        partitions[param.name] = CoreBlockPartition(
            param.shape,
            layer.kind,
            num_cores,
            producer_bounds=list(layout.bounds),
            consumer_bounds=default_out_bounds(layer, num_cores),
        )
    return partitions


def sparsified_needs(
    layer: LayerSpec,
    weights: np.ndarray,
    out_bounds: list[tuple[int, int]],
    tol: float = 0.0,
) -> np.ndarray:
    """(num_inputs, num_cores) need table from the weight zero pattern.

    ``needs[c, j]`` is True when any weight connecting input index ``c`` to
    consumer core ``j``'s output slice exceeds ``tol`` in magnitude.
    """
    if layer.kind == "conv":
        if weights.shape[:2] != (layer.out_channels, layer.in_channels):
            raise ValueError(
                f"{layer.name}: weight shape {weights.shape} does not match "
                f"({layer.out_channels}, {layer.in_channels}, k, k)"
            )
        # Max |w| per (output channel, input channel) pair.
        per_pair = np.abs(weights).max(axis=(2, 3))
    elif layer.kind == "dense":
        if weights.shape != (layer.in_channels, layer.out_channels):
            raise ValueError(
                f"{layer.name}: weight shape {weights.shape} does not match "
                f"({layer.in_channels}, {layer.out_channels})"
            )
        per_pair = np.abs(weights).T
    else:
        raise ValueError(f"{layer.name}: not a compute layer ({layer.kind})")
    needs = np.zeros((layer.in_channels, len(out_bounds)), dtype=bool)
    for j, (o0, o1) in enumerate(out_bounds):
        if o1 > o0:
            needs[:, j] = per_pair[o0:o1].max(axis=0) > tol
    return needs


def _needed_workloads(
    layer: LayerSpec, out_bounds: list[tuple[int, int]], needs: np.ndarray
) -> list[CoreWorkload]:
    """Per-core workloads consuming exactly the inputs the need table marks."""
    used = needs.sum(axis=0)
    return [
        CoreWorkload(
            layer=layer,
            out_channels=stop - start,
            in_channels_used=int(used[core]) if stop > start else 0,
        )
        for core, (start, stop) in enumerate(out_bounds)
    ]


def build_sparsified_plan(
    model: Sequential,
    num_cores: int,
    tol: float = 0.0,
    bytes_per_value: int = 2,
    scheme: str = "sparsified",
) -> ModelParallelPlan:
    """Partition plan of a trained (possibly block-sparse) model.

    Works for any trained model: a dense baseline yields the traditional
    plan's traffic; group-Lasso-trained weights yield correspondingly
    thinner traffic.  ``tol`` treats tiny weights as zero (useful when the
    optimizer got close to, but not exactly, zero).  Every layer runs at
    full degree; the first reads the network input from memory and computes
    densely.
    """
    spec = NetworkSpec.from_sequential(model)
    layers = spec.compute_layers()
    for layer in layers:
        if not np.all(np.isfinite(model.get_parameter(f"{layer.name}.weight").data)):
            # A non-finite weight would silently read as "prunable" below
            # (NaN comparisons are False); that is a training failure, not a
            # communication saving.
            raise ValueError(
                f"{layer.name}: weights contain non-finite values; "
                "the model did not train successfully"
            )

    def needs_of(layer: LayerSpec, out_bounds: list[tuple[int, int]]) -> np.ndarray:
        weights = model.get_parameter(f"{layer.name}.weight").data
        return sparsified_needs(layer, weights, out_bounds, tol=tol)

    return _build_plan(
        spec,
        num_cores,
        [num_cores] * len(layers),
        needs_of,
        _needed_workloads,
        bytes_per_value,
        scheme,
    )
