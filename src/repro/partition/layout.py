"""Producer layouts: where each layer's input data physically lives.

Between two compute layers, the intervening pooling/activation/flatten layers
execute locally, so the *producer layout* of layer ``k``'s input space is
fully determined by layer ``k-1``'s output-channel assignment:

* conv -> conv: channel blocks carry over unchanged;
* conv -> dense: channel blocks scale by ``H*W`` into feature blocks
  (channel-major flatten keeps them contiguous);
* dense -> dense: feature blocks carry over;
* network input: resident in DRAM, broadcast through the memory controller to
  every core — no inter-core traffic (Table I likewise starts at conv2).

The schemes differ only in which inputs each core needs, so one per-layer
loop here (``_build_plan``) builds every plan from a need and a workload rule.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..accel.core import CoreWorkload
from ..models.spec import LayerSpec, NetworkSpec
from ..noc.traffic import TrafficMatrix
from ..nn.sparsity import split_boundaries
from .plan import LayerPlan, ModelParallelPlan, feature_bounds_from_channels

__all__ = ["ProducerLayout", "producer_layout_for", "traffic_from_needs"]


@dataclass(frozen=True)
class ProducerLayout:
    """Which core holds which slice of a layer's input index space.

    ``bounds[i]`` is the (start, stop) range of input indices (channels for
    conv layers, flat features for dense layers) resident on core ``i``, and
    ``values_per_index`` the number of 16-bit values behind each index (the
    feature-map spatial size for conv inputs, 1 for dense inputs).
    """

    bounds: tuple[tuple[int, int], ...]
    values_per_index: int

    @property
    def num_cores(self) -> int:
        return len(self.bounds)

    def owner_of(self, index: int) -> int:
        for core, (start, stop) in enumerate(self.bounds):
            if start <= index < stop:
                return core
        raise IndexError(f"input index {index} outside layout bounds")

    def slice_sizes(self) -> list[int]:
        return [stop - start for start, stop in self.bounds]


def producer_layout_for(
    layer: LayerSpec,
    prev_layer: LayerSpec | None,
    prev_out_bounds: list[tuple[int, int]] | None,
    num_cores: int,
) -> ProducerLayout | None:
    """Layout of ``layer``'s input, given the previous compute layer's split.

    Returns ``None`` for the first compute layer (input comes from DRAM).
    """
    if prev_layer is None or prev_out_bounds is None:
        return None
    if layer.kind == "conv":
        # Input channels = prev output channels; each carries H*W values.
        h, w = layer.in_shape[1], layer.in_shape[2]
        if prev_layer.out_channels != layer.in_channels:
            raise ValueError(
                f"{layer.name}: expects {layer.in_channels} input channels but "
                f"{prev_layer.name} produces {prev_layer.out_channels}"
            )
        return ProducerLayout(tuple(prev_out_bounds), values_per_index=h * w)
    if layer.kind == "dense":
        in_features = layer.in_shape[0]
        if prev_layer.kind == "conv":
            total_prev = prev_layer.out_channels
            if in_features % total_prev:
                raise ValueError(
                    f"{layer.name}: {in_features} features not a multiple of "
                    f"{prev_layer.name}'s {total_prev} channels"
                )
            per_channel = in_features // total_prev
            bounds = feature_bounds_from_channels(prev_out_bounds, per_channel)
            return ProducerLayout(tuple(bounds), values_per_index=1)
        # dense -> dense: features map one-to-one.
        if prev_layer.out_channels != in_features:
            raise ValueError(
                f"{layer.name}: expects {in_features} features but "
                f"{prev_layer.name} produces {prev_layer.out_channels}"
            )
        return ProducerLayout(tuple(prev_out_bounds), values_per_index=1)
    raise ValueError(f"{layer.name}: layer kind {layer.kind!r} is not a compute layer")


def traffic_from_needs(
    layout: ProducerLayout | None,
    needs: np.ndarray,
    bytes_per_value: int,
    label: str,
) -> TrafficMatrix:
    """Build the traffic matrix from a (num_inputs, num_cores) need table.

    ``needs[c, j]`` is True when consumer core ``j`` requires input index
    ``c``.  Inputs a core produces itself never cross the NoC.  A ``None``
    layout (first layer) yields zero traffic.
    """
    if layout is None:
        p = needs.shape[1]
        return TrafficMatrix(np.zeros((p, p), dtype=np.int64), label=label)
    p = layout.num_cores
    if needs.shape[1] != p:
        raise ValueError(
            f"need table has {needs.shape[1]} consumer columns, layout has {p} cores"
        )
    per_index_bytes = layout.values_per_index * bytes_per_value
    m = np.zeros((p, p), dtype=np.int64)
    for producer, (start, stop) in enumerate(layout.bounds):
        if stop <= start:
            continue
        counts = needs[start:stop, :].sum(axis=0)  # indices sent to each consumer
        for consumer in range(p):
            if consumer == producer:
                continue
            m[producer, consumer] += int(counts[consumer]) * per_index_bytes
    return TrafficMatrix(m, label=label)


def _group_misalignment(layer: LayerSpec, num_cores: int) -> str | None:
    """Why ``layer`` cannot be split ``num_cores`` ways (group alignment)."""
    g = layer.groups
    if g <= 1:
        return None
    if layer.out_channels % g:
        return f"{layer.out_channels} channels not divisible by groups={g}"
    # Cores split each group evenly, or each core takes whole groups.
    leftover = num_cores % g if g <= num_cores else g % num_cores
    if leftover:
        return f"a {num_cores}-way split misaligns with groups={g}"
    return None


def default_out_bounds(layer: LayerSpec, num_cores: int) -> list[tuple[int, int]]:
    """Per-core output split, group-aligned for grouped conv layers.

    Ungrouped layers get the even contiguous split.  Grouped layers must not
    let a core's slice straddle a group boundary (the groups are independent
    computations), so:

    * ``groups <= num_cores`` (requires ``num_cores % groups == 0``): each
      group's channels are split among its cluster of ``num_cores/groups``
      cores;
    * ``groups > num_cores`` (requires ``groups % num_cores == 0``): each core
      receives ``groups/num_cores`` whole groups.
    """
    problem = _group_misalignment(layer, num_cores)
    if problem:
        raise ValueError(f"{layer.name}: {problem}")
    g = layer.groups
    if g <= 1:
        return split_boundaries(layer.out_channels, num_cores)
    per_group = layer.out_channels // g
    if g <= num_cores:
        cluster = num_cores // g
        bounds: list[tuple[int, int]] = []
        for gi in range(g):
            base = gi * per_group
            for start, stop in split_boundaries(per_group, cluster):
                bounds.append((base + start, base + stop))
        return bounds
    groups_per_core = g // num_cores
    return [
        (c * groups_per_core * per_group, (c + 1) * groups_per_core * per_group)
        for c in range(num_cores)
    ]


def degree_out_bounds(
    layer: LayerSpec, degree: int, num_cores: int
) -> list[tuple[int, int]]:
    """Output split of ``layer`` at ``degree``, padded to ``num_cores`` slots.

    The first ``degree`` cores receive the group-aligned even split; the
    remaining cores hold empty ``(C, C)`` slices — legal in
    :class:`~repro.partition.plan.LayerPlan` and invisible to the traffic
    builders.
    """
    if not 1 <= degree <= num_cores:
        raise ValueError(f"{layer.name}: degree {degree} outside 1..{num_cores}")
    bounds = default_out_bounds(layer, degree)
    pad = layer.out_channels
    return bounds + [(pad, pad)] * (num_cores - degree)


def _build_plan(
    spec: NetworkSpec,
    num_cores: int,
    degrees: Sequence[int],
    needs_of: Callable[..., np.ndarray],
    workloads_of: Callable[..., list[CoreWorkload]],
    bytes_per_value: int,
    scheme: str,
) -> ModelParallelPlan:
    """The per-layer loop behind every plan builder.

    Compute layer ``i`` is split ``degrees[i]`` ways.  The first layer reads
    the network input from memory: no NoC traffic, and every core needs the
    whole input.  Each later layer's producer layout comes from the previous
    layer's split, and the need rule ``needs_of(layer, out_bounds)`` says
    which of those inputs each core needs; the need table becomes the
    layer's traffic.  The workload rule ``workloads_of(layer, out_bounds,
    needs)`` gives each core's compute.
    """
    plan = ModelParallelPlan(
        name=spec.name, scheme=scheme, num_cores=num_cores, layers=[]
    )
    prev_layer: LayerSpec | None = None
    prev_bounds: list[tuple[int, int]] | None = None
    for layer, degree in zip(spec.compute_layers(), degrees):
        out_bounds = degree_out_bounds(layer, degree, num_cores)
        layout = producer_layout_for(layer, prev_layer, prev_bounds, num_cores)
        if layout is None:
            needs = np.ones((layer.in_channels, num_cores), dtype=bool)
        else:
            needs = needs_of(layer, out_bounds)
        traffic = traffic_from_needs(
            layout, needs, bytes_per_value, label=f"{spec.name}/{layer.name}"
        )
        workloads = workloads_of(layer, out_bounds, needs)
        plan.layers.append(LayerPlan(layer, out_bounds, workloads, traffic))
        prev_layer, prev_bounds = layer, out_bounds
    return plan
