"""Traditional parallelization — the paper's baseline (§IV.A).

Every compute layer's output channels are split evenly across the cores; each
core broadcasts its slice of the produced feature maps to every core that
needs them before the next layer starts.  For a fully-connected or ungrouped
convolutional layer that means *all* other cores; a grouped layer (AlexNet's
native ``groups=2``, or the structure-level variants built in
:mod:`repro.partition.structure`) confines the broadcast to the cores sharing
each group — with ``groups == num_cores`` the transition needs no NoC traffic
at all.

The same machinery therefore builds both the traditional baseline plan (from
the unmodified spec) and the structure-level plan (from a grouped spec); the
two differ only in the network they describe.

:func:`grouped_needs` and :func:`grouped_workloads` are the *grouped* need
and workload rules the shared per-layer loop runs for this scheme.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..accel.core import CoreWorkload
from ..models.spec import LayerSpec, NetworkSpec
from .layout import _build_plan
from .plan import ModelParallelPlan

__all__ = ["build_traditional_plan", "grouped_needs", "grouped_workloads"]


def grouped_needs(layer: LayerSpec, out_bounds: list[tuple[int, int]]) -> np.ndarray:
    """(num_inputs, num_cores) table: which input indices each core needs.

    With ``groups = 1`` every consumer needs every input.  With grouping, the
    consumer's needed inputs are the union of the input ranges of the groups
    it computes — one contiguous range, since groups are contiguous.
    """
    g = max(layer.groups, 1)
    per_group_out = layer.out_channels // g
    per_group_in = layer.in_channels // g
    needs = np.zeros((layer.in_channels, len(out_bounds)), dtype=bool)
    for core, (start, stop) in enumerate(out_bounds):
        if stop > start:
            first_group = start // per_group_out
            last_group = (stop - 1) // per_group_out
            needs[first_group * per_group_in:(last_group + 1) * per_group_in, core] = True
    return needs


def grouped_workloads(
    layer: LayerSpec, out_bounds: list[tuple[int, int]]
) -> list[CoreWorkload]:
    """Per-core compute workloads honouring the layer's group structure."""
    g = max(layer.groups, 1)
    per_group_out = layer.out_channels // g
    per_group_in = layer.in_channels // g
    works = []
    for start, stop in out_bounds:
        size = stop - start
        if size == 0:
            works.append(CoreWorkload(layer=layer, out_channels=0, in_channels_used=0))
        elif size <= per_group_out:
            # A slice of a single group (an ungrouped layer is one group).
            works.append(
                CoreWorkload(
                    layer=layer, out_channels=size, in_channels_used=per_group_in
                )
            )
        elif size % per_group_out:
            raise ValueError(
                f"{layer.name}: slice of {size} channels straddles group "
                f"boundaries (group size {per_group_out})"
            )
        else:
            # Whole groups stacked on one core.
            works.append(
                CoreWorkload(
                    layer=layer,
                    out_channels=per_group_out,
                    in_channels_used=per_group_in,
                    repeats=size // per_group_out,
                )
            )
    return works


def _grouped_plan(
    spec: NetworkSpec,
    num_cores: int,
    degrees: Sequence[int],
    bytes_per_value: int,
    scheme: str,
) -> ModelParallelPlan:
    """The shared loop under the grouped need and workload rules."""
    return _build_plan(
        spec,
        num_cores,
        degrees,
        grouped_needs,
        lambda layer, out_bounds, _needs: grouped_workloads(layer, out_bounds),
        bytes_per_value,
        scheme,
    )


def build_traditional_plan(
    spec: NetworkSpec,
    num_cores: int,
    bytes_per_value: int = 2,
    scheme: str = "traditional",
) -> ModelParallelPlan:
    """Map a network onto ``num_cores`` with even splits and full broadcasts.

    Every layer runs at full degree.  The first compute layer reads the
    network input from memory (no NoC traffic), matching Table I, which
    reports no entry for conv1.
    """
    degrees = [num_cores] * len(spec.compute_layers())
    return _grouped_plan(spec, num_cores, degrees, bytes_per_value, scheme)
