"""Per-layer parallelization degrees: each layer on its own core subset.

The traditional scheme runs *every* layer across *all* cores.  The paper's
own scaling study (and the Jia et al. hidden-dimension line of work the
ROADMAP points at) shows that is not always optimal: a small layer split 16
ways pays broadcast synchronization for almost no compute win.  A *degree
plan* assigns each compute layer its own parallelization degree ``p`` — the
layer runs on the first ``p`` cores of the mesh (contiguous XY prefix, so
low-degree layers cluster near the memory controller corner), and the
inter-layer redistribution traffic is whatever the producer slices of degree
``q`` must send to the consumer slices of degree ``p``.

Everything is built from the same per-layer loop and grouped rules as
:func:`~repro.partition.traditional.build_traditional_plan` — a degree plan
with every degree equal to ``num_cores`` *is* the traditional plan, traffic
matrix for traffic matrix (property-tested).  The plans exist so a search
(:mod:`repro.search`) can race candidate degree assignments through the
exact engine; the batched oracle (:mod:`repro.plancost`) predicts their
cost without building them.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..models.spec import LayerSpec, NetworkSpec
from .layout import _group_misalignment, degree_out_bounds
from .plan import ModelParallelPlan
from .traditional import _grouped_plan

__all__ = ["build_degree_plan", "degree_out_bounds", "valid_degree"]


def valid_degree(layer: LayerSpec, degree: int) -> bool:
    """Whether ``layer`` can be split ``degree`` ways (group alignment)."""
    return degree >= 1 and _group_misalignment(layer, degree) is None


def build_degree_plan(
    spec: NetworkSpec,
    num_cores: int,
    degrees: Sequence[int],
    bytes_per_value: int = 2,
    scheme: str = "searched",
) -> ModelParallelPlan:
    """Map ``spec`` onto ``num_cores`` with one parallelization degree per layer.

    ``degrees[i]`` is the core count of the ``i``-th *compute* layer.  The
    first layer reads the network input from memory (no NoC traffic),
    exactly like the traditional builder; later layers pay the
    producer-layout redistribution from the previous layer's degree.  A
    degree outside ``1..num_cores`` or misaligned with the layer's groups
    (see :func:`valid_degree`) raises ``ValueError``.
    """
    layers = spec.compute_layers()
    if len(degrees) != len(layers):
        raise ValueError(
            f"{spec.name}: {len(degrees)} degrees for {len(layers)} compute layers"
        )
    return _grouped_plan(spec, num_cores, degrees, bytes_per_value, scheme)
