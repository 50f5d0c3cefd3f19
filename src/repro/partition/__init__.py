"""Partitioning schemes: the paper's core contribution.

Traditional (broadcast) parallelization, structure-level grouping,
per-layer degree plans and communication-aware sparsified plans, all built
by one per-layer loop (:mod:`repro.partition.layout`) into the common
:class:`ModelParallelPlan` the end-to-end simulator consumes.
"""

from .distance import distance_strength_mask, hop_distance_matrix, uniform_strength
from .placement import (
    annealed_placement,
    apply_placement,
    combined_traffic,
    greedy_placement,
    identity_placement,
    placement_cost,
)
from .layout import (
    ProducerLayout,
    default_out_bounds,
    producer_layout_for,
    traffic_from_needs,
)
from .degree import build_degree_plan, degree_out_bounds, valid_degree
from .plan import LayerPlan, ModelParallelPlan, feature_bounds_from_channels
from .sparsified import (
    build_sparsified_plan,
    layer_block_partitions,
    sparsified_needs,
)
from .structure import build_structure_plan, with_groups
from .traditional import build_traditional_plan, grouped_needs, grouped_workloads

__all__ = [
    "LayerPlan",
    "ModelParallelPlan",
    "feature_bounds_from_channels",
    "ProducerLayout",
    "producer_layout_for",
    "traffic_from_needs",
    "default_out_bounds",
    "build_degree_plan",
    "degree_out_bounds",
    "valid_degree",
    "build_traditional_plan",
    "grouped_needs",
    "grouped_workloads",
    "build_structure_plan",
    "with_groups",
    "build_sparsified_plan",
    "layer_block_partitions",
    "sparsified_needs",
    "hop_distance_matrix",
    "uniform_strength",
    "distance_strength_mask",
    "placement_cost",
    "identity_placement",
    "greedy_placement",
    "annealed_placement",
    "apply_placement",
    "combined_traffic",
]
