"""Core placement optimization (extension beyond the paper).

The paper fixes the identity mapping between logical partition indices and
physical mesh nodes and teaches the *network* to avoid long-distance blocks
(SS_Mask).  A complementary lever is to keep the weights fixed and remap the
partitions onto the mesh so that heavily-communicating pairs sit on adjacent
nodes.  This module implements that placement optimization:

* :func:`placement_cost` — hop-weighted traffic of a candidate placement;
* :func:`greedy_placement` — place partitions in descending traffic-degree
  order onto the node minimizing incremental cost;
* :func:`annealed_placement` — simulated-annealing refinement (pair swaps),
  never worse than the identity mapping;
* :func:`apply_placement` — rewrite a plan's traffic matrices under a
  permutation so the standard simulator evaluates the placed system.

The placement ablation benchmark quantifies how much of SS_Mask's advantage
placement alone can recover — it helps when traffic is *sparse and
irregular* (post-SS), and does nothing for the dense all-to-all baseline,
whose traffic is permutation-invariant.
"""

from __future__ import annotations


import numpy as np

from ..noc.topology import Mesh2D
from ..noc.traffic import TrafficMatrix
from .plan import LayerPlan, ModelParallelPlan

__all__ = [
    "placement_cost",
    "identity_placement",
    "greedy_placement",
    "annealed_placement",
    "apply_placement",
    "combined_traffic",
]


def combined_traffic(plan: ModelParallelPlan) -> np.ndarray:
    """Total bytes between each logical partition pair across all layers."""
    total = np.zeros((plan.num_cores, plan.num_cores), dtype=np.int64)
    for lp in plan.layers:
        total += lp.traffic.bytes_matrix
    return total


def placement_cost(
    traffic: np.ndarray, mesh: Mesh2D, placement: np.ndarray
) -> float:
    """Sum of bytes x hop-distance under ``placement`` (logical -> node)."""
    placement = np.asarray(placement)
    _check_placement(placement, mesh)
    d = mesh.distance_matrix()
    return float(np.sum(traffic * d[np.ix_(placement, placement)]))


def _check_placement(placement: np.ndarray, mesh: Mesh2D) -> None:
    n = mesh.num_nodes
    if sorted(placement.tolist()) != list(range(n)):
        raise ValueError(f"placement must be a permutation of 0..{n - 1}")


def identity_placement(num_cores: int) -> np.ndarray:
    return np.arange(num_cores)


def greedy_placement(traffic: np.ndarray, mesh: Mesh2D) -> np.ndarray:
    """Place partitions one by one, heaviest communicators first.

    Each step picks the unplaced partition with the most traffic to already
    placed ones and assigns it the free node that minimizes the incremental
    hop-weighted cost.  O(P^3), fine for on-chip scales.
    """
    p = mesh.num_nodes
    if traffic.shape != (p, p):
        raise ValueError(f"traffic shape {traffic.shape} != ({p}, {p})")
    sym = traffic + traffic.T
    d = mesh.distance_matrix()

    placement = np.full(p, -1, dtype=np.int64)
    free_nodes = set(range(p))
    unplaced = set(range(p))

    # Seed: the partition with the highest total traffic goes to the node
    # with the lowest average distance (mesh center).
    first = int(np.argmax(sym.sum(axis=1)))
    center = int(np.argmin(d.sum(axis=1)))
    placement[first] = center
    free_nodes.discard(center)
    unplaced.discard(first)

    while unplaced:
        placed = [q for q in range(p) if placement[q] >= 0]
        # Most strongly connected to the placed set.
        part = max(unplaced, key=lambda q: sym[q, placed].sum())
        best_node, best_cost = -1, np.inf
        for node in free_nodes:
            cost = sum(
                sym[part, q] * d[node, placement[q]] for q in placed
            )
            if cost < best_cost:
                best_node, best_cost = node, cost
        placement[part] = best_node
        free_nodes.discard(best_node)
        unplaced.discard(part)
    return placement


def annealed_placement(
    traffic: np.ndarray,
    mesh: Mesh2D,
    seed: int = 0,
    iterations: int = 2000,
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Simulated-annealing pair-swap refinement of a placement.

    Starts from ``start`` when given, else from the cheaper of
    :func:`greedy_placement` and the identity mapping (greedy on a tie), and
    returns the cheapest placement seen.  The result therefore never costs
    more than its start, and with ``start=None`` never more than identity.
    """
    rng = np.random.default_rng(seed)
    p = mesh.num_nodes
    if start is not None:
        placement = start.copy()
    else:
        placement = greedy_placement(traffic, mesh)
        identity = identity_placement(p)
        if placement_cost(traffic, mesh, identity) < placement_cost(traffic, mesh, placement):
            placement = identity
    _check_placement(placement, mesh)
    cost = placement_cost(traffic, mesh, placement)
    best, best_cost = placement.copy(), cost
    temperature = max(cost / max(p, 1), 1.0)
    for step in range(iterations):
        a, b = rng.integers(0, p, size=2)
        if a == b:
            continue
        placement[a], placement[b] = placement[b], placement[a]
        new_cost = placement_cost(traffic, mesh, placement)
        accept = new_cost <= cost or rng.random() < np.exp(
            (cost - new_cost) / max(temperature, 1e-9)
        )
        if accept:
            cost = new_cost
            if cost < best_cost:
                best, best_cost = placement.copy(), cost
        else:
            placement[a], placement[b] = placement[b], placement[a]
        temperature *= 0.995
    return best


def apply_placement(
    plan: ModelParallelPlan, placement: np.ndarray
) -> ModelParallelPlan:
    """The plan as seen by the physical mesh under a placement permutation.

    Traffic matrix entries move from logical pair ``(i, j)`` to physical pair
    ``(placement[i], placement[j])``; per-core workloads are reordered the
    same way.
    """
    placement = np.asarray(placement)
    p = plan.num_cores
    if sorted(placement.tolist()) != list(range(p)):
        raise ValueError(f"placement must be a permutation of 0..{p - 1}")
    inverse = np.empty(p, dtype=np.int64)
    inverse[placement] = np.arange(p)

    new_layers = []
    for lp in plan.layers:
        m = lp.traffic.bytes_matrix
        placed = m[np.ix_(inverse, inverse)]
        new_layers.append(
            LayerPlan(
                layer=lp.layer,
                out_bounds=[lp.out_bounds[inverse[c]] for c in range(p)],
                core_workloads=[lp.core_workloads[inverse[c]] for c in range(p)],
                traffic=TrafficMatrix(placed, label=lp.traffic.label + "@placed"),
            )
        )
    return ModelParallelPlan(
        name=plan.name,
        scheme=plan.scheme + "+placement",
        num_cores=p,
        layers=new_layers,
    )
