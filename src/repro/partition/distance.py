"""Hop-distance matrices and communication-aware sparsity-strength masks.

§IV.C.3: the paper uses the inter-core distance matrix of the mesh (under
dimension-ordered routing, i.e. Manhattan distance) as the *factor mask* that
scales the group-Lasso strength of each (producer, consumer) weight block:
distant pairs get high strength (pruned first), adjacent pairs low strength,
and same-core (diagonal) blocks zero strength so training parameterizes them
freely.
"""

from __future__ import annotations

import numpy as np

from ..noc.topology import Mesh2D

__all__ = ["hop_distance_matrix", "uniform_strength", "distance_strength_mask"]


def hop_distance_matrix(num_cores: int) -> np.ndarray:
    """Pairwise hop distances on the most-square mesh for ``num_cores``."""
    return Mesh2D.for_nodes(num_cores).distance_matrix().astype(np.float64)


def uniform_strength(num_cores: int) -> np.ndarray:
    """The SS scheme's mask: equal strength off-diagonal, zero on-diagonal.

    All inter-core blocks share one strength factor regardless of placement;
    same-core blocks are never penalized (their data never crosses the NoC).
    """
    s = np.ones((num_cores, num_cores))
    np.fill_diagonal(s, 0.0)
    return s


def distance_strength_mask(
    num_cores: int,
    exponent: float = 1.0,
    mesh: Mesh2D | None = None,
    normalize_mean: bool = True,
) -> np.ndarray:
    """The SS_Mask scheme's mask: strength grows with hop distance.

    ``S[i, j] ∝ (d(i, j) / d_max) ** exponent`` with a zero diagonal.  The
    exponent controls how aggressively long-distance blocks are prioritized
    for pruning; 1.0 is linear in distance (the paper's description), larger
    exponents concentrate pruning on the farthest pairs (an ablation this
    repo explores in ``benchmarks/bench_ablations.py::test_mask_exponent_claims``).

    With ``normalize_mean`` (default) the mask is scaled so its mean
    off-diagonal strength is 1 — the same *average* sparsity pressure as the
    SS scheme's uniform mask, redistributed from near pairs to far pairs.
    That makes SS and SS_Mask directly comparable at one ``lambda_g``: they
    prune similar block counts, but SS_Mask's surviving traffic stays between
    adjacent cores (the paper's "one or two hops away" observation).
    """
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    mesh = mesh or Mesh2D.for_nodes(num_cores)
    if mesh.num_nodes != num_cores:
        raise ValueError(f"mesh has {mesh.num_nodes} nodes, expected {num_cores}")
    d = mesh.distance_matrix().astype(np.float64)
    d_max = d.max()
    if d_max == 0:
        return np.zeros((num_cores, num_cores))
    s = (d / d_max) ** exponent
    np.fill_diagonal(s, 0.0)
    if normalize_mean and num_cores > 1:
        off = ~np.eye(num_cores, dtype=bool)
        s /= s[off].mean()
    return s
