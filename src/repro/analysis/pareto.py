"""Pareto-frontier selection for latency-throughput trade-off tables.

The serving sweep scores every (scheme, replica-group size, arrival rate)
point with a goodput (maximize) and a tail latency (minimize).  A point is
**Pareto-optimal** when no other point is at least as good on both axes and
strictly better on one; the frontier is the set of such points — the
configurations a deployer would actually choose between.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["pareto_flags"]


def pareto_flags(points: Sequence[tuple[float, float]]) -> list[bool]:
    """Per-point Pareto optimality; maximizes ``x``, minimizes ``y``.

    Duplicates of a Pareto-optimal point are all flagged optimal (neither
    strictly dominates the other).  O(n^2), fine for experiment tables.
    """
    flags = []
    for i, (xi, yi) in enumerate(points):
        dominated = any(
            (xj >= xi and yj <= yi) and (xj > xi or yj < yi)
            for j, (xj, yj) in enumerate(points)
            if j != i
        )
        flags.append(not dominated)
    return flags
