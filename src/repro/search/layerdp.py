"""Layer-chain DP over per-layer parallelization degrees.

The per-layer config space is a chain (cf. the graph-based search of "Exploring
Hidden Dimensions in Parallelizing Convolutional Neural Networks", Jia et al.
— PAPERS.md): layer ``ℓ``'s cost depends only on its own degree ``p`` and its
predecessor's degree ``q`` through the redistribution traffic.  With the
oracle's tables the Bellman recursion

    f[ℓ, p] = min_q ( f[ℓ-1, q] + comm[ℓ, q, p] ) + compute[ℓ, p]

is a vectorized ``(Q, P)`` min-reduction per layer, so the exact optimum over
all ``P^L`` configurations costs ``O(L · P²)`` numpy ops.  The searched
config can never be worse (in oracle cycles) than the traditional plan: the
all-``num_cores`` assignment is one point of the searched space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accel.chip import ChipConfig
from ..models.spec import NetworkSpec
from ..partition.degree import build_degree_plan
from ..partition.plan import ModelParallelPlan
from ..plancost.oracle import PlanCostOracle

__all__ = ["DegreeSearchResult", "search_layer_degrees"]


@dataclass(frozen=True)
class DegreeSearchResult:
    """Outcome of one per-layer degree search."""

    model: str
    num_cores: int
    degrees: tuple[int, ...]
    predicted_cycles: float  # oracle (analytic) latency of the searched config
    anchor_cycles: float  # oracle latency of the max-degree (traditional) config
    plan: ModelParallelPlan  # buildable, engine-simulatable searched plan

    @property
    def predicted_speedup(self) -> float:
        """Oracle-predicted latency win over the traditional anchor."""
        return self.anchor_cycles / self.predicted_cycles

    def describe(self) -> str:
        degrees = ",".join(str(d) for d in self.degrees)
        return (
            f"{self.model} x{self.num_cores}: degrees [{degrees}], "
            f"predicted {self.predicted_cycles:,.0f} cycles "
            f"({self.predicted_speedup:.2f}x vs traditional)"
        )


def search_layer_degrees(
    spec: NetworkSpec,
    num_cores: int = 16,
    degrees: tuple[int, ...] | None = None,
    chip: ChipConfig | None = None,
    oracle: PlanCostOracle | None = None,
) -> DegreeSearchResult:
    """Exact chain-DP optimum of the oracle cost over per-layer degrees.

    Returns the argmin config, its oracle cost, and the built
    :class:`~repro.partition.plan.ModelParallelPlan` ready for exact engine
    simulation or serving.  Pass an existing ``oracle`` to amortize table
    construction across searches; it must have been built for ``spec`` and
    ``num_cores``, and for ``degrees`` and ``chip`` where those are given
    (``ValueError`` otherwise).
    """
    if oracle is None:
        oracle = PlanCostOracle(spec, num_cores, degrees=degrees, chip=chip)
    elif oracle.spec != spec or oracle.num_cores != num_cores:
        raise ValueError(
            f"oracle is for {oracle.spec.name} on {oracle.num_cores} cores, "
            f"search asked for {spec.name} on {num_cores}"
        )
    elif degrees is not None and tuple(sorted(set(degrees))) != oracle.degrees:
        raise ValueError(f"oracle has degrees {oracle.degrees}, search asked for {degrees}")
    elif chip is not None and chip != oracle.chip:
        raise ValueError("oracle was built for a different chip than the one passed")
    num_layers, num_degrees = oracle.num_layers, len(oracle.degrees)

    f = oracle.compute[0].copy()
    choice = np.zeros((num_layers, num_degrees), dtype=np.int64)
    for layer in range(1, num_layers):
        trans = f[:, None] + oracle.comm[layer]  # (Q, P)
        best_prev = np.argmin(trans, axis=0)
        choice[layer] = best_prev
        f = trans[best_prev, np.arange(num_degrees)] + oracle.compute[layer]

    last = int(np.argmin(f))
    predicted = float(f[last]) + oracle.input_load
    indices = [last]
    for layer in range(num_layers - 1, 0, -1):
        indices.append(int(choice[layer, indices[-1]]))
    indices.reverse()
    searched = tuple(oracle.degrees[i] for i in indices)

    # The traditional anchor: every layer at its largest valid degree.
    anchor = tuple(
        oracle.degrees[int(np.flatnonzero(oracle.valid[li])[-1])]
        for li in range(num_layers)
    )
    return DegreeSearchResult(
        model=spec.name,
        num_cores=oracle.num_cores,
        degrees=searched,
        predicted_cycles=predicted,
        anchor_cycles=oracle.cost(anchor),
        plan=build_degree_plan(spec, oracle.num_cores, searched),
    )
