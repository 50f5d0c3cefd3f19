"""O(L²) reference for the stage search's range costs.

The loop :func:`repro.search.search_stage_split` used before one sub-plan
per start layer served every range: each range ``[i, j)`` planned from its
own sub-spec and costed with :func:`~repro.plancost.analytic_plan_cost`
(property-tested equal to the engine's analytical mode).
``test_stagedp.py`` holds the search's range costs equal to it.
"""

from __future__ import annotations

from repro.mcm.pipeline import stage_subspec
from repro.mcm.topology import McmTopology
from repro.models.spec import NetworkSpec
from repro.plancost import analytic_plan_cost
from repro.serve.cluster import build_replica_plan


def loop_range_costs(
    spec: NetworkSpec, topology: McmTopology, scheme: str
) -> dict[tuple[int, int], float]:
    """Cost of every stage range ``[i, j)``, inbound transfer included."""
    layers = spec.compute_layers()
    chip = topology.chip_config()
    costs = {}
    for i in range(len(layers)):
        transfer = (
            topology.link.transfer_cycles(layers[i - 1].output_volume * 2, 1) if i else 0
        )
        for j in range(i + 1, len(layers) + 1):
            sub = stage_subspec(spec, i, layers[i:j])
            plan = build_replica_plan(sub, topology.cores_per_chip, scheme)
            body = analytic_plan_cost(plan, chip=chip, include_input_load=False)
            costs[i, j] = float(body) + transfer
    return costs
