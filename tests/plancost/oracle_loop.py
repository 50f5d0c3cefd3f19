"""Per-triple reference for :class:`repro.plancost.PlanCostOracle`'s ``comm`` table.

The loop the oracle used before one segment sum per (layer, consumer degree)
served every producer degree: one :class:`~repro.noc.TrafficMatrix` per
(layer, producer degree, consumer degree) triple, each drained by the scalar
:func:`~repro.noc.estimate_drain_cycles` (property-tested equal to the
batched model).  ``test_oracle_grid.py`` holds the oracle equal to it.
"""

from __future__ import annotations

import numpy as np

from repro.noc import estimate_drain_cycles
from repro.partition import grouped_needs
from repro.partition.degree import degree_out_bounds, valid_degree
from repro.partition.layout import producer_layout_for, traffic_from_needs
from repro.plancost import PlanCostOracle


def loop_comm(oracle: PlanCostOracle) -> np.ndarray:
    """``(L, P, P)`` comm table of ``oracle``'s spec, degrees and chip."""
    layers, degrees, n, chip = oracle.layers, oracle.degrees, oracle.num_cores, oracle.chip
    bounds = [
        {
            pi: degree_out_bounds(layer, d, n)
            for pi, d in enumerate(degrees)
            if valid_degree(layer, d)
        }
        for layer in layers
    ]
    comm = np.full((len(layers), len(degrees), len(degrees)), np.inf)
    comm[0] = 0.0
    for li in range(1, len(layers)):
        layer, prev = layers[li], layers[li - 1]
        for qi, prev_bounds in bounds[li - 1].items():
            layout = producer_layout_for(layer, prev, prev_bounds, n)
            for pi, out_bounds in bounds[li].items():
                traffic = traffic_from_needs(
                    layout, grouped_needs(layer, out_bounds), chip.bytes_per_value, "ref"
                )
                drain = estimate_drain_cycles(traffic, chip.mesh, chip.noc).cycles
                comm[li, qi, pi] = float(drain * chip.noc.core_clock_divider)
    return comm
