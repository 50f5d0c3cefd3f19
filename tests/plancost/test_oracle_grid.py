"""The oracle's comm grid equals the per-triple loop, table for table.

:class:`~repro.plancost.PlanCostOracle` sums each consumer need table once
for every producer degree and drains one layer transition at a time.  These
tests hold its ``comm`` table equal (``==``, ``inf`` included) to
:func:`.oracle_loop.loop_comm` on every zoo model at 2–32 cores, with the
divisor degrees and with a non-divisor set whose splits are uneven.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.zoo import SPEC_BUILDERS
from repro.partition.degree import valid_degree
from repro.plancost import PlanCostOracle

from .oracle_loop import loop_comm

CORES = (2, 4, 8, 12, 16, 32)


@pytest.mark.parametrize("num_cores", CORES)
@pytest.mark.parametrize("name", sorted(SPEC_BUILDERS))
@pytest.mark.parametrize("degree_set", ["divisors", "odd"])
def test_comm_equals_per_triple_loop(name, num_cores, degree_set):
    spec = SPEC_BUILDERS[name]()
    degrees = None if degree_set == "divisors" else tuple(d for d in (1, 3, 5, 7) if d <= num_cores)
    oracle = PlanCostOracle(spec, num_cores, degrees=degrees)
    expected_valid = [[valid_degree(layer, d) for d in oracle.degrees] for layer in oracle.layers]
    assert oracle.valid.tolist() == expected_valid
    assert np.array_equal(oracle.comm, loop_comm(oracle))
