"""Regenerates Table V and Fig. 8 — structure-level parallelization scaling
with core count (Parallel#3 with n = cores on 4/8/16/32-core chips)."""

import pytest

from repro.experiments.common import simulator_for
from repro.experiments.table5 import render_table5, run_table5
from repro.models import table3_convnet_spec
from repro.partition import build_traditional_plan

from .conftest import emit


@pytest.fixture(scope="module")
def table5_rows(profile):
    rows = run_table5(profile)
    emit(render_table5(rows))
    return rows


def test_benchmark_table5_simulation(table5_rows):
    """The 32-core grouped simulation (the largest chip)."""
    plan = build_traditional_plan(
        table3_convnet_spec(groups=32), 32, scheme="structure"
    )
    simulator = simulator_for(32)
    result = simulator.simulate(plan)
    assert result.total_cycles > 0


def test_table5_claims(table5_rows):
    """Fig. 8 shape: speedup grows with core count, sub-linearly."""
    by_cores = {r.cores: r for r in table5_rows}
    speedups = [by_cores[c].speedup for c in (4, 8, 16, 32)]
    # Monotone growth...
    assert speedups == sorted(speedups)
    # ...but far from linear in n (paper: 2.7 -> 6.9, not 4 -> 32).
    assert speedups[-1] < 32 / 2
    assert speedups[0] > 1.2
    # Communication-side benefit stays substantial at every scale.
    for c in (4, 8, 16, 32):
        assert by_cores[c].comm_energy_reduction > 0.3
