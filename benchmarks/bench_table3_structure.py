"""Regenerates Table III and Fig. 7 — structure-level parallelization of the
ConvNet variants (Parallel#1/#2/#3) on the 16-core chip.

Training runs once per profile and is disk-cached; the simulation test runs
the end-to-end inference simulation of the grouped variant.
"""

import pytest

from repro.experiments.table3 import render_table3, run_table3
from repro.models import table3_convnet_spec
from repro.partition import build_traditional_plan
from repro.experiments.common import simulator_for

from .conftest import emit


@pytest.fixture(scope="module")
def table3_rows(profile):
    rows = run_table3(profile)
    emit(render_table3(rows))
    return rows


def test_benchmark_table3_simulation(table3_rows):
    """Simulate the Parallel#2 plan (training already done)."""
    plan = build_traditional_plan(
        table3_convnet_spec(groups=16), 16, scheme="structure"
    )
    simulator = simulator_for(16)
    result = simulator.simulate(plan)
    assert result.total_cycles > 0


def test_table3_claims(table3_rows):
    """The paper's qualitative claims for Table III / Fig. 7."""
    by_variant = {r.variant: r for r in table3_rows}
    p1 = by_variant["parallel#1"]
    p2 = by_variant["parallel#2"]
    p3 = by_variant["parallel#3"]
    # Grouping yields a multi-x system speedup (paper: 4.9x / 4.6x).
    assert p2.speedup > 2.0
    assert p3.speedup > 2.0
    # Communication energy drops substantially (paper: 91% / 88%).
    assert p2.comm_energy_reduction > 0.5
    assert p3.comm_energy_reduction > 0.5
    # The widened Parallel#3 recovers accuracy relative to Parallel#2.
    assert p3.accuracy >= p2.accuracy - 0.02
    assert p1.speedup == 1.0
