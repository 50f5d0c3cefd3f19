"""Regenerates Table VI — sparsified parallelization of LeNet on 8- and
32-core chips (baseline / SS / SS_Mask per chip size)."""

import pytest

from repro.experiments.common import simulator_for, train_baseline
from repro.experiments.table6 import render_table6, run_table6
from repro.partition import build_sparsified_plan

from .conftest import emit


@pytest.fixture(scope="module")
def table6_results(profile):
    results = run_table6(profile)
    emit(render_table6(results))
    return results


def test_benchmark_table6_simulation(table6_results, profile):
    """The 32-core LeNet baseline simulation."""
    model, _ = train_baseline("lenet", profile)
    plan = build_sparsified_plan(model, 32, scheme="baseline")
    simulator = simulator_for(32)
    result = simulator.simulate(plan)
    assert result.total_cycles > 0


def test_table6_claims(table6_results):
    """Paper claims: sparsification helps at both scales, more at 32 cores."""
    for cores, rows in table6_results.items():
        by_scheme = {r.scheme: r for r in rows}
        assert by_scheme["ss"].traffic_rate <= 1.0
        assert by_scheme["ss_mask"].traffic_rate <= 1.0
        assert by_scheme["ss_mask"].speedup >= 1.0
    s8 = {r.scheme: r for r in table6_results[8]}
    s32 = {r.scheme: r for r in table6_results[32]}
    # Gains grow with core count (paper: 1.22x -> 1.58x for SS_Mask).
    assert s32["ss_mask"].speedup >= s8["ss_mask"].speedup - 0.05
