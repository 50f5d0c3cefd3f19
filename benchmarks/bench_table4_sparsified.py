"""Regenerates Table IV — communication-aware sparsified parallelization of
MLP, LeNet, ConvNet and (scaled) CaffeNet on 16 cores: accuracy, NoC traffic
rate, system speedup and NoC energy reduction for baseline / SS / SS_Mask.
"""

import pytest

from repro.experiments.common import train_baseline
from repro.experiments.table4 import render_table4, run_table4
from repro.partition import build_sparsified_plan
from repro.experiments.common import simulator_for

from .conftest import emit


@pytest.fixture(scope="module")
def table4_rows(profile):
    rows = run_table4(profile)
    emit(render_table4(rows))
    return rows


def test_benchmark_table4_simulation(table4_rows, profile):
    """Plan + simulate the trained MLP baseline."""
    model, _ = train_baseline("mlp", profile)

    def plan_and_simulate():
        plan = build_sparsified_plan(model, 16, scheme="baseline")
        return simulator_for(16).simulate(plan)

    result = plan_and_simulate()
    assert result.total_traffic_bytes > 0


def test_table4_claims(table4_rows):
    """The paper's qualitative Table IV claims."""
    by_key = {(r.network, r.scheme): r for r in table4_rows}
    for network in ("mlp", "lenet", "convnet", "caffenet"):
        base = by_key[(network, "baseline")]
        ss = by_key[(network, "ss")]
        mask = by_key[(network, "ss_mask")]
        # Sparsified schemes cut traffic and never slow the system down.
        assert ss.traffic_rate <= 1.0
        assert mask.traffic_rate <= 1.0
        assert ss.speedup >= 0.99
        assert mask.speedup >= 0.99
        assert base.speedup == 1.0
    # The headline claim: on the nets where sparsification bites, SS_Mask
    # delivers real speedups and energy reductions (paper: 1.1-1.6x, 38-89%).
    mlp_mask = by_key[("mlp", "ss_mask")]
    assert mlp_mask.speedup > 1.2
    assert mlp_mask.energy_reduction > 0.4
