"""Smoke checks of the simulation substrates themselves: cycle-level NoC
drain, analytical estimate, and partition-plan construction.

These exercise the substrate the table files depend on; they are not paper
figures.  Host time is measured by ``benchmarks/e2e``.
"""

import pytest

from repro.models import get_spec
from repro.noc import (
    Mesh2D,
    NoCConfig,
    NoCSimulator,
    estimate_drain_cycles,
    uniform_random_traffic,
)
from repro.partition import build_traditional_plan


@pytest.fixture(scope="module")
def burst():
    return uniform_random_traffic(16, 16 * 15 * 1216, seed=7)


def test_benchmark_cycle_sim_uniform(burst):
    mesh = Mesh2D.for_nodes(16)
    cfg = NoCConfig()

    def run():
        sim = NoCSimulator(mesh, cfg)
        sim.inject(burst.to_packets(cfg))
        return sim.run()

    stats = run()
    assert stats.packets_delivered == 240


def test_benchmark_analytical_estimate(burst):
    mesh = Mesh2D.for_nodes(16)
    cfg = NoCConfig()
    est = estimate_drain_cycles(burst, mesh, cfg)
    assert est.cycles > 0


def test_benchmark_plan_construction_vgg19():
    spec = get_spec("vgg19")
    plan = build_traditional_plan(spec, 16)
    assert plan.total_traffic_bytes > 0
