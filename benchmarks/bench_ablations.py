"""Ablation benchmarks — the design-choice probes DESIGN.md calls out:
SS_Mask distance-exponent sweep, intra-core mapping policy, NoC
microarchitecture sensitivity, and analytical-vs-cycle-level agreement."""

import pytest

from repro.experiments.ablations import (
    render_agreement,
    render_mapping,
    render_mask_exponent,
    render_noc_sensitivity,
    run_analytical_agreement,
    run_mapping_ablation,
    run_mask_exponent_ablation,
    run_noc_sensitivity,
)

from .conftest import emit


@pytest.fixture(scope="module")
def mask_rows(profile):
    rows = run_mask_exponent_ablation(profile)
    emit(render_mask_exponent(rows))
    return rows


def test_benchmark_mask_exponent(mask_rows):
    """The fixed (non-training) part — plan + sim at exponent 1.

    The sweep itself trains 4 models and is cached by the fixture.
    """
    from repro.experiments.common import simulator_for, train_baseline
    from repro.experiments.config import PAPER
    from repro.partition import build_sparsified_plan

    model, _ = train_baseline("mlp", PAPER)
    simulator = simulator_for(16)

    def body():
        return simulator.simulate(build_sparsified_plan(model, 16))

    assert body().total_cycles > 0


def test_mask_exponent_claims(mask_rows):
    """Sharper masks keep traffic closer (fewer average hops)."""
    hops = {r.exponent: r.avg_hop for r in mask_rows if r.avg_hop > 0}
    if len(hops) >= 2:
        lo, hi = min(hops), max(hops)
        # The sharpest mask's surviving traffic sits no farther than the
        # shallowest mask's (training-noise tolerance included).
        assert hops[hi] <= hops[lo] + 0.3
    # Every variant keeps surviving traffic below the dense baseline's
    # ~2.6-hop uniform average.
    for r in mask_rows:
        if r.avg_hop > 0:
            assert r.avg_hop < 2.6


@pytest.fixture(scope="module")
def mapping_rows():
    rows = run_mapping_ablation()
    emit(render_mapping(rows))
    return rows


def test_benchmark_mapping(mapping_rows):
    rows = run_mapping_ablation()
    by_key = {(r.network, r.mapping): r for r in rows}
    for network in ("lenet", "convnet", "alexnet"):
        # Rigid channel tiling is never faster than adaptive mapping.
        assert (
            by_key[(network, "rigid")].total_cycles
            >= by_key[(network, "adaptive")].total_cycles
        )


@pytest.fixture(scope="module")
def noc_rows():
    rows = run_noc_sensitivity()
    emit(render_noc_sensitivity(rows))
    return rows


def test_benchmark_noc_sensitivity(noc_rows):
    rows = run_noc_sensitivity()
    by_key = {(r.num_vcs, r.vc_buffer_flits, r.physical_channels): r for r in rows}
    # More physical channels drain the burst faster at fixed VCs/buffers.
    assert (
        by_key[(3, 4, 2)].drain_cycles < by_key[(3, 4, 1)].drain_cycles
    )
    # Deeper buffers never hurt.
    assert by_key[(3, 8, 2)].drain_cycles <= by_key[(3, 2, 2)].drain_cycles


@pytest.fixture(scope="module")
def agreement_rows():
    rows = run_analytical_agreement()
    emit(render_agreement(rows))
    return rows


def test_benchmark_analytical_agreement(agreement_rows):
    rows = run_analytical_agreement()
    # The cycle-level result stays within a small factor of the closed form
    # for every real layer burst.
    for r in rows:
        assert 0.4 < r.ratio < 6.0, f"{r.network}/{r.layer}: {r.ratio}"


@pytest.fixture(scope="module")
def placement_rows(profile):
    from repro.experiments.ablations import render_placement, run_placement_ablation

    rows = run_placement_ablation(profile)
    emit(render_placement(rows))
    return rows


def test_benchmark_placement(placement_rows, profile):
    """Annealed placement search on the SS traffic pattern."""

    from repro.experiments.common import train_baseline
    from repro.noc import Mesh2D
    from repro.partition import annealed_placement, build_sparsified_plan, combined_traffic

    model, _ = train_baseline("mlp", profile)
    traffic = combined_traffic(build_sparsified_plan(model, 16))
    mesh = Mesh2D.for_nodes(16)
    placement = annealed_placement(traffic, mesh, iterations=500)
    assert sorted(placement.tolist()) == list(range(16))


def test_placement_claims(placement_rows):
    by_key = {(r.scheme, r.placement): r for r in placement_rows}
    # Optimized placement never increases hop-weighted locality.
    for scheme in ("baseline", "ss", "ss_mask"):
        assert (
            by_key[(scheme, "optimized")].avg_hop
            <= by_key[(scheme, "identity")].avg_hop + 1e-9
        )
    # SS_Mask's trained locality already beats what placement gives SS... or
    # at least placement alone does not close the whole gap to SS_Mask.
    assert by_key[("ss_mask", "identity")].avg_hop <= by_key[("ss", "identity")].avg_hop


@pytest.fixture(scope="module")
def quantization_rows(profile):
    from repro.experiments.ablations import render_quantization, run_quantization_ablation

    rows = run_quantization_ablation(profile)
    emit(render_quantization(rows))
    return rows


def test_benchmark_quantization(quantization_rows, profile):
    from repro.experiments.ablations import run_quantization_ablation

    rows = run_quantization_ablation(profile, ("mlp",))
    (row,) = rows
    # 16-bit fixed point is accuracy-neutral for these models (the premise
    # of the Table II datapath).
    assert abs(row.fixed16_accuracy - row.float_accuracy) < 0.05


@pytest.fixture(scope="module")
def pipeline_rows():
    from repro.experiments.ablations import render_pipeline, run_pipeline_ablation

    rows = run_pipeline_ablation()
    emit(render_pipeline(rows))
    return rows


def test_benchmark_pipeline(pipeline_rows):
    from repro.experiments.ablations import run_pipeline_ablation

    rows = run_pipeline_ablation()
    by_key = {(r.network, r.scheme): r for r in rows}
    for network in ("lenet", "convnet", "alexnet"):
        pipe = by_key[(network, "pipeline")]
        intra = by_key[(network, "intra-layer")]
        # §II.B: pipelining loses on single-pass latency and suffers load
        # imbalance from heterogeneous layer shapes.
        assert pipe.single_pass_cycles > intra.single_pass_cycles
        assert pipe.imbalance > 1.3
