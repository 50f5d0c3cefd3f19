"""Ablation studies beyond the paper's tables.

These probe the design choices DESIGN.md calls out:

* **mask exponent** — how sharply SS_Mask's strength should grow with hop
  distance (the paper fixes a linear mask; we sweep the exponent);
* **core mapping policy** — adaptive (C-Brain-style) vs rigid DianNao
  channel tiling, which changes how much communication matters;
* **NoC microarchitecture** — sensitivity of burst drain time to VC count
  and buffer depth;
* **analytical vs cycle-level** — how tight the closed-form communication
  bound is across realistic layer bursts;
* **placement** (extension) — how much of SS_Mask's locality benefit plain
  core-placement optimization recovers without touching the weights;
* **quantization** — accuracy of the trained models on the cores' 16-bit
  fixed-point datapath (Table II) vs float.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..accel.chip import ChipConfig
from ..analysis.tables import render_table
from ..mcm import InterChipLink, McmTopology, build_mcm_plan, mcm_service
from ..models.zoo import get_spec
from ..noc.analytical import estimate_drain_cycles
from ..noc.packet import NoCConfig
from ..noc.topology import Mesh2D
from ..partition.sparsified import build_sparsified_plan
from ..partition.traditional import build_traditional_plan
from ..sim.engine import InferenceSimulator, SimConfig, memoized_drain
from .common import (
    _baseline_key,
    _GridPoint,
    _run_grid_point,
    _stored_accuracy,
    dataset_for,
    train_baseline,
)
from .config import ExperimentProfile, PAPER

__all__ = [
    "run_mask_exponent_ablation",
    "run_mapping_ablation",
    "run_noc_sensitivity",
    "run_analytical_agreement",
    "run_placement_ablation",
    "run_quantization_ablation",
]


# -- mask exponent -------------------------------------------------------------------


@dataclass(frozen=True)
class MaskExponentRow:
    exponent: float
    accuracy: float
    traffic_rate: float
    avg_hop: float
    speedup: float


def run_mask_exponent_ablation(
    profile: ExperimentProfile = PAPER,
    exponents: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    lam: float = 0.1,
    num_cores: int = 16,
) -> list[MaskExponentRow]:
    """Sweep SS_Mask's distance exponent on the MLP.

    Each exponent is a λ-grid point of its own (the exponent joins its cache
    key when it is not 1.0), so exponent 1.0 at the profile's λ is Table IV's
    MLP SS_Mask state.
    """
    dataset = dataset_for("mlp", profile)
    base_model, _ = train_baseline("mlp", profile, dataset=dataset)
    base_plan = build_sparsified_plan(base_model, num_cores, scheme="baseline")
    chip = ChipConfig.table2(num_cores)
    simulator = InferenceSimulator(chip)
    base_result = simulator.simulate(base_plan)
    mesh = Mesh2D.for_nodes(num_cores)

    rows = []
    for exponent in exponents:
        point = _GridPoint(
            "mlp", "ss_mask", num_cores, profile, lam, dataset.name,
            mask_exponent=exponent,
        )
        accuracy, plan = _run_grid_point(point, dataset)
        sim_result = simulator.simulate(plan)
        hops = [
            lp.traffic.weighted_average_distance(mesh)
            for lp in plan.layers if lp.traffic.total_bytes
        ]
        rows.append(
            MaskExponentRow(
                exponent=exponent,
                accuracy=accuracy,
                traffic_rate=plan.traffic_rate_vs(base_plan),
                avg_hop=float(np.mean(hops)) if hops else 0.0,
                speedup=sim_result.speedup_vs(base_result),
            )
        )
    return rows


def render_mask_exponent(rows: list[MaskExponentRow]) -> str:
    return render_table(
        ["exponent", "accu", "traffic", "avg hops", "speedup"],
        [
            [r.exponent, f"{r.accuracy:.3f}", f"{r.traffic_rate:.0%}",
             f"{r.avg_hop:.2f}", f"{r.speedup:.2f}x"]
            for r in rows
        ],
        title="Ablation — SS_Mask distance-strength exponent (MLP, 16 cores)",
    )


# -- core mapping policy ----------------------------------------------------------------


@dataclass(frozen=True)
class MappingRow:
    network: str
    mapping: str
    total_cycles: int
    comm_fraction: float


def run_mapping_ablation(num_cores: int = 16) -> list[MappingRow]:
    """Adaptive vs rigid intra-core mapping on the full-scale specs."""
    rows = []
    for network in ("lenet", "convnet", "alexnet"):
        plan = build_traditional_plan(get_spec(network), num_cores)
        for mapping in ("adaptive", "rigid"):
            chip = ChipConfig.table2(num_cores)
            chip.core = replace(chip.core, mapping=mapping)
            result = InferenceSimulator(chip).simulate(plan)
            rows.append(
                MappingRow(
                    network=network,
                    mapping=mapping,
                    total_cycles=result.total_cycles,
                    comm_fraction=result.comm_fraction,
                )
            )
    return rows


def render_mapping(rows: list[MappingRow]) -> str:
    return render_table(
        ["network", "mapping", "total cycles", "comm fraction"],
        [[r.network, r.mapping, r.total_cycles, f"{r.comm_fraction:.1%}"] for r in rows],
        title="Ablation — intra-core mapping policy (traditional plan, 16 cores)",
    )


# -- NoC sensitivity --------------------------------------------------------------------


@dataclass(frozen=True)
class NoCSensitivityRow:
    num_vcs: int
    vc_buffer_flits: int
    physical_channels: int
    drain_cycles: int


def run_noc_sensitivity(
    num_cores: int = 16,
    network: str = "convnet",
    layer_index: int = 1,
) -> list[NoCSensitivityRow]:
    """Drain time of one realistic layer burst across NoC configurations.

    Every drain goes through the persistent drain memo (each configuration
    keys its own entry), so a warm re-run simulates nothing.
    """
    plan = build_traditional_plan(get_spec(network), num_cores)
    traffic = plan.layers[layer_index].traffic
    mesh = Mesh2D.for_nodes(num_cores)
    rows = []
    for vcs in (1, 2, 3, 4):
        for depth in (2, 4, 8):
            for pcs in (1, 2):
                config = NoCConfig(
                    num_vcs=vcs, vc_buffer_flits=depth, physical_channels=pcs
                )
                stats, _ = memoized_drain(mesh, config, traffic)
                rows.append(
                    NoCSensitivityRow(
                        num_vcs=vcs,
                        vc_buffer_flits=depth,
                        physical_channels=pcs,
                        drain_cycles=stats.cycles,
                    )
                )
    return rows


def render_noc_sensitivity(rows: list[NoCSensitivityRow]) -> str:
    return render_table(
        ["VCs", "buffer flits", "phys channels", "drain cycles"],
        [[r.num_vcs, r.vc_buffer_flits, r.physical_channels, r.drain_cycles] for r in rows],
        title="Ablation — NoC microarchitecture sensitivity (ConvNet conv2 burst)",
    )


# -- analytical vs cycle-level ----------------------------------------------------------


@dataclass(frozen=True)
class AgreementRow:
    network: str
    layer: str
    cycle_sim: int
    analytical: int
    ratio: float


def run_analytical_agreement(num_cores: int = 16) -> list[AgreementRow]:
    """Cycle-level drain time vs the analytical bound per layer burst.

    The cycle-level drains go through the persistent drain memo.
    """
    mesh = Mesh2D.for_nodes(num_cores)
    config = NoCConfig()
    rows = []
    for network in ("mlp", "lenet", "convnet", "alexnet"):
        plan = build_traditional_plan(get_spec(network), num_cores)
        for lp in plan.layers:
            if lp.traffic.total_bytes == 0:
                continue
            cycles = memoized_drain(mesh, config, lp.traffic)[0].cycles
            est = estimate_drain_cycles(lp.traffic, mesh, config).cycles
            rows.append(
                AgreementRow(
                    network=network,
                    layer=lp.layer.name,
                    cycle_sim=cycles,
                    analytical=est,
                    ratio=cycles / est if est else float("inf"),
                )
            )
    return rows


def render_agreement(rows: list[AgreementRow]) -> str:
    return render_table(
        ["network", "layer", "cycle sim", "analytical bound", "ratio"],
        [[r.network, r.layer, r.cycle_sim, r.analytical, f"{r.ratio:.2f}"] for r in rows],
        title="Ablation — cycle-level vs analytical communication model",
    )


# -- placement (extension) ----------------------------------------------------------------


@dataclass(frozen=True)
class PlacementRow:
    scheme: str
    placement: str
    avg_hop: float
    comm_cycles: int
    noc_energy_j: float


def run_placement_ablation(
    profile: ExperimentProfile = PAPER,
    num_cores: int = 16,
    lam: float = 0.1,
) -> list[PlacementRow]:
    """Identity vs optimized placement for baseline / SS / SS_Mask (MLP).

    Placement cannot help the dense baseline (all-to-all traffic is
    permutation-invariant on a symmetric workload) but can relocate SS's
    irregular surviving traffic onto adjacent nodes — quantifying how much of
    SS_Mask's advantage is pure locality.  The SS and SS_Mask models are
    λ-grid points, so at the profile's λ they are Table IV's MLP states.
    """
    from ..partition.placement import (
        annealed_placement,
        apply_placement,
        combined_traffic,
        identity_placement,
    )

    dataset = dataset_for("mlp", profile)
    base_model, _ = train_baseline("mlp", profile, dataset=dataset)
    chip = ChipConfig.table2(num_cores)
    simulator = InferenceSimulator(chip)
    mesh = Mesh2D.for_nodes(num_cores)

    plans = {"baseline": build_sparsified_plan(base_model, num_cores, scheme="baseline")}
    for scheme in ("ss", "ss_mask"):
        point = _GridPoint("mlp", scheme, num_cores, profile, lam, dataset.name)
        _, plans[scheme] = _run_grid_point(point, dataset)

    rows = []
    for scheme, plan in plans.items():
        for label in ("identity", "optimized"):
            if label == "identity":
                placed = apply_placement(plan, identity_placement(num_cores))
            else:
                placement = annealed_placement(
                    combined_traffic(plan), mesh, seed=0, iterations=1500
                )
                placed = apply_placement(plan, placement)
            result = simulator.simulate(placed)
            hops = [
                lp.traffic.weighted_average_distance(mesh)
                for lp in placed.layers if lp.traffic.total_bytes
            ]
            rows.append(
                PlacementRow(
                    scheme=scheme,
                    placement=label,
                    avg_hop=float(np.mean(hops)) if hops else 0.0,
                    comm_cycles=result.comm_cycles,
                    noc_energy_j=result.noc_energy_j,
                )
            )
    return rows


def render_placement(rows: list[PlacementRow]) -> str:
    return render_table(
        ["scheme", "placement", "avg hops", "comm cycles", "NoC energy (nJ)"],
        [
            [r.scheme, r.placement, f"{r.avg_hop:.2f}", r.comm_cycles,
             f"{r.noc_energy_j * 1e9:.1f}"]
            for r in rows
        ],
        title="Ablation (extension) — placement optimization vs trained locality (MLP)",
    )


# -- quantization -----------------------------------------------------------------------


@dataclass(frozen=True)
class QuantizationRow:
    network: str
    float_accuracy: float
    fixed16_accuracy: float


def run_quantization_ablation(
    profile: ExperimentProfile = PAPER,
    networks: tuple[str, ...] = ("mlp", "lenet"),
) -> list[QuantizationRow]:
    """Accuracy on the 16-bit fixed-point datapath of the cores (Table II).

    The fixed-point score is stored beside the baseline's state like its
    float score (under the state key plus ``-fixed16``), so a warm re-run
    scores nothing.
    """
    from ..nn.quantize import quantize_model

    def fixed16_accuracy(model, dataset) -> float:
        state = model.state_dict()
        quantize_model(model)
        accuracy = model.accuracy(dataset.x_test, dataset.y_test)
        model.load_state_dict(state)  # leave the cached model unquantized
        return accuracy

    rows = []
    for network in networks:
        dataset = dataset_for(network, profile)
        model, float_acc = train_baseline(network, profile, dataset=dataset)
        fixed_acc = _stored_accuracy(
            _baseline_key(model, profile, dataset, {}),
            lambda: fixed16_accuracy(model, dataset),
            suffix="fixed16",
        )
        rows.append(
            QuantizationRow(
                network=network,
                float_accuracy=float_acc,
                fixed16_accuracy=fixed_acc,
            )
        )
    return rows


def render_quantization(rows: list[QuantizationRow]) -> str:
    return render_table(
        ["network", "float accuracy", "16-bit fixed accuracy"],
        [
            [r.network, f"{r.float_accuracy:.4f}", f"{r.fixed16_accuracy:.4f}"]
            for r in rows
        ],
        title="Ablation — accuracy on the cores' 16-bit fixed-point datapath",
    )


# -- pipeline vs intra-layer parallelization ----------------------------------------------


@dataclass(frozen=True)
class PipelineRow:
    network: str
    scheme: str
    single_pass_cycles: int
    steady_interval: int
    imbalance: float


def run_pipeline_ablation(num_cores: int = 16) -> list[PipelineRow]:
    """Inter-layer pipelining vs the paper's intra-layer partitioning (§II.B).

    The paper rejects layer pipelining for embedded single-pass inference
    because of load imbalance; this experiment measures both schemes on the
    full-scale specs.  For the pipeline, the steady-state interval is what a
    throughput-oriented deployment would see; single-pass latency is the
    paper's metric.

    The layer pipeline is an MCM of ``num_cores`` one-core chips joined by a
    link timed like the on-chip NoC: each stage runs whole on one core, and
    activations hop between adjacent cores.
    """
    chip = ChipConfig.table2(num_cores)
    topology = McmTopology.build(
        num_cores, cores_per_chip=1, link=InterChipLink.match_noc(chip.noc)
    )
    no_input_load = SimConfig(include_input_load=False)
    rows = []
    for network in ("lenet", "convnet", "alexnet"):
        spec = get_spec(network)
        pipeline = mcm_service(build_mcm_plan(spec, topology), no_input_load)
        rows.append(
            PipelineRow(
                network=network,
                scheme="pipeline",
                single_pass_cycles=pipeline.latency_cycles,
                steady_interval=pipeline.interval_cycles,
                imbalance=pipeline.imbalance,
            )
        )

        plan = build_traditional_plan(spec, num_cores)
        result = InferenceSimulator(chip, no_input_load).simulate(plan)
        rows.append(
            PipelineRow(
                network=network,
                scheme="intra-layer",
                single_pass_cycles=result.total_cycles,
                steady_interval=result.total_cycles,  # no pipelining
                imbalance=1.0,
            )
        )
    return rows


def render_pipeline(rows: list[PipelineRow]) -> str:
    return render_table(
        ["network", "scheme", "single-pass cycles", "steady interval", "stage imbalance"],
        [
            [r.network, r.scheme, r.single_pass_cycles, r.steady_interval,
             f"{r.imbalance:.2f}"]
            for r in rows
        ],
        title=(
            "Ablation — inter-layer pipelining vs intra-layer partitioning "
            "(16 cores; the paper's SS/SS_Mask build on intra-layer)"
        ),
    )
