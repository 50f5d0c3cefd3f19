"""Table IV — communication-aware sparsified parallelization on 16 cores.

For each benchmark network (MLP, LeNet, ConvNet, CaffeNet-scaled) this
experiment trains the dense baseline, then the SS (uniform-strength group
Lasso) and SS_Mask (distance-masked) variants, selects each scheme's
operating point from the profile's lambda grid (strongest sparsification at
negligible accuracy cost), and reports the paper's four metrics: accuracy,
NoC traffic rate, system speedup, and NoC energy reduction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..analysis.tables import render_table
from ..parallel import pmap
from ..partition.sparsified import build_sparsified_plan
from .common import (
    TABLE4_NETWORKS,
    dataset_for,
    run_sparsified_scheme,
    simulator_for,
    train_baseline,
)
from .config import ExperimentProfile, PAPER

__all__ = ["Table4Row", "run_table4", "render_table4", "PAPER_TABLE4"]

#: Paper values: scheme -> (accuracy, traffic rate, speedup, energy reduction).
PAPER_TABLE4 = {
    "mlp": {
        "baseline": (0.9836, 1.00, 1.00, 0.00),
        "ss": (0.9838, 0.30, 1.40, 0.59),
        "ss_mask": (0.9836, 0.11, 1.59, 0.81),
    },
    "lenet": {
        "baseline": (0.9917, 1.00, 1.00, 0.00),
        "ss": (0.9898, 0.82, 1.20, 0.15),
        "ss_mask": (0.9860, 0.23, 1.51, 0.89),
    },
    "convnet": {
        "baseline": (0.7875, 1.00, 1.00, 0.00),
        "ss": (0.8015, 0.46, 1.19, 0.25),
        "ss_mask": (0.7961, 0.35, 1.32, 0.55),
    },
    "caffenet": {
        "baseline": (0.5519, 1.00, 1.00, 0.00),
        "ss": (0.5502, 0.98, 1.02, 0.17),
        "ss_mask": (0.5421, 0.57, 1.10, 0.38),
    },
}


@dataclass(frozen=True)
class Table4Row:
    network: str
    scheme: str
    accuracy: float
    traffic_rate: float
    speedup: float
    energy_reduction: float
    lam: float  # selected group-Lasso strength (0 for baseline)


def run_network(
    network: str,
    profile: ExperimentProfile = PAPER,
    num_cores: int = 16,
    workers: int | None = None,
) -> list[Table4Row]:
    """Baseline / SS / SS_Mask rows for one network."""
    dataset = dataset_for(network, profile)
    base_model, base_acc = train_baseline(network, profile, dataset=dataset)
    base_plan = build_sparsified_plan(base_model, num_cores, scheme="baseline")
    simulator = simulator_for(num_cores)
    base_result = simulator.simulate(base_plan)

    rows = [
        Table4Row(
            network=network, scheme="baseline", accuracy=base_acc,
            traffic_rate=1.0, speedup=1.0, energy_reduction=0.0, lam=0.0,
        )
    ]
    for scheme in ("ss", "ss_mask"):
        outcome = run_sparsified_scheme(
            network, scheme, num_cores, profile, base_plan, base_acc,
            dataset=dataset, workers=workers,
        )
        rows.append(
            Table4Row(
                network=network,
                scheme=scheme,
                accuracy=outcome.accuracy,
                traffic_rate=outcome.plan.traffic_rate_vs(base_plan),
                speedup=outcome.result.speedup_vs(base_result),
                energy_reduction=outcome.result.comm_energy_reduction_vs(base_result),
                lam=outcome.lam,
            )
        )
    return rows


def run_table4(
    profile: ExperimentProfile = PAPER,
    num_cores: int = 16,
    networks: tuple[str, ...] = TABLE4_NETWORKS,
    workers: int | None = None,
) -> list[Table4Row]:
    """All networks' rows; each network is an independent ``pmap`` job."""
    per_network = pmap(
        functools.partial(
            run_network, profile=profile, num_cores=num_cores, workers=workers
        ),
        networks,
        workers=workers,
        label="table4.networks",
    )
    return [row for rows in per_network for row in rows]


def render_table4(rows: list[Table4Row]) -> str:
    body = []
    for r in rows:
        paper = PAPER_TABLE4.get(r.network, {}).get(r.scheme)
        paper_str = (
            f"{paper[0]:.2%}/{paper[1]:.0%}/{paper[2]:.2f}x/{paper[3]:.0%}"
            if paper else "-"
        )
        body.append(
            [
                r.network, r.scheme, f"{r.accuracy:.2%}", f"{r.traffic_rate:.0%}",
                f"{r.speedup:.2f}x", f"{r.energy_reduction:.0%}",
                f"{r.lam:g}" if r.lam else "-", paper_str,
            ]
        )
    return render_table(
        [
            "network", "scheme", "accu", "traffic", "speedup",
            "energy red.", "lam_g", "paper (accu/traffic/speedup/e-red)",
        ],
        body,
        title="Table IV — communication-aware sparsified parallelization (16 cores)",
    )
