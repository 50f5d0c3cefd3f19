"""Table V + Fig. 8 — structure-level scaling with core count.

Parallel#3 (the widened, grouped ConvNet) is retrained with ``n = num_cores``
groups for each chip size and compared against the traditional (ungrouped)
mapping of the same widened network on the same chip.  The paper's
observation to reproduce: system speedup keeps growing with core count but
sub-linearly (6.9x at 32 cores, not 32x), while the communication-side
benefit stays roughly steady.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..analysis.tables import render_table
from ..models.spec import NetworkSpec
from ..parallel import pmap
from ..partition.traditional import build_traditional_plan
from .common import dataset_for, simulator_for, train_baseline
from .config import ExperimentProfile, PAPER

__all__ = ["Table5Row", "run_table5", "render_table5", "PAPER_TABLE5"]

#: Paper values: core count -> (accuracy, speedup).
PAPER_TABLE5 = {4: (0.694, 2.7), 8: (0.718, 4.6), 16: (0.742, 6.0), 32: (0.722, 6.9)}

DEFAULT_CORE_COUNTS = (4, 8, 16, 32)


@dataclass(frozen=True)
class Table5Row:
    cores: int
    groups: int
    accuracy: float
    speedup: float
    comm_energy_reduction: float
    paper_accuracy: float | None
    paper_speedup: float | None


def _run_core_count(cores: int, profile: ExperimentProfile) -> Table5Row:
    """One chip size's row — an independent train-or-load + simulate job."""
    dataset = dataset_for("table3", profile)
    # The traditional-mapping baseline is geometry-only (Table V reports no
    # baseline accuracy), so the ungrouped wide model needs no training —
    # its spec alone drives the baseline simulation.
    from ..models.factory import build_table3_convnet

    base_spec = NetworkSpec.from_sequential(
        build_table3_convnet(groups=1, wide=True, seed=profile.seed)
    )
    model, accuracy = train_baseline(
        "table3", profile, dataset=dataset, groups=cores, wide=True
    )
    spec = NetworkSpec.from_sequential(model)
    simulator = simulator_for(cores)
    base_result = simulator.simulate(build_traditional_plan(base_spec, cores))
    result = simulator.simulate(
        build_traditional_plan(spec, cores, scheme="structure")
    )
    paper = PAPER_TABLE5.get(cores)
    return Table5Row(
        cores=cores,
        groups=cores,
        accuracy=accuracy,
        speedup=result.speedup_vs(base_result),
        comm_energy_reduction=result.comm_energy_reduction_vs(base_result),
        paper_accuracy=paper[0] if paper else None,
        paper_speedup=paper[1] if paper else None,
    )


def run_table5(
    profile: ExperimentProfile = PAPER,
    core_counts: tuple[int, ...] = DEFAULT_CORE_COUNTS,
    workers: int | None = None,
) -> list[Table5Row]:
    return pmap(
        functools.partial(_run_core_count, profile=profile),
        core_counts,
        workers=workers,
        label="table5.cores",
    )


def render_table5(rows: list[Table5Row]) -> str:
    return render_table(
        ["cores", "n", "accu", "speedup", "comm energy red.", "paper accu", "paper speedup"],
        [
            [
                r.cores, r.groups, f"{r.accuracy:.3f}", f"{r.speedup:.2f}x",
                f"{r.comm_energy_reduction:.0%}",
                "-" if r.paper_accuracy is None else f"{r.paper_accuracy:.3f}",
                "-" if r.paper_speedup is None else f"{r.paper_speedup:.1f}x",
            ]
            for r in rows
        ],
        title="Table V / Fig. 8 — structure-level scaling (Parallel#3, n = cores)",
    )
