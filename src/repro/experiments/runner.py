"""Run every paper experiment and render the report.

Each experiment runs inside an ``experiment`` tracing span, so a trace of a
full run breaks down into experiment → layer → drain phases.

``run_all`` shards experiments across worker processes via
:func:`repro.parallel.pmap` (its ``workers`` argument) and hands the same
count to each experiment; inside a worker, an experiment's own grids run
serially — whichever level is parallelized first owns the process pool.
Pool-path calls here and in every table loop reuse one persistent warm
worker pool, respawned only when a call's effective worker count or the
cache directory changes.
Workers share the artifact cache under single-flight claims and ship their
spans/metrics back to the parent, so a parallel report is byte-identical to
a serial one and its trace is complete.
"""

from __future__ import annotations

import functools

from ..obs import span
from ..parallel import pmap
from .ablations import (
    render_agreement,
    render_mapping,
    render_mask_exponent,
    render_noc_sensitivity,
    render_pipeline,
    render_placement,
    render_quantization,
    run_analytical_agreement,
    run_mapping_ablation,
    run_mask_exponent_ablation,
    run_noc_sensitivity,
    run_pipeline_ablation,
    run_placement_ablation,
    run_quantization_ablation,
)
from .config import ExperimentProfile, PAPER
from .motivation import render_motivation, run_motivation
from .table1 import render_table1, run_table1
from .table3 import render_table3, run_table3
from .table4 import render_table4, run_table4
from .table5 import render_table5, run_table5
from .table6 import render_table6, run_table6
from .table_mcm import render_table_mcm, run_table_mcm
from .table_search import render_table_search, run_table_search
from .tableS1 import render_tableS1, run_tableS1

__all__ = ["run_all", "EXPERIMENTS"]

EXPERIMENTS = (
    "table1",
    "motivation",
    "table3",
    "table4",
    "table5",
    "table6",
    "tableS1",
    "tableMCM",
    "tableSearch",
    "ablation-mask-exponent",
    "ablation-mapping",
    "ablation-noc",
    "ablation-analytical",
    "ablation-placement",
    "ablation-quantization",
    "ablation-pipeline",
)


def run_one(
    name: str, profile: ExperimentProfile = PAPER, workers: int | None = None
) -> str:
    """Run a single experiment by name and return its rendered table."""
    with span("experiment", experiment=name, profile=profile.name):
        return _run_one(name, profile, workers)


def _run_one(name: str, profile: ExperimentProfile, workers: int | None = None) -> str:
    if name == "table1":
        return render_table1(run_table1())
    if name == "motivation":
        return render_motivation(run_motivation())
    if name == "table3":
        return render_table3(run_table3(profile))
    if name == "table4":
        return render_table4(run_table4(profile, workers=workers))
    if name == "table5":
        return render_table5(run_table5(profile, workers=workers))
    if name == "table6":
        return render_table6(run_table6(profile, workers=workers))
    if name == "tableS1":
        return render_tableS1(run_tableS1(profile, workers=workers))
    if name == "tableMCM":
        return render_table_mcm(run_table_mcm(profile, workers=workers))
    if name == "tableSearch":
        return render_table_search(run_table_search(profile, workers=workers))
    if name == "ablation-mask-exponent":
        return render_mask_exponent(run_mask_exponent_ablation(profile))
    if name == "ablation-mapping":
        return render_mapping(run_mapping_ablation())
    if name == "ablation-noc":
        return render_noc_sensitivity(run_noc_sensitivity())
    if name == "ablation-analytical":
        return render_agreement(run_analytical_agreement())
    if name == "ablation-placement":
        return render_placement(run_placement_ablation(profile))
    if name == "ablation-quantization":
        return render_quantization(run_quantization_ablation(profile))
    if name == "ablation-pipeline":
        return render_pipeline(run_pipeline_ablation())
    raise ValueError(f"unknown experiment {name!r}; known: {EXPERIMENTS}")


def run_all(
    profile: ExperimentProfile = PAPER,
    names: tuple[str, ...] = EXPERIMENTS,
    workers: int | None = None,
) -> dict[str, str]:
    """Run the requested experiments; returns name -> rendered table.

    With an effective worker count of 1 this is exactly the serial
    ``{name: run_one(name, profile) for name in names}`` loop; with more,
    experiments are independent ``pmap`` jobs whose rendered tables come back
    in request order — byte-identical output either way.
    """
    tables = pmap(
        functools.partial(run_one, profile=profile, workers=workers),
        names,
        workers=workers,
        label="experiments",
    )
    return dict(zip(names, tables))
