"""Table VI — sparsified parallelization of LeNet at 8 and 32 cores.

The Table IV pipeline re-run at different chip sizes.  The paper's claims to
reproduce: both SS and SS_Mask keep helping as the core count grows, and the
gains at 32 cores exceed those at 8 (smaller per-core kernel groups are
easier to prune; the NoC gets relatively more congested).
"""

from __future__ import annotations

import functools

from ..analysis.tables import render_table
from ..parallel import pmap
from .config import ExperimentProfile, PAPER
from .table4 import Table4Row, run_network

__all__ = ["run_table6", "render_table6", "PAPER_TABLE6"]

#: Paper values: cores -> scheme -> (accuracy, traffic rate, speedup, e-red).
PAPER_TABLE6 = {
    8: {
        "baseline": (0.991, 1.00, 1.00, 0.00),
        "ss": (0.989, 0.80, 1.20, 0.10),
        "ss_mask": (0.989, 0.68, 1.22, 0.32),
    },
    32: {
        "baseline": (0.991, 1.00, 1.00, 0.00),
        "ss": (0.987, 0.32, 1.49, 0.34),
        "ss_mask": (0.986, 0.18, 1.58, 0.56),
    },
}

DEFAULT_CORE_COUNTS = (8, 32)


def run_table6(
    profile: ExperimentProfile = PAPER,
    core_counts: tuple[int, ...] = DEFAULT_CORE_COUNTS,
    workers: int | None = None,
) -> dict[int, list[Table4Row]]:
    """LeNet baseline/SS/SS_Mask rows per core count (one pmap job each).

    Each core count is Table IV's :func:`~repro.experiments.table4.run_network`
    for LeNet on that chip.  The shared LeNet baseline is raced through the
    single-flight cache: the first core count's worker trains it, the others
    load the artifact.
    """
    per_cores = pmap(
        functools.partial(run_network, "lenet", profile, workers=workers),
        core_counts,
        workers=workers,
        label="table6.cores",
    )
    return dict(zip(core_counts, per_cores))


def render_table6(results: dict[int, list[Table4Row]]) -> str:
    body = []
    for cores, rows in sorted(results.items()):
        for r in rows:
            paper = PAPER_TABLE6.get(cores, {}).get(r.scheme)
            paper_str = (
                f"{paper[0]:.1%}/{paper[1]:.0%}/{paper[2]:.2f}x/{paper[3]:.0%}"
                if paper else "-"
            )
            body.append(
                [
                    cores, r.scheme, f"{r.accuracy:.2%}", f"{r.traffic_rate:.0%}",
                    f"{r.speedup:.2f}x", f"{r.energy_reduction:.0%}", paper_str,
                ]
            )
    return render_table(
        ["cores", "scheme", "accu", "traffic", "speedup", "energy red.",
         "paper (accu/traffic/speedup/e-red)"],
        body,
        title="Table VI — sparsified LeNet at 8 and 32 cores",
    )
