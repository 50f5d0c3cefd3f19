"""``repro.serve`` — request-level serving simulation on the CMP chip.

The paper's QoS argument (§I) — model parallelism wins response time,
input-level parallelism wins throughput — only becomes quantitative once
*many concurrent requests* contend for the chip.  This package layers a
discrete-event serving simulator on top of the single-pass engine
(:mod:`repro.sim`) and the partition plans (:mod:`repro.partition`):

* :mod:`repro.serve.workload` — open-loop (Poisson / bursty MMPP) and
  closed-loop load generators with seeded determinism;
* :mod:`repro.serve.cluster` — splits the chip's (or an MCM package's)
  cores into replica groups, each a pipeline of one or more stages
  (:class:`~repro.mcm.service.PipelineService`): one stage is a
  model-parallel plan on one chip, timed by the existing engine (one
  simulation per distinct plan, memoized); more stages pipeline layer
  ranges across chips (:func:`build_mcm_cluster`, :mod:`repro.mcm`);
* :mod:`repro.serve.scheduler` — pluggable dispatch policies: FIFO,
  shortest-job-first, per-model priority, and a DRAM-amortizing batcher;
* :mod:`repro.serve.simulator` — the event loop tying the three together;
* :mod:`repro.serve.fastpath` — the columnar (struct-of-arrays) event loop
  the simulator auto-selects for open-loop workloads: identical results,
  an order of magnitude more events per second (the ``fastpath`` argument
  selects; the object loop remains the bit-exactness reference);
* :mod:`repro.serve.slo` / :mod:`repro.serve.results` — per-request records,
  p50/p95/p99 latency, goodput, SLO-violation rate, and utilization,
  instrumented through :mod:`repro.obs`.

``repro-serve`` (see :mod:`repro.serve.cli`) is the command-line front end;
the ``tableS1`` experiment sweeps arrival rate x scheme x replica-group size
into a latency-throughput Pareto table.
"""

from .cluster import (
    Cluster,
    build_mcm_cluster,
    build_replica_plan,
    build_spec_cluster,
    clear_service_memo,
    default_group_map,
    service_for_plan,
)
from .fastpath import fastpath_mode
from .results import RecordColumns, RequestRecord, ServeResult
from .scheduler import (
    BatchingScheduler,
    FIFOScheduler,
    IndexQueue,
    PriorityScheduler,
    Scheduler,
    SJFScheduler,
    make_scheduler,
)
from .simulator import ServeSimulator, simulate_serving
from .slo import SLO, SLOReport, evaluate_slo, percentile
from .workload import (
    ArrivalColumns,
    ClosedLoopWorkload,
    LoadGenerator,
    MMPPWorkload,
    PoissonWorkload,
    Request,
)

__all__ = [
    "Request",
    "ArrivalColumns",
    "LoadGenerator",
    "PoissonWorkload",
    "MMPPWorkload",
    "ClosedLoopWorkload",
    "Cluster",
    "service_for_plan",
    "build_replica_plan",
    "build_spec_cluster",
    "default_group_map",
    "clear_service_memo",
    "build_mcm_cluster",
    "Scheduler",
    "IndexQueue",
    "FIFOScheduler",
    "SJFScheduler",
    "PriorityScheduler",
    "BatchingScheduler",
    "make_scheduler",
    "ServeSimulator",
    "simulate_serving",
    "fastpath_mode",
    "RequestRecord",
    "RecordColumns",
    "ServeResult",
    "SLO",
    "SLOReport",
    "evaluate_slo",
    "percentile",
]
