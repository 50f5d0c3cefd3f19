"""Multi-chip-module (MCM) scale-out: mesh-of-meshes + cross-chip pipelines.

The paper stops at one 16-core CMP.  Scope (PAPERS.md) shows the way past
that ceiling: merge several chips into an MCM, assign contiguous layer
ranges to chips as pipeline stages, and stream batches through the
cross-chip pipeline.  This package supplies the pieces:

* :mod:`repro.mcm.topology` — :class:`InterChipLink` (slower/narrower than
  the on-chip NoC) and :class:`McmTopology`, a mesh of :class:`Mesh2D`
  chips;
* :mod:`repro.mcm.pipeline` — :func:`build_mcm_plan` packs compute layers
  into per-chip stages (contiguous, MAC-balanced by
  :func:`balanced_stage_split`) where each stage is internally an
  intra-layer partition plan over that chip's cores;
* :mod:`repro.mcm.service` — :class:`PipelineService`, the service-time
  profile of every replica group :class:`repro.serve.Cluster` serves
  (latency = sum of stages + inter-chip transfers, steady-state interval =
  slowest stage, stage imbalance); a single-chip group is its one-stage
  case, and :func:`repro.serve.build_mcm_cluster` builds the multi-stage
  ones.

An MCM of one-core chips joined by :meth:`InterChipLink.match_noc` is the
single-chip layer pipeline §II.B rejects; the pipeline ablation times it
that way.

Modules here never import :mod:`repro.serve` at module scope (the serve
package imports us); the per-stage cycle simulations go through
``service_for_plan`` via a lazy import inside :func:`mcm_service`.
"""

from .pipeline import McmPipelinePlan, McmStage, balanced_stage_split, build_mcm_plan
from .service import PipelineService, mcm_service
from .topology import InterChipLink, McmTopology

__all__ = [
    "InterChipLink",
    "McmTopology",
    "McmStage",
    "McmPipelinePlan",
    "balanced_stage_split",
    "build_mcm_plan",
    "PipelineService",
    "mcm_service",
]
