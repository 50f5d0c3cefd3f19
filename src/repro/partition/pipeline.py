"""Inter-layer (pipeline) parallelization — the rejected alternative.

§II.B of the paper argues that the usual model-parallel alternative —
partition the network *by layers* and run the stages as a pipeline across
cores — is a poor fit for embedded CMPs because layers with different
hyper-parameters create severe load imbalance.  This module implements that
scheme so the claim can be evaluated rather than assumed:

* consecutive compute layers are packed into ``num_stages`` contiguous
  stages, greedily balanced by MAC count;
* each stage runs whole on one core (that is the scheme's premise), so a
  single-pass inference visits the stages serially and its latency is the
  *sum* of stage times plus the point-to-point activation transfers;
* steady-state throughput is set by the slowest stage (plus its inbound
  transfer), which is where the load imbalance bites.

The pipeline ablation benchmark compares this against the paper's intra-layer
partitioning on single-pass latency, throughput, and stage imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel.core import CoreModel
from ..models.spec import LayerSpec, NetworkSpec
from ..noc.packet import NoCConfig
from ..noc.topology import Mesh2D
from .traditional import grouped_workloads

__all__ = ["PipelineStage", "PipelinePlan", "balanced_stage_split", "build_pipeline_plan"]


@dataclass
class PipelineStage:
    """A contiguous run of compute layers assigned to one core."""

    index: int
    core: int
    layers: list[LayerSpec] = field(default_factory=list)

    @property
    def macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def output_bytes(self) -> int:
        """Activation bytes handed to the next stage (16-bit values)."""
        if not self.layers:
            return 0
        return self.layers[-1].output_volume * 2

    def compute_cycles(self, core_model: CoreModel) -> int:
        """Whole-layer-on-one-core cycles for every layer in the stage."""
        return sum(
            core_model.compute_cycles(
                grouped_workloads(layer, [(0, layer.out_channels)])[0]
            )
            for layer in self.layers
        )


def balanced_stage_split(
    layers: list[LayerSpec], num_stages: int
) -> list[list[LayerSpec]]:
    """Pack contiguous layers into stages, greedily balancing MACs.

    Walks the layer list accumulating MACs and closes a stage when it reaches
    the ideal per-stage share, while leaving at least one layer for each
    remaining stage.  Empty trailing stages are produced when there are fewer
    layers than stages (cores idle — part of the scheme's inefficiency).
    """
    if num_stages <= 0:
        raise ValueError(f"num_stages must be positive, got {num_stages}")
    total = sum(l.macs for l in layers)
    stages: list[list[LayerSpec]] = [[] for _ in range(num_stages)]
    if not layers:
        return stages
    target = total / num_stages
    stage = 0
    acc = 0
    for i, layer in enumerate(layers):
        remaining_layers = len(layers) - i
        remaining_stages = num_stages - stage
        if stages[stage] and remaining_stages > 1:
            # Close the stage when layers are running out relative to the
            # stages left (each remaining layer then gets its own stage), or
            # when adding this layer would land farther from the per-stage
            # MAC target than closing now does.
            running_out = remaining_layers < remaining_stages
            closing_better = abs(acc + layer.macs - target) > abs(acc - target)
            if running_out or closing_better:
                stage += 1
                acc = 0
        stages[stage].append(layer)
        acc += layer.macs
    return stages


@dataclass
class PipelinePlan:
    """A network mapped as a layer pipeline across the chip."""

    name: str
    num_cores: int
    stages: list[PipelineStage]

    @staticmethod
    def transfer_cycles(bytes_moved: int, hops: int, config: NoCConfig) -> int:
        """Point-to-point activation hand-off between adjacent stages.

        Serialization at the NoC's injection bandwidth plus the head
        latency of the route, converted to core cycles.
        """
        if bytes_moved == 0:
            return 0
        per_cycle = config.flit_bytes * config.physical_channels
        serialization = -(-bytes_moved // per_cycle)
        per_hop = config.router_stages + config.link_latency - 1
        head = (config.router_stages - 1) + per_hop * max(hops, 1)
        return (serialization + head) * config.core_clock_divider

    def _stage_times(
        self, core_model: CoreModel, mesh: Mesh2D, config: NoCConfig
    ) -> tuple[list[int], list[int]]:
        compute = [s.compute_cycles(core_model) for s in self.stages]
        transfers = []
        for prev, cur in zip(self.stages, self.stages[1:]):
            hops = mesh.hop_distance(prev.core, cur.core)
            transfers.append(
                self.transfer_cycles(prev.output_bytes, hops, config)
            )
        return compute, transfers

    def single_pass_latency(
        self, core_model: CoreModel, mesh: Mesh2D, config: NoCConfig
    ) -> int:
        """One input traverses every stage serially."""
        compute, transfers = self._stage_times(core_model, mesh, config)
        return sum(compute) + sum(transfers)

    def steady_state_interval(
        self, core_model: CoreModel, mesh: Mesh2D, config: NoCConfig
    ) -> int:
        """Cycles between completions at full pipeline occupancy: the slowest
        stage (its compute plus inbound transfer) sets the rhythm."""
        compute, transfers = self._stage_times(core_model, mesh, config)
        inbound = [0] + transfers
        return max(c + t for c, t in zip(compute, inbound)) if compute else 0

    def imbalance(self, core_model: CoreModel) -> float:
        """Max-over-mean stage compute time; 1.0 is perfect balance."""
        times = [s.compute_cycles(core_model) for s in self.stages if s.layers]
        if not times:
            return 1.0
        mean = float(np.mean(times))
        return max(times) / mean if mean else 1.0

    @property
    def occupied_stages(self) -> int:
        return sum(1 for s in self.stages if s.layers)


def build_pipeline_plan(spec: NetworkSpec, num_cores: int) -> PipelinePlan:
    """Map a network as a layer pipeline onto consecutive mesh cores.

    Stages are placed on cores in a row-major snake so consecutive stages sit
    on adjacent nodes (minimizing transfer distance — the scheme's best case).
    """
    mesh = Mesh2D.for_nodes(num_cores)
    split = balanced_stage_split(spec.compute_layers(), num_cores)
    # Snake order: row-major, alternating row direction, keeps neighbours adjacent.
    order = []
    for y in range(mesh.height):
        row = list(range(mesh.width))
        if y % 2:
            row.reverse()
        order.extend(mesh.node_at(x, y) for x in row)
    stages = [
        PipelineStage(index=i, core=order[i], layers=layers)
        for i, layers in enumerate(split)
    ]
    return PipelinePlan(name=spec.name, num_cores=num_cores, stages=stages)
