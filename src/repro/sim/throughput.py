"""Latency-oriented vs throughput-oriented deployment (paper §I).

The paper positions itself against datacenter-style designs (TPU, DaDianNao)
that run *independent* inferences on different cores — input-level
parallelism with no inter-core traffic but no single-pass speedup.  This
module quantifies that trade-off on the same chip model:

* **model-parallel** (the paper's setting): one input at a time, all cores
  cooperate; latency is the simulated single-pass time, throughput its
  reciprocal;
* **data-parallel**: each core runs the whole network on its own input;
  per-input latency equals the single-core time (no NoC sync), and
  throughput is ``num_cores`` inferences per single-core time — provided
  each core can hold the model and the memory system can feed them all.

The QoS argument of the paper falls out directly: data-parallel wins
throughput, model-parallel wins response time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accel.chip import ChipConfig
from ..models.spec import NetworkSpec
from ..partition.traditional import build_traditional_plan, grouped_workloads
from .engine import InferenceSimulator, SimConfig

__all__ = ["DeploymentComparison", "compare_deployments", "single_core_latency"]


def single_core_latency(
    spec: NetworkSpec, chip: ChipConfig, include_input_load: bool = True
) -> int:
    """Cycles for one core to run the whole network (no partitioning).

    ``include_input_load`` charges the DRAM stream of the input image before
    the first layer — the same scheme-independent cost
    :meth:`~repro.sim.engine.InferenceSimulator._input_load` charges every
    partitioned run (a unicast to one core pipelines behind the DRAM
    stream, so the DRAM transfer time is the whole cost).  Leaving it out
    would flatter the data-parallel baseline relative to the simulated
    model-parallel runs.
    """
    core_model = chip.core_model()
    compute_layers = spec.compute_layers()
    total = sum(
        core_model.compute_cycles(
            grouped_workloads(layer, [(0, layer.out_channels)])[0]
        )
        for layer in compute_layers
    )
    if include_input_load and compute_layers:
        input_bytes = int(np.prod(compute_layers[0].in_shape)) * chip.bytes_per_value
        total += chip.dram.transfer_cycles(input_bytes)
    return total


@dataclass(frozen=True)
class DeploymentComparison:
    """Latency/throughput of the two deployment styles on one chip."""

    network: str
    num_cores: int
    model_parallel_latency: int  # cycles per single-pass inference
    data_parallel_latency: int  # cycles per inference (single core runs it)
    model_parallel_throughput: float  # inferences per megacycle
    data_parallel_throughput: float

    @property
    def latency_advantage(self) -> float:
        """How much faster one response is under model parallelism."""
        return self.data_parallel_latency / self.model_parallel_latency

    @property
    def throughput_advantage(self) -> float:
        """How much higher the data-parallel inference rate is."""
        if self.model_parallel_throughput == 0:
            return float("inf")
        return self.data_parallel_throughput / self.model_parallel_throughput


def compare_deployments(
    spec: NetworkSpec,
    chip: ChipConfig,
    sim_config: SimConfig | None = None,
) -> DeploymentComparison:
    """Evaluate both deployment styles for one network on one chip."""
    cfg = sim_config or SimConfig()
    plan = build_traditional_plan(spec, chip.num_cores)
    result = InferenceSimulator(chip, cfg).simulate(plan)
    mp_latency = result.total_cycles

    # Charge the input load on both sides (or neither) so the comparison
    # stays apples-to-apples with the engine's accounting.
    dp_latency = single_core_latency(
        spec, chip, include_input_load=cfg.include_input_load
    )
    per_mega = 1e6
    return DeploymentComparison(
        network=spec.name,
        num_cores=chip.num_cores,
        model_parallel_latency=mp_latency,
        data_parallel_latency=dp_latency,
        model_parallel_throughput=per_mega / mp_latency if mp_latency else 0.0,
        data_parallel_throughput=(
            chip.num_cores * per_mega / dp_latency if dp_latency else 0.0
        ),
    )
