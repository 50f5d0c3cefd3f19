"""DianNao-style accelerator core timing model.

Each core (Table II) is a DianNao-like NFU: a 16x16 multiplier array that
consumes ``Ti = 16`` input features and produces partial sums for ``Tn = 16``
output features per cycle, with a 128 KB weight buffer (SB) and two 32 KB
data buffers (NBin/NBout), operating on 16-bit fixed-point values.

The timing model follows the published DianNao pipeline: a convolutional
layer tile executes ``out_h * out_w * kh * kw * ceil(Ci/Ti) * ceil(Co/Tn)``
cycles, which captures the utilization cliff when a partition leaves a core
with fewer than 16 input or output channels — exactly the effect that makes
over-partitioning unprofitable in the paper's scaling study.

Block-sparse weights (the paper's communication-aware sparsification) skip
whole input-channel blocks: the hardware-friendly property of *structured*
sparsity [Wen et al. 2016] that unstructured pruning lacks.  The model
therefore takes the number of input channels a core actually consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.spec import LayerSpec

__all__ = ["AcceleratorConfig", "CoreModel", "CoreWorkload"]


@dataclass(frozen=True)
class AcceleratorConfig:
    """Per-core microarchitecture (Table II defaults)."""

    pe_rows: int = 16  # Tn: output features per cycle
    pe_cols: int = 16  # Ti: input features per cycle
    value_bytes: int = 2  # 16-bit fixed point
    clock_ghz: float = 1.0
    # Intra-core mapping policy.  "adaptive" re-maps idle PE lanes to spatial
    # parallelism when a slice has fewer than Ti/Tn channels (the adaptive
    # data-level parallelization of C-Brain [Song et al., DAC'16], by the
    # same group); "rigid" is the original DianNao channel-tiled loop nest,
    # kept for the mapping-policy ablation benchmark.
    mapping: str = "adaptive"
    adaptive_efficiency: float = 0.85  # sustained fraction of peak under adaptive mapping

    def __post_init__(self) -> None:
        if self.pe_rows <= 0 or self.pe_cols <= 0:
            raise ValueError("PE array dimensions must be positive")
        if self.value_bytes <= 0:
            raise ValueError("value_bytes must be positive")
        if self.mapping not in ("adaptive", "rigid"):
            raise ValueError(f"mapping must be 'adaptive' or 'rigid', got {self.mapping!r}")
        if not 0 < self.adaptive_efficiency <= 1:
            raise ValueError("adaptive_efficiency must be in (0, 1]")

    @property
    def macs_per_cycle(self) -> int:
        return self.pe_rows * self.pe_cols


@dataclass(frozen=True)
class CoreWorkload:
    """The slice of one layer assigned to one core.

    ``in_channels_used`` is the number of producer channels the core actually
    consumes (less than the layer's full input count under grouping or block
    sparsity); ``out_channels`` is the size of its output-channel slice.
    """

    layer: LayerSpec
    out_channels: int
    in_channels_used: int
    repeats: int = 1  # independent identical slices (e.g. several groups) on one core

    def __post_init__(self) -> None:
        if self.out_channels < 0 or self.in_channels_used < 0:
            raise ValueError("channel counts must be non-negative")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.out_channels * self.repeats > self.layer.out_channels:
            raise ValueError(
                f"core assigned {self.out_channels}x{self.repeats} of "
                f"{self.layer.out_channels} output channels"
            )

    @property
    def macs(self) -> int:
        """MACs the core performs for this slice (one input sample)."""
        layer = self.layer
        if layer.kind == "conv":
            out_h, out_w = layer.out_shape[1], layer.out_shape[2]
            per = (
                self.out_channels * out_h * out_w
                * self.in_channels_used * layer.kernel * layer.kernel
            )
        elif layer.kind == "dense":
            per = self.out_channels * self.in_channels_used
        else:
            per = 0
        return per * self.repeats

    @property
    def weight_bytes(self) -> int:
        """Weight footprint of the slice at 16-bit precision (2 B/value)."""
        layer = self.layer
        if layer.kind == "conv":
            per = self.in_channels_used * layer.kernel * layer.kernel
        elif layer.kind == "dense":
            per = self.in_channels_used
        else:
            return 0
        return self.out_channels * per * 2 * self.repeats


class CoreModel:
    """Cycle/energy-relevant accounting for one core's layer slice."""

    def __init__(self, config: AcceleratorConfig | None = None) -> None:
        self.config = config or AcceleratorConfig()

    def compute_cycles(self, work: CoreWorkload) -> int:
        """Cycles the NFU needs for the slice (no memory stalls).

        Under ``rigid`` mapping, tiling over the PE array quantizes both
        channel dimensions: a slice with 4 output channels still occupies a
        full Tn=16 row group — the original DianNao loop nest.  Under
        ``adaptive`` mapping, idle channel lanes are re-mapped to spatial
        positions (C-Brain style), so throughput approaches
        ``adaptive_efficiency`` of peak, floored by the output write-back
        bandwidth of ``pe_rows`` values per cycle.
        """
        if work.out_channels == 0 or work.in_channels_used == 0:
            return 0
        cfg = self.config
        layer = work.layer
        if cfg.mapping == "adaptive":
            peak = cfg.macs_per_cycle * cfg.adaptive_efficiency
            mac_cycles = int(np.ceil(work.macs / peak))
            out_values = self._output_values(work)
            writeback_cycles = -(-out_values // cfg.pe_rows)
            return max(mac_cycles, writeback_cycles)
        out_tiles = -(-work.out_channels // cfg.pe_rows)
        in_tiles = -(-work.in_channels_used // cfg.pe_cols)
        if layer.kind == "conv":
            out_h, out_w = layer.out_shape[1], layer.out_shape[2]
            per = out_h * out_w * layer.kernel * layer.kernel * in_tiles * out_tiles
        elif layer.kind == "dense":
            per = in_tiles * out_tiles
        else:
            per = 0
        return per * work.repeats

    @staticmethod
    def _output_values(work: CoreWorkload) -> int:
        layer = work.layer
        if layer.kind == "conv":
            return work.out_channels * layer.out_shape[1] * layer.out_shape[2] * work.repeats
        if layer.kind == "dense":
            return work.out_channels * work.repeats
        return 0

    def sram_traffic_bytes(self, work: CoreWorkload) -> int:
        """Approximate NBin/SB/NBout bytes moved while computing the slice.

        Each MAC reads one weight and one activation value; outputs are
        written once per output value per input tile.  Used by the compute
        energy model.
        """
        cfg = self.config
        reads = 2 * work.macs * cfg.value_bytes
        layer = work.layer
        if layer.kind == "conv":
            out_vals = work.out_channels * layer.out_shape[1] * layer.out_shape[2]
        elif layer.kind == "dense":
            out_vals = work.out_channels
        else:
            out_vals = 0
        in_tiles = max(1, -(-work.in_channels_used // cfg.pe_cols))
        writes = out_vals * work.repeats * in_tiles * cfg.value_bytes
        return reads + writes
