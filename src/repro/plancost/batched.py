"""Batched (struct-of-arrays) kernels behind the plan-cost oracle.

Costing one candidate plan through :class:`~repro.sim.engine.InferenceSimulator`
walks python objects: per-core ``CoreWorkload`` dataclasses, then one traffic
matrix and one drain lookup per layer.  A parallelization *search* needs
thousands-to-millions of candidate costs, so this module lifts the two hot
formulas into numpy over whole candidate grids at once, in the columnar
idiom of :mod:`repro.serve.fastpath`:

* :func:`batched_compute_cycles` — the DianNao core timing formula
  (:meth:`repro.accel.core.CoreModel.compute_cycles`) over arrays of
  per-candidate channel slices.  Bit-exact: the same ceil arithmetic, the
  same adaptive/rigid mapping split, the same writeback floor.
* :class:`BatchedDrainModel` — the analytical drain estimate
  (:func:`repro.noc.analytical.estimate_drain_cycles`) over a stack of
  traffic matrices.  Flit counts come from the closed form
  :func:`~repro.noc.packet.message_flits`; per-link loads are one float64
  (BLAS) matmul against a float copy of the cached
  :func:`~repro.noc.routing.route_tables` usage matrix, built once per mesh
  shape and exact below 2**53 flits per burst (larger bursts raise);
  source/sink/link bounds and the head-latency term are whole-stack
  reductions.

Both are property-tested element-for-element against the scalar reference
implementations (``tests/plancost/``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..accel.core import AcceleratorConfig
from ..models.spec import LayerSpec
from ..noc.analytical import AnalyticalEstimate
from ..noc.packet import NoCConfig, message_flits
from ..noc.routing import route_tables
from ..noc.topology import Mesh2D

__all__ = ["BatchedDrainEstimate", "BatchedDrainModel", "batched_compute_cycles"]


@dataclass(frozen=True)
class BatchedDrainEstimate:
    """Component arrays of analytical drain estimates, one entry per burst.

    Mirrors :class:`~repro.noc.analytical.AnalyticalEstimate` with each
    field an int64 array over the batch dimensions.
    """

    source_bound: np.ndarray
    sink_bound: np.ndarray
    link_bound: np.ndarray
    head_latency: np.ndarray

    @property
    def cycles(self) -> np.ndarray:
        """NoC cycles per burst: ``max(source, sink, link) + head``."""
        worst = np.maximum(
            self.source_bound, np.maximum(self.sink_bound, self.link_bound)
        )
        return worst + self.head_latency

    def one(self, index) -> AnalyticalEstimate:
        """The scalar estimate of one batch entry (for tests / reports)."""
        return AnalyticalEstimate(
            source_bound=int(self.source_bound[index]),
            sink_bound=int(self.sink_bound[index]),
            link_bound=int(self.link_bound[index]),
            head_latency=int(self.head_latency[index]),
        )


#: Float64 represents every integer below this exactly.
_EXACT_FLITS = 2**53


@functools.lru_cache(maxsize=None)
def _float_usage(width: int, height: int) -> np.ndarray:
    """Read-only float64 copy of one mesh shape's route-usage table."""
    usage = route_tables(Mesh2D(width, height)).usage.astype(np.float64)
    usage.setflags(write=False)
    return usage


class BatchedDrainModel:
    """Vectorized ``estimate_drain_cycles`` bound to one (mesh, NoC) pair."""

    def __init__(self, mesh: Mesh2D, config: NoCConfig | None = None) -> None:
        self.mesh = mesh
        self.config = config or NoCConfig()
        self.tables = route_tables(mesh)

    def estimate(self, bytes_batch: np.ndarray) -> BatchedDrainEstimate:
        """Estimates for a ``(..., N, N)`` stack of byte matrices.

        Every scalar result equals ``estimate_drain_cycles`` on the same
        matrix; the batch shape ``...`` is arbitrary (a flat candidate list,
        a (layers, prev-degree, degree) grid, ...).  Link loads are a float64
        matmul, which runs on BLAS: every partial sum is an integer no larger
        than its burst's flit total, so the loads are exact while that total
        stays below 2**53.  A burst at or above it raises ``ValueError``.
        """
        cfg = self.config
        n = self.mesh.num_nodes
        b = np.asarray(bytes_batch)
        if b.shape[-2:] != (n, n):
            raise ValueError(
                f"bytes batch trailing shape {b.shape[-2:]} does not match "
                f"the {n}-node mesh"
            )
        rate = cfg.physical_channels
        flits = message_flits(b, cfg)

        out_flits = flits.sum(axis=-1).max(axis=-1, initial=0)
        in_flits = flits.sum(axis=-2).max(axis=-1, initial=0)
        pairs = flits.reshape(-1, n * n).astype(np.float64)
        # Float sums of non-negative terms reach 2**53 iff the exact total does.
        if pairs.sum(axis=-1).max(initial=0) >= _EXACT_FLITS:
            raise ValueError("a burst of 2**53 or more flits has no exact float64 link loads")
        link = (
            (pairs @ _float_usage(self.mesh.width, self.mesh.height))
            .max(axis=-1, initial=0)
            .astype(np.int64)
            .reshape(flits.shape[:-2])
        )
        pair_hops = np.where(flits > 0, self.tables.hops, 0).max(
            axis=(-2, -1), initial=0
        )

        per_hop = cfg.router_stages + cfg.link_latency - 1
        head = np.where(
            pair_hops > 0, (cfg.router_stages - 1) + per_hop * pair_hops, 0
        )
        ceil = lambda x: -(x // -rate)  # noqa: E731 - flit counts are int64
        return BatchedDrainEstimate(
            source_bound=ceil(out_flits),
            sink_bound=ceil(in_flits),
            link_bound=ceil(link),
            head_latency=head.astype(np.int64),
        )

    def drain_cycles(self, bytes_batch: np.ndarray) -> np.ndarray:
        """NoC drain cycles per burst (``estimate(...).cycles``)."""
        return self.estimate(bytes_batch).cycles


def batched_compute_cycles(
    layer: LayerSpec,
    out_channels: np.ndarray,
    in_channels_used: np.ndarray,
    config: AcceleratorConfig | None = None,
    repeats: np.ndarray | int = 1,
) -> np.ndarray:
    """NFU cycles of ``layer`` slices, element-wise over candidate arrays.

    ``out_channels`` / ``in_channels_used`` / ``repeats`` broadcast together;
    each element describes one :class:`~repro.accel.core.CoreWorkload` and the
    result equals ``CoreModel.compute_cycles`` on it (including the zero
    short-circuit for empty slices and the float-ceil of the adaptive
    mac-cycle term).
    """
    cfg = config or AcceleratorConfig()
    out = np.asarray(out_channels, dtype=np.int64)
    inc = np.asarray(in_channels_used, dtype=np.int64)
    rep = np.asarray(repeats, dtype=np.int64)
    out, inc, rep = np.broadcast_arrays(out, inc, rep)

    if layer.kind == "conv":
        out_h, out_w = layer.out_shape[1], layer.out_shape[2]
        spatial = out_h * out_w
        macs = out * spatial * inc * layer.kernel * layer.kernel * rep
        out_values = out * spatial * rep
    elif layer.kind == "dense":
        macs = out * inc * rep
        out_values = out * rep
    else:
        macs = np.zeros_like(out)
        out_values = np.zeros_like(out)

    if cfg.mapping == "adaptive":
        peak = cfg.macs_per_cycle * cfg.adaptive_efficiency
        mac_cycles = np.ceil(macs / peak).astype(np.int64)
        writeback = -(out_values // -cfg.pe_rows)
        cycles = np.maximum(mac_cycles, writeback)
    else:
        out_tiles = -(out // -cfg.pe_rows)
        in_tiles = -(inc // -cfg.pe_cols)
        if layer.kind == "conv":
            out_h, out_w = layer.out_shape[1], layer.out_shape[2]
            per = out_h * out_w * layer.kernel * layer.kernel * in_tiles * out_tiles
        elif layer.kind == "dense":
            per = in_tiles * out_tiles
        else:
            per = np.zeros_like(out)
        cycles = per * rep
    return np.where((out == 0) | (inc == 0), 0, cycles)
