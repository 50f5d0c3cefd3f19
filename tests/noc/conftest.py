"""Burst drains shared by the NoC tests.

The first two mirror the layer-transition bursts the inference engine
simulates: a few producer cores streaming activations to a few consumers,
with most of the fabric idle.  The third saturates every router.
"""

from __future__ import annotations

import numpy as np

from repro.noc import Mesh2D, TrafficMatrix, uniform_random_traffic


def pair_stream_4x4() -> tuple[Mesh2D, TrafficMatrix]:
    """One producer core streaming a layer's activations to its neighbour."""
    m = np.zeros((16, 16), dtype=np.int64)
    m[5, 6] = 80_000
    return Mesh2D(4, 4), TrafficMatrix(m, label="pair-stream-4x4")


def group_stream_8x8() -> tuple[Mesh2D, TrafficMatrix]:
    """A 2x2 producer block fanning out to the adjacent 2x2 consumer block."""
    m = np.zeros((64, 64), dtype=np.int64)
    for src in (0, 1, 8, 9):
        for dst in (2, 3, 10, 11):
            m[src, dst] = 40_000
    return Mesh2D(8, 8), TrafficMatrix(m, label="group-stream-8x8")


def saturated_uniform_4x4() -> tuple[Mesh2D, TrafficMatrix]:
    """Uniform random all-to-all traffic: every router busy every cycle."""
    return Mesh2D(4, 4), uniform_random_traffic(16, 16 * 15 * 1216, seed=7)
