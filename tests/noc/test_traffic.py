"""Tests for traffic matrices and synthetic patterns."""

import numpy as np
import pytest

from repro.noc import (
    Mesh2D,
    NoCConfig,
    TrafficMatrix,
    neighbor_traffic,
    transpose_traffic,
    uniform_random_traffic,
)
from repro.noc.analytical import link_loads


def simple_matrix(n=4, value=1000):
    m = np.zeros((n, n), dtype=np.int64)
    m[0, 1] = value
    m[2, 3] = value // 2
    return TrafficMatrix(m, label="t")


class TestTrafficMatrix:
    def test_total_bytes(self):
        assert simple_matrix().total_bytes == 1500

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            TrafficMatrix(np.zeros((2, 3)))

    def test_rejects_negative(self):
        m = np.zeros((2, 2))
        m[0, 1] = -5
        with pytest.raises(ValueError):
            TrafficMatrix(m)

    def test_rejects_self_traffic(self):
        m = np.zeros((2, 2))
        m[0, 0] = 5
        with pytest.raises(ValueError):
            TrafficMatrix(m)

    def test_to_packets_covers_bytes(self):
        cfg = NoCConfig()
        tm = simple_matrix()
        packets = tm.to_packets(cfg)
        payload = sum((p.num_flits - 1) * cfg.flit_bytes for p in packets)
        assert payload >= tm.total_bytes

    def test_to_packets_sources_and_dests(self):
        packets = simple_matrix().to_packets(NoCConfig())
        pairs = {(p.src, p.dst) for p in packets}
        assert pairs == {(0, 1), (2, 3)}

    def test_total_flit_hops(self):
        mesh = Mesh2D(2, 2)
        cfg = NoCConfig()
        m = np.zeros((4, 4), dtype=np.int64)
        m[0, 3] = 64  # 2 flits (head+1), 2 hops
        tm = TrafficMatrix(m)
        assert tm.total_flit_hops(mesh, cfg) == 2 * 2

    def test_weighted_average_distance(self):
        mesh = Mesh2D(2, 2)
        m = np.zeros((4, 4), dtype=np.int64)
        m[0, 1] = 100  # 1 hop
        m[0, 3] = 100  # 2 hops
        assert TrafficMatrix(m).weighted_average_distance(mesh) == 1.5

    def test_weighted_average_distance_empty(self):
        assert TrafficMatrix(np.zeros((4, 4))).weighted_average_distance(Mesh2D(2, 2)) == 0.0

    def test_scaled(self):
        tm = simple_matrix().scaled(0.5)
        assert tm.total_bytes == 750

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            simple_matrix().scaled(0)

    def test_add(self):
        total = (simple_matrix() + simple_matrix()).total_bytes
        assert total == 3000

    def test_add_size_mismatch(self):
        other = TrafficMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            simple_matrix() + other

    def test_mesh_size_mismatch(self):
        with pytest.raises(ValueError):
            simple_matrix().total_flit_hops(Mesh2D(3, 3), NoCConfig())

    def test_weighted_average_distance_mesh_mismatch(self):
        # On a 3x3 mesh node 3 sits one hop from node 0, not two: a silent
        # 1.0 instead of the 2x2 mesh's 1.5.
        m = np.zeros((4, 4), dtype=np.int64)
        m[0, 1] = m[0, 3] = 100
        with pytest.raises(ValueError, match="mesh has 9 nodes, traffic 4"):
            TrafficMatrix(m).weighted_average_distance(Mesh2D(3, 3))

    def test_link_loads_mesh_mismatch(self):
        m = np.zeros((4, 4), dtype=np.int64)
        m[0, 3] = 100
        with pytest.raises(ValueError, match="mesh has 9 nodes, traffic 4"):
            link_loads(TrafficMatrix(m), Mesh2D(3, 3), NoCConfig())


class TestPatterns:
    def test_uniform_exact_total(self):
        tm = uniform_random_traffic(8, 123_457, seed=0)
        assert tm.total_bytes == 123_457

    def test_uniform_spread(self):
        tm = uniform_random_traffic(4, 12_000, seed=0)
        off = ~np.eye(4, dtype=bool)
        assert np.all(tm.bytes_matrix[off] >= 1000)

    def test_transpose_pattern(self):
        mesh = Mesh2D(4, 4)
        tm = transpose_traffic(mesh, 100)
        # Node (1,0)=1 sends to (0,1)=4.
        assert tm.bytes_matrix[1, 4] == 100
        # Diagonal nodes ((0,0), (1,1), ...) send nothing.
        assert tm.bytes_matrix[0].sum() == 0

    def test_transpose_needs_square(self):
        with pytest.raises(ValueError):
            transpose_traffic(Mesh2D(4, 2), 100)

    def test_neighbor_pattern(self):
        mesh = Mesh2D(4, 2)
        tm = neighbor_traffic(mesh, 50)
        assert tm.bytes_matrix[0, 1] == 50
        assert tm.bytes_matrix[3, 0] == 50  # wraps to row start
