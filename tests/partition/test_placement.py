"""Tests for the placement-optimization extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import mlp_spec
from repro.noc import Mesh2D
from repro.partition import (
    annealed_placement,
    apply_placement,
    build_traditional_plan,
    combined_traffic,
    greedy_placement,
    identity_placement,
    placement_cost,
)


def two_cluster_traffic(p=16, heavy=10_000):
    """Partitions 0/1 and 2/3 talk heavily; everything else is silent."""
    m = np.zeros((p, p), dtype=np.int64)
    m[0, 1] = m[1, 0] = heavy
    m[2, 3] = m[3, 2] = heavy
    return m


class TestPlacementCost:
    def test_identity_cost(self):
        mesh = Mesh2D(4, 4)
        m = two_cluster_traffic()
        cost = placement_cost(m, mesh, identity_placement(16))
        # 0-1 adjacent (1 hop) and 2-3 adjacent: 4 messages x 1 hop.
        assert cost == 4 * 10_000

    def test_bad_permutation_rejected(self):
        mesh = Mesh2D(2, 2)
        with pytest.raises(ValueError):
            placement_cost(np.zeros((4, 4)), mesh, np.array([0, 0, 1, 2]))

    def test_permutation_moves_cost(self):
        mesh = Mesh2D(4, 4)
        m = np.zeros((16, 16), dtype=np.int64)
        m[0, 15] = 1000  # corner to corner: 6 hops under identity
        identity = placement_cost(m, mesh, identity_placement(16))
        swap = identity_placement(16)
        swap[15], swap[1] = swap[1], swap[15]  # bring 15 next to 0
        assert placement_cost(m, mesh, swap) < identity


class TestGreedyPlacement:
    def test_valid_permutation(self):
        mesh = Mesh2D(4, 4)
        placement = greedy_placement(two_cluster_traffic(), mesh)
        assert sorted(placement.tolist()) == list(range(16))

    def test_heavy_pairs_adjacent(self):
        mesh = Mesh2D(4, 4)
        placement = greedy_placement(two_cluster_traffic(), mesh)
        assert mesh.hop_distance(placement[0], placement[1]) == 1
        assert mesh.hop_distance(placement[2], placement[3]) == 1

    def test_never_worse_than_worst_case(self):
        mesh = Mesh2D(4, 4)
        rng = np.random.default_rng(0)
        m = rng.integers(0, 1000, size=(16, 16))
        np.fill_diagonal(m, 0)
        greedy_cost = placement_cost(m, mesh, greedy_placement(m, mesh))
        # Compare to a few random placements.
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(16)
            assert greedy_cost <= placement_cost(m, mesh, perm) * 1.05

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            greedy_placement(np.zeros((4, 4)), Mesh2D(4, 4))


class TestAnnealedPlacement:
    def test_improves_or_matches_greedy(self):
        mesh = Mesh2D(4, 4)
        rng = np.random.default_rng(3)
        m = rng.integers(0, 1000, size=(16, 16))
        np.fill_diagonal(m, 0)
        greedy = greedy_placement(m, mesh)
        annealed = annealed_placement(m, mesh, seed=1, iterations=500)
        assert placement_cost(m, mesh, annealed) <= placement_cost(m, mesh, greedy)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_identity(self, seed):
        """Halo exchange on a 4x4 mesh (40 bytes east-west, 12 north-south):
        under identity every message travels one hop, the optimum.  Greedy
        misses it, so annealing seeded from greedy alone returned 1488-1584."""
        mesh = Mesh2D(4, 4)
        m = np.zeros((16, 16), dtype=np.int64)
        for a, b in mesh.links():
            m[a, b] = 40 if abs(a - b) == 1 else 12
        assert placement_cost(m, mesh, identity_placement(16)) == 1248
        assert placement_cost(m, mesh, greedy_placement(m, mesh)) > 1248
        placement = annealed_placement(m, mesh, seed=seed)
        assert placement_cost(m, mesh, placement) == 1248

    def test_deterministic_given_seed(self):
        mesh = Mesh2D(2, 2)
        m = two_cluster_traffic(4, 100)
        a = annealed_placement(m, mesh, seed=7, iterations=100)
        b = annealed_placement(m, mesh, seed=7, iterations=100)
        np.testing.assert_array_equal(a, b)


class TestApplyPlacement:
    def test_identity_is_noop(self):
        plan = build_traditional_plan(mlp_spec(), 16)
        placed = apply_placement(plan, identity_placement(16))
        for a, b in zip(plan.layers, placed.layers):
            np.testing.assert_array_equal(
                a.traffic.bytes_matrix, b.traffic.bytes_matrix
            )

    def test_total_bytes_invariant(self):
        plan = build_traditional_plan(mlp_spec(), 16)
        perm = np.random.default_rng(0).permutation(16)
        placed = apply_placement(plan, perm)
        assert placed.total_traffic_bytes == plan.total_traffic_bytes

    def test_traffic_moves_with_partitions(self):
        plan = build_traditional_plan(mlp_spec(), 16)
        perm = np.random.default_rng(1).permutation(16)
        placed = apply_placement(plan, perm)
        original = plan.layers[1].traffic.bytes_matrix
        moved = placed.layers[1].traffic.bytes_matrix
        assert moved[perm[0], perm[1]] == original[0, 1]

    def test_scheme_label_updated(self):
        plan = build_traditional_plan(mlp_spec(), 16)
        placed = apply_placement(plan, identity_placement(16))
        assert placed.scheme.endswith("+placement")

    def test_invalid_permutation(self):
        plan = build_traditional_plan(mlp_spec(), 16)
        with pytest.raises(ValueError):
            apply_placement(plan, np.zeros(16, dtype=int))

    @given(seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_hop_weighted_cost_matches_plan_metric(self, seed):
        """placement_cost on combined traffic == sum of per-layer weighted
        distances after apply_placement."""
        mesh = Mesh2D.for_nodes(16)
        plan = build_traditional_plan(mlp_spec(), 16)
        perm = np.random.default_rng(seed).permutation(16)
        placed = apply_placement(plan, perm)
        direct = placement_cost(combined_traffic(plan), mesh, perm)
        via_plan = sum(
            lp.traffic.weighted_average_distance(mesh) * lp.traffic.total_bytes
            for lp in placed.layers
        )
        assert direct == pytest.approx(via_plan)
