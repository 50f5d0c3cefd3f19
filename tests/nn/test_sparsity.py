"""Tests for core-block partitions and structured-sparsity utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.sparsity import CoreBlockPartition, block_of, split_boundaries


class TestSplitBoundaries:
    def test_even(self):
        assert split_boundaries(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_front_loaded(self):
        assert split_boundaries(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_more_parts_than_items(self):
        bounds = split_boundaries(2, 4)
        assert bounds == [(0, 1), (1, 2), (2, 2), (2, 2)]

    def test_zero_total(self):
        assert split_boundaries(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_invalid_parts(self):
        with pytest.raises(ValueError):
            split_boundaries(4, 0)

    @given(total=st.integers(0, 200), parts=st.integers(1, 32))
    @settings(max_examples=50, deadline=None)
    def test_tiles_exactly(self, total, parts):
        bounds = split_boundaries(total, parts)
        assert len(bounds) == parts
        assert bounds[0][0] == 0
        assert bounds[-1][1] == total
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
        sizes = [b - a for a, b in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_block_of(self):
        bounds = split_boundaries(10, 3)
        assert block_of(0, bounds) == 0
        assert block_of(9, bounds) == 2
        with pytest.raises(IndexError):
            block_of(10, bounds)


class TestCoreBlockPartitionDense:
    def make(self, p=4):
        return CoreBlockPartition((8, 12), "dense", p)

    def test_block_slices(self):
        part = self.make()
        assert part.block_slices(1, 2) == (slice(2, 4), slice(6, 9))

    def test_block_view_mutates(self, rng):
        part = self.make()
        w = rng.normal(size=(8, 12))
        part.block_view(w, 0, 0)[...] = 0.0
        assert np.all(w[:2, :3] == 0)

    def test_block_norms(self, rng):
        part = self.make()
        w = rng.normal(size=(8, 12))
        norms = part.block_norms(w)
        assert norms.shape == (4, 4)
        expected = np.sqrt(np.sum(w[2:4, 3:6] ** 2))
        assert np.isclose(norms[1, 1], expected)

    def test_block_sizes_sum_to_total(self):
        part = self.make()
        assert part.block_sizes().sum() == 8 * 12

    def test_zero_mask(self, rng):
        part = self.make()
        w = rng.normal(size=(8, 12))
        w[0:2, 0:3] = 0.0
        mask = part.zero_mask(w)
        assert mask[0, 0]
        assert not mask[1, 1]

    def test_required_transfers_diagonal_false(self, rng):
        part = self.make()
        need = part.required_transfers(rng.normal(size=(8, 12)))
        assert not np.any(np.diagonal(need))
        off = ~np.eye(4, dtype=bool)
        assert np.all(need[off])

    def test_prune_blocks_protects_diagonal(self):
        part = self.make()
        w = np.full((8, 12), 1e-6)
        pruned = part.prune_blocks(w, threshold=1e-3)
        assert not np.any(np.diagonal(pruned))
        assert np.all(pruned[~np.eye(4, dtype=bool)])
        # Diagonal blocks survive.
        for i in range(4):
            assert np.any(w[part.block_slices(i, i)] != 0)

    def test_prune_blocks_threshold_respects_rms(self):
        part = self.make()
        w = np.zeros((8, 12))
        w[part.block_slices(0, 1)] = 0.5  # big block survives
        w[part.block_slices(0, 2)] = 1e-6
        pruned = part.prune_blocks(w, threshold=1e-3)
        assert not pruned[0, 1]
        assert pruned[0, 2]

    def test_apply_block_mask(self, rng):
        part = self.make()
        w = rng.normal(size=(8, 12))
        keep = np.eye(4, dtype=bool)
        part.apply_block_mask(w, keep)
        assert np.all(part.zero_mask(w) == ~keep)

    def test_apply_block_mask_bad_shape(self, rng):
        with pytest.raises(ValueError):
            self.make().apply_block_mask(rng.normal(size=(8, 12)), np.ones((3, 3), bool))

    def test_shape_check(self, rng):
        with pytest.raises(ValueError):
            self.make().block_norms(rng.normal(size=(9, 12)))


class TestCoreBlockPartitionConv:
    def test_conv_block_layout(self, rng):
        part = CoreBlockPartition((8, 4, 3, 3), "conv", 2)
        w = rng.normal(size=(8, 4, 3, 3))
        # producer = input channels (axis 1), consumer = output channels (axis 0)
        block = part.block_view(w, 0, 1)
        np.testing.assert_array_equal(block, w[4:8, 0:2])

    def test_conv_sizes_include_kernel(self):
        part = CoreBlockPartition((8, 4, 3, 3), "conv", 2)
        assert part.block_sizes()[0, 0] == 4 * 2 * 9

    def test_wrong_ndim(self):
        with pytest.raises(ValueError):
            CoreBlockPartition((8, 4, 3), "conv", 2)
        with pytest.raises(ValueError):
            CoreBlockPartition((8, 4, 3, 3), "dense", 2)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            CoreBlockPartition((8, 12), "sparse", 2)


class TestCustomBoundaries:
    def test_custom_producer_bounds(self, rng):
        part = CoreBlockPartition(
            (10, 8), "dense", 2,
            producer_bounds=[(0, 4), (4, 10)],
        )
        assert part.block_slices(1, 0) == (slice(4, 10), slice(0, 4))

    def test_bounds_must_tile(self):
        with pytest.raises(ValueError):
            CoreBlockPartition(
                (10, 8), "dense", 2, producer_bounds=[(0, 4), (5, 10)]
            )

    def test_bounds_must_cover(self):
        with pytest.raises(ValueError):
            CoreBlockPartition(
                (10, 8), "dense", 2, producer_bounds=[(0, 4), (4, 9)]
            )

    def test_bounds_count_must_match_cores(self):
        with pytest.raises(ValueError):
            CoreBlockPartition(
                (10, 8), "dense", 2, producer_bounds=[(0, 10)]
            )

    @given(
        rows=st.integers(4, 30),
        cols=st.integers(4, 30),
        cores=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_blocks_partition_every_element(self, rows, cols, cores):
        """Every weight belongs to exactly one block."""
        part = CoreBlockPartition((rows, cols), "dense", cores)
        counts = np.zeros((rows, cols), dtype=int)
        for i in range(cores):
            for j in range(cores):
                counts[part.block_slices(i, j)] += 1
        assert np.all(counts == 1)
