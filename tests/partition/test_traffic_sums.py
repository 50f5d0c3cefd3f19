"""The need-table traffic formula: one segment sum, equal to the per-pair loop.

:func:`~repro.partition.layout.traffic_from_needs` sums each producer's rows
of the need table as one ``np.add.reduceat`` segment.  That is only valid
because every layout the builders produce has non-empty slices tiling the
input rows contiguously and in order; these tests check that invariant on
every builder layout, check that a layout breaking it is rejected, and hold
the segment sum equal to :func:`.needs_loop.loop_traffic` on random tables,
padded degree layouts, conv→dense feature layouts and sparsified tables.
Several layouts of one table share one segment sum
(:func:`~repro.partition.layout._layouts_traffic`, the oracle's path); each
of them is held equal to the loop too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import get_spec
from repro.partition import grouped_needs, sparsified_needs
from repro.partition.degree import valid_degree
from repro.partition.layout import (
    ProducerLayout,
    _layouts_traffic,
    degree_out_bounds,
    producer_layout_for,
    traffic_from_needs,
)
from repro.plancost import candidate_degrees

from .needs_loop import loop_traffic

SPECS = {name: get_spec(name) for name in ("mlp", "lenet", "convnet", "alexnet", "caffenet")}
CORES = (4, 8, 16, 32)


def tiles(layout: ProducerLayout, rows: int) -> bool:
    """Whether the non-empty slices cover ``[0, rows)`` in order, without gaps."""
    edge = 0
    for start, stop in layout.bounds:
        if stop > start:
            if start != edge:
                return False
            edge = stop
    return edge == rows


def assert_matches_loop(layout: ProducerLayout, needs: np.ndarray, bpv: int) -> None:
    tm = traffic_from_needs(layout, needs, bpv, label="t")
    assert tm.bytes_matrix.dtype == np.int64
    np.testing.assert_array_equal(tm.bytes_matrix, loop_traffic(layout, needs, bpv))


def random_needs(seed: int, rows: int, cols: int, density: float) -> np.ndarray:
    return np.random.default_rng(seed).random((rows, cols)) < density


@st.composite
def random_layouts(draw):
    """Contiguous layouts with empty slices anywhere, padding included."""
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    edges = np.concatenate([[0], np.cumsum(sizes)])
    bounds = tuple((int(a), int(b)) for a, b in zip(edges, edges[1:]))
    return ProducerLayout(bounds, values_per_index=draw(st.sampled_from([1, 3, 49])))


TRANSITIONS = [
    (prev, layer)
    for spec in SPECS.values()
    for prev, layer in zip(spec.compute_layers(), spec.compute_layers()[1:])
]


@st.composite
def builder_transitions(draw, where=lambda prev, layer: True):
    """(layer, padded producer layout, padded consumer split) of a zoo transition."""
    prev, layer = draw(st.sampled_from([t for t in TRANSITIONS if where(*t)]))
    n = draw(st.sampled_from(CORES))
    q = draw(st.sampled_from([d for d in candidate_degrees(n) if valid_degree(prev, d)]))
    p = draw(st.sampled_from([d for d in candidate_degrees(n) if valid_degree(layer, d)]))
    layout = producer_layout_for(layer, prev, degree_out_bounds(prev, q, n), n)
    return layer, layout, degree_out_bounds(layer, p, n)


densities = st.sampled_from([0.0, 0.05, 0.5, 1.0])
seeds = st.integers(0, 2**32 - 1)


class TestTilingInvariant:
    @pytest.mark.parametrize("name", sorted(SPECS) + ["vgg19"])
    def test_builder_layouts_tile_their_inputs(self, name):
        layers = get_spec(name).compute_layers()
        for n in CORES:
            for prev, layer in zip(layers, layers[1:]):
                for q in candidate_degrees(n):
                    if valid_degree(prev, q):
                        bounds = degree_out_bounds(prev, q, n)
                        layout = producer_layout_for(layer, prev, bounds, n)
                        assert tiles(layout, layer.in_channels), (name, n, layer.name, q)

    @pytest.mark.parametrize(
        "bounds",
        [
            ((0, 2), (3, 4)),  # gap
            ((0, 3), (2, 4)),  # overlap
            ((2, 4), (0, 2)),  # out of order
            ((1, 2), (2, 4)),  # does not start at 0
            ((0, 2), (2, 3)),  # stops short of the table
        ],
    )
    def test_non_tiling_layout_rejected(self, bounds):
        layout = ProducerLayout(bounds, values_per_index=1)
        assert not tiles(layout, 4)
        with pytest.raises(ValueError, match="do not tile"):
            traffic_from_needs(layout, np.ones((4, 2), dtype=bool), 2, "t")


class TestSegmentSumMatchesLoop:
    @given(layout=random_layouts(), seed=seeds, density=densities, bpv=st.sampled_from([1, 2, 4]))
    @settings(max_examples=100, deadline=None)
    def test_random_need_tables(self, layout, seed, density, bpv):
        rows = layout.bounds[-1][1]
        assert_matches_loop(layout, random_needs(seed, rows, layout.num_cores, density), bpv)

    @given(transition=builder_transitions(), seed=seeds, density=densities)
    @settings(max_examples=60, deadline=None)
    def test_padded_degree_layouts(self, transition, seed, density):
        layer, layout, out_bounds = transition
        assert_matches_loop(layout, grouped_needs(layer, out_bounds), 2)
        needs = random_needs(seed, layer.in_channels, layout.num_cores, density)
        assert_matches_loop(layout, needs, 2)

    @given(
        transition=builder_transitions(
            lambda prev, layer: (prev.kind, layer.kind) == ("conv", "dense")
        ),
        seed=seeds,
        density=densities,
    )
    @settings(max_examples=40, deadline=None)
    def test_conv_to_dense_feature_layouts(self, transition, seed, density):
        layer, layout, out_bounds = transition
        assert layout.values_per_index == 1 and layout.bounds[0][1] > 1
        assert_matches_loop(layout, grouped_needs(layer, out_bounds), 2)
        needs = random_needs(seed, layer.in_channels, layout.num_cores, density)
        assert_matches_loop(layout, needs, 2)

    # Sparsified plans start from dense (ungrouped) layers of trainable size.
    @given(
        transition=builder_transitions(
            lambda prev, layer: layer.groups == 1 and layer.weight_count <= 2_000_000
        ),
        seed=seeds,
        keep=st.sampled_from([0.0, 0.2, 0.7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sparsified_tables(self, transition, seed, keep):
        layer, layout, out_bounds = transition
        rng = np.random.default_rng(seed)
        if layer.kind == "conv":
            shape = (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
            alive = rng.random(shape[:2]) < keep
            weights = rng.standard_normal(shape) * alive[:, :, None, None]
        else:
            shape = (layer.in_channels, layer.out_channels)
            weights = rng.standard_normal(shape) * (rng.random(shape) < keep)
        needs = sparsified_needs(layer, weights, out_bounds)
        assert_matches_loop(layout, needs, 2)


@st.composite
def layout_sets(draw):
    """Several contiguous layouts, empty slices included, over one row count."""
    cores = draw(st.integers(1, 8))
    rows = draw(st.integers(0, 24))
    layouts = []
    for _ in range(draw(st.integers(1, 5))):
        cuts = sorted(draw(st.lists(st.integers(0, rows), min_size=cores - 1, max_size=cores - 1)))
        edges = [0, *cuts, rows]
        bounds = tuple((a, b) for a, b in zip(edges, edges[1:]))
        layouts.append(ProducerLayout(bounds, values_per_index=draw(st.sampled_from([1, 3, 49]))))
    return rows, cores, layouts


class TestSharedSegmentSums:
    """Each layout of a shared segment sum equals its own per-pair loop."""

    @given(case=layout_sets(), seed=seeds, density=densities, bpv=st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_random_layout_sets(self, case, seed, density, bpv):
        rows, cores, layouts = case
        needs = random_needs(seed, rows, cores, density)
        stack = _layouts_traffic(layouts, needs, bpv)
        assert stack.dtype == np.int64 and stack.shape == (len(layouts), cores, cores)
        for layout, m in zip(layouts, stack):
            np.testing.assert_array_equal(m, loop_traffic(layout, needs, bpv))

    @pytest.mark.parametrize("name", sorted(SPECS) + ["vgg19"])
    def test_every_producer_degree_of_a_transition(self, name):
        layers = get_spec(name).compute_layers()
        for n in CORES:
            degrees = candidate_degrees(n)
            for prev, layer in zip(layers, layers[1:]):
                layouts = [
                    producer_layout_for(layer, prev, degree_out_bounds(prev, q, n), n)
                    for q in degrees
                    if valid_degree(prev, q)
                ]
                for p in (d for d in degrees if valid_degree(layer, d)):
                    needs = grouped_needs(layer, degree_out_bounds(layer, p, n))
                    stack = _layouts_traffic(layouts, needs, 2)
                    for layout, m in zip(layouts, stack):
                        np.testing.assert_array_equal(m, loop_traffic(layout, needs, 2))

    def test_one_non_tiling_layout_rejected(self):
        good = ProducerLayout(((0, 2), (2, 4)), values_per_index=1)
        bad = ProducerLayout(((0, 2), (3, 4)), values_per_index=1)
        with pytest.raises(ValueError, match="do not tile"):
            _layouts_traffic([good, bad], np.ones((4, 2), dtype=bool), 2)
