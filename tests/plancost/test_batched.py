"""Element-for-element tests of the batched kernels vs their scalar references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.core import AcceleratorConfig, CoreModel, CoreWorkload
from repro.models.zoo import convnet_spec, lenet_spec
from repro.noc import (
    Mesh2D,
    NoCConfig,
    TrafficMatrix,
    estimate_drain_cycles,
    message_flits,
    route_tables,
)
from repro.plancost import BatchedDrainModel, batched_compute_cycles


def _random_batch(n: int, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 30_000, size=(batch, n, n))
    sparse = rng.random(size=(batch, n, n)) < 0.5
    stack = np.where(sparse, 0, stack)
    for m in stack:
        np.fill_diagonal(m, 0)
    return stack.astype(np.int64)


class TestBatchedDrainModel:
    @given(
        nodes=st.sampled_from([4, 8, 9, 16]),
        seed=st.integers(0, 1000),
        config=st.sampled_from(
            [NoCConfig(), NoCConfig(physical_channels=1), NoCConfig(max_packet_flits=4)]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_estimate(self, nodes, seed, config):
        mesh = Mesh2D.for_nodes(nodes)
        model = BatchedDrainModel(mesh, config)
        stack = _random_batch(nodes, 5, seed)
        est = model.estimate(stack)
        for i in range(len(stack)):
            ref = estimate_drain_cycles(TrafficMatrix(stack[i]), mesh, config)
            assert est.one(i) == ref
            assert int(est.cycles[i]) == ref.cycles

    def test_empty_matrix_is_zero(self):
        model = BatchedDrainModel(Mesh2D(4, 4))
        est = model.estimate(np.zeros((3, 16, 16), dtype=np.int64))
        assert (est.cycles == 0).all()
        assert (est.head_latency == 0).all()

    def test_multidim_batch_shape(self):
        model = BatchedDrainModel(Mesh2D(2, 2))
        stack = _random_batch(4, 6, seed=7).reshape(2, 3, 4, 4)
        est = model.estimate(stack)
        assert est.cycles.shape == (2, 3)
        flat = model.estimate(stack.reshape(6, 4, 4))
        assert np.array_equal(est.cycles.reshape(6), flat.cycles)

    def test_shape_mismatch_raises(self):
        model = BatchedDrainModel(Mesh2D(4, 4))
        try:
            model.estimate(np.zeros((3, 4, 4)))
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError on mesh-size mismatch")


def _int64_link_bound(stack: np.ndarray, mesh: Mesh2D, config: NoCConfig) -> np.ndarray:
    """Link bounds from an integer matmul against the route-usage table."""
    n = mesh.num_nodes
    loads = message_flits(stack, config).reshape(-1, n * n) @ route_tables(mesh).usage
    return -(loads.max(axis=-1, initial=0) // -config.physical_channels)


class TestFloatLinkLoads:
    """Float64 link loads are exact below 2**53 flits per burst."""

    @given(
        nodes=st.sampled_from([4, 8, 9, 16]),
        seed=st.integers(0, 1000),
        high=st.sampled_from([30_000, 2**36, 2**44]),
        config=st.sampled_from(
            [NoCConfig(), NoCConfig(physical_channels=1), NoCConfig(max_packet_flits=4)]
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_and_int64_references(self, nodes, seed, high, config):
        mesh = Mesh2D.for_nodes(nodes)
        rng = np.random.default_rng(seed)
        shape = (4, nodes, nodes)
        stack = np.where(rng.random(shape) < 0.5, 0, rng.integers(0, high, shape))
        for m in stack:
            np.fill_diagonal(m, 0)
        est = BatchedDrainModel(mesh, config).estimate(stack)
        assert np.array_equal(est.link_bound, _int64_link_bound(stack, mesh, config))
        for i in range(len(stack)):
            assert est.one(i) == estimate_drain_cycles(TrafficMatrix(stack[i]), mesh, config)

    def test_link_loads_beyond_int32(self):
        mesh = Mesh2D(4, 4)
        stack = np.full((1, 16, 16), 2**40, dtype=np.int64)
        np.fill_diagonal(stack[0], 0)
        est = BatchedDrainModel(mesh).estimate(stack)
        assert est.link_bound[0] > 2**31
        assert np.array_equal(est.link_bound, _int64_link_bound(stack, mesh, NoCConfig()))
        assert est.one(0) == estimate_drain_cycles(TrafficMatrix(stack[0]), mesh)

    def test_burst_of_2_53_flits_rejected(self):
        # One payload flit per packet: a message of k flit-loads is 2k flits.
        config = NoCConfig(max_packet_flits=2)
        model = BatchedDrainModel(Mesh2D(2, 1), config)
        stack = np.zeros((2, 2, 2), dtype=np.int64)
        stack[1, 0, 1] = 2**52 * config.flit_bytes
        assert message_flits(stack[1, 0, 1], config) == 2**53
        with pytest.raises(ValueError, match="2\\*\\*53"):
            model.estimate(stack)
        stack[1, 0, 1] -= config.flit_bytes  # 2**53 - 2 flits
        est = model.estimate(stack)
        assert est.link_bound.tolist() == [0, 2**52 - 1]
        assert np.array_equal(est.link_bound, _int64_link_bound(stack, model.mesh, config))


def _layers():
    layers = lenet_spec().compute_layers() + convnet_spec().compute_layers()
    return [(f"{layer.name}-{i}", layer) for i, layer in enumerate(layers)]


class TestBatchedComputeCycles:
    @given(
        case=st.sampled_from(_layers()),
        seed=st.integers(0, 500),
        mapping=st.sampled_from(["adaptive", "rigid"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_core_model(self, case, seed, mapping):
        _, layer = case
        cfg = AcceleratorConfig(mapping=mapping)
        model = CoreModel(cfg)
        rng = np.random.default_rng(seed)
        num_inputs = layer.in_channels if layer.kind == "conv" else layer.in_shape[0]
        rep = rng.integers(1, 4, size=8)
        out = np.array(
            [rng.integers(0, layer.out_channels // r + 1) for r in rep]
        )
        inc = rng.integers(0, num_inputs + 1, size=8)
        got = batched_compute_cycles(layer, out, inc, cfg, rep)
        for i in range(8):
            w = CoreWorkload(
                layer=layer,
                out_channels=int(out[i]),
                in_channels_used=int(inc[i]),
                repeats=int(rep[i]),
            )
            assert int(got[i]) == model.compute_cycles(w)

    def test_broadcasting(self):
        layer = lenet_spec().compute_layers()[0]
        got = batched_compute_cycles(layer, np.array([1, 2, 3]), 1)
        assert got.shape == (3,)
        assert (got[1:] >= got[:-1]).all()  # monotone in the out-channel slice
