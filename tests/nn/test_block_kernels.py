"""Bit-exactness of the fused block kernels against the sliced-loop reference.

``CoreBlockPartition`` and ``GroupLassoRegularizer`` each have two
implementations of every block operation: the fused path (one blocked-view
reduction / broadcast per tensor, uniform partitions only) and the original
P x P sliced loop.  The property suite below drives both paths with
randomized kinds, core counts, dtypes, partition layouts (uniform and
uneven), strength masks, and weight tensors seeded with exact-zero and
near-threshold blocks — and asserts **byte-identical** results, mirroring
``tests/noc/test_engine_equivalence.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import FAST
from repro.models.factory import build_mlp
from repro.nn.layers.base import Parameter
from repro.nn.regularizers import GroupLassoRegularizer
from repro.nn.sparsity import CoreBlockPartition, split_boundaries
from repro.obs import METRICS
from repro.partition.sparsified import layer_block_partitions


class _FakeModel:
    """Just enough model surface for GroupLassoRegularizer."""

    def __init__(self, params: dict[str, Parameter]) -> None:
        self._params = params

    def get_parameter(self, name: str) -> Parameter:
        return self._params[name]


def _random_boundaries(draw, total: int, parts: int) -> list[tuple[int, int]]:
    """Random contiguous split of [0, total) into ``parts`` (some may be empty)."""
    cuts = sorted(
        draw(st.lists(st.integers(0, total), min_size=parts - 1, max_size=parts - 1))
    )
    edges = [0, *cuts, total]
    return [(edges[i], edges[i + 1]) for i in range(parts)]


@st.composite
def block_case(draw):
    kind = draw(st.sampled_from(["dense", "conv"]))
    p = draw(st.integers(1, 5))
    uniform = draw(st.booleans())
    dtype = draw(st.sampled_from([np.float64, np.float32]))

    if uniform:
        prod_total = p * draw(st.integers(1, 4))
        cons_total = p * draw(st.integers(1, 4))
        producer_bounds = consumer_bounds = None
    else:
        prod_total = draw(st.integers(0, 10))
        cons_total = draw(st.integers(0, 10))
        producer_bounds = _random_boundaries(draw, prod_total, p)
        consumer_bounds = _random_boundaries(draw, cons_total, p)

    if kind == "dense":
        shape = (prod_total, cons_total)
    else:
        kh = draw(st.integers(1, 3))
        kw = draw(st.integers(1, 3))
        shape = (cons_total, prod_total, kh, kw)

    # Weights from a seeded rng; some blocks forced to exact zero and some
    # scaled tiny so prune/prox thresholds and the s==0 skips all trigger.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = (rng.standard_normal(shape) * 0.1).astype(dtype)
    partition = CoreBlockPartition(
        shape, kind, p,
        producer_bounds=producer_bounds, consumer_bounds=consumer_bounds,
    )
    for i in range(p):
        for j in range(p):
            roll = rng.random()
            block = weights[partition.block_slices(i, j)]
            if roll < 0.2:
                block[...] = 0.0
            elif roll < 0.4:
                block *= 1e-4

    # Strength: None (SS) or a masked matrix with exact zeros (SS_Mask-like).
    if draw(st.booleans()):
        strength = None
    else:
        strength = rng.random((p, p))
        strength[rng.random((p, p)) < 0.3] = 0.0

    lam = draw(st.sampled_from([0.0, 1e-3, 0.1, 2.0]))
    lr = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    threshold = draw(st.sampled_from([0.0, 1e-4, 5e-2]))
    return {
        "kind": kind, "p": p, "shape": shape, "uniform": partition.uniform,
        "producer_bounds": producer_bounds, "consumer_bounds": consumer_bounds,
        "weights": weights, "strength": strength,
        "lam": lam, "lr": lr, "threshold": threshold,
    }


def _partition(case, fused: bool | None) -> CoreBlockPartition:
    return CoreBlockPartition(
        case["shape"], case["kind"], case["p"],
        producer_bounds=case["producer_bounds"],
        consumer_bounds=case["consumer_bounds"],
        fused=fused,
    )


def _reg_outputs(case, fused: bool | None):
    """(grad bytes, post-prox weight bytes, loss) under one kernel path."""
    partition = _partition(case, fused)
    param = Parameter(case["weights"].copy(), name="w", dtype=case["weights"].dtype)
    model = _FakeModel({"w": param})
    reg = GroupLassoRegularizer(
        {"w": partition}, lam=case["lam"], strength=case["strength"]
    )
    loss = reg.loss(model)
    reg.add_gradients(model)
    grad = param.grad.tobytes()
    reg.prox_step(model, lr=case["lr"])
    return grad, param.data.tobytes(), loss, param.data.copy()


class TestFusedLoopEquivalence:
    """Property: fused and loop paths agree byte-for-byte on any input."""

    @settings(max_examples=60, deadline=None)
    @given(case=block_case())
    def test_partition_ops_identical(self, case):
        # fused=None auto-selects; against fused=False both must agree even
        # when auto lands on the loop (uneven partitions).
        auto = _partition(case, None)
        loop = _partition(case, False)
        w = case["weights"]

        norms_a, norms_l = auto.block_norms(w.copy()), loop.block_norms(w.copy())
        assert norms_a.dtype == norms_l.dtype == np.float64
        assert norms_a.tobytes() == norms_l.tobytes()

        assert np.array_equal(auto.zero_mask(w.copy()), loop.zero_mask(w.copy()))

        for protect in (True, False):
            wa, wl = w.copy(), w.copy()
            pa = auto.prune_blocks(wa, case["threshold"], protect_diagonal=protect)
            pl = loop.prune_blocks(wl, case["threshold"], protect_diagonal=protect)
            assert np.array_equal(pa, pl)
            assert wa.tobytes() == wl.tobytes()

        rng = np.random.default_rng(0)
        keep = rng.random((case["p"], case["p"])) > 0.5
        wa, wl = w.copy(), w.copy()
        auto.apply_block_mask(wa, keep)
        loop.apply_block_mask(wl, keep)
        assert wa.tobytes() == wl.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=block_case())
    def test_regularizer_identical(self, case):
        grad_a, prox_a, loss_a, data_a = _reg_outputs(case, None)
        grad_l, prox_l, loss_l, data_l = _reg_outputs(case, False)
        assert grad_a == grad_l
        assert prox_a == prox_l
        assert loss_a == loss_l
        # Proximal zeros must be exact +0.0 on both paths (the traffic model
        # keys on exact zeros; -0.0 would still compare equal but the paths
        # must agree bitwise, which signbit differences would break).
        assert not np.any(np.signbit(data_a[data_a == 0.0]))
        assert not np.any(np.signbit(data_l[data_l == 0.0]))

    @settings(max_examples=60, deadline=None)
    @given(case=block_case())
    def test_forced_fused_matches_loop_when_uniform(self, case):
        # Auto dispatch stays on the loop below _FUSED_MIN_BLOCKS, so this
        # forced-fused case is what property-tests the fused kernels at the
        # small core counts the strategy draws.
        if not case["uniform"]:
            with pytest.raises(ValueError, match="uniform"):
                _partition(case, True)
            return
        fused = _partition(case, True)
        loop = _partition(case, False)
        w = case["weights"]
        assert fused.block_norms(w.copy()).tobytes() == \
            loop.block_norms(w.copy()).tobytes()
        assert np.array_equal(fused.zero_mask(w.copy()), loop.zero_mask(w.copy()))
        wa, wl = w.copy(), w.copy()
        pa = fused.prune_blocks(wa, case["threshold"], protect_diagonal=True)
        pl = loop.prune_blocks(wl, case["threshold"], protect_diagonal=True)
        assert np.array_equal(pa, pl)
        assert wa.tobytes() == wl.tobytes()
        grad_f, prox_f, loss_f, _ = _reg_outputs(case, True)
        grad_l, prox_l, loss_l, _ = _reg_outputs(case, False)
        assert grad_f == grad_l
        assert prox_f == prox_l
        assert loss_f == loss_l


class TestDeterministicCorpus:
    """Hand-picked cases the property strategy might visit rarely."""

    def test_standard_16_core_partitions_take_fused_path(self):
        """The shapes layer_block_partitions produces at 16 cores must not
        silently fall back to the loop."""
        for kind, shape in (("dense", (784, 304)), ("conv", (32, 16, 3, 3))):
            partition = CoreBlockPartition(shape, kind, 16)
            assert partition.uniform
            METRICS.reset()
            partition.block_norms(np.zeros(shape))
            assert METRICS.counter("sparsity.block_kernel", path="fused") == 1
            assert METRICS.counter("sparsity.block_kernel", path="loop") == 0

        # The fast-profile MLP's own partitions.  Its classifier head cannot
        # split 10 outputs 16 ways evenly, so only the uniform ones count.
        model = build_mlp(seed=FAST.seed)
        uniform = {
            name: p for name, p in layer_block_partitions(model, 16).items() if p.uniform
        }
        assert uniform
        METRICS.reset()
        for name, partition in uniform.items():
            partition.block_norms(model.get_parameter(name).data)
        assert METRICS.counter("sparsity.block_kernel", path="fused") == len(uniform)
        assert METRICS.counter("sparsity.block_kernel", path="loop") == 0

    def test_auto_dispatch_uses_loop_below_crossover(self):
        """Below _FUSED_MIN_BLOCKS the loop is faster; auto must pick it."""
        partition = CoreBlockPartition((16, 16), "dense", 4)
        METRICS.reset()
        partition.block_norms(np.ones((16, 16)))
        assert METRICS.counter("sparsity.block_kernel", path="loop") == 1
        assert METRICS.counter("sparsity.block_kernel", path="fused") == 0
        # Forcing fused=True overrides the heuristic.
        forced = CoreBlockPartition((16, 16), "dense", 4, fused=True)
        METRICS.reset()
        forced.block_norms(np.ones((16, 16)))
        assert METRICS.counter("sparsity.block_kernel", path="fused") == 1

    def test_non_contiguous_input_falls_back(self):
        partition = CoreBlockPartition((8, 8), "dense", 4)
        w = np.asfortranarray(np.random.default_rng(0).standard_normal((8, 8)))
        assert not partition.fused_ok(w)
        ref = CoreBlockPartition((8, 8), "dense", 4, fused=False)
        assert partition.block_norms(w).tobytes() == ref.block_norms(w).tobytes()

    def test_empty_producer_blocks(self):
        """P > channels: trailing blocks are empty; norms stay 0, prune skips."""
        bounds = split_boundaries(3, 5)
        partition = CoreBlockPartition(
            (3, 10), "dense", 5, producer_bounds=bounds
        )
        loop = CoreBlockPartition((3, 10), "dense", 5, producer_bounds=bounds, fused=False)
        w = np.ones((3, 10))
        assert partition.block_norms(w).tobytes() == loop.block_norms(w).tobytes()
        wa, wl = w.copy(), w.copy()
        pa = partition.prune_blocks(wa, threshold=10.0, protect_diagonal=False)
        pl = loop.prune_blocks(wl, threshold=10.0, protect_diagonal=False)
        assert np.array_equal(pa, pl)
        # Empty blocks are never reported as pruned.
        assert not pa[3:].any()

    def test_block_sizes_cached_and_readonly(self):
        partition = CoreBlockPartition((8, 8), "dense", 4)
        sizes = partition.block_sizes()
        assert sizes is partition.block_sizes()
        with pytest.raises(ValueError):
            sizes[0, 0] = 99

    def test_strength_cache_reused(self):
        partition = CoreBlockPartition((8, 8), "dense", 4)
        reg = GroupLassoRegularizer({"w": partition}, lam=0.1)
        s1 = reg._block_strength(partition)
        assert s1 is reg._block_strength(partition)
        assert not s1.flags.writeable
