"""Regularizers, including the paper's (masked) group Lasso.

Equation (1) of the paper:

    L(W) = L_D(W) + lambda * R(W) + lambda_g * sum_l R_g(W^l)

``R`` is a generic elementwise penalty — here the optimizer's weight decay
(:class:`~repro.nn.optim.SGD`) — and ``R_g`` the group Lasso over core
blocks.  The *communication-aware* variant (SS_Mask) scales each
block's penalty by a strength factor derived from the NoC hop distance
between the producer and consumer core, so weights whose activations would
travel far are pruned first.

Each regularizer implements ``loss(model)`` (penalty value, for monitoring)
and ``add_gradients(model)`` (accumulate subgradients into ``param.grad``).
The group Lasso additionally implements the proximal operator
``prox_step(model, lr)``, which drives block norms to *exact* zero — the
property the traffic model relies on.

``add_gradients`` and ``prox_step`` run every optimizer step on every
partitioned parameter, which makes them the training hot path.  On uniform
partitions with enough blocks they use the fused kernels from
:class:`~repro.nn.sparsity.CoreBlockPartition` — one reduction for all P^2
block norms, one broadcast multiply for the scaling — instead of P^2 Python
loop iterations; the sliced loop remains the fallback for uneven or
small-P partitions and the reference the fused path is property-tested
against (``tests/nn/test_block_kernels.py``).
"""

from __future__ import annotations

import numpy as np

from .network import Sequential
from .sparsity import CoreBlockPartition

__all__ = ["Regularizer", "GroupLassoRegularizer"]

_EPS = 1e-12


class Regularizer:
    """Interface for additive training penalties."""

    def loss(self, model: Sequential) -> float:
        raise NotImplementedError

    def add_gradients(self, model: Sequential) -> None:
        raise NotImplementedError


class GroupLassoRegularizer(Regularizer):
    """Group Lasso over the core-block partition of selected parameters.

    Parameters
    ----------
    partitions:
        Mapping ``parameter name -> CoreBlockPartition`` naming the tensors to
        regularize and how to slice them into (producer, consumer) blocks.
    lam:
        Global group-sparsity weight (the paper's ``lambda_g``).
    strength:
        Optional ``(P, P)`` matrix of per-block strength factors (the paper's
        communication-aware *sparsity mask*).  ``None`` means uniform strength
        1 for every block, which is exactly the **SS** scheme; a hop-distance
        derived matrix gives **SS_Mask**.  Diagonal entries are typically 0 so
        same-core blocks are never penalized.
    normalize:
        When True (default), each block's penalty is scaled by
        ``sqrt(block size)`` as in Wen et al. (2016), keeping the effective
        strength comparable across blocks of different sizes.
    """

    def __init__(
        self,
        partitions: dict[str, CoreBlockPartition],
        lam: float,
        strength: np.ndarray | None = None,
        normalize: bool = True,
    ) -> None:
        if lam < 0:
            raise ValueError(f"lam must be non-negative, got {lam}")
        if not partitions:
            raise ValueError("partitions must name at least one parameter")
        cores = {p.num_cores for p in partitions.values()}
        if len(cores) != 1:
            raise ValueError(f"all partitions must share num_cores, got {cores}")
        self.num_cores = cores.pop()
        if strength is not None:
            strength = np.asarray(strength, dtype=np.float64)
            if strength.shape != (self.num_cores, self.num_cores):
                raise ValueError(
                    f"strength shape {strength.shape} != "
                    f"({self.num_cores}, {self.num_cores})"
                )
            if np.any(strength < 0):
                raise ValueError("strength factors must be non-negative")
        self.partitions = dict(partitions)
        self.lam = lam
        self.strength = strength
        self.normalize = normalize
        # Per-partition strength matrices are fixed for the regularizer's
        # lifetime (strength, normalize, and the partitions are all set at
        # construction) but used every optimizer step — cache them instead of
        # redoing the sqrt(block_sizes) scaling per call.
        self._strength_cache: dict[int, np.ndarray] = {}

    def _block_strength(self, partition: CoreBlockPartition) -> np.ndarray:
        cached = self._strength_cache.get(id(partition))
        if cached is not None:
            return cached
        p = self.num_cores
        s = np.ones((p, p)) if self.strength is None else self.strength.copy()
        if self.normalize:
            s = s * np.sqrt(np.maximum(partition.block_sizes(), 1))
        s.flags.writeable = False
        self._strength_cache[id(partition)] = s
        return s

    def loss(self, model: Sequential) -> float:
        total = 0.0
        for name, partition in self.partitions.items():
            param = model.get_parameter(name)
            norms = partition.block_norms(param.data)
            total += float(np.sum(self._block_strength(partition) * norms))
        return self.lam * total

    def add_gradients(self, model: Sequential) -> None:
        """Accumulate the group-Lasso subgradient ``lam * s * W_g / ||W_g||``."""
        for name, partition in self.partitions.items():
            param = model.get_parameter(name)
            s = self._block_strength(partition)
            if partition.fused_ok(param.data) and param.grad.flags.c_contiguous:
                self._add_gradients_fused(partition, param, s)
            else:
                self._add_gradients_loop(partition, param, s)

    def _add_gradients_fused(self, partition, param, s: np.ndarray) -> None:
        # Mirrors the loop expression ((lam * s_ij) * w) / (norm_ij + eps)
        # with identical evaluation order and scalar promotions, so the two
        # paths agree bit for bit (including under float32 weights).  The
        # block reduction uses the transposed blocked copy (same summation
        # order as the loop); the elementwise scaling is order-free, so it
        # runs through the natural (contiguous) view instead of striding.
        sums = partition._block_sq_sums(param.data)
        denom = np.sqrt(sums) + _EPS  # weight dtype, like the loop's scalar
        wn = partition.natural_view(param.data)
        contrib = partition.expand_blocks(self.lam * s, wn.ndim) * wn
        np.divide(contrib, partition.expand_blocks(denom, wn.ndim), out=contrib)
        gn = partition.natural_view(param.grad)
        active = partition.expand_blocks(s != 0.0, wn.ndim)
        np.add(gn, contrib, out=gn, where=active)

    def _add_gradients_loop(self, partition, param, s: np.ndarray) -> None:
        for i in range(partition.num_cores):
            for j in range(partition.num_cores):
                if s[i, j] == 0.0:
                    continue
                sl = partition.block_slices(i, j)
                block = param.data[sl]
                if block.size == 0:
                    continue
                norm = np.sqrt(np.sum(block ** 2))
                param.grad[sl] += self.lam * s[i, j] * block / (norm + _EPS)

    def prox_step(self, model: Sequential, lr: float) -> None:
        """Proximal (block soft-threshold) step after a gradient update.

        ``W_g <- max(0, 1 - lr * lam * s_g / ||W_g||) * W_g`` — the exact
        proximal operator of the group-Lasso penalty, which produces exact
        zeros once a block norm falls below ``lr * lam * s_g``.
        """
        for name, partition in self.partitions.items():
            param = model.get_parameter(name)
            s = self._block_strength(partition)
            if partition.fused_ok(param.data):
                self._prox_step_fused(partition, param, s, lr)
            else:
                self._prox_step_loop(partition, param, s, lr)

    def _prox_step_fused(self, partition, param, s: np.ndarray, lr: float) -> None:
        sums = partition._block_sq_sums(param.data)
        norms = np.sqrt(sums)  # weight dtype, like the loop's per-block scalar
        thresh = lr * self.lam * s  # float64, same association as the loop
        active = (s != 0.0) & (partition.block_sizes() > 0)
        zeroed = active & (norms <= thresh)
        shrunk = active & ~zeroed
        scale = np.empty_like(thresh)
        np.divide(thresh, norms, out=scale, where=shrunk)
        np.subtract(1.0, scale, out=scale, where=shrunk)
        # Shrink/zero elementwise through the natural (contiguous) view —
        # per-element arithmetic, so the layout does not affect the bits.
        wn = partition.natural_view(param.data)
        np.multiply(wn, partition.expand_blocks(scale, wn.ndim), out=wn,
                    where=partition.expand_blocks(shrunk, wn.ndim))
        # The loop assigns a literal 0.0 into zeroed blocks; an in-place
        # multiply by 0 would leave -0.0 on negative weights, so copy the
        # exact constant instead to keep the paths bit-identical.
        np.copyto(wn, 0.0, where=partition.expand_blocks(zeroed, wn.ndim))

    def _prox_step_loop(self, partition, param, s: np.ndarray, lr: float) -> None:
        for i in range(partition.num_cores):
            for j in range(partition.num_cores):
                if s[i, j] == 0.0:
                    continue
                sl = partition.block_slices(i, j)
                block = param.data[sl]
                if block.size == 0:
                    continue
                norm = np.sqrt(np.sum(block ** 2))
                thresh = lr * self.lam * s[i, j]
                if norm <= thresh:
                    block[...] = 0.0
                else:
                    block *= 1.0 - thresh / norm

    def zero_masks(self, model: Sequential, tol: float = 0.0) -> dict[str, np.ndarray]:
        """Per-parameter (P, P) block-zero masks (True = block is zero)."""
        return {
            name: partition.zero_mask(model.get_parameter(name).data, tol=tol)
            for name, partition in self.partitions.items()
        }

