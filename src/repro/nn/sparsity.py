"""Core-block structured sparsity utilities.

The paper partitions each weight tensor into ``P x P`` blocks where ``P`` is
the number of cores: block ``(i, j)`` holds the weights connecting input
features *produced on core i* to output features *computed on core j*.  Group
Lasso is applied at this block granularity; a block whose weights all converge
to zero means core ``i`` never needs to send its feature maps to core ``j``.

:class:`CoreBlockPartition` materializes that partition for dense and conv
weight layouts, and provides block views, block norms, zero masks, and group
pruning used by both the training regularizers and the traffic model.

Block operations have two implementations:

* a **fused** path for *uniform* partitions (every producer block the same
  size, every consumer block the same size): the weight tensor is reshaped
  once into a ``(P, ..., P, ...)`` blocked view and all ``P^2`` block
  reductions run as a single numpy reduction — this is the training hot path
  (the proximal step runs it once per optimizer step per parameter);
* the original **sliced loop** over ``block_slices``, kept both as the
  fallback for uneven ``split_boundaries`` partitions and as the reference
  the fused path is property-tested against
  (``tests/nn/test_block_kernels.py`` enforces bit-exact agreement).

The per-call path choice is counted in the metrics registry under
``sparsity.block_kernel{path=fused|loop}``.  Both paths are bit-identical,
so auto dispatch is free to pick whichever is faster: the fused gather copy
only pays for itself once there are enough blocks for the loop's per-block
Python overhead to dominate (see ``_FUSED_MIN_BLOCKS``).  ``fused=False``
on a partition forces the loop, which is how the tests reach the reference.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..obs import METRICS

__all__ = [
    "split_boundaries",
    "block_of",
    "CoreBlockPartition",
]

#: Auto-dispatch crossover: with fewer than this many (P^2) blocks the
#: sliced loop's per-block overhead is cheaper than the fused path's gathered
#: blocked copy, so ``fused=None`` stays on the loop below it.  On a 1-CPU
#: x86-64 container the fused regularizer step ran 0.93-1.02x the loop's
#: speed at P=4 and 2.25-2.95x at P=16.
_FUSED_MIN_BLOCKS = 64


def split_boundaries(total: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) ranges splitting ``total`` items into ``parts``.

    When ``total`` is not divisible, earlier parts get one extra element, the
    same convention as ``np.array_split``.  Parts may be empty when
    ``parts > total``, which models cores that receive no channels.
    """
    if parts <= 0:
        raise ValueError(f"parts must be positive, got {parts}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    base, extra = divmod(total, parts)
    bounds = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def block_of(index: int, boundaries: list[tuple[int, int]]) -> int:
    """Which block a channel index falls into.

    Boundaries tile ``[0, total)`` contiguously with non-decreasing starts,
    so the owning block is found by bisecting the start offsets; empty blocks
    share a start with their successor and sort before it, which makes the
    rightmost candidate the (unique) non-empty owner.
    """
    if boundaries:
        b = bisect_right([start for start, _ in boundaries], index) - 1
        if b >= 0:
            start, stop = boundaries[b]
            if start <= index < stop:
                return b
    raise IndexError(f"index {index} outside boundaries {boundaries}")


class CoreBlockPartition:
    """(producer core, consumer core) block partition of a weight tensor.

    Parameters
    ----------
    shape:
        Shape of the parameter tensor.
    kind:
        ``"dense"`` for ``(in_features, out_features)`` matrices, where rows
        are producer features and columns consumer features; ``"conv"`` for
        ``(out_channels, in_channels, kh, kw)`` kernels, where ``in_channels``
        are producer channels and ``out_channels`` consumer channels.
    num_cores:
        Number of cores ``P``; the tensor is partitioned into ``P x P`` blocks.
    fused:
        ``None`` (default) picks the fused kernels automatically for uniform
        partitions with at least ``_FUSED_MIN_BLOCKS`` blocks; ``False``
        forces the sliced-loop reference; ``True`` demands the fused path
        (regardless of block count) and raises at construction when the
        partition is not uniform.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        kind: str,
        num_cores: int,
        producer_bounds: list[tuple[int, int]] | None = None,
        consumer_bounds: list[tuple[int, int]] | None = None,
        fused: bool | None = None,
    ) -> None:
        if kind not in ("dense", "conv"):
            raise ValueError(f"kind must be 'dense' or 'conv', got {kind!r}")
        if num_cores <= 0:
            raise ValueError(f"num_cores must be positive, got {num_cores}")
        if kind == "dense" and len(shape) != 2:
            raise ValueError(f"dense partition needs a 2-D shape, got {shape}")
        if kind == "conv" and len(shape) != 4:
            raise ValueError(f"conv partition needs a 4-D shape, got {shape}")
        self.shape = tuple(shape)
        self.kind = kind
        self.num_cores = num_cores

        if kind == "dense":
            producer_total, consumer_total = shape
        else:
            consumer_total, producer_total = shape[0], shape[1]
        self.producer_bounds = (
            producer_bounds
            if producer_bounds is not None
            else split_boundaries(producer_total, num_cores)
        )
        self.consumer_bounds = (
            consumer_bounds
            if consumer_bounds is not None
            else split_boundaries(consumer_total, num_cores)
        )
        if len(self.producer_bounds) != num_cores or len(self.consumer_bounds) != num_cores:
            raise ValueError(
                f"need exactly {num_cores} producer and consumer blocks, got "
                f"{len(self.producer_bounds)} and {len(self.consumer_bounds)}"
            )
        self._validate_bounds(self.producer_bounds, producer_total, "producer")
        self._validate_bounds(self.consumer_bounds, consumer_total, "consumer")

        p_sizes = {stop - start for start, stop in self.producer_bounds}
        c_sizes = {stop - start for start, stop in self.consumer_bounds}
        #: Uniform = all producer blocks one size and all consumer blocks one
        #: size; only then can the tensor be reshaped into a blocked view.
        self.uniform = len(p_sizes) == 1 and len(c_sizes) == 1
        if fused and not self.uniform:
            raise ValueError(
                f"fused=True requires a uniform partition; producer sizes "
                f"{sorted(p_sizes)}, consumer sizes {sorted(c_sizes)}"
            )
        self._fused = fused
        self._sizes_cache: np.ndarray | None = None

    @staticmethod
    def _validate_bounds(
        bounds: list[tuple[int, int]], total: int, role: str
    ) -> None:
        """Custom boundaries must tile [0, total) contiguously."""
        expected_start = 0
        for start, stop in bounds:
            if start != expected_start or stop < start:
                raise ValueError(
                    f"{role} boundaries {bounds} do not tile [0, {total}) contiguously"
                )
            expected_start = stop
        if expected_start != total:
            raise ValueError(
                f"{role} boundaries {bounds} cover [0, {expected_start}), expected "
                f"[0, {total})"
            )

    # -- block access ------------------------------------------------------------

    def block_slices(self, producer: int, consumer: int) -> tuple[slice, ...]:
        """Numpy index selecting block ``(producer, consumer)`` of the tensor."""
        p0, p1 = self.producer_bounds[producer]
        c0, c1 = self.consumer_bounds[consumer]
        if self.kind == "dense":
            return (slice(p0, p1), slice(c0, c1))
        return (slice(c0, c1), slice(p0, p1))

    def block_view(self, weights: np.ndarray, producer: int, consumer: int) -> np.ndarray:
        """View of block ``(producer, consumer)`` (mutating it mutates weights)."""
        self._check(weights)
        return weights[self.block_slices(producer, consumer)]

    def _check(self, weights: np.ndarray) -> None:
        if weights.shape != self.shape:
            raise ValueError(
                f"weight shape {weights.shape} does not match partition shape "
                f"{self.shape}"
            )

    # -- fused (vectorized) machinery ---------------------------------------------

    def fused_ok(self, arr: np.ndarray) -> bool:
        """Whether the fused kernels apply to ``arr`` on this call.

        Requires a uniform partition, the per-partition switch on, and a
        C-contiguous tensor (the blocked view is a reshape).  Auto dispatch
        (``fused=None``) additionally requires ``_FUSED_MIN_BLOCKS`` blocks —
        below that the sliced loop is faster and, being bit-identical, freely
        substitutable.  The choice is counted under
        ``sparsity.block_kernel{path=...}``.
        """
        if self._fused is not None:
            want = self._fused
        else:
            want = self.num_cores * self.num_cores >= _FUSED_MIN_BLOCKS
        ok = bool(want) and self.uniform and arr.flags.c_contiguous
        METRICS.inc("sparsity.block_kernel", path="fused" if ok else "loop")
        return ok

    def blocked_view(self, arr: np.ndarray) -> np.ndarray:
        """Producer/consumer-major blocked **view** of a uniform partition.

        Dense tensors come back as ``(P, P, p_i, c_j)``, conv tensors as
        ``(P, P, c_j, p_i, kh, kw)`` — axis 0 is the producer core, axis 1
        the consumer core, and the per-block trailing axes preserve the
        element order of the sliced block, so reductions over them match the
        sliced loop bit for bit.  Writing through the view writes ``arr``.
        """
        if not self.uniform:
            raise ValueError("blocked_view requires a uniform partition")
        p = self.num_cores
        if self.kind == "dense":
            pi = self.shape[0] // p
            cj = self.shape[1] // p
            return arr.reshape(p, pi, p, cj).transpose(0, 2, 1, 3)
        cj = self.shape[0] // p
        pi = self.shape[1] // p
        v = arr.reshape(p, cj, p, pi, *self.shape[2:])
        return v.transpose(2, 0, 1, 3, 4, 5)

    def natural_view(self, arr: np.ndarray) -> np.ndarray:
        """Blocked reshape of a uniform partition in **natural** memory order.

        Unlike :meth:`blocked_view` there is no transpose: a C-contiguous
        ``arr`` stays C-contiguous, so elementwise kernels (scaling,
        soft-thresholding) stream through memory instead of striding.  Dense
        tensors come back as ``(P, p_i, P, c_j)``, conv tensors as
        ``(P, c_j, P, p_i, kh, kw)`` — pair a ``(P, P)`` producer/consumer
        block matrix with :meth:`expand_blocks` to broadcast against it.
        """
        if not self.uniform:
            raise ValueError("natural_view requires a uniform partition")
        p = self.num_cores
        if self.kind == "dense":
            return arr.reshape(p, self.shape[0] // p, p, self.shape[1] // p)
        return arr.reshape(
            p, self.shape[0] // p, p, self.shape[1] // p, *self.shape[2:]
        )

    def expand_blocks(self, mat: np.ndarray, ndim: int) -> np.ndarray:
        """Broadcast a (P, P) [producer, consumer] matrix to a natural view.

        ``ndim`` is the natural view's rank.  For conv tensors the consumer
        (output-channel) axis comes first in memory, so the matrix is
        transposed to line up.
        """
        m = mat if self.kind == "dense" else mat.T
        return m[(slice(None), np.newaxis, slice(None))
                 + (np.newaxis,) * (ndim - 3)]

    def _block_sq_sums(self, weights: np.ndarray) -> np.ndarray:
        """(P, P) matrix of per-block sums of squares (fused path)."""
        p = self.num_cores
        sq = self.blocked_view(weights) ** 2  # contiguous (P, P, <block...>)
        return sq.reshape(p, p, -1).sum(axis=-1)

    # -- block statistics -----------------------------------------------------------

    def block_norms(self, weights: np.ndarray) -> np.ndarray:
        """(P, P) matrix of block L2 norms, indexed [producer, consumer]."""
        self._check(weights)
        if self.fused_ok(weights):
            # Same reduction order as the loop: each block's elements are
            # contiguous in the blocked layout, so the pairwise sum matches
            # np.sum over the sliced block exactly.
            norms = np.sqrt(self._block_sq_sums(weights))
            return norms.astype(np.float64, copy=False)
        return self._block_norms_loop(weights)

    def _block_norms_loop(self, weights: np.ndarray) -> np.ndarray:
        """Sliced-loop reference for :meth:`block_norms`."""
        p = self.num_cores
        norms = np.zeros((p, p), dtype=np.float64)
        for i in range(p):
            for j in range(p):
                block = weights[self.block_slices(i, j)]
                norms[i, j] = np.sqrt(np.sum(block ** 2)) if block.size else 0.0
        return norms

    def block_sizes(self) -> np.ndarray:
        """(P, P) matrix of block element counts (cached, read-only)."""
        if self._sizes_cache is None:
            p_sizes = np.array(
                [stop - start for start, stop in self.producer_bounds], dtype=np.int64
            )
            c_sizes = np.array(
                [stop - start for start, stop in self.consumer_bounds], dtype=np.int64
            )
            elem = int(np.prod(self.shape[2:])) if self.kind == "conv" else 1
            sizes = np.multiply.outer(p_sizes, c_sizes) * elem
            sizes.flags.writeable = False
            self._sizes_cache = sizes
        return self._sizes_cache

    def zero_mask(self, weights: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """(P, P) boolean matrix; True where the block norm is <= ``tol``.

        A True entry at ``[i, j]`` means core ``i`` does not need to send its
        feature maps to core ``j`` for this layer (empty blocks count as zero).
        """
        return self.block_norms(weights) <= tol

    # -- pruning ----------------------------------------------------------------------

    def prune_blocks(
        self, weights: np.ndarray, threshold: float, protect_diagonal: bool = True
    ) -> np.ndarray:
        """Zero every block whose RMS weight magnitude is below ``threshold``.

        RMS (rather than raw L2) keeps the threshold comparable across blocks
        of different sizes.  Diagonal blocks carry no communication cost, so by
        default they are never pruned — pruning them would only hurt accuracy.
        Returns the (P, P) boolean mask of blocks that were zeroed.
        """
        self._check(weights)
        p = self.num_cores
        if self.fused_ok(weights):
            sums = self._block_sq_sums(weights)
            sizes = self.block_sizes()
            occupied = sizes > 0
            rms = np.zeros_like(sums)
            np.divide(sums, sizes.astype(sums.dtype), out=rms, where=occupied)
            np.sqrt(rms, out=rms)
            pruned = (rms < threshold) & occupied
            if protect_diagonal:
                pruned &= ~np.eye(p, dtype=bool)
            if np.any(pruned):
                bv = self.blocked_view(weights)
                where = pruned.reshape(p, p, *([1] * (bv.ndim - 2)))
                np.copyto(bv, 0.0, where=where)
            return pruned
        return self._prune_blocks_loop(weights, threshold, protect_diagonal)

    def _prune_blocks_loop(
        self, weights: np.ndarray, threshold: float, protect_diagonal: bool
    ) -> np.ndarray:
        """Sliced-loop reference for :meth:`prune_blocks`."""
        p = self.num_cores
        pruned = np.zeros((p, p), dtype=bool)
        for i in range(p):
            for j in range(p):
                if protect_diagonal and i == j:
                    continue
                block = weights[self.block_slices(i, j)]
                if block.size == 0:
                    continue
                rms = np.sqrt(np.mean(block ** 2))
                if rms < threshold:
                    block[...] = 0.0
                    pruned[i, j] = True
        return pruned

    def apply_block_mask(self, weights: np.ndarray, keep: np.ndarray) -> None:
        """Zero all blocks where ``keep[i, j]`` is False (in place)."""
        self._check(weights)
        p = self.num_cores
        if keep.shape != (p, p):
            raise ValueError(f"mask shape {keep.shape} != ({p}, {p})")
        if self.fused_ok(weights):
            bv = self.blocked_view(weights)
            where = (~np.asarray(keep, dtype=bool)).reshape(
                p, p, *([1] * (bv.ndim - 2))
            )
            np.copyto(bv, 0.0, where=where)
            return
        for i in range(p):
            for j in range(p):
                if not keep[i, j]:
                    weights[self.block_slices(i, j)][...] = 0.0

    # -- traffic-facing queries ----------------------------------------------------------

    def required_transfers(self, weights: np.ndarray, tol: float = 0.0) -> np.ndarray:
        """(P, P) boolean matrix: does core ``i`` send feature maps to core ``j``.

        The diagonal is always False: data consumed on the core that produced
        it never crosses the NoC.
        """
        need = ~self.zero_mask(weights, tol=tol)
        np.fill_diagonal(need, False)
        return need
