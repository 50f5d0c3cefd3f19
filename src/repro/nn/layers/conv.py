"""2-D convolution with optional channel grouping.

``groups > 1`` implements AlexNet-style grouped convolution: input and output
channels are split into ``groups`` contiguous blocks and block ``g`` of the
output only consumes block ``g`` of the input.  This is exactly the
"structure-level parallelization" primitive of the paper: when each group is
mapped to one core, the layer transition needs no inter-core feature-map
traffic.
"""

from __future__ import annotations

import numpy as np

from ..functional import col2im, conv_output_size, im2col_t
from ..initializers import get_initializer
from .base import Layer

__all__ = ["Conv2D"]


class Conv2D(Layer):
    """Convolution layer over NCHW tensors.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts; both must be divisible by ``groups``.
    kernel_size:
        Square kernel side (int) or ``(kh, kw)``.
    stride, padding:
        Uniform stride and zero padding.
    groups:
        Number of non-interacting channel groups (1 = dense convolution).
    weight_init:
        Initializer name or callable for the kernel tensor.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        weight_init: str = "he_normal",
        name: str = "",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name=name)
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels}, {out_channels}) not divisible by "
                f"groups={groups}"
            )
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_h, self.kernel_w = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups

        rng = rng or np.random.default_rng(0)
        init = get_initializer(weight_init)
        # Weight layout: (out_channels, in_channels // groups, kh, kw).
        w_shape = (
            out_channels,
            in_channels // groups,
            self.kernel_h,
            self.kernel_w,
        )
        self.weight = self.add_parameter("weight", init(w_shape, rng))
        self.bias = self.add_parameter("bias", np.zeros(out_channels)) if bias else None

        self._cache: tuple | None = None

    # -- geometry ----------------------------------------------------------------

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {c}"
            )
        out_h = conv_output_size(h, self.kernel_h, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_w, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def macs(self, input_shape: tuple[int, ...]) -> int:
        """Multiply-accumulate count for one input sample."""
        _, out_h, out_w = self.output_shape(input_shape)
        per_output = (self.in_channels // self.groups) * self.kernel_h * self.kernel_w
        return self.out_channels * out_h * out_w * per_output

    # -- computation ---------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, got {c}"
            )
        out_h = conv_output_size(h, self.kernel_h, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_w, self.stride, self.padding)

        g = self.groups
        cin_g = self.in_channels // g
        cout_g = self.out_channels // g

        dtype = np.result_type(x.dtype, self.weight.data.dtype)
        out = np.empty((n, self.out_channels, out_h, out_w), dtype=dtype)
        cols_per_group: list[np.ndarray] | None = [] if self.training else None
        # Channel-major columns (im2col_t) filled into reused scratch
        # buffers.  The column matrices are the largest allocations in
        # training, and the transposed layout copies in whole output rows
        # instead of kernel-width runs — together roughly halving the time a
        # step spends moving memory.  Only layer-internal buffers are reused;
        # ``out`` escapes the layer and must stay fresh.
        ncols = n * out_h * out_w
        cols_shape = (cin_g * self.kernel_h * self.kernel_w, ncols)
        pad_buf = None
        if self.padding:
            pad_buf = self._scratch(
                "pad",
                (n, cin_g, h + 2 * self.padding, w + 2 * self.padding),
                x.dtype,
                zero=True,
            )
        for gi in range(g):
            xg = x[:, gi * cin_g:(gi + 1) * cin_g]
            cols = im2col_t(
                xg, self.kernel_h, self.kernel_w, self.stride, self.padding,
                out=self._scratch(f"cols{gi}", cols_shape, x.dtype),
                pad_buffer=pad_buf,
            )
            wg = self.weight.data[gi * cout_g:(gi + 1) * cout_g].reshape(cout_g, -1)
            og = np.matmul(wg, cols, out=self._scratch("og", (cout_g, ncols), dtype))
            out[:, gi * cout_g:(gi + 1) * cout_g] = (
                og.reshape(cout_g, n, out_h, out_w).transpose(1, 0, 2, 3)
            )
            if cols_per_group is not None:
                cols_per_group.append(cols)

        if self.bias is not None:
            out += self.bias.data.reshape(1, -1, 1, 1)

        self._cache = (x.shape, cols_per_group, out_h, out_w) if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"{self.name}: backward called before a training-mode forward"
            )
        x_shape, cols_per_group, out_h, out_w = self._cache
        self._cache = None
        n, _, in_h, in_w = x_shape
        g = self.groups
        cin_g = self.in_channels // g
        cout_g = self.out_channels // g
        ncols = n * out_h * out_w

        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=(0, 2, 3))

        grad_in = np.empty(
            x_shape, dtype=np.result_type(grad_out.dtype, self.weight.data.dtype)
        )
        for gi in range(g):
            go = grad_out[:, gi * cout_g:(gi + 1) * cout_g]
            # (cout_g, N*out_h*out_w) with rows of out_h*out_w copied whole.
            go_mat = self._scratch("go_mat", (cout_g, ncols), go.dtype)
            np.copyto(
                go_mat.reshape(cout_g, n, out_h, out_w), go.transpose(1, 0, 2, 3)
            )
            cols = cols_per_group[gi]
            cols_per_group[gi] = None  # weight grad below is its last use

            wg4 = self.weight.data[gi * cout_g:(gi + 1) * cout_g]
            self.weight.grad[gi * cout_g:(gi + 1) * cout_g] += (
                (go_mat @ cols.T).reshape(
                    cout_g, cin_g, self.kernel_h, self.kernel_w
                )
            )
            del cols

            if self.stride == 1 and self.kernel_h == self.kernel_w:
                # Adjoint accumulation (kn2row): one GEMM per kernel offset
                # against the (ky, kx) weight slice, scattered back into the
                # padded input gradient.  Unlike the transposed-convolution
                # route this never materializes the k^2-duplicated column
                # matrix of grad_out — for the 5x5 kernels that matrix is
                # 25x the feature map and dominates the whole step.
                pad = self.padding
                # Accumulate channel-major: every slab add then has a fully
                # contiguous source, and the one transpose happens on the
                # final crop instead of inside the k^2 loop.
                gx_pad = self._scratch(
                    "gx_pad",
                    (cin_g, n, in_h + 2 * pad, in_w + 2 * pad),
                    grad_in.dtype,
                )
                gx_pad.fill(0.0)
                # (kh, kw, cin_g, cout_g): each offset's GEMM operand.
                wt = np.ascontiguousarray(wg4.transpose(2, 3, 1, 0))
                gslab = self._scratch("gin", (cin_g, ncols), grad_in.dtype)
                for ky in range(self.kernel_h):
                    for kx in range(self.kernel_w):
                        np.matmul(wt[ky, kx], go_mat, out=gslab)
                        gx_pad[
                            :, :, ky:ky + out_h, kx:kx + out_w
                        ] += gslab.reshape(cin_g, n, out_h, out_w)
                grad_in[:, gi * cin_g:(gi + 1) * cin_g] = gx_pad[
                    :, :, pad:pad + in_h, pad:pad + in_w
                ].transpose(1, 0, 2, 3)
            else:
                grad_cols = go.transpose(0, 2, 3, 1).reshape(-1, cout_g) @ (
                    wg4.reshape(cout_g, -1)
                )
                grad_in[:, gi * cin_g:(gi + 1) * cin_g] = col2im(
                    grad_cols,
                    (n, cin_g, in_h, in_w),
                    self.kernel_h,
                    self.kernel_w,
                    self.stride,
                    self.padding,
                )
        return grad_in
