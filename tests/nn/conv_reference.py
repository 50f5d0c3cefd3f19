"""The seed's row-major ``Conv2D`` forward and backward, kept as a reference.

``Conv2D`` computes on channel-major columns in reused scratch buffers, with
an adjoint-accumulation (kn2row) backward.  These functions are the original
row-major im2col GEMMs it replaced, reading the layer's weights but never
writing its state.  Only summation order differs between the two, so they
agree to rounding, not bit for bit.
"""

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col


def conv_forward(conv, x):
    """Row-major im2col forward: ``(out, cols_per_group)``."""
    n, _, h, w = x.shape
    out_h = conv_output_size(h, conv.kernel_h, conv.stride, conv.padding)
    out_w = conv_output_size(w, conv.kernel_w, conv.stride, conv.padding)
    g = conv.groups
    cin_g = conv.in_channels // g
    cout_g = conv.out_channels // g

    dtype = np.result_type(x.dtype, conv.weight.data.dtype)
    out = np.empty((n, conv.out_channels, out_h, out_w), dtype=dtype)
    cols_per_group = []
    for gi in range(g):
        xg = x[:, gi * cin_g:(gi + 1) * cin_g]
        cols = im2col(xg, conv.kernel_h, conv.kernel_w, conv.stride, conv.padding)
        wg = conv.weight.data[gi * cout_g:(gi + 1) * cout_g].reshape(cout_g, -1)
        og = cols @ wg.T  # (N*out_h*out_w, cout_g)
        out[:, gi * cout_g:(gi + 1) * cout_g] = (
            og.reshape(n, out_h, out_w, cout_g).transpose(0, 3, 1, 2)
        )
        cols_per_group.append(cols)
    if conv.bias is not None:
        out += conv.bias.data.reshape(1, -1, 1, 1)
    return out, cols_per_group


def conv_backward(conv, x_shape, cols_per_group, grad_out):
    """Row-major backward: ``(grad_in, weight_grad, bias_grad)``."""
    n = x_shape[0]
    g = conv.groups
    cin_g = conv.in_channels // g
    cout_g = conv.out_channels // g

    weight_grad = np.zeros_like(conv.weight.data)
    bias_grad = grad_out.sum(axis=(0, 2, 3))
    grad_in = np.empty(
        x_shape, dtype=np.result_type(grad_out.dtype, conv.weight.data.dtype)
    )
    for gi in range(g):
        go = grad_out[:, gi * cout_g:(gi + 1) * cout_g]
        go_mat = go.transpose(0, 2, 3, 1).reshape(-1, cout_g)
        wg4 = conv.weight.data[gi * cout_g:(gi + 1) * cout_g]
        weight_grad[gi * cout_g:(gi + 1) * cout_g] = (
            (go_mat.T @ cols_per_group[gi]).reshape(
                cout_g, cin_g, conv.kernel_h, conv.kernel_w
            )
        )
        if conv.stride == 1 and conv.kernel_h == conv.kernel_w:
            # Transposed convolution: grad_in is the correlation of grad_out
            # with the 180-degree-rotated kernels, channels swapped.
            w_flip = np.ascontiguousarray(
                wg4[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            ).reshape(cin_g, -1)  # (cin_g, cout_g*kh*kw)
            pad_t = conv.kernel_h - 1 - conv.padding
            go_cols = im2col(go, conv.kernel_h, conv.kernel_w, 1, pad_t)
            grad_g = go_cols @ w_flip.T  # (N*h*w, cin_g)
            grad_in[:, gi * cin_g:(gi + 1) * cin_g] = grad_g.reshape(
                n, x_shape[2], x_shape[3], cin_g
            ).transpose(0, 3, 1, 2)
        else:
            grad_cols = go_mat @ wg4.reshape(cout_g, -1)
            grad_in[:, gi * cin_g:(gi + 1) * cin_g] = col2im(
                grad_cols,
                (n, cin_g, x_shape[2], x_shape[3]),
                conv.kernel_h,
                conv.kernel_w,
                conv.stride,
                conv.padding,
            )
    return grad_in, weight_grad, bias_grad
