"""The differentiable ops, each defined once.

Every op is one forward function that takes `Var` operands, computes its
value and records a node on the operands' tape, plus one backward rule,
registered in `autograd.RULES` under the op's name at import time.
Training, eval and one-off calls all go through these functions; eval
runs them on a ``Tape(grad=False)``, which checks operands but keeps
nothing.

The convolution has one data layout, `_padded_flat`, for both dtypes
and both directions: each kernel tap over all output pixels is one
contiguous slice of the padded input with its spatial axes flattened.
Only the forward's inner loop depends on the dtype. The float64 loop
multiplies and adds one input channel and tap at a time in the fixed
(ci, ki, kj) order of `nn_ops.conv2d_reference`, so the two are
bit-identical, which gradient checking and the conv equivalence test
rely on. The float32 loop (the default precision) makes one BLAS matmul
per tap over all input channels and rounds differently. The backward
keeps no order: two BLAS matmuls per tap for both dtypes.
"""

from __future__ import annotations

import numpy as np

from .autograd import TapeNode, Var, register_backward
from .nn_ops import BatchNormState
from .tensor_core import ShapeError


def add(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return a.tape.record("add", (a, b), a.value + b.value)


def _add_bwd(node: TapeNode, g: np.ndarray):
    return g, g


def mul(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mul shape mismatch: {a.value.shape} vs {b.value.shape}")
    return a.tape.record("mul", (a, b), a.value * b.value, ctx=(a.value, b.value))


def _mul_bwd(node: TapeNode, g: np.ndarray):
    av, bv = node.ctx
    return g * bv, g * av


def sum_all(a: Var) -> Var:
    """Sum of all elements, as a scalar-shaped (1, 1, 1, 1) tensor."""
    out = a.value.sum().reshape(1, 1, 1, 1)
    return a.tape.record("sum_all", (a,), out, ctx=(a.value.shape,))


def _sum_all_bwd(node: TapeNode, g: np.ndarray):
    (shape,) = node.ctx
    return (np.full(shape, g.reshape(()), dtype=g.dtype),)


def concat_channels(parts: list[Var]) -> Var:
    """Concatenate along the channel axis, in list order; part k occupies
    the channel slice starting at the sum of the preceding widths."""
    if len(parts) == 0:
        raise ShapeError("concat_channels needs at least one part")
    first = parts[0].value
    for k, p in enumerate(parts[1:], start=1):
        if (p.value.shape[0],) + p.value.shape[2:] != (first.shape[0],) + first.shape[2:]:
            raise ShapeError(
                f"concat_channels n/h/w mismatch: part 0 is {first.shape}, "
                f"part {k} is {p.value.shape}"
            )
    widths = tuple(p.value.shape[1] for p in parts)
    out = np.concatenate([p.value for p in parts], axis=1)
    return parts[0].tape.record("concat_channels", parts, out, ctx=(widths,))


def _concat_channels_bwd(node: TapeNode, g: np.ndarray):
    (widths,) = node.ctx
    grads = []
    start = 0
    for c in widths:
        grads.append(g[:, start:start + c])
        start += c
    return tuple(grads)


def channel_scale(x: Var, w: Var) -> Var:
    """out[n, c, i, j] = x[n, c, i, j] * w[n, c, 0, 0]."""
    xv, wv = x.value, w.value
    if wv.shape != (xv.shape[0], xv.shape[1], 1, 1):
        raise ShapeError(
            f"channel_scale weight shape {wv.shape} does not match "
            f"({xv.shape[0]}, {xv.shape[1]}, 1, 1)"
        )
    return x.tape.record("channel_scale", (x, w), xv * wv, ctx=(xv, wv))


def _channel_scale_bwd(node: TapeNode, g: np.ndarray):
    xv, wv = node.ctx
    return g * wv, (g * xv).sum(axis=(2, 3), keepdims=True)


def _padded_flat(x: np.ndarray, k: int):
    """Pad `x` for a k x k kernel and flatten its spatial axes; returns
    ``(flat, wp, span, taps)``. Output pixel (i, j) sits at offset
    i*wp + j, so tap (ki, kj) over all output pixels is the contiguous
    slice ``flat[..., off:off + span]`` for each ``(ki, kj, off)`` in
    `taps`; the wp - w columns past each output row are junk to crop."""
    n, c, h, wd = x.shape
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    wp = wd + 2 * pad
    taps = [(ki, kj, ki * wp + kj) for ki in range(k) for kj in range(k)]
    return xp.reshape(n, c, -1), wp, (h - 1) * wp + wd, taps


def conv2d(x: Var, weight: Var, bias: Var) -> Var:
    """Same-size cross-correlation with a (c_out, c_in, k, k) weight plus
    bias; k = 3 pads by 1, k = 1 by 0, stride 1."""
    xv, w = x.value, weight.value
    n, c_in, h, wd = xv.shape
    c_out, c_in2, k, _ = w.shape
    if c_in2 != c_in:
        raise ShapeError(f"conv2d channel mismatch: input c={c_in}, weight c_in={c_in2}")
    flat, wp, span, taps = _padded_flat(xv, k)
    acc = np.empty((n, c_out, h * wp), dtype=xv.dtype)
    acc[...] = bias.value.reshape(1, c_out, 1)
    body = acc[:, :, :span]
    if xv.dtype == np.float64:
        # fixed (ci, ki, kj) accumulation order; see module docstring
        for ci in range(c_in):
            for ki, kj, off in taps:
                body += (flat[:, ci:ci + 1, off:off + span]
                         * w[:, ci, ki, kj].reshape(1, c_out, 1))
    else:
        for ki, kj, off in taps:
            body += np.matmul(w[:, :, ki, kj], flat[:, :, off:off + span])
    out = np.ascontiguousarray(acc.reshape(n, c_out, h, wp)[:, :, :, :wd])
    return x.tape.record("conv2d", (x, weight, bias), out, ctx=(xv, w))


def _conv2d_bwd(node: TapeNode, g: np.ndarray):
    x, w = node.ctx
    n, c_in, h, wd = x.shape
    flat, wp, span, taps = _padded_flat(x, w.shape[2])
    # g on the output's padded-flat rows: its junk columns are zero, so
    # they add nothing to gw and scatter nothing into gx
    gq = np.pad(g, ((0, 0), (0, 0), (0, 0), (0, wp - wd)))
    gq = gq.reshape(n, -1, h * wp)[:, :, :span]
    gflat = np.zeros_like(flat)
    gw = np.empty_like(w)
    for ki, kj, off in taps:
        gw[:, :, ki, kj] = np.matmul(
            gq, flat[:, :, off:off + span].transpose(0, 2, 1)).sum(axis=0)
        gflat[:, :, off:off + span] += np.matmul(w[:, :, ki, kj].T, gq)
    pad = (wp - wd) // 2
    gx = gflat.reshape(n, c_in, h + 2 * pad, wp)[:, :, pad:pad + h, pad:pad + wd]
    return np.ascontiguousarray(gx), gw, g.sum(axis=(0, 2, 3))


def maxpool2(x: Var) -> Var:
    """2x2 max pooling with stride 2."""
    xv = x.value
    n, c, h, w = xv.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial extents, got {h}x{w}")
    win = (
        xv.reshape(n, c, h // 2, 2, w // 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h // 2, w // 2, 4)
    )
    # argmax picks the first maximum in window scan order (row-major 2x2)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return x.tape.record("maxpool2", (x,), np.ascontiguousarray(out),
                         ctx=(idx, xv.shape))


def _maxpool2_bwd(node: TapeNode, g: np.ndarray):
    idx, (n, c, h, w) = node.ctx
    buf = np.zeros((n, c, h // 2, w // 2, 4), dtype=g.dtype)
    np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
    return (np.ascontiguousarray(
        buf.reshape(n, c, h // 2, w // 2, 2, 2)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, h, w)
    ),)


def upsample_nearest2(x: Var) -> Var:
    """Replicate every pixel into a 2x2 block (nearest-neighbor 2x)."""
    out = np.repeat(np.repeat(x.value, 2, axis=2), 2, axis=3)
    return x.tape.record("upsample_nearest2", (x,), out)


def _upsample_nearest2_bwd(node: TapeNode, g: np.ndarray):
    n, c, h2, w2 = g.shape
    return (g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5)),)


def batchnorm2d(x: Var, gamma: Var, beta: Var, state: BatchNormState,
                training: bool) -> Var:
    """Normalize per channel: batch statistics in training mode, which
    also updates the running stats in `state`, running statistics in
    eval mode."""
    xv, gv = x.value, gamma.value
    if xv.shape[1] != gv.shape[0]:
        raise ShapeError(
            f"batchnorm channel mismatch: input c={xv.shape[1]}, gamma c={gv.shape[0]}"
        )
    if training:
        mean = xv.mean(axis=(0, 2, 3))
        var = xv.var(axis=(0, 2, 3))
        m = state.momentum
        state.running_mean *= 1.0 - m
        state.running_mean += (m * mean).astype(state.running_mean.dtype)
        state.running_var *= 1.0 - m
        state.running_var += (m * var).astype(state.running_var.dtype)
    else:
        mean = state.running_mean.astype(xv.dtype)
        var = state.running_var.astype(xv.dtype)
    inv = 1.0 / np.sqrt(var + state.eps)
    xhat = (xv - mean.reshape(1, -1, 1, 1)) * inv.reshape(1, -1, 1, 1)
    out = gv.reshape(1, -1, 1, 1) * xhat + beta.value.reshape(1, -1, 1, 1)
    return x.tape.record("batchnorm2d", (x, gamma, beta), out,
                         ctx=(xhat, inv, gv, training))


def _batchnorm2d_bwd(node: TapeNode, g: np.ndarray):
    xhat, inv, gamma, training = node.ctx
    dgamma = (g * xhat).sum(axis=(0, 2, 3))
    dbeta = g.sum(axis=(0, 2, 3))
    scale = (gamma * inv).reshape(1, -1, 1, 1)
    if training:
        # full batch-statistics derivative: mean and variance depend on x
        m = g.shape[0] * g.shape[2] * g.shape[3]
        dx = scale * (
            g
            - (dbeta.reshape(1, -1, 1, 1) + xhat * dgamma.reshape(1, -1, 1, 1)) / m
        )
    else:
        dx = scale * g
    return dx, dgamma, dbeta


def relu(x: Var) -> Var:
    return x.tape.record("relu", (x,), np.maximum(x.value, 0), ctx=(x.value,))


def _relu_bwd(node: TapeNode, g: np.ndarray):
    (xv,) = node.ctx
    # derivative at exactly 0 is defined as 0
    return (g * (xv > 0),)


def sigmoid(x: Var) -> Var:
    """Elementwise logistic function 1 / (1 + e^-x)."""
    xv = x.value
    # numerically stable split; extreme inputs can still round to exactly
    # 0.0/1.0 at float precision, which the losses clamp upstream
    out = np.empty_like(xv)
    pos = xv >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xv[pos]))
    ex = np.exp(xv[~pos])
    out[~pos] = ex / (1.0 + ex)
    return x.tape.record("sigmoid", (x,), out, ctx=(out,))


def _sigmoid_bwd(node: TapeNode, g: np.ndarray):
    (s,) = node.ctx
    return (g * s * (1.0 - s),)


def global_avg_pool(x: Var) -> Var:
    """Mean over the spatial extent per channel; output is (n, c, 1, 1)."""
    return x.tape.record("global_avg_pool", (x,),
                         x.value.mean(axis=(2, 3), keepdims=True),
                         ctx=(x.value.shape,))


def _global_avg_pool_bwd(node: TapeNode, g: np.ndarray):
    (in_shape,) = node.ctx
    n, c, h, w = in_shape
    return (np.full(in_shape, g / (h * w), dtype=g.dtype),)


register_backward("add", _add_bwd)
register_backward("mul", _mul_bwd)
register_backward("sum_all", _sum_all_bwd)
register_backward("concat_channels", _concat_channels_bwd)
register_backward("channel_scale", _channel_scale_bwd)
register_backward("conv2d", _conv2d_bwd)
register_backward("maxpool2", _maxpool2_bwd)
register_backward("upsample_nearest2", _upsample_nearest2_bwd)
register_backward("batchnorm2d", _batchnorm2d_bwd)
register_backward("relu", _relu_bwd)
register_backward("sigmoid", _sigmoid_bwd)
register_backward("global_avg_pool", _global_avg_pool_bwd)
