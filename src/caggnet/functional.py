"""The differentiable ops, each defined once.

Every op is one forward function that takes `Var` operands, computes its
value and records a node on the operands' tape, plus one backward rule,
registered in `autograd.RULES` under the op's name at import time.
Training, eval and one-off calls all go through these functions; eval
runs them on a ``Tape(grad=False)``, which checks operands but keeps
nothing. An op takes only the arrays it reads: `batchnorm2d` gets its
two running-statistic arrays, which `blocks` looks up by name. Every op
here runs in a model, a block or a loss; the gradient checker weights an
op's output with a cotangent of its own, so no op exists to reduce an
output to a scalar.

Every convolution path yields the dense channel-major (c_out, n*h*w)
output that `_to_nchw` turns into NCHW. Float64 adds one input channel
and tap at a time over that channel's `_unfold` rows, in the fixed
(ci, ki, kj) order of `gradcheck.conv2d_reference`, so the two are
bit-identical; gradient checking and the conv equivalence test rely on
it.

Float32 (the default precision) is BLAS matmuls over the narrower side,
and rounds differently. With c_in <= c_out it is the kernel times
`_unfold(x)`, im2col's k*k*c_in rows over the pixels of the batch
(Chellapilla et al., 2006); a tie goes to im2col, which measured faster.
The columns are built one band of whole output rows at a time, at most
`COLS_BUDGET` values, as MEC lowers a conv in parts (Cho and Brand, 2017,
arXiv:1706.06873). A band is a group of whole images or a run of rows of
one image, so its output is one contiguous range of columns, which its
matmul writes in place. A band is the same GEMM over fewer columns, so
the bits do not change, and a layer that fits one band does one matmul.
With c_in > c_out it is `_kn2row` (Vasudevan, Anderson and Gregg, 2017,
arXiv:1704.04428): the tap-stacked k*k*c_out x c_in kernel times the
unpadded channel-major input, then one shifted add per tap into the
output rows, with the pixels the padding would have zeroed masked out
first. Its product stays whole. Banding it with 2-D window adds took
1.55 -> 2.85 ms at 1x24->8 on 128x128. And glibc's mmap and trim
thresholds follow the largest freed block: with no large temporary left,
the heap would shrink and regrow on every pass.

At every conv of the models on images of 4x4 pixels or more, a batch
gives each image the bits it gets alone, which chunked evaluation
relies on. The attention gates' 1x1 images are the exception: one image
is one column, which numpy hands to BLAS's gemv instead of gemm. Images
under 4x4 can round differently too, since BLAS may take another kernel
for so few columns.

The backward has one rule for both dtypes: one `_unfold` of the output
gradient `g`, whose k*k*c_out rows are g shifted by each tap of the
flipped kernel. The input gradient is the flipped kernel times these
columns and the weight gradient the columns times the channel-major
input: two BLAS matmuls.
"""

from __future__ import annotations

import numpy as np

from .autograd import TapeNode, Var, register_backward
from .tensor_core import ShapeError

BN_MOMENTUM = 0.1
BN_EPS = 1e-5
# values in one band of float32 im2col columns: 2 MB, one core's L2 cache
COLS_BUDGET = 2**19


def add(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return a.tape.record("add", (a, b), a.value + b.value)


def _add_bwd(node: TapeNode, g: np.ndarray):
    return g, g


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


def _to_nchw(flat: np.ndarray, shape) -> np.ndarray:
    """The NCHW `shape` copy of a dense channel-major (c, n*h*w) array."""
    n, c, h, wd = shape
    return np.ascontiguousarray(flat.reshape(c, n, h, wd).transpose(1, 0, 2, 3))


def _unfold(a: np.ndarray, k: int, rows: tuple[int, int] | None = None) -> np.ndarray:
    """im2col of an NCHW array for a same-size k x k kernel: the dense
    (k*k*c, n*h*w) columns whose block (ki, kj) is the zero-padded `a`
    shifted by tap (ki, kj), channel-major over every pixel of the batch.
    With `rows` = (r0, r1), only output rows r0..r1-1 of every image: the
    band's halo rows come from the image where it has them."""
    n, c, h, wd = a.shape
    pad = (k - 1) // 2
    r0, r1 = rows or (0, h)
    hb = r1 - r0
    ap = a.transpose(1, 0, 2, 3)[:, :, r0:r1]
    if pad:
        s0, s1 = max(r0 - pad, 0), min(r1 + pad, h)
        ap = np.zeros((c, n, hb + 2 * pad, wd + 2 * pad), dtype=a.dtype)
        ap[:, :, s0 - r0 + pad:s1 - r0 + pad, pad:pad + wd] = \
            a[:, :, s0:s1].transpose(1, 0, 2, 3)
    cols = np.empty((k, k, c, n, hb, wd), dtype=a.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[ki, kj] = ap[:, :, ki:ki + hb, kj:kj + wd]
    return cols.reshape(k * k * c, n * hb * wd)


def _kn2row(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The channel-major (c_out, n*h*w) same-size convolution of `x` as
    one product of the tap-stacked kernel with the unpadded input, then
    one shifted add per tap along the flat pixel axis. Before a tap's
    add, the pixels of its product that the flat shift would carry across
    a row or image edge are zeroed; those are the padding's terms."""
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    pad, m = (k - 1) // 2, n * h * wd
    y = w.transpose(2, 3, 0, 1).reshape(k * k * c_out, c_in) @ \
        x.transpose(1, 0, 2, 3).reshape(c_in, m)
    y = y.reshape(k, k, c_out, n, h, wd)
    out = np.repeat(b.reshape(c_out, 1), m, axis=1)
    for ki in range(k):
        for kj in range(k):
            di, dj = ki - pad, kj - pad
            s = di * wd + dj
            if abs(s) >= m:
                continue
            yt = y[ki, kj]
            yt[:, :, :max(di, 0)] = 0
            yt[:, :, h + min(di, 0):] = 0
            yt[:, :, :, :max(dj, 0)] = 0
            yt[:, :, :, wd + min(dj, 0):] = 0
            lo, hi = max(-s, 0), m - max(s, 0)
            out[:, lo:hi] += yt.reshape(c_out, m)[:, lo + s:hi + s]
    return out


def conv2d(x: Var, weight: Var, bias: Var) -> Var:
    """Same-size cross-correlation with a (c_out, c_in, k, k) weight plus
    bias; k = 3 pads by 1, k = 1 by 0, stride 1."""
    xv, w, b = x.value, weight.value, bias.value
    n, c_in, h, wd = xv.shape
    c_out, c_in2, k, _ = w.shape
    if c_in2 != c_in:
        raise ShapeError(f"conv2d channel mismatch: input c={c_in}, weight c_in={c_in2}")
    if xv.dtype == np.float64:
        # fixed (ci, ki, kj) accumulation order; see module docstring
        y = np.repeat(b.reshape(c_out, 1), n * h * wd, axis=1)
        for ci in range(c_in):
            taps = w[:, ci].reshape(c_out, k * k, 1)
            for t, col in enumerate(_unfold(xv[:, ci:ci + 1], k)):
                y += col * taps[:, t]
    elif c_in <= c_out:
        # im2col in bands of whole output rows; see module docstring
        wm = w.transpose(0, 2, 3, 1).reshape(c_out, -1)
        y = np.empty((c_out, n * h * wd), dtype=xv.dtype)
        rows = max(COLS_BUDGET // (wm.shape[1] * wd), 1)
        imgs, rows = max(rows // h, 1), min(rows, h)
        for i in range(0, n, imgs):
            for r in range(0, h, rows):
                cols = _unfold(xv[i:i + imgs], k, (r, min(r + rows, h)))
                lo = (i * h + r) * wd
                np.matmul(wm, cols, out=y[:, lo:lo + cols.shape[1]])
        y += b.reshape(c_out, 1)
    else:
        y = _kn2row(xv, w, b)
    out = _to_nchw(y, (n, c_out, h, wd))
    return x.tape.record("conv2d", (x, weight, bias), out, ctx=(xv, w))


def _conv2d_bwd(node: TapeNode, g: np.ndarray):
    x, w = node.ctx
    c_out, c_in, k, _ = w.shape
    # block (ki, kj) of `cols` is g shifted by tap (ki, kj) of the flipped
    # kernel, over every input pixel
    cols = _unfold(g, k)
    wf = w[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c_in, -1)
    gx = _to_nchw(wf @ cols, x.shape)
    gw = cols @ x.transpose(1, 0, 2, 3).reshape(c_in, -1).T
    gw = gw.reshape(k, k, c_out, c_in)[::-1, ::-1].transpose(2, 3, 0, 1)
    return gx, np.ascontiguousarray(gw), g.sum(axis=(0, 2, 3))


def _quads(a: np.ndarray):
    """The four stride-2 views of `a`'s spatial axes in 2x2 window scan
    order (row-major): view q holds offset (q // 2, q % 2) of every
    window."""
    return (a[:, :, 0::2, 0::2], a[:, :, 0::2, 1::2],
            a[:, :, 1::2, 0::2], a[:, :, 1::2, 1::2])


def maxpool2(x: Var) -> Var:
    """2x2 max pooling with stride 2: the elementwise maximum of the four
    `_quads` views. The backward routes each window's gradient to its
    first maximum in scan order, rebuilt from the input and the output,
    which are on the tape anyway."""
    xv = x.value
    h, w = xv.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 needs even spatial extents, got {h}x{w}")
    a, b, c, d = _quads(xv)
    out = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return x.tape.record("maxpool2", (x,), out, ctx=(xv, out))


def _maxpool2_bwd(node: TapeNode, g: np.ndarray):
    xv, out = node.ctx
    gx = np.zeros(xv.shape, dtype=g.dtype)
    free = np.ones(out.shape, dtype=bool)  # windows whose maximum is unclaimed
    for xq, gq in zip(_quads(xv), _quads(gx)):
        hit = free & (xq == out)
        np.copyto(gq, g, where=hit)
        free &= ~hit
    return (gx,)


def upsample_nearest2(x: Var) -> Var:
    """Replicate every pixel into a 2x2 block (nearest-neighbor 2x),
    written through the four `_quads` views of the output."""
    n, c, h, w = x.value.shape
    out = np.empty((n, c, 2 * h, 2 * w), dtype=x.value.dtype)
    for q in _quads(out):
        q[...] = x.value
    return x.tape.record("upsample_nearest2", (x,), out)


def _upsample_nearest2_bwd(node: TapeNode, g: np.ndarray):
    a, b, c, d = _quads(g)
    return ((a + b) + (c + d),)


def batchnorm2d(x: Var, gamma: Var, beta: Var, running_mean: np.ndarray,
                running_var: np.ndarray, training: bool) -> Var:
    """Normalize per channel: batch statistics in training mode, which
    also updates `running_mean` and `running_var` in place with
    `BN_MOMENTUM`, the running statistics in eval mode. Normalization
    uses the biased batch variance; running_var stores the same quantity."""
    xv, gv = x.value, gamma.value
    if xv.shape[1] != gv.shape[0]:
        raise ShapeError(
            f"batchnorm channel mismatch: input c={xv.shape[1]}, gamma c={gv.shape[0]}"
        )
    if training:
        # the variance reuses the centred input; numpy's `var` computes
        # the same sum of squared deviations, so the bits are its bits
        mean = xv.mean(axis=(0, 2, 3), keepdims=True)
        xc = xv - mean
        var = np.square(xc).mean(axis=(0, 2, 3))
        m = BN_MOMENTUM
        running_mean *= 1.0 - m
        running_mean += (m * mean.reshape(-1)).astype(running_mean.dtype)
        running_var *= 1.0 - m
        running_var += (m * var).astype(running_var.dtype)
    else:
        xc = xv - running_mean.astype(xv.dtype).reshape(1, -1, 1, 1)
        var = running_var.astype(xv.dtype)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = xc * inv.reshape(1, -1, 1, 1)
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
register_backward("concat_channels", _concat_channels_bwd)
register_backward("channel_scale", _channel_scale_bwd)
register_backward("conv2d", _conv2d_bwd)
register_backward("maxpool2", _maxpool2_bwd)
register_backward("upsample_nearest2", _upsample_nearest2_bwd)
register_backward("batchnorm2d", _batchnorm2d_bwd)
register_backward("relu", _relu_bwd)
register_backward("sigmoid", _sigmoid_bwd)
register_backward("global_avg_pool", _global_avg_pool_bwd)
