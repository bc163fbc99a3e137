"""Finite-difference validation suites for every differentiable op,
block, and model.

Each op and block check is one `_check_op` call: a name, a function of
the leaf Vars, and the float64 inputs to check it at. `_check_op` turns
that into the builder of the op's output graph and hands it to
`finite_diff_check`, as `_check_full_model` does for a whole model's
loss; the checker weights an output of any shape. The op checks form one
table in `op_checks`, which draws every input from one generator in table
order. Inputs are constructed to stay away from the non-smooth points of
relu/maxpool (values come from shuffled evenly spaced grids, so gaps are
far larger than the perturbation step) and from the probability clamps
in the losses.

`conv2d_reference` is the convolution oracle: a naive scalar loop kept
free of any code shared with `functional.conv2d`, so that in double
precision the two must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import train as T
from .autograd import CheckReport, Tape, finite_diff_check
from .blocks import cam_forward, conv_block_forward, wab_forward, wam_head
from .models import (ModelConfig, ParamStore, _init_conv_block, _init_wab,
                     build_caggnet, build_unet, forward)
from .tensor_core import ShapeError, Tensor4


def conv2d_reference(x: Tensor4, weight: np.ndarray, bias: np.ndarray) -> Tensor4:
    """Naive scalar-loop convolution used as the independent oracle.

    Walks every output pixel and accumulates bias + sum over (ci, ki, kj)
    with Python float arithmetic. Double precision only; kept free of any
    shared code with the production kernel.
    """
    xd = x.data
    if xd.dtype != np.float64:
        raise ShapeError("conv2d_reference is double precision only")
    n, c_in, h, wd = xd.shape
    c_out, c_in2, k, _ = weight.shape
    if c_in2 != c_in:
        raise ShapeError(f"conv2d channel mismatch: input c={c_in}, weight c_in={c_in2}")
    pad = (k - 1) // 2
    out = np.empty((n, c_out, h, wd), dtype=np.float64)
    for b_i in range(n):
        for co in range(c_out):
            for i in range(h):
                for j in range(wd):
                    acc = float(bias[co])
                    for ci in range(c_in):
                        for ki in range(k):
                            for kj in range(k):
                                ii = i + ki - pad
                                jj = j + kj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += float(xd[b_i, ci, ii, jj]) * float(
                                        weight[co, ci, ki, kj]
                                    )
                    out[b_i, co, i, j] = acc
    return Tensor4(out)


def _spread(rng: np.random.Generator, shape, low=-1.0, high=1.0,
            avoid_zero=False) -> np.ndarray:
    """Shuffled evenly spaced values in [low, high]; adjacent values are
    separated by at least (high-low)/size, which keeps finite differences
    away from relu/maxpool kinks."""
    size = int(np.prod(shape))
    vals = np.linspace(low, high, size)
    if avoid_zero:
        vals = vals + (high - low) / (2.0 * size)
        vals = vals[np.abs(vals) > (high - low) / (4.0 * size)]
        while vals.size < size:
            vals = np.concatenate([vals, vals[: size - vals.size] * 1.5])
    rng.shuffle(vals)
    return vals[:size].reshape(shape).astype(np.float64)


# --- op-level checks ---------------------------------------------------------

def _check_op(name, op, params) -> CheckReport:
    """Check `op`, which maps a dict of leaf Vars (one per entry of
    `params`) to a Var of any shape."""
    def build(p):
        t = Tape()
        lv = {k: t.leaf(arr) for k, arr in p.items()}
        return op(lv), lv

    return finite_diff_check(build, params, name=name)


def _bn_case(rng, training: bool):
    params = {
        "x": _spread(rng, (3, 2, 4, 4)),
        "gamma": _spread(rng, (2,), 0.5, 1.5),
        "beta": _spread(rng, (2,), -0.3, 0.3),
    }
    mean, var = np.zeros(2), np.ones(2)
    if not training:
        mean, var = rng.uniform(-0.5, 0.5, 2), rng.uniform(0.5, 1.5, 2)
    return (lambda v: F.batchnorm2d(v["x"], v["gamma"], v["beta"], mean, var,
                                    training)), params


def _loss_case(rng, loss, *args):
    params = {"p": _spread(rng, (1, 1, 6, 6), 0.05, 0.95)}
    target = (rng.random((1, 1, 6, 6)) < 0.4).astype(np.float64)
    return (lambda v: loss(v["p"], target, *args)), params


def op_checks(seed: int = 0) -> list[CheckReport]:
    """One finite-difference report per registered differentiable op."""
    rng = np.random.default_rng(seed)

    def s(shape, *args, **kwargs):
        return _spread(rng, shape, *args, **kwargs)

    def conv(v):
        return F.conv2d(v["x"], v["w"], v["b"])

    return [
        _check_op("add", lambda v: F.add(v["a"], v["b"]),
                  {"a": s((2, 3, 4, 4)), "b": s((2, 3, 4, 4))}),
        _check_op("concat_channels", lambda v: F.concat_channels([v["a"], v["b"]]),
                  {"a": s((2, 2, 4, 4)), "b": s((2, 3, 4, 4))}),
        _check_op("channel_scale", lambda v: F.channel_scale(v["x"], v["w"]),
                  {"x": s((2, 3, 4, 4)), "w": s((2, 3, 1, 1), 0.1, 0.9)}),
        _check_op("conv2d_k3", conv,
                  {"x": s((2, 3, 6, 6)), "w": s((4, 3, 3, 3)), "b": s((4,))}),
        _check_op("conv2d_k1", conv,
                  {"x": s((2, 3, 6, 6)), "w": s((4, 3, 1, 1)), "b": s((4,))}),
        _check_op("maxpool2", lambda v: F.maxpool2(v["x"]),
                  {"x": s((2, 3, 6, 6))}),
        _check_op("upsample_nearest2", lambda v: F.upsample_nearest2(v["x"]),
                  {"x": s((2, 3, 4, 4))}),
        _check_op("batchnorm2d_train", *_bn_case(rng, True)),
        _check_op("batchnorm2d_eval", *_bn_case(rng, False)),
        _check_op("relu", lambda v: F.relu(v["x"]),
                  {"x": s((2, 3, 4, 4), avoid_zero=True)}),
        _check_op("sigmoid", lambda v: F.sigmoid(v["x"]),
                  {"x": s((2, 3, 4, 4), -3.0, 3.0)}),
        _check_op("global_avg_pool", lambda v: F.global_avg_pool(v["x"]),
                  {"x": s((2, 3, 4, 4))}),
        _check_op("bce_loss", *_loss_case(rng, T.traced_bce_loss)),
        _check_op("focal_loss_g2",
                  *_loss_case(rng, T.traced_focal_loss,
                              T.FocalLossConfig(alpha=0.25, gamma=2.0))),
        _check_op("focal_loss_g0",
                  *_loss_case(rng, T.traced_focal_loss,
                              T.FocalLossConfig(alpha=0.25, gamma=0.0))),
    ]


# --- block-level checks --------------------------------------------------------

def _check_conv_block(rng):
    cfg = ModelConfig(levels=2, columns=1, base_channels=2, in_channels=1,
                      seed=7, dtype="double")
    store = build_caggnet(cfg).params
    x = _spread(rng, (2, 1, 6, 6))
    params = {name: arr for name, arr in store.named_trainable()
              if name.startswith("enc0.")}
    params["x"] = x
    return _check_op("conv_block",
                     lambda v: conv_block_forward(v["x"], store, "enc0", training=True),
                     params)


def _check_cam(rng, above: bool, below: bool):
    c = 4
    z = c + (c // 2 if above else 0) + (2 * c if below else 0)
    # standalone node body with the right widths, via a scratch store
    store = ParamStore()
    _init_conv_block(store, "body", z, c, np.random.default_rng(13), np.float64)
    params = dict(store.named_trainable())
    params["same"] = _spread(rng, (1, c, 4, 4))
    if above:
        params["above"] = _spread(rng, (1, c // 2, 8, 8))
    if below:
        params["below"] = _spread(rng, (1, 2 * c, 2, 2))

    tag = f"cam_{'a' if above else '-'}{'b' if below else '-'}"
    return _check_op(tag, lambda v: cam_forward(v["same"], v.get("above"),
                                                v.get("below"), store, "body",
                                                training=True),
                     params)


def _check_wab(rng):
    store = ParamStore()
    _init_wab(store, "wab", 4, 2, np.random.default_rng(17), np.float64)
    params = dict(store.named_trainable())
    params["x"] = _spread(rng, (2, 4, 4, 4))
    return _check_op("wab", lambda v: wab_forward(v["x"], store, "wab"), params)


def _check_wam(rng):
    cfg = ModelConfig(levels=2, columns=1, base_channels=2, in_channels=1,
                      seed=19, dtype="double")
    store = build_caggnet(cfg).params
    params = {name: arr for name, arr in store.named_trainable()
              if name.startswith(("wab", "fuse", "head"))}
    params["f0"] = _spread(rng, (1, 2, 8, 8))
    params["f1"] = _spread(rng, (1, 4, 4, 4))
    return _check_op("wam_head",
                     lambda v: wam_head([v["f1"], v["f0"]], store),  # deepest first
                     params)


def block_checks(seed: int = 0) -> list[CheckReport]:
    rng = np.random.default_rng(seed)
    return [
        _check_conv_block(rng),
        _check_cam(rng, True, True),
        _check_cam(rng, False, True),   # top level
        _check_cam(rng, True, False),   # bottom level
        _check_cam(rng, False, False),
        _check_wab(rng),
        _check_wam(rng),
    ]


# --- model-level checks --------------------------------------------------------

def _check_full_model(arch: str):
    cfg = ModelConfig(levels=2, columns=1, base_channels=2, in_channels=1,
                      seed=23, dtype="double")
    model = build_caggnet(cfg) if arch == "caggnet" else build_unet(cfg)
    rng = np.random.default_rng(29)
    x = Tensor4(rng.uniform(0.0, 1.0, size=(1, 1, 8, 8)))
    target = (rng.random((1, 1, 8, 8)) < 0.4).astype(np.float64)
    loss_cfg = T.FocalLossConfig(alpha=0.25, gamma=2.0)

    def build(p):
        fp = forward(model, x, training=True)
        loss = T.traced_focal_loss(fp.probs_var, target, loss_cfg)
        leaves = {name: fp.tape.leaf(arr)
                  for name, arr in model.params.named_trainable()}
        return loss, leaves

    return finite_diff_check(build, dict(model.params.named_trainable()),
                             name=f"{arch}_focal")


def model_checks(seed: int = 0) -> list[CheckReport]:
    """Both archs on fixed weights, image and target; `seed` is taken for
    `run_scope`'s sake and changes none of them."""
    return [_check_full_model("caggnet"), _check_full_model("unet")]


SCOPES = {
    "ops": op_checks,
    "blocks": block_checks,
    "model": model_checks,
}


def run_scope(scope: str, seed: int = 0) -> list[CheckReport]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {sorted(SCOPES)}")
    return SCOPES[scope](seed)
