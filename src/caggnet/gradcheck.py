"""Finite-difference validation suites for every differentiable op,
block, and model.

Each entry builds float64 parameters and a scalar loss closure, then runs
`finite_diff_check`. Inputs are constructed to stay away from the
non-smooth points of relu/maxpool (values come from shuffled evenly
spaced grids, so gaps are far larger than the perturbation step) and from
the probability clamps in the losses. Outputs are reduced to a scalar
through a fixed random weighting so transposed-index mistakes cannot
cancel out.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import train as T
from .autograd import CheckReport, Tape, backward, finite_diff_check
from .blocks import cam_forward, conv_block_forward, wab_forward, wam_head
from .models import ModelConfig, build_caggnet, build_unet, forward
from .nn_ops import BatchNormState, Conv2dParams
from .tensor_core import Tensor4


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


def _weighted_scalar(out, rng: np.random.Generator):
    """Reduce a Var to a scalar via a fixed random linear functional."""
    r = out.tape.leaf(rng.uniform(0.5, 1.5, size=out.value.shape))
    return F.sum_all(F.mul(out, r))


def _run_check(name, params, build, eps=1e-5, tol=1e-4, max_coords=256,
               seed=0) -> CheckReport:
    def f(p, need_grad=False):
        loss_var, leaves = build(p)
        val = float(loss_var.value.reshape(()))
        if not need_grad:
            return val
        grads = backward(loss_var.tape, loss_var)
        return val, {n: grads.get(v.id) for n, v in leaves.items()}

    return finite_diff_check(f, params, eps=eps, tol=tol,
                             max_coords=max_coords,
                             rng=np.random.default_rng(seed), name=name)


def _leaves(tape: Tape, params: dict) -> dict:
    return {name: tape.leaf(arr) for name, arr in params.items()}


# --- op-level checks ---------------------------------------------------------

def _check_add(rng):
    params = {"a": _spread(rng, (2, 3, 4, 4)), "b": _spread(rng, (2, 3, 4, 4))}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.add(lv["a"], lv["b"]),
                                np.random.default_rng(1)), lv

    return _run_check("add", params, build)


def _check_mul(rng):
    params = {"a": _spread(rng, (1, 2, 4, 4)), "b": _spread(rng, (1, 2, 4, 4))}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.mul(lv["a"], lv["b"]),
                                np.random.default_rng(1)), lv

    return _run_check("mul", params, build)


def _check_sum_all(rng):
    params = {"a": _spread(rng, (2, 2, 3, 3))}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return F.sum_all(lv["a"]), lv

    return _run_check("sum_all", params, build)


def _check_concat_channels(rng):
    params = {"a": _spread(rng, (2, 2, 4, 4)), "b": _spread(rng, (2, 3, 4, 4))}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.concat_channels([lv["a"], lv["b"]]),
                                np.random.default_rng(1)), lv

    return _run_check("concat_channels", params, build)


def _check_channel_scale(rng):
    params = {"x": _spread(rng, (2, 3, 4, 4)),
              "w": _spread(rng, (2, 3, 1, 1), 0.1, 0.9)}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.channel_scale(lv["x"], lv["w"]),
                                np.random.default_rng(1)), lv

    return _run_check("channel_scale", params, build)


def _check_conv2d(rng, k: int):
    params = {
        "x": _spread(rng, (2, 3, 6, 6)),
        "w": _spread(rng, (4, 3, k, k)),
        "b": _spread(rng, (4,)),
    }

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.conv2d(lv["x"], lv["w"], lv["b"]),
                                np.random.default_rng(1)), lv

    return _run_check(f"conv2d_k{k}", params, build)


def _check_maxpool2(rng):
    params = {"x": _spread(rng, (2, 3, 6, 6))}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.maxpool2(lv["x"]),
                                np.random.default_rng(1)), lv

    return _run_check("maxpool2", params, build)


def _check_upsample_nearest2(rng):
    params = {"x": _spread(rng, (2, 3, 4, 4))}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.upsample_nearest2(lv["x"]),
                                np.random.default_rng(1)), lv

    return _run_check("upsample_nearest2", params, build)


def _bn_state(c: int) -> BatchNormState:
    return BatchNormState(
        gamma=np.ones(c), beta=np.zeros(c),
        running_mean=np.zeros(c), running_var=np.ones(c),
    )


def _check_batchnorm2d(rng, training: bool):
    params = {
        "x": _spread(rng, (3, 2, 4, 4)),
        "gamma": _spread(rng, (2,), 0.5, 1.5),
        "beta": _spread(rng, (2,), -0.3, 0.3),
    }
    state = _bn_state(2)
    if not training:
        state.running_mean = rng.uniform(-0.5, 0.5, 2)
        state.running_var = rng.uniform(0.5, 1.5, 2)

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        out = F.batchnorm2d(lv["x"], lv["gamma"], lv["beta"], state, training)
        return _weighted_scalar(out, np.random.default_rng(1)), lv

    mode = "train" if training else "eval"
    return _run_check(f"batchnorm2d_{mode}", params, build)


def _check_relu(rng):
    params = {"x": _spread(rng, (2, 3, 4, 4), avoid_zero=True)}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.relu(lv["x"]), np.random.default_rng(1)), lv

    return _run_check("relu", params, build)


def _check_sigmoid(rng):
    params = {"x": _spread(rng, (2, 3, 4, 4), -3.0, 3.0)}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.sigmoid(lv["x"]), np.random.default_rng(1)), lv

    return _run_check("sigmoid", params, build)


def _check_global_avg_pool(rng):
    params = {"x": _spread(rng, (2, 3, 4, 4))}

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return _weighted_scalar(F.global_avg_pool(lv["x"]),
                                np.random.default_rng(1)), lv

    return _run_check("global_avg_pool", params, build)


def _loss_target(rng, shape) -> np.ndarray:
    return (rng.random(shape) < 0.4).astype(np.float64)


def _check_bce_loss(rng):
    params = {"p": _spread(rng, (1, 1, 6, 6), 0.05, 0.95)}
    target = _loss_target(rng, (1, 1, 6, 6))

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return T.traced_bce_loss(lv["p"], target), lv

    return _run_check("bce_loss", params, build)


def _check_focal_loss(rng, gamma: float):
    params = {"p": _spread(rng, (1, 1, 6, 6), 0.05, 0.95)}
    target = _loss_target(rng, (1, 1, 6, 6))
    cfg = T.FocalLossConfig(alpha=0.25, gamma=gamma)

    def build(p):
        t = Tape()
        lv = _leaves(t, p)
        return T.traced_focal_loss(lv["p"], target, cfg), lv

    return _run_check(f"focal_loss_g{gamma:g}", params, build)


def op_checks(seed: int = 0) -> list[CheckReport]:
    """One finite-difference report per registered differentiable op."""
    rng = np.random.default_rng(seed)
    return [
        _check_add(rng),
        _check_mul(rng),
        _check_sum_all(rng),
        _check_concat_channels(rng),
        _check_channel_scale(rng),
        _check_conv2d(rng, 3),
        _check_conv2d(rng, 1),
        _check_maxpool2(rng),
        _check_upsample_nearest2(rng),
        _check_batchnorm2d(rng, True),
        _check_batchnorm2d(rng, False),
        _check_relu(rng),
        _check_sigmoid(rng),
        _check_global_avg_pool(rng),
        _check_bce_loss(rng),
        _check_focal_loss(rng, 2.0),
        _check_focal_loss(rng, 0.0),
    ]


# --- block-level checks --------------------------------------------------------

def _tiny_model_store_params(model) -> dict[str, np.ndarray]:
    return {name: arr for name, arr in model.params.named_trainable()}


def _check_conv_block(rng):
    cfg = ModelConfig(levels=2, columns=1, base_channels=2, in_channels=1,
                      seed=7, dtype="double")
    model = build_caggnet(cfg)
    block = model.encoder[0]
    x = _spread(rng, (2, 1, 6, 6))
    params = dict(_tiny_model_store_params(model))
    params = {k: v for k, v in params.items() if k.startswith("enc0.")}
    params["x"] = x

    def build(p):
        t = Tape()
        xv = t.leaf(p["x"])
        out = conv_block_forward(xv, block, training=True)
        leaves = {k: t.leaf(arr) for k, arr in p.items()}
        return _weighted_scalar(out, np.random.default_rng(1)), leaves

    return _run_check("conv_block", params, build)


def _make_cam_node(rng, z_channels: int, out_channels: int):
    # standalone node body with the right widths, via a scratch store
    from .models import ParamStore, _init_conv_block
    from .blocks import CamNode

    store = ParamStore()
    body = _init_conv_block(store, "body", z_channels, out_channels,
                            np.random.default_rng(13), np.float64)
    return CamNode(body=body), store


def _check_cam(rng, above: bool, below: bool):
    c = 4
    z = c + (c // 2 if above else 0) + (2 * c if below else 0)
    node, store = _make_cam_node(rng, z, c)
    params = {name: arr for name, arr in store.named_trainable()}
    params["same"] = _spread(rng, (1, c, 4, 4))
    if above:
        params["above"] = _spread(rng, (1, c // 2, 8, 8))
    if below:
        params["below"] = _spread(rng, (1, 2 * c, 2, 2))

    def build(p):
        t = Tape()
        same = t.leaf(p["same"])
        va = t.leaf(p["above"]) if above else None
        vb = t.leaf(p["below"]) if below else None
        out = cam_forward(same, va, vb, node, training=True)
        leaves = {k: t.leaf(arr) for k, arr in p.items()}
        return _weighted_scalar(out, np.random.default_rng(1)), leaves

    tag = f"cam_{'a' if above else '-'}{'b' if below else '-'}"
    return _run_check(tag, params, build)


def _check_wab(rng):
    from .models import ParamStore, _init_wab

    store = ParamStore()
    wab = _init_wab(store, "wab", 4, 2, np.random.default_rng(17), np.float64)
    params = {name: arr for name, arr in store.named_trainable()}
    params["x"] = _spread(rng, (2, 4, 4, 4))

    def build(p):
        t = Tape()
        out = wab_forward(t.leaf(p["x"]), wab)
        leaves = {k: t.leaf(arr) for k, arr in p.items()}
        return _weighted_scalar(out, np.random.default_rng(1)), leaves

    return _run_check("wab", params, build)


def _check_wam(rng):
    cfg = ModelConfig(levels=2, columns=1, base_channels=2, in_channels=1,
                      seed=19, dtype="double")
    model = build_caggnet(cfg)
    params = {name: arr for name, arr in model.params.named_trainable()
              if name.startswith(("wab", "fuse", "head"))}
    params["f0"] = _spread(rng, (1, 2, 8, 8))
    params["f1"] = _spread(rng, (1, 4, 4, 4))

    def build(p):
        t = Tape()
        feats = [t.leaf(p["f1"]), t.leaf(p["f0"])]  # deepest first
        out = wam_head(feats, model.wabs[::-1], model.fuse, model.head)
        leaves = {k: t.leaf(arr) for k, arr in p.items()}
        return _weighted_scalar(out, np.random.default_rng(1)), leaves

    return _run_check("wam_head", params, build)


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

def _check_full_model(arch: str, max_coords: int):
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

    return _run_check(f"{arch}_focal", model.params, build,
                      max_coords=max_coords)


def model_checks(seed: int = 0, max_coords: int = 256) -> list[CheckReport]:
    return [
        _check_full_model("caggnet", max_coords),
        _check_full_model("unet", max_coords),
    ]


SCOPES = {
    "ops": op_checks,
    "blocks": block_checks,
    "model": model_checks,
}


def run_scope(scope: str, seed: int = 0) -> list[CheckReport]:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; choose from {sorted(SCOPES)}")
    return SCOPES[scope](seed)
