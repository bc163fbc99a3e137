"""Composite blocks: conv block, crossing-aggregation node, weighted
aggregation block, and the bottom-up fusion head.

A block reads its weights by name from `params`, a mapping from
parameter names to arrays (the model's `ParamStore`), under the layer
prefix it is given: `conv_block_forward(x, params, "enc0", ...)` reads
``enc0.conv1.weight``, ``enc0.bn1.gamma`` and so on, the names the
builders in `models` register. Each op gets only the arrays it reads.

All forwards take tape handles (`Var`) and compose the ops of
`functional`, so the same code path serves training and evaluation: eval
runs it on a tape that records nothing, and `training` only switches
batch-norm behavior. The blocks re-check no shape: the builders in
`models` size every weight, and a bad shape raises `ShapeError` from the
op that reads it (`concat_channels`, `conv2d`, `add`, `maxpool2`, ...).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import functional as F
from .autograd import Var

Params = Mapping[str, np.ndarray]


def _conv(x: Var, params: Params, name: str) -> Var:
    """conv2d with `name.weight` and `name.bias` as leaves on x's tape."""
    t = x.tape
    return F.conv2d(x, t.leaf(params[f"{name}.weight"]), t.leaf(params[f"{name}.bias"]))


def _bn(x: Var, params: Params, name: str, training: bool) -> Var:
    """batchnorm2d with `name.gamma` and `name.beta` as leaves on x's
    tape, and the running statistics `name.running_mean`/`running_var`."""
    t = x.tape
    return F.batchnorm2d(x, t.leaf(params[f"{name}.gamma"]), t.leaf(params[f"{name}.beta"]),
                         params[f"{name}.running_mean"], params[f"{name}.running_var"],
                         training)


def conv_block_forward(x: Var, params: Params, name: str, training: bool) -> Var:
    """relu(bn2(conv2(relu(bn1(conv1(x)))))) under `name`, 3x3 convs."""
    h = F.relu(_bn(_conv(x, params, f"{name}.conv1"), params, f"{name}.bn1", training))
    return F.relu(_bn(_conv(h, params, f"{name}.conv2"), params, f"{name}.bn2", training))


def cam_forward(x_same_prev: Var, x_above: Var | None, x_below: Var | None,
                params: Params, name: str, training: bool) -> Var:
    """Crossing aggregation: fuse the same-level feature with a
    downsampled finer feature and an upsampled coarser feature, then add
    the result back onto the same-level input.

    The concatenation order is fixed as [same, pooled above (2x the size,
    half the channels), upsampled below (half the size)]; absent
    neighbors (top and bottom grid rows) are simply skipped. The conv
    block `name` maps the aggregate back to the node's own width: the
    residual sum forces its output channels to equal x_same_prev's, so
    the node is an identity map when the block is zero-initialized.
    """
    parts = [x_same_prev]
    if x_above is not None:
        parts.append(F.maxpool2(x_above))
    if x_below is not None:
        parts.append(F.upsample_nearest2(x_below))
    z = F.concat_channels(parts)
    del parts  # the pooled and upsampled parts die once concatenated
    return F.add(x_same_prev, conv_block_forward(z, params, name, training))


def wab_forward(x: Var, params: Params, name: str) -> Var:
    """Channel attention: squeeze to (n, c, 1, 1) via global average
    pooling, excite through the 1x1 convs `name.fc1` (c to c / r, then
    ReLU) and `name.fc2` (back to c, then sigmoid), and scale the input
    channels by the resulting weights in (0, 1)."""
    v = F.relu(_conv(F.global_avg_pool(x), params, f"{name}.fc1"))
    return F.channel_scale(x, F.sigmoid(_conv(v, params, f"{name}.fc2")))


def wam_head(per_level_feats: list[Var], params: Params) -> Var:
    """Fuse attention-gated features from the deepest level upward.

    `per_level_feats` is ordered deepest-first (level L-1 down to level
    0, spatial size doubling along the list); level i is gated by
    `wab{i}`. Once every level is gated, `fuse{i}` merges level i's gated
    feature with the upsampled running feature, for i = L-2 .. 0. The
    final 1x1 `head` plus sigmoid produces the (n, 1, H, W) probability
    map.
    """
    top = len(per_level_feats) - 1
    gated = [wab_forward(f, params, f"wab{top - k}") for k, f in enumerate(per_level_feats)]
    running = gated[0]
    for k in range(1, len(gated)):
        merged = F.concat_channels([gated[k], F.upsample_nearest2(running)])
        running = F.relu(_conv(merged, params, f"fuse{top - k}"))
    return F.sigmoid(_conv(running, params, "head"))
