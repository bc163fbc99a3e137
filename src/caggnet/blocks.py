"""Composite blocks: ConvBlock, crossing-aggregation node, weighted
aggregation block, and the bottom-up fusion head, plus the parameter
containers they read (`Conv2dParams`, `BatchNormState`, `ConvBlock`,
`WabParams`). A container is a view of `ParamStore` arrays; the blocks
pass each op only the arrays it reads.

All forwards take tape handles (`Var`) and compose the ops of
`functional`, so the same code path serves training and evaluation: eval
runs it on a tape that records nothing, and `training` only switches
batch-norm behavior. The blocks re-check no shape: the builders in
`models` size every weight, and a bad shape raises `ShapeError` from the
op that reads it (`concat_channels`, `conv2d`, `add`, `maxpool2`, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autograd import Var


@dataclass
class Conv2dParams:
    """Square-kernel convolution weights: (c_out, c_in, k, k) plus bias.

    k = 3 implies zero padding 1, k = 1 implies padding 0; stride is
    always 1, so spatial extents are preserved.
    """

    weight: np.ndarray
    bias: np.ndarray


@dataclass
class BatchNormState:
    """Per-channel batch norm: learnable gamma and beta, and the running
    statistics that `functional.batchnorm2d` updates in training mode and
    reads in eval mode."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class ConvBlock:
    """Two 3x3 conv layers, each followed by batch norm and ReLU."""

    conv1: Conv2dParams
    bn1: BatchNormState
    conv2: Conv2dParams
    bn2: BatchNormState


@dataclass
class WabParams:
    """Channel-attention gate parameters: two 1x1 convs around a global
    average pool; fc1 narrows c channels to c / r and fc2 widens them back."""

    fc1: Conv2dParams
    fc2: Conv2dParams


def _conv(x: Var, p: Conv2dParams) -> Var:
    """conv2d with the layer's weight and bias as leaves on x's tape."""
    t = x.tape
    return F.conv2d(x, t.leaf(p.weight), t.leaf(p.bias))


def _bn(x: Var, s: BatchNormState, training: bool) -> Var:
    """batchnorm2d with the layer's gamma and beta as leaves on x's tape."""
    t = x.tape
    return F.batchnorm2d(x, t.leaf(s.gamma), t.leaf(s.beta), s.running_mean,
                         s.running_var, training)


def conv_block_forward(x: Var, b: ConvBlock, training: bool) -> Var:
    """relu(bn2(conv2(relu(bn1(conv1(x)))))), spatial size preserved."""
    h = F.relu(_bn(_conv(x, b.conv1), b.bn1, training))
    return F.relu(_bn(_conv(h, b.conv2), b.bn2, training))


def cam_forward(x_same_prev: Var, x_above: Var | None, x_below: Var | None,
                body: ConvBlock, training: bool) -> Var:
    """Crossing aggregation: fuse the same-level feature with a
    downsampled finer feature and an upsampled coarser feature, then add
    the result back onto the same-level input.

    The concatenation order is fixed as [same, pooled above (2x the size,
    half the channels), upsampled below (half the size)]; absent
    neighbors (top and bottom grid rows) are simply skipped. `body` maps
    the aggregate back to the node's own width: the residual sum forces
    its output channels to equal x_same_prev's, so the node is an
    identity map when its body is zero-initialized.
    """
    parts = [x_same_prev]
    if x_above is not None:
        parts.append(F.maxpool2(x_above))
    if x_below is not None:
        parts.append(F.upsample_nearest2(x_below))
    z = parts[0] if len(parts) == 1 else F.concat_channels(parts)
    del parts  # the pooled and upsampled parts die once concatenated
    return F.add(x_same_prev, conv_block_forward(z, body, training))


def wab_forward(x: Var, p: WabParams) -> Var:
    """Channel attention: squeeze to (n, c, 1, 1) via global average
    pooling, excite through 1x1 convs (ReLU then sigmoid), and scale the
    input channels by the resulting weights in (0, 1)."""
    v = F.relu(_conv(F.global_avg_pool(x), p.fc1))
    return F.channel_scale(x, F.sigmoid(_conv(v, p.fc2)))


def wam_head(per_level_feats: list[Var], wabs: list[WabParams],
             fuse_convs: list[Conv2dParams], head: Conv2dParams) -> Var:
    """Fuse attention-gated features from the deepest level upward.

    `per_level_feats` and `wabs` are ordered deepest-first (level L-1
    down to level 0, spatial size doubling along the list), one gate per
    level. `fuse_convs` is indexed by level: fuse_convs[i] merges level
    i's gated feature with the upsampled running feature, for
    i = L-2 .. 0. The final 1x1 `head` plus sigmoid produces the
    (n, 1, H, W) probability map.
    """
    gated = [wab_forward(f, w) for f, w in zip(per_level_feats, wabs)]
    running = gated[0]
    for k in range(1, len(gated)):
        level = len(gated) - 1 - k  # gated[k] sits at this level
        merged = F.concat_channels([gated[k], F.upsample_nearest2(running)])
        running = F.relu(_conv(merged, fuse_convs[level]))
    return F.sigmoid(_conv(running, head))
