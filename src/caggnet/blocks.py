"""Composite blocks: ConvBlock, crossing-aggregation node, weighted
aggregation block, and the bottom-up fusion head.

All forwards take tape handles (`Var`) and compose the ops of
`functional`, so the same code path serves training and evaluation: eval
runs it on a tape that records nothing, and `training` only switches
batch-norm behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import functional as F
from .autograd import Var
from .nn_ops import BatchNormState, Conv2dParams
from .tensor_core import ShapeError


@dataclass
class ConvBlock:
    """Two 3x3 conv layers, each followed by batch norm and ReLU."""

    conv1: Conv2dParams
    bn1: BatchNormState
    conv2: Conv2dParams
    bn2: BatchNormState

    def __post_init__(self):
        if not (self.conv1.c_out == self.conv2.c_in == self.conv2.c_out):
            raise ShapeError(
                "ConvBlock channel chain broken: "
                f"conv1 out={self.conv1.c_out}, conv2 in={self.conv2.c_in}, "
                f"conv2 out={self.conv2.c_out}"
            )


@dataclass
class CamNode:
    """One crossing-aggregation grid node.

    `body` maps the concatenated multi-scale input back to the node's own
    channel width so the residual sum is well defined.
    """

    body: ConvBlock


@dataclass
class WabParams:
    """Channel-attention gate parameters: two 1x1 convs around a global
    average pool, with reduction ratio `reduction`."""

    fc1: Conv2dParams
    fc2: Conv2dParams
    reduction: int

    def __post_init__(self):
        c = self.fc1.c_in
        if self.reduction < 1 or c % self.reduction:
            raise ShapeError(
                f"attention reduction {self.reduction} must divide channels {c}"
            )
        if self.fc1.c_out != c // self.reduction or self.fc2.c_out != c:
            raise ShapeError(
                f"attention conv widths {self.fc1.c_out}/{self.fc2.c_out} do not "
                f"match c={c}, r={self.reduction}"
            )


def _conv_param_vars(x: Var, p: Conv2dParams) -> tuple[Var, Var]:
    t = x.tape
    return t.leaf(p.weight), t.leaf(p.bias)


def conv_block_forward(x: Var, b: ConvBlock, training: bool) -> Var:
    """relu(bn2(conv2(relu(bn1(conv1(x)))))), spatial size preserved."""
    t = x.tape
    w1, b1 = _conv_param_vars(x, b.conv1)
    h = F.conv2d(x, w1, b1)
    h = F.batchnorm2d(h, t.leaf(b.bn1.gamma), t.leaf(b.bn1.beta), b.bn1, training)
    h = F.relu(h)
    w2, b2 = _conv_param_vars(x, b.conv2)
    h = F.conv2d(h, w2, b2)
    h = F.batchnorm2d(h, t.leaf(b.bn2.gamma), t.leaf(b.bn2.beta), b.bn2, training)
    return F.relu(h)


def cam_forward(x_same_prev: Var, x_above: Var | None, x_below: Var | None,
                node: CamNode, training: bool) -> Var:
    """Crossing aggregation: fuse the same-level feature with a
    downsampled finer feature and an upsampled coarser feature, then add
    the result back onto the same-level input.

    The concatenation order is fixed as [same, pooled above, upsampled
    below]; absent neighbors (top and bottom grid rows) are simply
    skipped. The residual sum forces the body's output channels to equal
    x_same_prev's, so the node is an identity map when its body is
    zero-initialized.
    """
    _, sc, sh, sw = x_same_prev.value.shape
    parts = [x_same_prev]
    if x_above is not None:
        _, ac, ah, aw = x_above.value.shape
        if (ah, aw) != (2 * sh, 2 * sw):
            raise ShapeError(
                f"above feature must be 2x the spatial size: got {ah}x{aw} "
                f"for a {sh}x{sw} node"
            )
        if sc % 2 or ac != sc // 2:
            raise ShapeError(
                f"above feature must have half the channels: got {ac} vs {sc}"
            )
        parts.append(F.maxpool2(x_above))
    if x_below is not None:
        _, _, bh, bw = x_below.value.shape
        if (2 * bh, 2 * bw) != (sh, sw):
            raise ShapeError(
                f"below feature must be half the spatial size: got {bh}x{bw} "
                f"for a {sh}x{sw} node"
            )
        parts.append(F.upsample_nearest2(x_below))
    z = parts[0] if len(parts) == 1 else F.concat_channels(parts)
    if z.value.shape[1] != node.body.conv1.c_in:
        raise ShapeError(
            f"aggregated input has {z.value.shape[1]} channels but the node "
            f"body expects {node.body.conv1.c_in}"
        )
    if node.body.conv2.c_out != sc:
        raise ShapeError(
            f"node body emits {node.body.conv2.c_out} channels; residual "
            f"needs {sc}"
        )
    return F.add(x_same_prev, conv_block_forward(z, node.body, training))


def wab_forward(x: Var, p: WabParams) -> Var:
    """Channel attention: squeeze to (n, c, 1, 1) via global average
    pooling, excite through 1x1 convs (ReLU then sigmoid), and scale the
    input channels by the resulting weights in (0, 1)."""
    if x.value.shape[1] != p.fc1.c_in:
        raise ShapeError(
            f"attention expects {p.fc1.c_in} channels, got {x.value.shape[1]}"
        )
    v = F.global_avg_pool(x)
    w1, b1 = _conv_param_vars(x, p.fc1)
    v = F.relu(F.conv2d(v, w1, b1))
    w2, b2 = _conv_param_vars(x, p.fc2)
    w = F.sigmoid(F.conv2d(v, w2, b2))
    return F.channel_scale(x, w)


def wam_head(per_level_feats: list[Var], wabs: list[WabParams],
             fuse_convs: list[Conv2dParams], head: Conv2dParams) -> Var:
    """Fuse attention-gated features from the deepest level upward.

    `per_level_feats` and `wabs` are ordered deepest-first (level L-1
    down to level 0, spatial size doubling along the list).
    `fuse_convs` is indexed by level: fuse_convs[i] merges level i's gated
    feature with the upsampled running feature, for i = L-2 .. 0. The
    final 1x1 `head` plus sigmoid produces the (n, 1, H, W) probability
    map.
    """
    levels = len(per_level_feats)
    if levels == 0:
        raise ShapeError("wam_head needs at least one level")
    if len(wabs) != levels:
        raise ShapeError(f"expected {levels} attention blocks, got {len(wabs)}")
    if len(fuse_convs) != levels - 1:
        raise ShapeError(
            f"expected {levels - 1} fusion convs, got {len(fuse_convs)}"
        )
    gated = [wab_forward(f, w) for f, w in zip(per_level_feats, wabs)]
    running = gated[0]
    for k in range(1, levels):
        level = levels - 1 - k  # gated[k] sits at this level
        up = F.upsample_nearest2(running)
        if up.value.shape[2:] != gated[k].value.shape[2:]:
            raise ShapeError(
                f"fusion spatial chain broken at level {level}: "
                f"{up.value.shape[2:]} vs {gated[k].value.shape[2:]}"
            )
        merged = F.concat_channels([gated[k], up])
        fc = fuse_convs[level]
        wv, bv = _conv_param_vars(merged, fc)
        running = F.relu(F.conv2d(merged, wv, bv))
    hw, hb = _conv_param_vars(running, head)
    return F.sigmoid(F.conv2d(running, hw, hb))
