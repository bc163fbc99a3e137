"""Composite blocks: ConvBlock, crossing-aggregation node, weighted
aggregation block, and the bottom-up fusion head, plus the parameter
containers they read.

All forwards take tape handles (`Var`) and compose the ops of
`functional`, so the same code path serves training and evaluation: eval
runs it on a tape that records nothing, and `training` only switches
batch-norm behavior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autograd import Var
from .functional import BatchNormState
from .tensor_core import ShapeError


@dataclass
class Conv2dParams:
    """Square-kernel convolution weights: (c_out, c_in, k, k) plus bias.

    k = 3 implies zero padding 1, k = 1 implies padding 0; stride is
    always 1, so spatial extents are preserved.
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = self.weight
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ShapeError(f"conv weight must be (c_out, c_in, k, k), got {w.shape}")
        if w.shape[2] not in (1, 3):
            raise ShapeError(f"kernel size {w.shape[2]} not in {{1, 3}}")
        if self.bias.shape != (w.shape[0],):
            raise ShapeError(
                f"bias length {self.bias.shape} does not match c_out={w.shape[0]}"
            )

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]


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


def _conv(x: Var, p: Conv2dParams) -> Var:
    """conv2d with the layer's weight and bias as leaves on x's tape."""
    t = x.tape
    return F.conv2d(x, t.leaf(p.weight), t.leaf(p.bias))


def _bn(x: Var, s: BatchNormState, training: bool) -> Var:
    """batchnorm2d with the layer's gamma and beta as leaves on x's tape."""
    t = x.tape
    return F.batchnorm2d(x, t.leaf(s.gamma), t.leaf(s.beta), s, training)


def conv_block_forward(x: Var, b: ConvBlock, training: bool) -> Var:
    """relu(bn2(conv2(relu(bn1(conv1(x)))))), spatial size preserved."""
    h = F.relu(_bn(_conv(x, b.conv1), b.bn1, training))
    return F.relu(_bn(_conv(h, b.conv2), b.bn2, training))


def cam_forward(x_same_prev: Var, x_above: Var | None, x_below: Var | None,
                body: ConvBlock, training: bool) -> Var:
    """Crossing aggregation: fuse the same-level feature with a
    downsampled finer feature and an upsampled coarser feature, then add
    the result back onto the same-level input.

    The concatenation order is fixed as [same, pooled above, upsampled
    below]; absent neighbors (top and bottom grid rows) are simply
    skipped. `body` maps the aggregate back to the node's own width: the
    residual sum forces its output channels to equal x_same_prev's, so
    the node is an identity map when its body is zero-initialized.
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
    if z.value.shape[1] != body.conv1.c_in:
        raise ShapeError(
            f"aggregated input has {z.value.shape[1]} channels but the node "
            f"body expects {body.conv1.c_in}"
        )
    if body.conv2.c_out != sc:
        raise ShapeError(
            f"node body emits {body.conv2.c_out} channels; residual "
            f"needs {sc}"
        )
    return F.add(x_same_prev, conv_block_forward(z, body, training))


def wab_forward(x: Var, p: WabParams) -> Var:
    """Channel attention: squeeze to (n, c, 1, 1) via global average
    pooling, excite through 1x1 convs (ReLU then sigmoid), and scale the
    input channels by the resulting weights in (0, 1)."""
    if x.value.shape[1] != p.fc1.c_in:
        raise ShapeError(
            f"attention expects {p.fc1.c_in} channels, got {x.value.shape[1]}"
        )
    v = F.relu(_conv(F.global_avg_pool(x), p.fc1))
    return F.channel_scale(x, F.sigmoid(_conv(v, p.fc2)))


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
        running = F.relu(_conv(merged, fuse_convs[level]))
    return F.sigmoid(_conv(running, head))
