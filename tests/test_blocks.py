import math

import numpy as np
import pytest

from caggnet import functional as F
from caggnet.autograd import Tape
from caggnet.blocks import (
    BatchNormState,
    Conv2dParams,
    ConvBlock,
    WabParams,
    cam_forward,
    conv_block_forward,
    wab_forward,
    wam_head,
)
from caggnet.tensor_core import ShapeError

BN_EVAL_SCALE = 1.0 / math.sqrt(1.0 + 1e-5)  # fresh running stats: mean 0, var 1


def make_conv(c_in, c_out, k, rng=None, weight=None, bias=None):
    if weight is None:
        weight = rng.normal(size=(c_out, c_in, k, k)) * 0.3
    if bias is None:
        bias = np.zeros(c_out)
    return Conv2dParams(weight=np.asarray(weight, float),
                        bias=np.asarray(bias, float))


def make_bn(c):
    return BatchNormState(gamma=np.ones(c), beta=np.zeros(c),
                          running_mean=np.zeros(c), running_var=np.ones(c))


def make_block(c_in, c_out, rng=None, zero=False):
    if zero:
        conv1 = make_conv(c_in, c_out, 3, weight=np.zeros((c_out, c_in, 3, 3)))
        conv2 = make_conv(c_out, c_out, 3, weight=np.zeros((c_out, c_out, 3, 3)))
    else:
        conv1 = make_conv(c_in, c_out, 3, rng)
        conv2 = make_conv(c_out, c_out, 3, rng)
    return ConvBlock(conv1=conv1, bn1=make_bn(c_out), conv2=conv2,
                     bn2=make_bn(c_out))


def conv(t, x, p):
    return F.conv2d(x, t.leaf(p.weight), t.leaf(p.bias))


def bn(t, x, s, training):
    return F.batchnorm2d(x, t.leaf(s.gamma), t.leaf(s.beta), s.running_mean,
                         s.running_var, training)


def run_on_tape(fn, *arrays):
    t = Tape()
    vars_ = [t.leaf(a) for a in arrays]
    return fn(t, *vars_)


class TestConvBlock:
    def test_channel_chain_validated(self, rng):
        block = ConvBlock(conv1=make_conv(2, 3, 3, rng), bn1=make_bn(3),
                          conv2=make_conv(4, 4, 3, rng), bn2=make_bn(4))
        with pytest.raises(ShapeError, match="conv2d channel mismatch"):
            run_on_tape(lambda t, x: conv_block_forward(x, block, training=True),
                        rng.normal(size=(1, 2, 4, 4)))

    def test_zero_weights_give_zeros(self, rng):
        block = make_block(2, 3, zero=True)
        out = run_on_tape(
            lambda t, x: conv_block_forward(x, block, training=True),
            rng.normal(size=(1, 2, 4, 4)))
        assert np.all(out.value == 0.0)

    def test_shape_contract(self, rng):
        block = make_block(3, 5, rng)
        out = run_on_tape(
            lambda t, x: conv_block_forward(x, block, training=True),
            rng.normal(size=(2, 3, 6, 6)))
        assert out.value.shape == (2, 5, 6, 6)

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_nn_ops_composition(self, rng, training):
        block = make_block(2, 4, rng)
        x = rng.normal(size=(2, 2, 6, 6))
        out = run_on_tape(
            lambda t, v: conv_block_forward(v, block, training=training), x)
        # independent composition from the single ops, on a no-grad tape
        t = Tape(grad=False)
        h = conv(t, t.leaf(x.copy()), block.conv1)
        h = bn(t, h, block.bn1, training)
        h = F.relu(h)
        h = conv(t, h, block.conv2)
        h = bn(t, h, block.bn2, training)
        h = F.relu(h)
        assert np.array_equal(out.value, h.value)


class TestCamForward:
    @pytest.mark.parametrize("above,below", [(True, True), (False, True),
                                             (True, False), (False, False)])
    def test_zero_body_is_identity(self, rng, above, below):
        c = 4
        z = c + (c // 2 if above else 0) + (2 * c if below else 0)
        node = make_block(z, c, zero=True)
        same = rng.normal(size=(1, c, 4, 4))
        a = rng.normal(size=(1, c // 2, 8, 8)) if above else None
        b = rng.normal(size=(1, 2 * c, 2, 2)) if below else None

        t = Tape()
        out = cam_forward(t.leaf(same),
                          t.leaf(a) if above else None,
                          t.leaf(b) if below else None,
                          node, training=True)
        assert np.max(np.abs(out.value - same)) == 0.0

    @pytest.mark.parametrize("above,below", [(True, True), (False, True),
                                             (True, False), (False, False)])
    def test_output_shape_matches_same_input(self, rng, above, below):
        for _ in range(5):
            c = 2 * int(rng.integers(1, 4))
            h = 2 * int(rng.integers(2, 5))
            z = c + (c // 2 if above else 0) + (2 * c if below else 0)
            node = make_block(z, c, rng)
            same = rng.normal(size=(1, c, h, h))
            t = Tape()
            out = cam_forward(
                t.leaf(same),
                t.leaf(rng.normal(size=(1, c // 2, 2 * h, 2 * h))) if above else None,
                t.leaf(rng.normal(size=(1, 2 * c, h // 2, h // 2))) if below else None,
                node, training=True)
            assert out.value.shape == same.shape

    def test_hand_traced_pointwise_case(self):
        # center-only 3x3 kernels act pointwise; eval-mode batch norm with
        # fresh running stats is a pure scale by 1/sqrt(1 + eps)
        same = np.array([[0.5, 1.0], [1.5, 2.0]]).reshape(1, 1, 2, 2)
        below = np.array([[0.25], [0.75]]).reshape(1, 2, 1, 1)
        w1 = np.zeros((1, 3, 3, 3))
        w1[0, :, 1, 1] = [2.0, 1.0, -0.5]  # weights for [same, below0, below1]
        conv1 = make_conv(3, 1, 3, weight=w1, bias=[0.1])
        w2 = np.zeros((1, 1, 3, 3))
        w2[0, 0, 1, 1] = 0.5
        conv2 = make_conv(1, 1, 3, weight=w2, bias=[0.2])
        node = ConvBlock(conv1=conv1, bn1=make_bn(1), conv2=conv2,
                         bn2=make_bn(1))

        t = Tape()
        out = cam_forward(t.leaf(same), None, t.leaf(below), node,
                          training=False)

        expect = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                z = (same[0, 0, i, j], below[0, 0, 0, 0], below[0, 1, 0, 0])
                h = 2.0 * z[0] + 1.0 * z[1] - 0.5 * z[2] + 0.1
                h = max(0.0, h * BN_EVAL_SCALE)
                h = 0.5 * h + 0.2
                h = max(0.0, h * BN_EVAL_SCALE)
                expect[i, j] = same[0, 0, i, j] + h
        assert np.allclose(out.value[0, 0], expect, rtol=0, atol=1e-14)

    def test_above_spatial_mismatch_rejected(self, rng):
        node = make_block(6, 4, rng)
        t = Tape()
        with pytest.raises(ShapeError, match="concat_channels"):
            cam_forward(t.leaf(rng.normal(size=(1, 4, 4, 4))),
                        t.leaf(rng.normal(size=(1, 2, 4, 4))), None,
                        node, training=True)

    def test_body_width_mismatch_rejected(self, rng):
        node = make_block(5, 4, rng)
        t = Tape()
        with pytest.raises(ShapeError, match="conv2d channel mismatch"):
            cam_forward(t.leaf(rng.normal(size=(1, 4, 4, 4))), None, None,
                        node, training=True)


class TestWabForward:
    def make_wab(self, c, r=2, rng=None, zero=False):
        if zero:
            fc1 = make_conv(c, c // r, 1, weight=np.zeros((c // r, c, 1, 1)))
            fc2 = make_conv(c // r, c, 1, weight=np.zeros((c, c // r, 1, 1)))
        else:
            fc1 = make_conv(c, c // r, 1, rng)
            fc2 = make_conv(c // r, c, 1, rng)
        return WabParams(fc1=fc1, fc2=fc2)

    def test_saturated_gate_passes_input_through(self, rng):
        wab = self.make_wab(4, zero=True)
        wab.fc2.bias[...] = 20.0  # sigmoid(20) is within 2.1e-9 of 1
        x = rng.normal(size=(2, 4, 4, 4))
        out = run_on_tape(lambda t, v: wab_forward(v, wab), x)
        assert np.max(np.abs(out.value - x)) < 1e-6 * np.max(np.abs(x))

    def test_contraction(self, rng):
        wab = self.make_wab(4, rng=rng)
        x = rng.normal(size=(2, 4, 6, 6))
        out = run_on_tape(lambda t, v: wab_forward(v, wab), x)
        assert np.all(np.abs(out.value) <= np.abs(x))

    def test_matches_nn_ops_composition(self, rng):
        wab = self.make_wab(6, 3, rng=rng)
        x = rng.normal(size=(2, 6, 4, 4))
        out = run_on_tape(lambda t, v: wab_forward(v, wab), x)
        t = Tape(grad=False)
        xt = t.leaf(x.copy())
        v = F.global_avg_pool(xt)
        v = F.relu(conv(t, v, wab.fc1))
        w = F.sigmoid(conv(t, v, wab.fc2))
        expect = F.channel_scale(xt, w)
        assert np.array_equal(out.value, expect.value)


class TestWamHead:
    def test_single_level_degenerate(self, rng):
        wab = TestWabForward().make_wab(4, rng=rng)
        head = make_conv(4, 1, 1, rng)
        x = rng.normal(size=(1, 4, 8, 8))

        t = Tape()
        out = wam_head([t.leaf(x)], [wab], [], head)

        t = Tape(grad=False)
        xt = t.leaf(x.copy())
        v = F.global_avg_pool(xt)
        v = F.relu(conv(t, v, wab.fc1))
        wv = F.sigmoid(conv(t, v, wab.fc2))
        gated = F.channel_scale(xt, wv)
        expect = F.sigmoid(conv(t, gated, head))
        assert np.array_equal(out.value, expect.value)

    def test_probability_map_contract(self, rng):
        levels, c0, size = 4, 2, 64
        feats, wabs = [], []
        for i in range(levels - 1, -1, -1):  # deepest first
            c = c0 * (1 << i)
            feats.append(rng.normal(size=(1, c, size >> i, size >> i)))
            wabs.append(TestWabForward().make_wab(c, rng=rng))
        fuse = [make_conv(c0 * (1 << i) + c0 * (1 << (i + 1)), c0 * (1 << i), 1, rng)
                for i in range(levels - 1)]
        head = make_conv(c0, 1, 1, rng)
        t = Tape()
        out = wam_head([t.leaf(f) for f in feats], wabs, fuse, head)
        assert out.value.shape == (1, 1, size, size)
        assert np.all((out.value > 0.0) & (out.value < 1.0))

    def test_two_level_hand_trace(self):
        # zero-weight attention gates halve every feature (sigmoid(0) = 0.5);
        # the fusion conv picks the first channel of the fine gated feature
        # and the head is the identity, so out = sigmoid(relu(0.5 * f0[ch0]))
        f0 = np.array([[0.2, -0.4], [0.8, 1.2]]).reshape(1, 1, 2, 2)
        f0 = np.concatenate([f0, 3.0 * f0], axis=1)  # 2 channels
        f1 = np.array([[0.6], [-0.9], [0.3], [1.1]]).reshape(1, 4, 1, 1)
        wab0 = TestWabForward().make_wab(2, zero=True)
        wab1 = TestWabForward().make_wab(4, zero=True)
        fuse_w = np.zeros((2, 6, 1, 1))
        fuse_w[0, 0, 0, 0] = 1.0
        fuse0 = make_conv(6, 2, 1, weight=fuse_w)
        head_w = np.zeros((1, 2, 1, 1))
        head_w[0, 0, 0, 0] = 1.0
        head = make_conv(2, 1, 1, weight=head_w)

        t = Tape()
        out = wam_head([t.leaf(f1), t.leaf(f0)], [wab1, wab0], [fuse0], head)

        expect = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                sig_in = max(0.0, 0.5 * f0[0, 0, i, j])
                expect[i, j] = 1.0 / (1.0 + math.exp(-sig_in))
        assert np.allclose(out.value[0, 0], expect, rtol=0, atol=1e-15)


class TestBlockGradients:
    def test_block_suite_passes(self):
        from caggnet.gradcheck import block_checks

        for report in block_checks():
            assert report.passed, f"{report.op}: {report.max_rel_err}"
