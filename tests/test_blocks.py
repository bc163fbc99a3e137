import math

import numpy as np
import pytest

from caggnet import functional as F
from caggnet.autograd import Tape
from caggnet.blocks import cam_forward, conv_block_forward, wab_forward, wam_head
from caggnet.tensor_core import ShapeError

BN_EVAL_SCALE = 1.0 / math.sqrt(1.0 + 1e-5)  # fresh running stats: mean 0, var 1


# the blocks read their weights by name, so each helper returns the
# name -> array entries of one layer, under the names the builders use


def make_conv(name, c_in, c_out, k, rng=None, weight=None, bias=None):
    if weight is None:
        weight = rng.normal(size=(c_out, c_in, k, k)) * 0.3
    if bias is None:
        bias = np.zeros(c_out)
    return {f"{name}.weight": np.asarray(weight, float),
            f"{name}.bias": np.asarray(bias, float)}


def make_bn(name, c):
    return {f"{name}.gamma": np.ones(c), f"{name}.beta": np.zeros(c),
            f"{name}.running_mean": np.zeros(c), f"{name}.running_var": np.ones(c)}


def make_block(name, c_in, c_out, rng=None, zero=False):
    if zero:
        conv1 = make_conv(f"{name}.conv1", c_in, c_out, 3,
                          weight=np.zeros((c_out, c_in, 3, 3)))
        conv2 = make_conv(f"{name}.conv2", c_out, c_out, 3,
                          weight=np.zeros((c_out, c_out, 3, 3)))
    else:
        conv1 = make_conv(f"{name}.conv1", c_in, c_out, 3, rng)
        conv2 = make_conv(f"{name}.conv2", c_out, c_out, 3, rng)
    return {**conv1, **make_bn(f"{name}.bn1", c_out),
            **conv2, **make_bn(f"{name}.bn2", c_out)}


def make_wab(name, c, r=2, rng=None, zero=False):
    if zero:
        return {**make_conv(f"{name}.fc1", c, c // r, 1, weight=np.zeros((c // r, c, 1, 1))),
                **make_conv(f"{name}.fc2", c // r, c, 1, weight=np.zeros((c, c // r, 1, 1)))}
    return {**make_conv(f"{name}.fc1", c, c // r, 1, rng),
            **make_conv(f"{name}.fc2", c // r, c, 1, rng)}


def conv(t, x, params, name):
    return F.conv2d(x, t.leaf(params[f"{name}.weight"]), t.leaf(params[f"{name}.bias"]))


def bn(t, x, params, name, training):
    return F.batchnorm2d(x, t.leaf(params[f"{name}.gamma"]), t.leaf(params[f"{name}.beta"]),
                         params[f"{name}.running_mean"], params[f"{name}.running_var"],
                         training)


def run_on_tape(fn, *arrays):
    t = Tape()
    vars_ = [t.leaf(a) for a in arrays]
    return fn(t, *vars_)


class TestConvBlock:
    def test_channel_chain_validated(self, rng):
        block = {**make_conv("b.conv1", 2, 3, 3, rng), **make_bn("b.bn1", 3),
                 **make_conv("b.conv2", 4, 4, 3, rng), **make_bn("b.bn2", 4)}
        with pytest.raises(ShapeError, match="conv2d channel mismatch"):
            run_on_tape(lambda t, x: conv_block_forward(x, block, "b", training=True),
                        rng.normal(size=(1, 2, 4, 4)))

    def test_zero_weights_give_zeros(self, rng):
        block = make_block("b", 2, 3, zero=True)
        out = run_on_tape(
            lambda t, x: conv_block_forward(x, block, "b", training=True),
            rng.normal(size=(1, 2, 4, 4)))
        assert np.all(out.value == 0.0)

    def test_shape_contract(self, rng):
        block = make_block("b", 3, 5, rng)
        out = run_on_tape(
            lambda t, x: conv_block_forward(x, block, "b", training=True),
            rng.normal(size=(2, 3, 6, 6)))
        assert out.value.shape == (2, 5, 6, 6)

    @pytest.mark.parametrize("training", [True, False])
    def test_matches_nn_ops_composition(self, rng, training):
        block = make_block("b", 2, 4, rng)
        x = rng.normal(size=(2, 2, 6, 6))
        out = run_on_tape(
            lambda t, v: conv_block_forward(v, block, "b", training=training), x)
        # independent composition from the single ops, on a no-grad tape
        t = Tape(grad=False)
        h = conv(t, t.leaf(x.copy()), block, "b.conv1")
        h = bn(t, h, block, "b.bn1", training)
        h = F.relu(h)
        h = conv(t, h, block, "b.conv2")
        h = bn(t, h, block, "b.bn2", training)
        h = F.relu(h)
        assert np.array_equal(out.value, h.value)


class TestCamForward:
    @pytest.mark.parametrize("above,below", [(True, True), (False, True),
                                             (True, False), (False, False)])
    def test_zero_body_is_identity(self, rng, above, below):
        c = 4
        z = c + (c // 2 if above else 0) + (2 * c if below else 0)
        node = make_block("n", z, c, zero=True)
        same = rng.normal(size=(1, c, 4, 4))
        a = rng.normal(size=(1, c // 2, 8, 8)) if above else None
        b = rng.normal(size=(1, 2 * c, 2, 2)) if below else None

        t = Tape()
        out = cam_forward(t.leaf(same),
                          t.leaf(a) if above else None,
                          t.leaf(b) if below else None,
                          node, "n", training=True)
        assert np.max(np.abs(out.value - same)) == 0.0

    @pytest.mark.parametrize("above,below", [(True, True), (False, True),
                                             (True, False), (False, False)])
    def test_output_shape_matches_same_input(self, rng, above, below):
        for _ in range(5):
            c = 2 * int(rng.integers(1, 4))
            h = 2 * int(rng.integers(2, 5))
            z = c + (c // 2 if above else 0) + (2 * c if below else 0)
            node = make_block("n", z, c, rng)
            same = rng.normal(size=(1, c, h, h))
            t = Tape()
            out = cam_forward(
                t.leaf(same),
                t.leaf(rng.normal(size=(1, c // 2, 2 * h, 2 * h))) if above else None,
                t.leaf(rng.normal(size=(1, 2 * c, h // 2, h // 2))) if below else None,
                node, "n", training=True)
            assert out.value.shape == same.shape

    def test_hand_traced_pointwise_case(self):
        # center-only 3x3 kernels act pointwise; eval-mode batch norm with
        # fresh running stats is a pure scale by 1/sqrt(1 + eps)
        same = np.array([[0.5, 1.0], [1.5, 2.0]]).reshape(1, 1, 2, 2)
        below = np.array([[0.25], [0.75]]).reshape(1, 2, 1, 1)
        w1 = np.zeros((1, 3, 3, 3))
        w1[0, :, 1, 1] = [2.0, 1.0, -0.5]  # weights for [same, below0, below1]
        conv1 = make_conv("n.conv1", 3, 1, 3, weight=w1, bias=[0.1])
        w2 = np.zeros((1, 1, 3, 3))
        w2[0, 0, 1, 1] = 0.5
        conv2 = make_conv("n.conv2", 1, 1, 3, weight=w2, bias=[0.2])
        node = {**conv1, **make_bn("n.bn1", 1), **conv2, **make_bn("n.bn2", 1)}

        t = Tape()
        out = cam_forward(t.leaf(same), None, t.leaf(below), node, "n",
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
        node = make_block("n", 6, 4, rng)
        t = Tape()
        with pytest.raises(ShapeError, match="concat_channels"):
            cam_forward(t.leaf(rng.normal(size=(1, 4, 4, 4))),
                        t.leaf(rng.normal(size=(1, 2, 4, 4))), None,
                        node, "n", training=True)

    def test_body_width_mismatch_rejected(self, rng):
        node = make_block("n", 5, 4, rng)
        t = Tape()
        with pytest.raises(ShapeError, match="conv2d channel mismatch"):
            cam_forward(t.leaf(rng.normal(size=(1, 4, 4, 4))), None, None,
                        node, "n", training=True)


class TestWabForward:
    def test_saturated_gate_passes_input_through(self, rng):
        wab = make_wab("g", 4, zero=True)
        wab["g.fc2.bias"][...] = 20.0  # sigmoid(20) is within 2.1e-9 of 1
        x = rng.normal(size=(2, 4, 4, 4))
        out = run_on_tape(lambda t, v: wab_forward(v, wab, "g"), x)
        assert np.max(np.abs(out.value - x)) < 1e-6 * np.max(np.abs(x))

    def test_contraction(self, rng):
        wab = make_wab("g", 4, rng=rng)
        x = rng.normal(size=(2, 4, 6, 6))
        out = run_on_tape(lambda t, v: wab_forward(v, wab, "g"), x)
        assert np.all(np.abs(out.value) <= np.abs(x))

    def test_matches_nn_ops_composition(self, rng):
        wab = make_wab("g", 6, 3, rng=rng)
        x = rng.normal(size=(2, 6, 4, 4))
        out = run_on_tape(lambda t, v: wab_forward(v, wab, "g"), x)
        t = Tape(grad=False)
        xt = t.leaf(x.copy())
        v = F.global_avg_pool(xt)
        v = F.relu(conv(t, v, wab, "g.fc1"))
        w = F.sigmoid(conv(t, v, wab, "g.fc2"))
        expect = F.channel_scale(xt, w)
        assert np.array_equal(out.value, expect.value)


class TestWamHead:
    def test_single_level_degenerate(self, rng):
        params = {**make_wab("wab0", 4, rng=rng), **make_conv("head", 4, 1, 1, rng)}
        x = rng.normal(size=(1, 4, 8, 8))

        t = Tape()
        out = wam_head([t.leaf(x)], params)

        t = Tape(grad=False)
        xt = t.leaf(x.copy())
        v = F.global_avg_pool(xt)
        v = F.relu(conv(t, v, params, "wab0.fc1"))
        wv = F.sigmoid(conv(t, v, params, "wab0.fc2"))
        gated = F.channel_scale(xt, wv)
        expect = F.sigmoid(conv(t, gated, params, "head"))
        assert np.array_equal(out.value, expect.value)

    def test_probability_map_contract(self, rng):
        levels, c0, size = 4, 2, 64
        feats, params = [], {}
        for i in range(levels - 1, -1, -1):  # deepest first
            c = c0 * (1 << i)
            feats.append(rng.normal(size=(1, c, size >> i, size >> i)))
            params.update(make_wab(f"wab{i}", c, rng=rng))
        for i in range(levels - 1):
            params.update(make_conv(f"fuse{i}", c0 * (1 << i) + c0 * (1 << (i + 1)),
                                    c0 * (1 << i), 1, rng))
        params.update(make_conv("head", c0, 1, 1, rng))
        t = Tape()
        out = wam_head([t.leaf(f) for f in feats], params)
        assert out.value.shape == (1, 1, size, size)
        assert np.all((out.value > 0.0) & (out.value < 1.0))

    def test_two_level_hand_trace(self):
        # zero-weight attention gates halve every feature (sigmoid(0) = 0.5);
        # the fusion conv picks the first channel of the fine gated feature
        # and the head is the identity, so out = sigmoid(relu(0.5 * f0[ch0]))
        f0 = np.array([[0.2, -0.4], [0.8, 1.2]]).reshape(1, 1, 2, 2)
        f0 = np.concatenate([f0, 3.0 * f0], axis=1)  # 2 channels
        f1 = np.array([[0.6], [-0.9], [0.3], [1.1]]).reshape(1, 4, 1, 1)
        fuse_w = np.zeros((2, 6, 1, 1))
        fuse_w[0, 0, 0, 0] = 1.0
        head_w = np.zeros((1, 2, 1, 1))
        head_w[0, 0, 0, 0] = 1.0
        params = {**make_wab("wab0", 2, zero=True), **make_wab("wab1", 4, zero=True),
                  **make_conv("fuse0", 6, 2, 1, weight=fuse_w),
                  **make_conv("head", 2, 1, 1, weight=head_w)}

        t = Tape()
        out = wam_head([t.leaf(f1), t.leaf(f0)], params)

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
