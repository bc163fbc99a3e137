import math

import numpy as np
import pytest

from caggnet import functional as F
from caggnet.autograd import Tape, TapeNode, backward
from caggnet.functional import BN_EPS, BN_MOMENTUM
from caggnet.gradcheck import conv2d_reference
from caggnet.tensor_core import ShapeError, Tensor4


def eager(op, x, *arrays, **kwargs):
    """One functional op applied to a Tensor4 and parameter arrays on a
    tape that records nothing."""
    t = Tape(grad=False)
    return Tensor4(op(t.leaf(x.data), *[t.leaf(a) for a in arrays], **kwargs).value)


def conv2d(x, weight, bias):
    return eager(F.conv2d, x, weight, bias)


def batchnorm2d(x, s, training):
    return eager(lambda v, g, b: F.batchnorm2d(v, g, b, s["running_mean"],
                                               s["running_var"], training),
                 x, s["gamma"], s["beta"])


def maxpool2(x):
    return eager(F.maxpool2, x)


def upsample_nearest2(x):
    return eager(F.upsample_nearest2, x)


def relu(x):
    return eager(F.relu, x)


def sigmoid(x):
    return eager(F.sigmoid, x)


def global_avg_pool(x):
    return eager(F.global_avg_pool, x)


def t4(data):
    return Tensor4(np.asarray(data, dtype=np.float64))


def conv_params(weight, bias=None):
    """(weight, bias) in float64; a missing bias is zeros."""
    w = np.asarray(weight, dtype=np.float64)
    b = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)
    return w, b


def window_max_oracle(x):
    """Independent 2x2 window-max reference."""
    n, c, h, w = x.shape
    out = np.empty((n, c, h // 2, w // 2))
    for bi in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[bi, ci, i, j] = max(
                        x[bi, ci, 2 * i, 2 * j], x[bi, ci, 2 * i, 2 * j + 1],
                        x[bi, ci, 2 * i + 1, 2 * j], x[bi, ci, 2 * i + 1, 2 * j + 1],
                    )
    return out


def conv_test_shapes(rng):
    """(n, c_in, c_out, h, w, k) of the criterion-5 case generator, plus
    edge shapes: a 1-pixel-high or -wide image, a 1x1 image, and batches
    of more than one."""
    shapes = [(int(rng.integers(1, 3)), int(rng.integers(1, 5)),
               int(rng.integers(1, 5)), int(rng.integers(1, 9)),
               int(rng.integers(1, 9)), 3 if case % 2 == 0 else 1)
              for case in range(100)]
    return shapes + [(n, c_in, c_out, h, w, k)
                     for n, c_in, c_out, h, w in [(3, 4, 2, 1, 1), (2, 3, 4, 1, 7),
                                                  (2, 2, 3, 8, 1), (1, 4, 4, 1, 1)]
                     for k in (1, 3)]


class TestConv2d:
    def test_ones_kernel_on_ones(self):
        x = t4(np.ones((1, 1, 3, 3)))
        p = conv_params(np.ones((1, 1, 3, 3)))
        out = conv2d(x, *p).data[0, 0]
        assert np.array_equal(out, [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_dirac_kernel_is_identity(self, rng):
        x = Tensor4(rng.normal(size=(2, 3, 5, 5)))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = conv2d(x, *conv_params(w))
        assert np.array_equal(out.data, x.data)

    def test_1x1_scalar_case(self):
        # 2 * 3 + 1 = 7
        x = t4([[[[3.0]]]])
        p = conv_params([[[[2.0]]]], bias=[1.0])
        assert conv2d(x, *p).data.reshape(()) == 7.0

    def test_channel_mismatch(self, rng):
        x = Tensor4(rng.normal(size=(1, 2, 4, 4)))
        p = conv_params(rng.normal(size=(1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, *p)

    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_reference_bitwise(self, rng, k):
        for _ in range(10):
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            h = int(rng.integers(2, 9))
            w = int(rng.integers(2, 9))
            x = Tensor4(rng.normal(size=(2, c_in, h, w)))
            p = conv_params(rng.normal(size=(c_out, c_in, k, k)),
                            bias=rng.normal(size=c_out))
            fast = conv2d(x, *p)
            ref = conv2d_reference(x, *p)
            assert fast.data.tobytes() == ref.data.tobytes()

    def test_single_precision_path(self, rng):
        x = Tensor4(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
        p = conv_params(rng.normal(size=(3, 2, 3, 3)))
        out = conv2d(x, *(a.astype(np.float32) for a in p))
        assert out.data.dtype == np.float32
        x64 = Tensor4(x.data.astype(np.float64))
        ref = conv2d(x64, *p)
        assert np.max(np.abs(out.data - ref.data)) < 1e-5

    def test_single_precision_gemm_within_tolerance_of_reference(self):
        rng = np.random.default_rng(5)
        for n, c_in, c_out, h, w, k in conv_test_shapes(rng):
            x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
            weight = rng.normal(size=(c_out, c_in, k, k)).astype(np.float32)
            bias = rng.normal(size=c_out).astype(np.float32)
            out = conv2d(Tensor4(x), weight, bias)
            assert out.data.dtype == np.float32
            ref = conv2d_reference(
                Tensor4(x.astype(np.float64)),
                weight.astype(np.float64), bias.astype(np.float64)).data
            rel = np.max(np.abs(out.data - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-5, (n, c_in, c_out, h, w, k, rel)

    def test_single_precision_backward_within_tolerance_of_double(self):
        # the float32 rule against the float64 rule on the same values
        rng = np.random.default_rng(5)
        for n, c_in, c_out, h, w, k in conv_test_shapes(rng):
            x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
            weight = rng.normal(size=(c_out, c_in, k, k)).astype(np.float32)
            g = rng.normal(size=(n, c_out, h, w)).astype(np.float32)
            got = F._conv2d_bwd(TapeNode("conv2d", (0, 1, 2), 3, (x, weight)), g)
            ref = F._conv2d_bwd(
                TapeNode("conv2d", (0, 1, 2), 3,
                         (x.astype(np.float64), weight.astype(np.float64))),
                g.astype(np.float64))
            for name, a, b in zip(("gx", "gw", "gb"), got, ref):
                assert a.dtype == np.float32 and a.shape == b.shape, name
                rel = np.max(np.abs(a - b)) / np.max(np.abs(b))
                assert rel <= 1e-5, (name, n, c_in, c_out, h, w, k, rel)

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 1), (2, 3)])
    def test_backward_matches_reference_adjoint(self, n, k):
        # each gradient entry is <g, conv(e)> for the basis tensor e of its
        # operand, convolved by the scalar-loop reference
        rng = np.random.default_rng(11)
        c_in, c_out, h, w = 2, 3, 3, 4
        x = rng.normal(size=(n, c_in, h, w))
        weight = rng.normal(size=(c_out, c_in, k, k))
        g = rng.normal(size=(n, c_out, h, w))

        def adjoint(operand, conv_of):
            out = np.empty_like(operand)
            for i in np.ndindex(operand.shape):
                e = np.zeros_like(operand)
                e[i] = 1.0
                out[i] = np.vdot(g, conv2d_reference(*conv_of(e)).data)
            return out

        zero = np.zeros(c_out)
        gx, gw, gb = F._conv2d_bwd(TapeNode("conv2d", (0, 1, 2), 3, (x, weight)), g)
        ref = (adjoint(x, lambda e: (Tensor4(e), weight, zero)),
               adjoint(weight, lambda e: (Tensor4(x), e, zero)),
               adjoint(zero, lambda e: (Tensor4(np.zeros_like(x)),
                                        np.zeros_like(weight), e)))
        for name, a, b in zip(("gx", "gw", "gb"), (gx, gw, gb), ref):
            assert a.shape == b.shape, name
            assert np.max(np.abs(a - b)) <= 1e-12, name

    def test_double_precision_keeps_ordered_path(self, rng):
        # more than one input channel and a 3x3 kernel: the shape where a
        # reduction in any other order would round differently
        x = Tensor4(rng.normal(size=(2, 4, 6, 5)))
        p = conv_params(rng.normal(size=(3, 4, 3, 3)), bias=rng.normal(size=3))
        assert conv2d(x, *p).data.tobytes() == conv2d_reference(x, *p).data.tobytes()

    # CAggNet's conv widths at base_channels 8 on both sides of the float32
    # forward's rule: im2col when c_in <= c_out, kn2row otherwise
    @pytest.mark.parametrize("c_in,c_out", [(8, 8), (24, 8), (56, 16), (48, 32),
                                            (8, 16), (16, 32), (1, 8)])
    def test_single_precision_at_model_widths_within_tolerance_of_reference(
            self, c_in, c_out):
        # images smaller than the kernel, where a tap's flat shift crosses
        # whole rows and images, and a batch of four against its first image
        rng = np.random.default_rng(c_in * 100 + c_out)
        for k in (1, 3):
            for h, w in [(1, 1), (1, 2), (2, 3), (3, 1)]:
                x = rng.normal(size=(4, c_in, h, w)).astype(np.float32)
                p = (rng.normal(size=(c_out, c_in, k, k)).astype(np.float32),
                     rng.normal(size=c_out).astype(np.float32))
                ref = conv2d_reference(Tensor4(x.astype(np.float64)),
                                       *(a.astype(np.float64) for a in p)).data
                for n in (1, 4):
                    out = conv2d(Tensor4(x[:n]), *p).data
                    assert out.dtype == np.float32
                    rel = np.max(np.abs(out - ref[:n])) / np.max(np.abs(ref[:n]))
                    assert rel <= 1e-5, (n, k, h, w, rel)

    # more than one band of im2col columns: rows of one image, whole
    # images, and a group of images plus a remainder
    @pytest.mark.parametrize("n,c,size", [(1, 8, 128), (3, 8, 96), (9, 8, 32),
                                          (1, 16, 64)])
    def test_single_precision_bands_match_the_whole_layer_bytewise(self, n, c, size):
        rng = np.random.default_rng(size + n)
        x = rng.normal(size=(n, c, size, size)).astype(np.float32)
        assert 9 * x.size > F.COLS_BUDGET
        for k in (1, 3):
            weight = rng.normal(size=(c, c, k, k)).astype(np.float32)
            bias = rng.normal(size=c).astype(np.float32)
            whole = weight.transpose(0, 2, 3, 1).reshape(c, -1) @ F._unfold(x, k)
            whole += bias.reshape(c, 1)
            out = conv2d(Tensor4(x), weight, bias).data
            assert out.tobytes() == F._to_nchw(whole, out.shape).tobytes(), k

    @pytest.mark.parametrize("n", [4, 8])
    def test_single_precision_batch_gives_each_image_its_own_bits(self, monkeypatch, n):
        # every conv of both models at the eval chunk sizes 16x16 (32 images
        # a chunk) and 32x32 (8 images), batched against one image at a time
        from caggnet.models import ModelConfig, build_caggnet, build_unet, forward

        shapes = set()
        conv = F.conv2d

        def record(x, weight, bias):
            shapes.add((x.value.shape[1:], weight.value.shape))
            return conv(x, weight, bias)

        monkeypatch.setattr(F, "conv2d", record)
        for build in (build_caggnet, build_unet):
            model = build(ModelConfig(levels=3, columns=2, base_channels=8,
                                      in_channels=1, dtype="single"))
            for size in (16, 32):
                forward(model, Tensor4(np.zeros((1, 1, size, size), np.float32)),
                        training=False)
        monkeypatch.undo()
        assert {xs[1:] for xs, _ in shapes} == {(1, 1), (4, 4), (8, 8), (16, 16),
                                               (32, 32)}
        rng = np.random.default_rng(3)
        for (c_in, h, w), wshape in sorted(shapes):
            x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
            p = (rng.normal(size=wshape).astype(np.float32),
                 rng.normal(size=wshape[0]).astype(np.float32))
            batch = conv2d(Tensor4(x), *p).data
            alone = np.concatenate([conv2d(Tensor4(x[i:i + 1]), *p).data
                                    for i in range(n)])
            if h * w > 1:
                assert batch.tobytes() == alone.tobytes(), (c_in, wshape, h, w)
            else:
                # the attention gates' 1x1 images: one image is one column,
                # which numpy hands to BLAS's gemv instead of gemm
                np.testing.assert_allclose(batch, alone, rtol=1e-5, atol=1e-6)


class TestMaxpool2:
    def test_single_window(self):
        assert maxpool2(t4([[[[1, 2], [3, 4]]]])).data.reshape(()) == 4.0

    def test_constant_halves_resolution(self):
        x = t4(np.full((1, 2, 4, 4), 2.5))
        out = maxpool2(x)
        assert out.data.shape == (1, 2, 2, 2)
        assert np.all(out.data == 2.5)

    def test_ramp_window_oracle(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = maxpool2(Tensor4(x))
        assert np.array_equal(out.data, window_max_oracle(x))
        assert np.array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_random_window_oracle(self, rng):
        x = rng.normal(size=(2, 3, 6, 8))
        assert np.array_equal(maxpool2(Tensor4(x.copy())).data, window_max_oracle(x))

    def test_odd_extent_rejected(self, rng):
        with pytest.raises(ShapeError, match="even"):
            maxpool2(Tensor4(rng.normal(size=(1, 1, 3, 4))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_goes_to_first_maximum_in_scan_order(self, dtype):
        # every 2x2 window with entries in {0, 1, 2}: all 2-, 3- and 4-way
        # ties of the maximum, in every window position
        windows = np.array(np.meshgrid(*[np.arange(3)] * 4, indexing="ij"))
        windows = windows.reshape(4, -1).T  # (81, 4), row-major scan order
        n = windows.shape[0]
        x = (windows.reshape(n, 2, 2).transpose(1, 0, 2)
             .reshape(1, 1, 2, 2 * n).astype(dtype))
        g = np.arange(1, n + 1, dtype=dtype).reshape(1, 1, 1, n)
        t = Tape(grad=True)
        xv = t.leaf(x)
        out = F.maxpool2(xv)
        gx = backward(t, out, g)[xv.id]
        routed = gx.reshape(2, n, 2).transpose(1, 0, 2).reshape(n, 4)
        first = windows.argmax(axis=1)
        expect = np.zeros((n, 4), dtype=dtype)
        expect[np.arange(n), first] = g.reshape(n)
        assert np.array_equal(out.value.reshape(n), windows.max(axis=1))
        assert gx.dtype == dtype
        assert np.array_equal(routed, expect)


class TestUpsampleNearest2:
    def test_block_replication(self):
        out = upsample_nearest2(t4([[[[1, 2], [3, 4]]]]))
        assert np.array_equal(out.data[0, 0], [
            [1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_roundtrip_identity_with_maxpool(self, rng):
        x = Tensor4(rng.normal(size=(2, 3, 4, 6)))
        assert np.array_equal(maxpool2(upsample_nearest2(x)).data, x.data)

    def test_constant(self):
        x = t4(np.full((1, 1, 2, 2), 9.0))
        assert np.all(upsample_nearest2(x).data == 9.0)


class TestBatchNorm:
    def bn(self, c, gamma=None, beta=None):
        return {
            "gamma": np.full(c, 1.0) if gamma is None else np.asarray(gamma, float),
            "beta": np.zeros(c) if beta is None else np.asarray(beta, float),
            "running_mean": np.zeros(c),
            "running_var": np.ones(c),
        }

    def test_constant_input_normalizes_to_zero(self):
        x = t4(np.full((2, 3, 4, 4), 5.0))
        out = batchnorm2d(x, self.bn(3), training=True)
        assert np.all(out.data == 0.0)

    def test_gamma_zero_gives_beta(self, rng):
        x = Tensor4(rng.normal(size=(2, 2, 4, 4)))
        s = self.bn(2, gamma=[0.0, 0.0], beta=[0.7, -0.2])
        out = batchnorm2d(x, s, training=True)
        assert np.all(out.data[:, 0] == 0.7)
        assert np.all(out.data[:, 1] == -0.2)

    def test_two_value_hand_case(self):
        # mean 2, biased variance 1 -> +-1/sqrt(1 + 1e-5)
        x = t4(np.array([1.0, 3.0]).reshape(1, 1, 1, 2))
        out = batchnorm2d(x, self.bn(1), training=True)
        expect = (np.array([1.0, 3.0]) - 2.0) / math.sqrt(1.0 + 1e-5)
        assert np.allclose(out.data.reshape(2), expect, rtol=0, atol=1e-15)
        assert abs(out.data.reshape(2)[1] - 0.999995) < 1e-6

    def test_training_statistics(self, rng):
        x = Tensor4(rng.normal(2.0, 3.0, size=(4, 3, 8, 8)))
        out = batchnorm2d(x, self.bn(3), training=True).data
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-6
        assert np.max(np.abs(var - 1.0)) < 1e-4

    def test_running_stats_update_and_eval(self, rng):
        x = Tensor4(rng.normal(1.5, 2.0, size=(4, 2, 8, 8)))
        s = self.bn(2)
        batchnorm2d(x, s, training=True)
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        assert np.allclose(s["running_mean"], 0.9 * 0.0 + 0.1 * mu)
        assert np.allclose(s["running_var"], 0.9 * 1.0 + 0.1 * var)
        # eval mode consumes the running stats and is pure
        before = (s["running_mean"].copy(), s["running_var"].copy())
        out = batchnorm2d(x, s, training=False).data
        expect = (x.data - s["running_mean"].reshape(1, -1, 1, 1)) / np.sqrt(
            s["running_var"].reshape(1, -1, 1, 1) + BN_EPS)
        assert np.allclose(out, expect)
        assert np.array_equal(before[0], s["running_mean"])
        assert np.array_equal(before[1], s["running_var"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_forward_matches_two_pass_formula_bytewise(self, rng, dtype):
        # the forward's statistics against np.mean + np.var on the input
        for shape in [(4, 8, 32, 32), (2, 3, 5, 7), (1, 1, 2, 2)]:
            x = rng.normal(1.5, 2.0, size=shape).astype(dtype)
            c = shape[1]
            gamma = rng.normal(size=c).astype(dtype)
            beta = rng.normal(size=c).astype(dtype)
            running_mean = rng.normal(size=c).astype(dtype)
            running_var = rng.uniform(0.5, 2.0, size=c).astype(dtype)
            rm, rv = running_mean.copy(), running_var.copy()
            t = Tape()
            out = F.batchnorm2d(t.leaf(x), t.leaf(gamma), t.leaf(beta),
                                running_mean, running_var, True).value
            xhat = t.nodes[-1].ctx[0]

            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            inv = 1.0 / np.sqrt(var + BN_EPS)
            ref_xhat = (x - mean.reshape(1, -1, 1, 1)) * inv.reshape(1, -1, 1, 1)
            ref_out = gamma.reshape(1, -1, 1, 1) * ref_xhat + beta.reshape(1, -1, 1, 1)
            ref_rm = rm * (1.0 - BN_MOMENTUM) + (BN_MOMENTUM * mean).astype(dtype)
            ref_rv = rv * (1.0 - BN_MOMENTUM) + (BN_MOMENTUM * var).astype(dtype)
            for name, a, b in (("out", out, ref_out), ("xhat", xhat, ref_xhat),
                               ("running_mean", running_mean, ref_rm),
                               ("running_var", running_var, ref_rv)):
                assert a.dtype == dtype, name
                assert a.tobytes() == b.tobytes(), (name, shape)

    def test_channel_mismatch(self, rng):
        x = Tensor4(rng.normal(size=(1, 3, 4, 4)))
        with pytest.raises(ShapeError, match="channel"):
            batchnorm2d(x, self.bn(2), training=True)


class TestActivations:
    def test_relu_definition(self):
        out = relu(t4([[[[-1.0, 0.0, 2.0]]]]))
        assert np.array_equal(out.data, [[[[0.0, 0.0, 2.0]]]])

    def test_relu_nonnegative(self, rng):
        out = relu(Tensor4(rng.normal(size=(2, 3, 4, 4))))
        assert np.all(out.data >= 0.0)

    def test_sigmoid_symmetry_point(self):
        assert sigmoid(t4([[[[0.0]]]])).data.reshape(()) == 0.5

    def test_sigmoid_closed_form(self):
        # sigmoid(ln 3) = 3 / 4
        out = sigmoid(t4([[[[math.log(3.0)]]]])).data.reshape(())
        assert abs(out - 0.75) < 1e-15

    def test_sigmoid_open_interval(self, rng):
        x = Tensor4(rng.uniform(-10, 10, size=(2, 3, 6, 6)))
        out = sigmoid(x).data
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)

    def test_sigmoid_extreme_stability(self):
        out = sigmoid(t4([[[[-500.0, 500.0]]]])).data
        assert np.all(np.isfinite(out))


class TestGlobalAvgPool:
    def test_constant(self):
        x = t4(np.full((2, 3, 4, 4), 1.25))
        out = global_avg_pool(x)
        assert out.data.shape == (2, 3, 1, 1)
        assert np.all(out.data == 1.25)

    def test_mean_oracle(self):
        x = t4([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert global_avg_pool(x).data.reshape(()) == 2.5

    def test_zeros(self):
        x = t4(np.zeros((1, 2, 3, 3)))
        assert np.all(global_avg_pool(x).data == 0.0)
