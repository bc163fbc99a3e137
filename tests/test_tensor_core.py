import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caggnet import functional as F
from caggnet.autograd import RULES, Tape
from caggnet.tensor_core import ShapeError, Tensor4, TensorError


def eager(op, *tensors):
    """One functional op applied on a tape that records nothing."""
    t = Tape(grad=False)
    return Tensor4(op(*[t.leaf(a.data) for a in tensors]).value)


def add(a, b):
    return eager(F.add, a, b)


def concat_channels(parts):
    return eager(lambda *vs: F.concat_channels(list(vs)), *parts)


def channel_scale(x, w):
    return eager(F.channel_scale, x, w)


def t4(data, dtype=np.float64):
    return Tensor4(np.array(data, dtype=dtype))


class TestTensor4:
    def test_rejects_nan_and_inf(self):
        with pytest.raises(TensorError):
            t4([[[[np.nan]]]])
        with pytest.raises(TensorError):
            t4([[[[np.inf]]]])

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 2), dtype=np.float64))

    @pytest.mark.parametrize("shape", [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1),
                                       (1, 1, 1, 0)])
    def test_rejects_zero_extent(self, shape):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros(shape))

    def test_rejects_int_dtype(self):
        with pytest.raises(TensorError):
            Tensor4(np.zeros((1, 1, 1, 1), dtype=np.int64))

    def test_frozen_after_construction(self):
        x = t4([[[[1.0, 2.0]]]])
        with pytest.raises(ValueError):
            x.data[0, 0, 0, 0] = 5.0

    def test_dtype_tags(self):
        assert t4([[[[0.0]]]], np.float32).dtype_tag == "single"
        assert t4([[[[0.0]]]], np.float64).dtype_tag == "double"


class TestAdd:
    def test_elementwise_oracle(self):
        a = t4([[[[1.0, 2.0]]]])
        b = t4([[[[3.0, 4.0]]]])
        out = add(a, b)
        # independent scalar-loop oracle
        expect = np.empty_like(a.data)
        for idx in np.ndindex(a.data.shape):
            expect[idx] = a.data[idx] + b.data[idx]
        assert np.array_equal(out.data, expect)
        assert np.array_equal(out.data, [[[[4.0, 6.0]]]])

    def test_identity_and_inverse(self, rng):
        x = Tensor4(rng.normal(size=(2, 3, 4, 4)))
        z = Tensor4(np.zeros(x.data.shape))
        assert np.array_equal(add(x, z).data, x.data)
        neg = Tensor4(-x.data)
        assert np.all(add(x, neg).data == 0.0)

    def test_commutative(self, rng):
        a = Tensor4(rng.normal(size=(1, 2, 3, 3)))
        b = Tensor4(rng.normal(size=(1, 2, 3, 3)))
        assert np.array_equal(add(a, b).data, add(b, a).data)

    def test_shape_mismatch_names_both(self):
        a = Tensor4(np.zeros((1, 2, 3, 3)))
        b = Tensor4(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match=r"1, 2, 3, 3.*1, 3, 3, 3"):
            add(a, b)


class TestConcatChannels:
    def test_shape_contract(self, rng):
        a = Tensor4(rng.normal(size=(1, 2, 4, 4)))
        b = Tensor4(rng.normal(size=(1, 3, 4, 4)))
        assert concat_channels([a, b]).data.shape == (1, 5, 4, 4)

    def test_single_part_identity(self, rng):
        a = Tensor4(rng.normal(size=(2, 3, 4, 4)))
        assert np.array_equal(concat_channels([a]).data, a.data)

    def test_slice_back_recovers_parts(self, rng):
        parts = [Tensor4(rng.normal(size=(2, c, 4, 4))) for c in (2, 3, 1)]
        out = concat_channels(parts)
        start = 0
        for p in parts:
            got = out.data[:, start:start + p.c]
            assert np.array_equal(got, p.data)
            start += p.c

    def test_empty_list(self):
        with pytest.raises(ShapeError):
            concat_channels([])

    def test_spatial_mismatch(self, rng):
        a = Tensor4(rng.normal(size=(1, 2, 4, 4)))
        b = Tensor4(rng.normal(size=(1, 2, 2, 2)))
        with pytest.raises(ShapeError):
            concat_channels([a, b])


class TestChannelScale:
    def test_ones_identity(self, rng):
        x = Tensor4(rng.normal(size=(2, 3, 4, 4)))
        w = Tensor4(np.ones((2, 3, 1, 1)))
        assert np.array_equal(channel_scale(x, w).data, x.data)

    def test_zeros_annihilate(self, rng):
        x = Tensor4(rng.normal(size=(2, 3, 4, 4)))
        w = Tensor4(np.zeros((2, 3, 1, 1)))
        assert np.all(channel_scale(x, w).data == 0.0)

    def test_broadcast_product_oracle(self):
        x = t4([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = t4([[[[0.5]]]])
        out = channel_scale(x, w)
        # independent scalar-loop oracle
        expect = np.empty_like(x.data)
        for n, c, i, j in np.ndindex(x.data.shape):
            expect[n, c, i, j] = x.data[n, c, i, j] * w.data[n, c, 0, 0]
        assert np.array_equal(out.data, expect)
        assert np.array_equal(out.data, [[[[0.5, 1.0], [1.5, 2.0]]]])

    def test_shape_mismatch(self, rng):
        x = Tensor4(rng.normal(size=(2, 3, 4, 4)))
        w = Tensor4(np.ones((2, 2, 1, 1)))
        with pytest.raises(ShapeError):
            channel_scale(x, w)


class TestPurityAndBounds:
    def test_ops_do_not_mutate_inputs(self, rng):
        a = Tensor4(rng.normal(size=(1, 2, 4, 4)))
        b = Tensor4(rng.normal(size=(1, 2, 4, 4)))
        w = Tensor4(rng.uniform(0.1, 1.0, size=(1, 2, 1, 1)))
        before = (a.data.tobytes(), b.data.tobytes(), w.data.tobytes())
        add(a, b)
        concat_channels([a, b])
        channel_scale(a, w)
        after = (a.data.tobytes(), b.data.tobytes(), w.data.tobytes())
        assert before == after

    def test_repeat_calls_bit_identical(self, rng):
        a = Tensor4(rng.normal(size=(1, 2, 4, 4)))
        b = Tensor4(rng.normal(size=(1, 2, 4, 4)))
        assert add(a, b).data.tobytes() == add(a, b).data.tobytes()

    def test_canary_padding_untouched(self, rng):
        # run the raw kernels on interior views of a padded buffer and
        # confirm the canary border is never read or written
        canary = 777.0
        buf_a = np.full((1, 2, 8, 8), canary)
        buf_b = np.full((1, 2, 8, 8), canary)
        inner = (slice(None), slice(None), slice(2, 6), slice(2, 6))
        buf_a[inner] = rng.normal(size=(1, 2, 4, 4))
        buf_b[inner] = rng.normal(size=(1, 2, 4, 4))
        a_view, b_view = buf_a[inner], buf_b[inner]
        clean = a_view.copy() + b_view.copy()
        out = a_view + b_view  # the add kernel is plain ndarray addition
        assert np.array_equal(out, clean)
        assert np.all(buf_a[:, :, :2, :] == canary)
        assert np.all(buf_a[:, :, 6:, :] == canary)
        assert np.all(buf_b[:, :, :, :2] == canary)
        assert np.all(buf_b[:, :, :, 6:] == canary)

        cat = np.concatenate([a_view, b_view], axis=1)
        assert np.array_equal(cat[:, :2], a_view)
        assert np.all(buf_a[:, :, :2, :] == canary)


# --- property tests ------------------------------------------------------------
#
# Derandomized with a small example budget, so every run checks the same
# cases and stays fast.

PROPERTY = settings(derandomize=True, database=None, max_examples=30,
                    deadline=None)


class TestConcatChannelsProperties:
    @PROPERTY
    @given(widths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           n=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5),
           dtype=st.sampled_from([np.float32, np.float64]))
    def test_backward_split_reassembles_gradient(self, widths, n, h, w, dtype):
        tape = Tape()
        parts = [tape.leaf(np.full((n, c, h, w), k, dtype=dtype))
                 for k, c in enumerate(widths)]
        out = F.concat_channels(parts).value
        assert out.shape == (n, sum(widths), h, w)
        start = 0
        for k, c in enumerate(widths):
            assert np.all(out[:, start:start + c] == k)
            start += c
        g = np.arange(out.size, dtype=dtype).reshape(out.shape)
        grads = RULES["concat_channels"](tape.nodes[-1], g)
        assert [a.shape for a in grads] == [p.value.shape for p in parts]
        assert np.concatenate(grads, axis=1).tobytes() == g.tobytes()
