import json

import numpy as np
import pytest

from caggnet import functional as F
from caggnet.autograd import (
    FD_MAX_COORDS,
    AutogradError,
    Tape,
    backward,
    finite_diff_check,
)


def leaf(tape, data):
    return tape.leaf(np.asarray(data, dtype=np.float64))


def ones_like(v):
    return np.ones_like(v.value)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        # a ones cotangent asks for the gradient of sum(x + c)
        t = Tape()
        x = leaf(t, np.arange(4.0).reshape(1, 1, 2, 2))
        out = F.add(x, leaf(t, np.ones((1, 1, 2, 2))))
        grads = backward(t, out, ones_like(out))
        assert np.array_equal(grads.get(x.id), np.ones((1, 1, 2, 2)))

    def test_sum_of_squares_hand_gradient(self):
        # d/dx sum(x*x) = 2x, so x = [1, 2] gives [2, 4]; x scales itself
        # per channel, so the gradient takes both operand paths
        t = Tape()
        x = leaf(t, np.array([1.0, 2.0]).reshape(1, 2, 1, 1))
        out = F.channel_scale(x, x)
        grads = backward(t, out, ones_like(out))
        assert np.allclose(grads.get(x.id), [[[[2.0]], [[4.0]]]], atol=0, rtol=0)

    def test_disconnected_leaf_has_no_gradient(self):
        t = Tape()
        x = leaf(t, np.ones((1, 1, 2, 2)))
        p = leaf(t, np.ones((1, 1, 3, 3)))
        out = F.relu(x)
        grads = backward(t, out, ones_like(out))
        assert grads.get(p.id) is None
        assert p.id not in grads

    def test_multi_path_accumulation(self):
        t = Tape()
        x = leaf(t, np.full((1, 1, 2, 2), 3.0))
        out = F.add(x, x)
        grads = backward(t, out, ones_like(out))
        assert np.array_equal(grads.get(x.id), np.full((1, 1, 2, 2), 2.0))

    def test_result_holds_only_the_reached_leaves(self):
        # interior gradients are dropped once their node is reached
        t = Tape()
        x = leaf(t, np.full((1, 1, 2, 2), 3.0))
        w = leaf(t, np.full((1, 1, 1, 1), 0.5))
        leaf(t, np.ones((1, 1, 2, 2)))
        out = F.add(F.relu(F.channel_scale(x, w)), x)
        grads = backward(t, out, ones_like(out))
        assert set(grads) == {x.id, w.id}
        assert np.array_equal(grads[x.id], np.full((1, 1, 2, 2), 1.5))
        assert np.array_equal(grads[w.id], np.full((1, 1, 1, 1), 12.0))

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        x = leaf(t, np.ones((1, 1, 2, 2)))
        y = F.add(x, x)
        with pytest.raises(AutogradError, match="1, 1, 1, 1"):
            backward(t, y)

    def test_foreign_loss_rejected(self):
        t, other = Tape(), Tape()
        leaf(t, np.ones((1, 1, 1, 1)))
        loss = F.relu(leaf(other, np.ones((1, 1, 1, 1))))
        with pytest.raises(AutogradError, match="another tape"):
            backward(t, loss)

    def test_cotangent_of_another_shape_rejected(self):
        t = Tape()
        out = F.relu(leaf(t, np.ones((1, 1, 2, 2))))
        with pytest.raises(AutogradError,
                           match=r"\(1, 1, 2, 1\).*\(1, 1, 2, 2\)"):
            backward(t, out, np.ones((1, 1, 2, 1)))

    def test_returned_gradients_may_share_the_cotangent(self):
        # `add` passes its gradient on as it is, so both leaves get `g`
        # itself; the flat gradient that training reads is a fresh array
        from caggnet.models import ParamStore

        store = ParamStore()
        store.add("a", np.zeros((1, 2, 2, 2)))
        store.add("b", np.zeros((1, 2, 2, 2)))
        t = Tape()
        a, b = t.leaf(store["a"]), t.leaf(store["b"])
        g = np.arange(8.0).reshape(1, 2, 2, 2)
        grads = backward(t, F.add(a, b), g)
        assert grads[a.id] is g and grads[b.id] is g
        flat = store.apply_grads(t, grads)
        assert np.array_equal(flat, np.concatenate([g.ravel(), g.ravel()]))
        assert not any(np.shares_memory(flat, x) for x in (g, *grads.values()))

    def test_mixed_dtypes_rejected(self):
        t = Tape()
        t.leaf(np.ones((1, 1, 1, 1), dtype=np.float64))
        with pytest.raises(AutogradError, match="mixed"):
            t.leaf(np.ones((1, 1, 1, 1), dtype=np.float32))

    def test_leaf_registration_is_cached(self):
        t = Tape()
        arr = np.ones((1, 1, 2, 2))
        a = t.leaf(arr)
        b = t.leaf(arr)
        assert a.id == b.id
        assert t.leaf_id_for(arr) == a.id


class TestLinearityAndReplay:
    @staticmethod
    def graph(rng):
        t = Tape()
        x = t.leaf(rng.normal(size=(1, 2, 4, 4)))
        w = t.leaf(rng.normal(size=(3, 2, 3, 3)))
        b = t.leaf(np.zeros(3))
        return t, x, F.relu(F.conv2d(x, w, b))

    def test_backward_is_linear(self, rng):
        t, x, out = self.graph(rng)
        g1 = rng.normal(size=out.value.shape)
        g2 = rng.normal(size=out.value.shape)
        a, b = 1.7, -0.3
        combo = backward(t, out, a * g1 + b * g2)[x.id]
        d1 = backward(t, out, g1)[x.id]
        d2 = backward(t, out, g2)[x.id]
        assert np.max(np.abs(combo - (a * d1 + b * d2))) < 1e-10

    def test_replay_is_bit_identical(self, rng):
        t, _, out = self.graph(rng)
        g = rng.normal(size=out.value.shape)
        g1 = backward(t, out, g)
        g2 = backward(t, out, g)
        for tid, arr in g1.items():
            assert arr.tobytes() == g2.get(tid).tobytes()


class TestFiniteDiffCheck:
    @staticmethod
    def quadratic(params):
        # x * x per channel; the checker weights and sums it
        t = Tape()
        x = t.leaf(params["x"])
        return F.channel_scale(x, x), {"x": x}

    def test_quadratic(self, rng):
        params = {"x": rng.normal(size=(1, 9, 1, 1))}
        report = finite_diff_check(self.quadratic, params, name="quadratic")
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_sigmoid_slope_at_zero(self):
        # sigmoid'(0) = 0.25 exactly
        params = {"w": np.zeros((1, 1, 1, 1))}

        def build(p):
            t = Tape()
            w = t.leaf(p["w"])
            return F.sigmoid(w), {"w": w}

        out, leaves = build(params)
        grad = backward(out.tape, out)[leaves["w"].id]
        assert abs(float(grad.reshape(())) - 0.25) < 1e-15
        report = finite_diff_check(build, params, name="sigmoid0")
        assert report.passed and report.max_rel_err < 1e-8

    def test_requires_double_precision(self):
        params = {"x": np.zeros((1, 1, 2, 2), dtype=np.float32)}
        with pytest.raises(AutogradError, match="float64"):
            finite_diff_check(self.quadratic, params)

    def test_sampled_coordinates_capped(self, rng):
        calls = {"n": 0}
        params = {"x": rng.normal(size=(1, 1600, 1, 1))}

        def counting(p):
            calls["n"] += 1
            return self.quadratic(p)

        report = finite_diff_check(counting, params)
        assert report.passed
        # one build for the tape gradient, two per sampled coordinate
        assert calls["n"] == 1 + 2 * FD_MAX_COORDS == 1 + 2 * 256

    def test_report_json_shape(self, rng):
        params = {"x": rng.normal(size=(1, 4, 1, 1))}
        report = finite_diff_check(self.quadratic, params, name="quad")
        payload = json.loads(report.to_json())
        assert set(payload) == {"op", "max_rel_err", "worst_coord", "passed"}
        assert payload["op"] == "quad"
        assert payload["passed"] is True

    def test_transposed_rule_caught_on_non_scalar_output(self, rng, monkeypatch):
        # a rule that swaps two entries of a gradient: an unweighted sum
        # of the output would not see it, the checker's cotangent does
        from caggnet.autograd import RULES

        params = {"a": rng.normal(size=(1, 1, 2, 2)),
                  "b": rng.normal(size=(1, 1, 2, 2))}

        def build(p):
            t = Tape()
            lv = {k: t.leaf(arr) for k, arr in p.items()}
            return F.add(lv["a"], lv["b"]), lv

        assert finite_diff_check(build, params).passed
        right = RULES["add"]

        def transposed(node, g):
            ga, gb = right(node, g)
            ga = ga.copy()
            ga[0, 0, 0, [0, 1]] = ga[0, 0, 0, [1, 0]]
            return ga, gb

        monkeypatch.setitem(RULES, "add", transposed)
        report = finite_diff_check(build, params)
        assert not report.passed
        assert report.worst_coord in (("a", 0), ("a", 1))


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        from caggnet.autograd import register_backward

        with pytest.raises(AutogradError, match="twice"):
            register_backward("add", lambda node, g: (g, g))

    def test_unregistered_op_rejected(self):
        t = Tape()
        x = t.leaf(np.ones((1, 1, 1, 1)))
        with pytest.raises(AutogradError, match="no registered backward"):
            t.record("no_such_op", (x,), np.ones((1, 1, 1, 1)))

    def test_cross_tape_operands_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones((1, 1, 1, 1)))
        b = t2.leaf(np.ones((1, 1, 1, 1)))
        with pytest.raises(AutogradError, match="different tapes"):
            F.add(a, b)

    def test_every_registered_op_passes_its_finite_difference_check(self):
        from caggnet.autograd import RULES
        from caggnet.gradcheck import op_checks

        reports = op_checks()
        for op in RULES:
            mine = [r for r in reports
                    if r.op == op or r.op.startswith(op + "_")]
            assert mine, f"{op} has no finite-difference report"
            failed = [r.op for r in mine if not r.passed]
            assert not failed, f"{op} fails its finite-difference check: {failed}"


class TestNoGrad:
    def test_records_nothing(self):
        t = Tape(grad=False)
        x = leaf(t, np.full((1, 1, 2, 2), 2.0))
        y = F.relu(F.add(x, x))
        assert (x.id, y.id) == (-1, -1)
        assert t.values == [] and t.nodes == []
        assert t.leaf_id_for(x.value) is None
        assert np.array_equal(y.value, np.full((1, 1, 2, 2), 4.0))

    def test_backward_rejected(self):
        t = Tape(grad=False)
        loss = F.relu(leaf(t, np.ones((1, 1, 1, 1))))
        with pytest.raises(AutogradError, match="recording tape"):
            backward(t, loss)

    def test_mixed_dtypes_rejected(self):
        t = Tape(grad=False)
        x = t.leaf(np.ones((1, 1, 1, 1), dtype=np.float64))
        with pytest.raises(AutogradError, match="mixed"):
            t.leaf(np.ones((1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(AutogradError, match="mixed"):
            t.record("add", (x, x), np.ones((1, 1, 1, 1), dtype=np.float32))

    def test_unregistered_op_rejected(self):
        t = Tape(grad=False)
        x = t.leaf(np.ones((1, 1, 1, 1)))
        with pytest.raises(AutogradError, match="no registered backward"):
            t.record("no_such_op", (x,), np.ones((1, 1, 1, 1)))

    @pytest.mark.parametrize("grads", [(False, False), (False, True), (True, False)])
    def test_cross_tape_operands_rejected(self, grads):
        t1, t2 = Tape(grad=grads[0]), Tape(grad=grads[1])
        a = t1.leaf(np.ones((1, 1, 1, 1)))
        b = t2.leaf(np.ones((1, 1, 1, 1)))
        with pytest.raises(AutogradError, match="different tapes"):
            F.add(a, b)
