import copy
import gc
import math
import weakref

import numpy as np
import pytest

from caggnet import models
from caggnet import train as train_mod
from caggnet.autograd import Tape, backward
from caggnet.models import ModelConfig, ParamStore, build_caggnet
from caggnet.tensor_core import ShapeError, Tensor4
from caggnet.train import (
    AdamState,
    EarlyStopper,
    FocalLossConfig,
    TrainingDiverged,
    adam_step,
    make_loss,
    traced_bce_loss,
    traced_focal_loss,
    train_loop,
)


def prob_map(data):
    return Tensor4(np.asarray(data, dtype=np.float64))


def loss_value(loss, pred, target, *args) -> float:
    """A traced loss evaluated on a tape that records nothing."""
    pv = Tape(grad=False).leaf(pred.data)
    return float(loss(pv, target.data, *args).value.reshape(()))


class TestBceLoss:
    def test_uniform_half_is_ln2(self):
        pred = prob_map(np.full((1, 1, 4, 4), 0.5))
        target = prob_map((np.arange(16).reshape(1, 1, 4, 4) % 2).astype(float))
        assert abs(loss_value(traced_bce_loss, pred, target) - math.log(2.0)) < 1e-12

    def test_perfect_prediction_near_zero(self):
        target = prob_map([[[[0.0, 1.0], [1.0, 0.0]]]])
        assert loss_value(traced_bce_loss, target, target) < 1e-6

    def test_single_pixel_hand_value(self):
        # -ln(0.9) for p = 0.9, y = 1
        loss = loss_value(traced_bce_loss, prob_map([[[[0.9]]]]),
                          prob_map([[[[1.0]]]]))
        assert abs(loss - 0.10536051565782628) < 1e-15

    def test_saturated_wrong_prediction_is_clamped(self):
        # p = 0 against y = 1 and p = 1 against y = 0 each cost -log(CLAMP_EPS)
        pred, target = prob_map([[[[0.0, 1.0]]]]), prob_map([[[[1.0, 0.0]]]])
        loss = loss_value(make_loss("bce"), pred, target)
        assert train_mod.CLAMP_EPS == 1e-7
        assert abs(loss + math.log(1e-7)) <= 1e-9 * -math.log(1e-7)


class TestFocalLoss:
    def test_gamma0_alpha_half_is_half_bce(self, rng):
        cfg = FocalLossConfig(alpha=0.5, gamma=0.0)
        for _ in range(50):
            pred = prob_map(rng.uniform(0.02, 0.98, size=(1, 1, 5, 5)))
            target = prob_map((rng.random((1, 1, 5, 5)) < 0.5).astype(float))
            fl = loss_value(traced_focal_loss, pred, target, cfg)
            ref = 0.5 * loss_value(traced_bce_loss, pred, target)
            assert abs(fl - ref) <= 1e-9 * abs(ref)

    def test_confident_correct_prediction_near_zero(self):
        cfg = FocalLossConfig(alpha=0.25, gamma=2.0)
        pred = prob_map(np.full((1, 1, 2, 2), 1.0 - 1e-7))
        target = prob_map(np.ones((1, 1, 2, 2)))
        assert loss_value(traced_focal_loss, pred, target, cfg) < 1e-12

    def test_hand_value(self):
        # alpha (1-p)^gamma (-ln p) = 0.25 * 0.25 * ln 2 at p = 0.5, y = 1
        cfg = FocalLossConfig(alpha=0.25, gamma=2.0)
        loss = loss_value(traced_focal_loss, prob_map([[[[0.5]]]]),
                          prob_map([[[[1.0]]]]), cfg)
        assert abs(loss - 0.25 * 0.25 * math.log(2.0)) < 1e-15
        assert abs(loss - 0.043321698784996581) < 1e-15

    def test_monotone_decreasing_in_pt(self):
        cfg = FocalLossConfig(alpha=0.25, gamma=2.0)
        target = prob_map([[[[1.0]]]])
        grid = np.linspace(0.02, 0.98, 49)
        losses = [loss_value(traced_focal_loss, prob_map([[[[p]]]]), target, cfg)
                  for p in grid]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("field,value", [("alpha", 0.0), ("alpha", 1.0),
                                             ("gamma", -1.0)])
    def test_config_validation(self, field, value):
        kwargs = {"alpha": 0.25, "gamma": 2.0, field: value}
        with pytest.raises(ValueError):
            FocalLossConfig(**kwargs)

    def test_traced_losses_match_plain(self, rng):
        pred = rng.uniform(0.05, 0.95, size=(1, 1, 4, 4))
        target = (rng.random((1, 1, 4, 4)) < 0.5).astype(np.float64)
        cfg = FocalLossConfig(alpha=0.3, gamma=1.5)
        recording, plain = Tape(), Tape(grad=False)
        for loss, args in ((traced_bce_loss, ()), (traced_focal_loss, (cfg,))):
            recorded = loss(recording.leaf(pred), target, *args).value
            assert loss(plain.leaf(pred), target, *args).value.tobytes() == \
                recorded.tobytes()
        assert len(recording.nodes) == 2
        assert plain.nodes == [] and plain.values == []

    def test_loss_gradients_pass_fd(self):
        from caggnet.gradcheck import op_checks

        reports = {r.op: r for r in op_checks()}
        for name in ("bce_loss", "focal_loss_g2", "focal_loss_g0"):
            assert reports[name].passed
            assert reports[name].max_rel_err < 1e-4


class TestAdam:
    def make_store(self, values):
        store = ParamStore()
        for name, v in values.items():
            store.add(name, np.asarray(v, dtype=np.float64))
        return store

    def test_hand_step(self):
        # w=0, g=1, t=1: m_hat=1, v_hat=1 -> step is -lr/(1 + eps)
        store = self.make_store({"w": [0.0]})
        adam_step(store, AdamState(lr=1e-3), np.array([1.0]))
        assert abs(store["w"][0] + 1e-3) < 1e-6

    def test_zero_gradient_is_noop_on_value(self):
        store = self.make_store({"w": [1.5, -2.0]})
        adam_step(store, AdamState(), np.zeros(2))
        assert np.array_equal(store["w"], [1.5, -2.0])

    def test_nan_gradient_aborts_with_name(self):
        store = self.make_store({"ok": [0.0, 0.0], "bad_param": [0.0]})
        state = AdamState()
        with pytest.raises(TrainingDiverged, match="bad_param"):
            adam_step(store, state, np.array([1.0, 1.0, np.nan]))
        # the failed step changed nothing
        assert np.array_equal(store["ok"], [0.0, 0.0])
        assert state.t == 0 and state.m is None

    def test_gradient_size_must_match_store(self):
        store = self.make_store({"w": [0.0, 0.0]})
        with pytest.raises(ShapeError, match="2 trainable values"):
            adam_step(store, AdamState(), np.zeros(3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_parameter_formula_and_skips_buffers(self, rng, dtype):
        store = ParamStore()
        store.add("a", rng.normal(size=(2, 3)).astype(dtype))
        store.add("stat", rng.normal(size=4).astype(dtype), trainable=False)
        store.add("b", rng.normal(size=5).astype(dtype))
        stat = store["stat"].copy()
        lr, b1, b2, eps = 1e-2, 0.8, 0.99, 1e-6
        state = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
        want = {n: store[n].copy() for n in ("a", "b")}
        m = {n: np.zeros_like(w) for n, w in want.items()}
        v = {n: np.zeros_like(w) for n, w in want.items()}
        for t in range(1, 5):
            g = {n: (rng.normal(size=w.shape) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
                 for n, w in want.items()}
            adam_step(store, state, np.concatenate([g["a"].ravel(), g["b"]]))
            for n in want:
                m[n] = b1 * m[n] + (1.0 - b1) * g[n]
                v[n] = b2 * v[n] + (1.0 - b2) * g[n] * g[n]
                m_hat = m[n] / (1.0 - b1 ** t)
                v_hat = v[n] / (1.0 - b2 ** t)
                want[n] = want[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert store[n].dtype == dtype
                assert store[n].tobytes() == want[n].tobytes()
        assert store["stat"].tobytes() == stat.tobytes()

    def test_identical_runs_identical_trajectories(self, rng):
        init = rng.normal(size=(4,))
        grads = [rng.normal(size=(4,)) for _ in range(10)]

        def run():
            store = self.make_store({"w": init.copy()})
            state = AdamState(lr=1e-2)
            for g in grads:
                adam_step(store, state, g)
            return store["w"].tobytes()

        assert run() == run()


class TestEarlyStopper:
    def test_stops_after_patience_plus_one_flat_epochs(self):
        stopper = EarlyStopper(patience=3)
        assert stopper.update(0.5)  # first observation improves
        stalls = 0
        while not stopper.should_stop:
            stopper.update(0.5)  # frozen metric
            stalls += 1
        assert stalls == 4  # patience + 1

    def test_improvement_resets_counter(self):
        stopper = EarlyStopper(patience=2)
        stopper.update(0.1)
        stopper.update(0.1)
        stopper.update(0.2)
        assert stopper.epochs_since_best == 0
        assert not stopper.should_stop


def make_dataset(rng, count=4, size=16):
    from caggnet.data_io import SynthConfig, gen_synthetic

    return gen_synthetic(SynthConfig(count=count, size=size, blobs_min=1,
                                     blobs_max=2, radius_min=3, radius_max=5,
                                     noise_sigma=0.02, seed=7))


class TestTrainLoop:
    def tiny_model(self, seed=0):
        cfg = ModelConfig(levels=2, columns=1, base_channels=4, in_channels=1,
                          seed=seed, dtype="single")
        return build_caggnet(cfg)

    def test_smoke_one_epoch(self, rng):
        samples = make_dataset(rng, count=2)
        model = self.tiny_model()
        log = train_loop(model, samples, samples, make_loss("bce"),
                         AdamState(), EarlyStopper(patience=5), epochs_max=1,
                         batch_size=2, seed=0)
        assert len(log.rows) == 1
        assert math.isfinite(log.rows[0].train_loss)

    @pytest.mark.parametrize("adam,patience,epochs_max,named", [
        (dict(lr=0.0), 2, 1, "lr"),
        (dict(lr=-1e-3), 2, 1, "lr"),
        ({}, -1, 1, "patience"),
        ({}, 2, 0, "epochs_max"),
        (dict(lr=float("nan")), 2, 1, "lr"),
        (dict(beta1=1.0), 2, 1, "beta1"),
        (dict(beta1=-0.1), 2, 1, "beta1"),
        (dict(beta2=1.5), 2, 1, "beta2"),
        (dict(eps=0.0), 2, 1, "eps"),
        (dict(eps=float("nan")), 2, 1, "eps"),
    ])
    def test_bad_training_knob_rejected(self, rng, adam, patience, epochs_max,
                                        named):
        samples = make_dataset(rng, count=2)
        with pytest.raises(ValueError, match=named):
            train_loop(self.tiny_model(), samples, samples, make_loss("bce"),
                       AdamState(**adam), EarlyStopper(patience=patience),
                       epochs_max=epochs_max, batch_size=2)

    def test_empty_dataset_rejected(self):
        model = self.tiny_model()
        with pytest.raises(ValueError, match="non-empty"):
            train_loop(model, [], [], make_loss("bce"), AdamState(),
                       EarlyStopper(), epochs_max=1, batch_size=1)

    def test_early_stop_breaks_loop(self, rng, monkeypatch):
        samples = make_dataset(rng, count=2)
        model = self.tiny_model()
        # frozen weights: only the batch-norm running stats move
        monkeypatch.setattr(train_mod, "adam_step", lambda store, state, grad: None)
        log = train_loop(model, samples, samples, make_loss("bce"),
                         AdamState(), EarlyStopper(patience=2),
                         epochs_max=50, batch_size=2, seed=0)
        # exactly patience+1 non-improving epochs follow the last best one,
        # well before epochs_max
        assert len(log.rows) == log.best_epoch + 1 + 2 + 1 < 50

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self, rng):
        samples = make_dataset(rng, count=2)
        model = self.tiny_model()
        with pytest.raises(TrainingDiverged):
            train_loop(model, samples, samples, make_loss("focal"),
                       AdamState(lr=1e12), EarlyStopper(), epochs_max=30,
                       batch_size=2, seed=0)

    def test_csv_log_layout(self, tmp_path, rng):
        samples = make_dataset(rng, count=2)
        model = self.tiny_model()
        log = train_loop(model, samples, samples, make_loss("bce"),
                         AdamState(), EarlyStopper(), epochs_max=2,
                         batch_size=2, seed=0)
        log.write_csv(tmp_path / "log.csv")
        log.write_timing_csv(tmp_path / "timing.csv")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_iou,val_f1"
        assert len(lines) == 1 + len(log.rows)
        assert (tmp_path / "timing.csv").read_text().startswith("epoch,seconds")

    def test_best_checkpoint_restored(self, rng, tmp_path):
        samples = make_dataset(rng, count=4)
        model = self.tiny_model()
        log = train_loop(model, samples[:2], samples[2:], make_loss("bce"),
                         AdamState(), EarlyStopper(patience=3), epochs_max=4,
                         batch_size=2, seed=0,
                         checkpoint_dir=tmp_path / "ckpt")
        from caggnet.metrics import evaluate_model
        from caggnet.models import load_checkpoint

        restored = load_checkpoint(tmp_path / "ckpt")
        a = evaluate_model(model, samples[2:])
        b = evaluate_model(restored, samples[2:])
        assert a.mean_iou == b.mean_iou == log.best_val_iou

    def test_one_training_tape_alive_at_a_time(self, rng, monkeypatch):
        # a step's tape is freed by reference counting before the next
        # batch's forward and before validation's, so the peak holds one
        # tape; the cyclic collector is off so that it cannot free it
        samples = make_dataset(rng, count=5)
        original = models.forward
        tapes, alive, modes = [], [], []

        def watched(model, x, training=False):
            alive.append(sum(ref() is not None for ref in tapes))
            modes.append(training)
            fp = original(model, x, training=training)
            if training:
                tapes.append(weakref.ref(fp.tape))
            return fp

        monkeypatch.setattr(train_mod, "forward", watched)
        monkeypatch.setattr(models, "forward", watched)
        gc.disable()
        try:
            train_loop(self.tiny_model(), samples[:3], samples[3:],
                       make_loss("bce"), AdamState(), EarlyStopper(),
                       epochs_max=2, batch_size=1, seed=0)
        finally:
            gc.enable()
        assert modes.count(True) == len(tapes) == 6
        assert modes.count(False) >= 2
        assert alive == [0] * len(modes)

    def test_deepcopy_trains_on_to_the_same_bytes(self, rng):
        # a benchmark pass trains a deep copy of the model and its optimizer:
        # the copy must train exactly as the original would
        samples = make_dataset(rng, count=4)

        def epochs(model, adam, seed):
            return train_loop(model, samples[:2], samples[2:], make_loss("bce"),
                              adam, EarlyStopper(), epochs_max=2, batch_size=1,
                              seed=seed)

        model, adam = self.tiny_model(), AdamState(lr=1e-2)
        epochs(model, adam, seed=0)
        twin, twin_adam = copy.deepcopy(model), copy.deepcopy(adam)
        before = model.params.snapshot()
        log, twin_log = epochs(model, adam, seed=1), epochs(twin, twin_adam, seed=1)
        assert log.rows == twin_log.rows
        assert adam.t == twin_adam.t == 8
        assert adam.m.tobytes() == twin_adam.m.tobytes()
        assert adam.v.tobytes() == twin_adam.v.tobytes()
        for name, p in model.params.items():
            assert p.value.tobytes() == twin.params[name].tobytes()
        assert any(not np.array_equal(before[name], p.value)
                   for name, p in model.params.items())
