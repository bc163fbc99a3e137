from pathlib import Path

import numpy as np
import pytest

from caggnet import functional as F
from caggnet import models
from caggnet.autograd import AutogradError, Tape, backward
from caggnet.blocks import cam_forward, conv_block_forward, wam_head
from caggnet.models import (
    ConfigError,
    ModelConfig,
    build_caggnet,
    build_unet,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from caggnet.tensor_core import ShapeError, Tensor4


def conv_count(c_in, c_out, k):
    return c_in * c_out * k * k + c_out


def bn_count(c):
    return 2 * c  # gamma + beta (running stats are not trainable)


def block_count(c_in, c_out):
    return (conv_count(c_in, c_out, 3) + bn_count(c_out)
            + conv_count(c_out, c_out, 3) + bn_count(c_out))


class TestParameterCounts:
    def test_caggnet_hand_enumeration(self, tiny_cfg):
        model = build_caggnet(tiny_cfg)
        c0, c1 = 2, 4
        expected = (
            block_count(1, c0)            # encoder level 0
            + block_count(c0, c1)         # encoder level 1
            + block_count(c0 + c1, c0)    # cam column 1, level 0 (same+below)
            + block_count(c1 + c0, c1)    # cam column 1, level 1 (same+above)
            + conv_count(c0, c0 // 2, 1) + conv_count(c0 // 2, c0, 1)  # wab0
            + conv_count(c1, c1 // 2, 1) + conv_count(c1 // 2, c1, 1)  # wab1
            + conv_count(c0 + c1, c0, 1)  # fuse level 0
            + conv_count(c0, 1, 1)        # head
        )
        assert expected == 892
        assert model.params.trainable_count() == expected

    def test_unet_hand_enumeration(self, tiny_cfg):
        model = build_unet(tiny_cfg)
        c0, c1 = 2, 4
        expected = (
            block_count(1, c0)
            + block_count(c0, c1)
            + block_count(c0 + c1, c0)    # decoder level 0 (skip + upsampled)
            + conv_count(c0, 1, 1)
        )
        assert expected == 465
        assert model.params.trainable_count() == expected


class TestDeterminismAndValidation:
    @pytest.mark.parametrize("builder", [build_caggnet, build_unet])
    def test_same_seed_same_parameters(self, builder, tiny_cfg):
        m1 = builder(tiny_cfg)
        m2 = builder(tiny_cfg)
        for (n1, p1), (n2, p2) in zip(m1.params.items(), m2.params.items()):
            assert n1 == n2
            assert p1.value.tobytes() == p2.value.tobytes()

    def test_different_seed_different_parameters(self, tiny_cfg):
        import dataclasses

        other = dataclasses.replace(tiny_cfg, seed=tiny_cfg.seed + 1)
        m1 = build_caggnet(tiny_cfg)
        m2 = build_caggnet(other)
        assert m1.params["enc0.conv1.weight"].tobytes() != \
            m2.params["enc0.conv1.weight"].tobytes()

    @pytest.mark.parametrize("field,value", [
        ("levels", 1), ("columns", 0), ("base_channels", 0),
        ("in_channels", 2), ("dtype", "half"), ("seed", -1),
    ])
    def test_config_validation(self, field, value):
        cfg = ModelConfig(**{field: value})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_wab_reduction_must_divide_base(self):
        cfg = ModelConfig(base_channels=3, wab_reduction=2)
        with pytest.raises(ConfigError, match="wab_reduction"):
            cfg.validate()

    def test_spatial_divisibility_error_names_multiple(self, rng):
        cfg = ModelConfig(levels=4, columns=1, base_channels=2, in_channels=1,
                          dtype="double")
        model = build_caggnet(cfg)
        x = Tensor4(rng.uniform(0, 1, size=(1, 1, 60, 60)))
        with pytest.raises(ShapeError, match="divisible by 8"):
            forward(model, x)
        ok = Tensor4(rng.uniform(0, 1, size=(1, 1, 64, 64)))
        out = forward(model, ok).probs
        assert out.data.shape == (1, 1, 64, 64)

    def test_input_dtype_must_match_model(self, rng, tiny_cfg):
        model = build_caggnet(tiny_cfg)
        x = Tensor4(rng.uniform(0, 1, size=(1, 1, 8, 8)).astype(np.float32))
        with pytest.raises(ShapeError, match="precision"):
            forward(model, x)

    def test_channel_mismatch_rejected(self, rng, tiny_cfg):
        model = build_caggnet(tiny_cfg)
        x = Tensor4(rng.uniform(0, 1, size=(1, 3, 8, 8)))
        with pytest.raises(ShapeError, match="input channels"):
            forward(model, x)


class TestForward:
    @pytest.mark.parametrize("builder", [build_caggnet, build_unet])
    def test_probability_map_contract(self, rng, builder):
        cfg = ModelConfig(levels=3, columns=2, base_channels=4, in_channels=1,
                          dtype="double")
        model = builder(cfg)
        x = Tensor4(rng.uniform(0, 1, size=(2, 1, 16, 16)))
        out = forward(model, x).probs
        assert out.data.shape == (2, 1, 16, 16)
        assert np.all((out.data > 0) & (out.data < 1))

    def test_eval_forward_is_pure(self, rng, tiny_cfg):
        model = build_caggnet(tiny_cfg)
        x = Tensor4(rng.uniform(0, 1, size=(1, 1, 8, 8)))
        a = forward(model, x, training=False).probs
        b = forward(model, x, training=False).probs
        assert a.data.tobytes() == b.data.tobytes()

    def test_training_forward_updates_running_stats(self, rng, tiny_cfg):
        model = build_caggnet(tiny_cfg)
        before = model.params["enc0.bn1.running_mean"].copy()
        x = Tensor4(rng.uniform(0, 1, size=(1, 1, 8, 8)))
        forward(model, x, training=True)
        after = model.params["enc0.bn1.running_mean"]
        assert not np.array_equal(before, after)

    def test_matches_manual_schedule_walk(self, rng):
        # independently walk the documented schedule: encoder column, then
        # per column top-down CAM fusion, then the bottom-up head
        cfg = ModelConfig(levels=3, columns=2, base_channels=2, in_channels=1,
                          seed=5, dtype="double")
        model = build_caggnet(cfg)
        x = rng.uniform(0, 1, size=(1, 1, 8, 8))
        got = forward(model, Tensor4(x.copy()), training=False).probs.data

        t = Tape()
        xv = t.leaf(x.copy())
        col = []
        h = xv
        for i in range(cfg.levels):
            if i > 0:
                h = F.maxpool2(h)
            h = conv_block_forward(h, model.params, f"enc{i}", training=False)
            col.append(h)
        for j in range(1, cfg.columns + 1):
            nxt = []
            for i in range(cfg.levels):
                above = nxt[i - 1] if i > 0 else None
                below = col[i + 1] if i < cfg.levels - 1 else None
                nxt.append(cam_forward(col[i], above, below, model.params,
                                       f"cam{j}_{i}", training=False))
            col = nxt
        expect = wam_head(col[::-1], model.params)
        assert np.array_equal(got, expect.value)

    def test_zero_cam_bodies_collapse_grid_to_encoder(self, rng):
        cfg = ModelConfig(levels=2, columns=3, base_channels=2, in_channels=1,
                          seed=9, dtype="double")
        model = build_caggnet(cfg)
        for name, p in model.params.items():
            if name.startswith("cam"):
                p.value[...] = 0.0
        x = rng.uniform(0, 1, size=(1, 1, 8, 8))
        got = forward(model, Tensor4(x.copy()), training=False).probs.data

        # reference: encoder column piped straight into the head
        t = Tape()
        h = t.leaf(x.copy())
        col = []
        for i in range(cfg.levels):
            if i > 0:
                h = F.maxpool2(h)
            h = conv_block_forward(h, model.params, f"enc{i}", training=False)
            col.append(h)
        expect = wam_head(col[::-1], model.params)
        assert np.array_equal(got, expect.value)


class TestBuilderGrid:
    """Every shape a block reads comes from a builder, which no block
    re-checks, and every name a block reads is one the builder registers:
    across a grid of configs, both archs must run an eval forward and a
    training step end to end, and the training forward must read every
    parameter and buffer in the store."""

    @pytest.mark.parametrize("levels", [2, 3, 4])
    @pytest.mark.parametrize("builder", [build_caggnet, build_unet])
    def test_eval_forward_and_training_step(self, rng, builder, levels):
        from caggnet.train import FocalLossConfig, traced_focal_loss

        side = 1 << (levels - 1)  # the smallest legal image
        for columns in (1, 2, 3):
            for base_channels, wab_reduction in ((2, 1), (4, 2), (8, 4)):
                for in_channels in (1, 3):
                    model = builder(ModelConfig(
                        levels=levels, columns=columns, base_channels=base_channels,
                        in_channels=in_channels, wab_reduction=wab_reduction))
                    x = Tensor4(rng.uniform(0, 1, size=(2, in_channels, side, side))
                                .astype(np.float32))
                    probs = forward(model, x).probs.data
                    assert probs.shape == (2, 1, side, side)
                    assert np.all((probs >= 0) & (probs <= 1))

                    stats = {name: p.value.copy() for name, p in model.params.items()
                             if not p.trainable}
                    fp = forward(model, x, training=True)
                    unread = [name for name, value in model.params.named_trainable()
                              if fp.tape.leaf_id_for(value) is None]
                    unmoved = [name for name, before in stats.items()
                               if np.array_equal(model.params[name], before)]
                    assert not unread and not unmoved, (unread, unmoved)
                    target = (rng.random((2, 1, side, side)) < 0.5).astype(np.float32)
                    loss = traced_focal_loss(fp.probs_var, target,
                                             FocalLossConfig(alpha=0.25, gamma=2.0))
                    grad = model.params.apply_grads(fp.tape, backward(fp.tape, loss))
                    assert grad.shape == (model.params.trainable_count(),)
                    assert np.all(np.isfinite(grad))


class TestNoGradForward:
    @pytest.mark.parametrize("builder", [build_caggnet, build_unet])
    def test_eval_forward_records_nothing(self, rng, tiny_cfg, builder):
        model = builder(tiny_cfg)
        x = Tensor4(rng.uniform(0, 1, size=(2, 1, 8, 8)))
        fp = forward(model, x, training=False)
        assert len(fp.tape.nodes) == 0 and len(fp.tape.values) == 0
        assert np.array_equal(fp.probs_var.value, fp.probs.data)
        assert len(forward(model, x, training=True).tape.nodes) > 0

    @pytest.mark.parametrize("builder", [build_caggnet, build_unet])
    def test_probs_match_a_recording_eval_forward(self, rng, tiny_cfg, builder,
                                                  monkeypatch):
        model = builder(tiny_cfg)
        x = Tensor4(rng.uniform(0, 1, size=(2, 1, 8, 8)))
        plain = forward(model, x, training=False)
        # the same eval forward, but on a tape that records every op
        monkeypatch.setattr(models, "Tape", lambda grad=True: Tape())
        recorded = forward(model, x, training=False)
        assert len(recorded.tape.nodes) > 0
        assert plain.probs.data.tobytes() == recorded.probs.data.tobytes()

    def test_eval_forward_peak_traced_memory(self, rng):
        # one 128x128 image: about 0.5 MB per 8-channel activation; banded
        # im2col and the graph dropping read features keep the peak near 7.6 MiB
        import tracemalloc

        model = build_caggnet(ModelConfig(levels=3, columns=2, base_channels=8,
                                          in_channels=1, dtype="single"))
        x = Tensor4(rng.uniform(0, 1, size=(1, 1, 128, 128)).astype(np.float32))
        forward(model, x, training=False)
        tracemalloc.start()
        try:
            forward(model, x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.5 * 2**20

    def test_backward_on_eval_pass_rejected(self, rng, tiny_cfg):
        from caggnet.train import traced_bce_loss

        model = build_caggnet(tiny_cfg)
        x = Tensor4(rng.uniform(0, 1, size=(1, 1, 8, 8)))
        fp = forward(model, x, training=False)
        loss = traced_bce_loss(fp.probs_var, (x.data > 0.5).astype(np.float64))
        with pytest.raises(AutogradError, match="recording tape"):
            backward(fp.tape, loss)


# the encoding of params.bin per model precision
RAW_DTYPE = {"single": "<f4", "double": "<f8"}


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng, tiny_cfg):
        model = build_caggnet(tiny_cfg)
        # perturb away from init so the test is not trivially true
        for _, p in model.params.items():
            p.value += rng.normal(size=p.value.shape) * 0.01
        save_checkpoint(tmp_path / "ckpt", model)
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.cfg == model.cfg
        for (n1, p1), (n2, p2) in zip(model.params.items(),
                                      loaded.params.items()):
            assert n1 == n2
            assert p1.value.dtype == p2.value.dtype
            assert p1.value.tobytes() == p2.value.tobytes()

    def test_reload_reproduces_forward_exactly(self, tmp_path, rng, tiny_cfg):
        model = build_caggnet(tiny_cfg)
        x = Tensor4(rng.uniform(0, 1, size=(1, 1, 8, 8)))
        forward(model, x, training=True)  # move the running stats
        save_checkpoint(tmp_path / "ckpt", model)
        loaded = load_checkpoint(tmp_path / "ckpt")
        a = forward(model, x, training=False).probs
        b = forward(loaded, x, training=False).probs
        assert a.data.tobytes() == b.data.tobytes()

    def test_unet_checkpoint_arch_round_trip(self, tmp_path, tiny_cfg):
        model = build_unet(tiny_cfg)
        save_checkpoint(tmp_path / "ckpt", model)
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.arch == "unet"

    def test_manifest_lists_every_parameter(self, tmp_path, tiny_cfg):
        import json

        model = build_caggnet(tiny_cfg)
        save_checkpoint(tmp_path / "ckpt", model)
        with open(tmp_path / "ckpt" / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["params"] == model.params.names()

    @pytest.mark.parametrize("build", [build_caggnet, build_unet])
    @pytest.mark.parametrize("dtype", ["single", "double"])
    def test_round_trip_bitwise_per_arch_and_dtype(self, tmp_path, rng, build, dtype):
        model = build(ModelConfig(levels=2, columns=1, base_channels=2, seed=3,
                                  dtype=dtype))
        for _, p in model.params.items():
            p.value += (rng.normal(size=p.value.shape) * 0.01).astype(p.value.dtype)
        save_checkpoint(tmp_path / "ckpt", model)
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert (loaded.arch, loaded.cfg) == (model.arch, model.cfg)
        assert loaded.params.names() == model.params.names()
        for (_, p1), (_, p2) in zip(model.params.items(), loaded.params.items()):
            assert (p1.value.dtype, p1.value.shape) == (p2.value.dtype, p2.value.shape)
            assert p1.value.tobytes() == p2.value.tobytes()

    def test_directory_holds_manifest_and_one_dump(self, tmp_path, tiny_cfg):
        model = build_caggnet(tiny_cfg)
        save_checkpoint(tmp_path / "ckpt", model)
        save_checkpoint(tmp_path / "ckpt", model)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == \
            ["manifest.json", "params.bin"]

    def test_save_replaces_an_older_directory(self, tmp_path, tiny_cfg):
        # a format-1 checkpoint held one p####.t4 dump per parameter
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        for name in ("manifest.json", "p0000.t4", "p0001.t4", "p0200.t4"):
            (ckpt / name).write_bytes(b"old")
        model = build_caggnet(tiny_cfg)
        save_checkpoint(ckpt, model)
        assert sorted(p.name for p in ckpt.iterdir()) == ["manifest.json", "params.bin"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        assert load_checkpoint(ckpt).params.names() == model.params.names()

    def test_failed_write_leaves_previous_checkpoint(self, tmp_path, tiny_cfg,
                                                     monkeypatch):
        ckpt = tmp_path / "ckpt"
        first = build_caggnet(tiny_cfg)
        save_checkpoint(ckpt, first)
        before = {p.name: p.read_bytes() for p in ckpt.iterdir()}

        write_bytes = Path.write_bytes

        def broken_write(path, data):
            write_bytes(path, data[:len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", broken_write)
        second = build_unet(ModelConfig(levels=2, base_channels=2, seed=9))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(ckpt, second)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before
        loaded = load_checkpoint(ckpt)
        for (_, p1), (_, p2) in zip(first.params.items(), loaded.params.items()):
            assert p1.value.tobytes() == p2.value.tobytes()

    def test_non_finite_value_refused_and_previous_kept(self, tmp_path, tiny_cfg):
        ckpt = tmp_path / "ckpt"
        model = build_caggnet(tiny_cfg)
        save_checkpoint(ckpt, model)
        before = {p.name: p.read_bytes() for p in ckpt.iterdir()}
        model.params["cam1_0.bn2.beta"][0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            save_checkpoint(ckpt, model)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        assert {p.name: p.read_bytes() for p in ckpt.iterdir()} == before

    @pytest.mark.parametrize("build", [build_caggnet, build_unet])
    @pytest.mark.parametrize("dtype", ["single", "double"])
    def test_params_bin_holds_raw_values_in_order(self, tmp_path, rng, build, dtype):
        model = build(ModelConfig(levels=2, columns=1, base_channels=2, seed=3,
                                  dtype=dtype))
        for _, p in model.params.items():
            p.value += (rng.normal(size=p.value.shape) * 0.01).astype(p.value.dtype)
        save_checkpoint(tmp_path / "ckpt", model)
        # no header: each value in construction order, little-endian
        expected = b"".join(np.asarray(p.value, dtype=RAW_DTYPE[dtype]).tobytes()
                            for _, p in model.params.items())
        assert (tmp_path / "ckpt" / "params.bin").read_bytes() == expected

    @pytest.mark.parametrize("dtype", ["single", "double"])
    @pytest.mark.parametrize("keep", ["0", "1", "item-1", "len-1"])
    def test_truncated_params_bin_names_it(self, tmp_path, dtype, keep):
        cfg = ModelConfig(levels=2, columns=1, base_channels=2, seed=3, dtype=dtype)
        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, build_caggnet(cfg))
        blob = (ckpt / "params.bin").read_bytes()
        item = np.dtype(RAW_DTYPE[dtype]).itemsize
        kept = {"0": 0, "1": 1, "item-1": item - 1, "len-1": len(blob) - 1}[keep]
        (ckpt / "params.bin").write_bytes(blob[:kept])
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(ckpt)
        msg = str(exc.value)
        assert str(ckpt) in msg and "params.bin" in msg
        assert f"{kept} bytes" in msg and str(len(blob)) in msg

    def test_leftover_siblings_are_cleared(self, tmp_path, tiny_cfg):
        # what a save cut off by a crash leaves behind
        for name in (".ckpt.tmp", ".ckpt.old"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "params.bin").write_bytes(b"stale")
        save_checkpoint(tmp_path / "ckpt", build_caggnet(tiny_cfg))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
