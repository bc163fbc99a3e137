import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import caggnet
from caggnet.cli import CliError, load_config, main


def checksum_tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), "--count", "6", "--size", "16",
                 "--seed", "3", "--radius-min", "3", "--radius-max", "5"]) == 0
    return out


# dataset manifest corruptions: each makes train and eval exit 1 with a
# message naming the dataset directory and the missing key or stray id
DATASET_CORRUPTIONS = {
    "no-ids": (lambda m: m.pop("ids"), "'ids'"),
    "unknown-split-id": (lambda m: m["split"]["val"].append("ghost"), "ghost"),
    "no-train-split": (lambda m: m["split"].pop("train"), "'train'"),
    "no-val-split": (lambda m: m["split"].pop("val"), "'val'"),
}


def corrupt_manifest(path: Path, corruption) -> None:
    manifest = json.loads(path.read_text())
    corruption(manifest)
    path.write_text(json.dumps(manifest))


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"no_such_key": 1}')
        with pytest.raises(CliError, match="no_such_key"):
            load_config(str(cfg), {})

    def test_nested_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"model": {"depth": 3}}')
        with pytest.raises(CliError, match="model.depth"):
            load_config(str(cfg), {})

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"seed": 1, "model": {"levels": 4}}')
        merged = load_config(str(cfg), {"seed": 9, "model": {"levels": 2}})
        assert merged["seed"] == 9
        assert merged["model"]["levels"] == 2

    def test_missing_config_file(self):
        with pytest.raises(CliError, match="not found"):
            load_config("nope.json", {})


class TestSynth:
    def test_writes_dataset_and_manifest(self, dataset):
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert len(manifest["ids"]) == 6
        assert len(list((dataset / "images").glob("*.pgm"))) == 6
        assert len(list((dataset / "masks").glob("*.pgm"))) == 6
        assert set(manifest["split"]) == {"train", "val"}

    def test_regeneration_identical_bytes(self, tmp_path):
        args = ["synth", "--count", "4", "--size", "16", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert checksum_tree(a) == checksum_tree(b)

    def test_bad_size_fails_validation(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"), "--size", "24"])
        assert code == 1


class TestTrain:
    TRAIN_ARGS = ["--epochs", "2", "--levels", "2", "--base-channels", "2",
                  "--batch-size", "3", "--seed", "3"]

    def test_smoke_and_artifacts(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--out", str(out)]
                    + self.TRAIN_ARGS) == 0
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,train_loss,val_iou,val_f1"
        assert 2 <= len(log) <= 3  # header + at most epochs_max rows
        assert (out / "checkpoint" / "manifest.json").exists()
        assert (out / "config.json").exists()
        assert (out / "timing.csv").exists()

    def test_missing_dataset_exits_1(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r")]) == 1

    def test_no_dataset_flag_exits_1(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("clamp_eps", [0.5, 0.0])
    def test_bce_clamp_eps_out_of_range_exits_1(self, dataset, tmp_path, capsys,
                                                 clamp_eps):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"loss": {"kind": "bce", "clamp_eps": clamp_eps}}))
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + self.TRAIN_ARGS) == 1
        assert "clamp_eps" in capsys.readouterr().err
        assert not (tmp_path / "r" / "train_log.csv").exists()

    @pytest.mark.parametrize("case", sorted(DATASET_CORRUPTIONS))
    def test_bad_dataset_manifest_exits_1(self, dataset, tmp_path, capsys, case):
        corruption, named = DATASET_CORRUPTIONS[case]
        corrupt_manifest(dataset / "manifest.json", corruption)
        assert main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + self.TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert str(dataset) in err and named in err
        assert not (tmp_path / "r" / "train_log.csv").exists()

    def test_deterministic_reruns(self, dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--data", str(dataset), "--out", str(out),
                         "--threads", "1"] + self.TRAIN_ARGS) == 0
            outs.append(out)
        a = checksum_tree(outs[0] / "checkpoint")
        b = checksum_tree(outs[1] / "checkpoint")
        assert a == b
        assert (outs[0] / "train_log.csv").read_bytes() == \
            (outs[1] / "train_log.csv").read_bytes()


class TestEval:
    def train_once(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--out", str(out)]
                    + TestTrain.TRAIN_ARGS) == 0
        return out / "checkpoint"

    def test_report_and_mask_dump(self, dataset, tmp_path):
        ckpt = self.train_once(dataset, tmp_path)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(out), "--dump-masks"]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 6 + 2  # header + per-image + mean + pooled
        payload = json.loads((out / "metrics.json").read_text())
        assert len(payload["per_image"]) == 6

        from caggnet.data_io import read_netpbm

        masks = sorted((out / "pred_masks").glob("*.pgm"))
        assert len(masks) == 6
        for m in masks:
            img = read_netpbm(m)  # valid P5, parses cleanly
            assert np.all((img.data == 0.0) | (img.data == 1.0))

    def test_split_restriction(self, dataset, tmp_path):
        ckpt = self.train_once(dataset, tmp_path)
        out = tmp_path / "eval_val"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(out), "--split", "val"]) == 0
        manifest = json.loads((dataset / "manifest.json").read_text())
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + len(manifest["split"]["val"]) + 2

    def test_channel_mismatch_exits_1(self, dataset, tmp_path):
        ckpt = self.train_once(dataset, tmp_path)
        # rebuild the checkpoint around a 3-channel model
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["config"]["in_channels"] = 3
        from caggnet.models import build_caggnet, ModelConfig, save_checkpoint

        model3 = build_caggnet(ModelConfig(**manifest["config"]))
        save_checkpoint(tmp_path / "ckpt3", model3)
        assert main(["eval", "--checkpoint", str(tmp_path / "ckpt3"),
                     "--data", str(dataset), "--out", str(tmp_path / "e")]) == 1

    def fresh_checkpoint(self, tmp_path):
        from caggnet.models import ModelConfig, build_caggnet, save_checkpoint

        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, build_caggnet(ModelConfig(levels=2, columns=1,
                                                        base_channels=2)))
        return ckpt

    def test_unknown_checkpoint_parameter_exits_1(self, dataset, tmp_path, capsys):
        ckpt = self.fresh_checkpoint(tmp_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["params"].append(dict(manifest["params"][0], name="stray.weight"))
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert "stray.weight" in err and str(ckpt) in err

    def test_unknown_checkpoint_format_exits_1(self, dataset, tmp_path, capsys):
        ckpt = self.fresh_checkpoint(tmp_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["format"] = 99
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert "format" in err and str(ckpt) in err
        assert not (tmp_path / "e" / "metrics.csv").exists()

    def test_split_without_manifest_split_exits_1(self, dataset, tmp_path, capsys):
        ckpt = self.fresh_checkpoint(tmp_path)
        manifest = json.loads((dataset / "manifest.json").read_text())
        del manifest["split"]
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e"), "--split", "val"]) == 1
        assert str(dataset) in capsys.readouterr().err
        assert not (tmp_path / "e" / "metrics.csv").exists()

    # checkpoint manifest corruptions: each must exit 1 naming the
    # checkpoint directory and the key or value at fault
    CHECKPOINT_CORRUPTIONS = {
        "no-arch": (lambda m: m.pop("arch"), "'arch'"),
        "no-config": (lambda m: m.pop("config"), "'config'"),
        "no-params": (lambda m: m.pop("params"), "'params'"),
        "unknown-config-key": (lambda m: m["config"].update(depth=3), "'depth'"),
        "unknown-arch": (lambda m: m.update(arch="resnet"), "'resnet'"),
        **{f"param-no-{key}": (lambda m, key=key: m["params"][0].pop(key), repr(key))
           for key in ("name", "file", "kind", "dtype", "shape")},
        "param-bad-dtype": (lambda m: m["params"][0].update(dtype="float99"),
                            "'float99'"),
        "param-dtype-mismatch": (lambda m: m["params"][0].update(dtype="float64"),
                                 "'p0000.t4'"),
        "param-shape-mismatch": (lambda m: m["params"][0].update(shape=[99]),
                                 "'p0000.t4'"),
    }

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_bad_checkpoint_manifest_exits_1(self, dataset, tmp_path, capsys, case):
        corruption, named = self.CHECKPOINT_CORRUPTIONS[case]
        ckpt = self.fresh_checkpoint(tmp_path)
        corrupt_manifest(ckpt / "manifest.json", corruption)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and named in err
        assert not (tmp_path / "e" / "metrics.csv").exists()

    @pytest.mark.parametrize("case", sorted(DATASET_CORRUPTIONS))
    def test_bad_dataset_manifest_exits_1(self, dataset, tmp_path, capsys, case):
        corruption, named = DATASET_CORRUPTIONS[case]
        ckpt = self.fresh_checkpoint(tmp_path)
        corrupt_manifest(dataset / "manifest.json", corruption)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e"), "--split", "val"]) == 1
        err = capsys.readouterr().err
        assert str(dataset) in err and named in err
        assert not (tmp_path / "e" / "metrics.csv").exists()

    def test_missing_checkpoint_exits_1(self, dataset, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope"),
                     "--data", str(dataset), "--out", str(tmp_path / "e")]) == 1


class TestGradcheckCommand:
    def test_ops_scope_lists_every_registered_op(self, capsys, tmp_path):
        from caggnet.autograd import RULES

        json_out = tmp_path / "reports.json"
        assert main(["gradcheck", "--scope", "ops",
                     "--json-out", str(json_out)]) == 0
        printed = capsys.readouterr().out
        reports = json.loads(json_out.read_text())
        listed = {r["op"] for r in reports}
        # every registered op kind appears under some check name
        for op in RULES:
            assert any(op in name for name in listed), f"{op} not covered"
        assert all(r["passed"] for r in reports)
        assert "PASS" in printed

    def test_corrupted_backward_fails(self):
        assert main(["gradcheck", "--scope", "ops", "--corrupt", "conv2d"]) == 1

    def test_unknown_corrupt_target(self):
        assert main(["gradcheck", "--scope", "ops", "--corrupt", "nope"]) == 1


class TestThreads:
    BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    # runs the console entry point in a fresh interpreter and reports
    # whether numpy was loaded before main ran, the exit code, and the
    # BLAS thread variables numpy was loaded under
    SCRIPT = (
        "import os, sys\n"
        "import caggnet.cli\n"
        "early = 'numpy' in sys.modules\n"
        "code = caggnet.cli.main(sys.argv[1:])\n"
        "print(early, code, 'numpy' in sys.modules, *[os.environ.get(v) for v in {vars!r}])\n"
    )

    @pytest.mark.parametrize("flag,config,env,expect", [
        (None, None, None, "1"),
        (None, None, "3", "3"),
        (None, 2, "3", "2"),
        (4, 2, "3", "4"),
    ])
    def test_threads_pinned_before_numpy_loads(self, tmp_path, flag, config, env,
                                               expect):
        args = ["synth", "--out", str(tmp_path / "d"), "--count", "1",
                "--size", "16"]
        if flag is not None:
            args += ["--threads", str(flag)]
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps({"threads": config}))
            args += ["--config", str(tmp_path / "c.json")]
        child_env = {k: v for k, v in os.environ.items()
                     if k not in self.BLAS_VARS and k != "CAGGNET_THREADS"}
        child_env["PYTHONPATH"] = str(Path(caggnet.__file__).parents[1])
        if env is not None:
            child_env["CAGGNET_THREADS"] = env
        script = self.SCRIPT.format(vars=self.BLAS_VARS)
        done = subprocess.run([sys.executable, "-c", script, *args], env=child_env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        early, code, loaded, *values = done.stdout.splitlines()[-1].split()
        assert (early, code, loaded) == ("False", "0", "True")
        assert values == [expect] * len(self.BLAS_VARS)
