import argparse
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import caggnet
from caggnet.cli import CliError, build_parser, default_config, load_config, main


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
# message naming the dataset directory and the missing or mistyped key or
# the stray id; "synth-0003-0000" is the `dataset` fixture's first id
DATASET_CORRUPTIONS = {
    "no-ids": (lambda m: m.pop("ids"), "'ids'"),
    "unknown-split-id": (lambda m: m["split"]["val"].append("ghost"), "ghost"),
    "no-train-split": (lambda m: m["split"].pop("train"), "'train'"),
    "no-val-split": (lambda m: m["split"].pop("val"), "'val'"),
    "ids-not-a-list": (lambda m: m.update(ids=5), "'ids'"),
    "id-not-a-string": (lambda m: m["ids"].append(5), "'ids'"),
    "split-not-an-object": (lambda m: m.update(split=5), "'split'"),
    "split-part-not-a-list": (lambda m: m["split"].update(val=5), "'val'"),
    "id-leaves-dir": (lambda m: m["ids"].append("../images/" + m["ids"][0]),
                      "'../images/synth-0003-0000'"),
    "duplicate-id": (lambda m: m["ids"].append(m["ids"][0]),
                     "'synth-0003-0000' twice"),
}


def corrupt_manifest(path: Path, corruption) -> None:
    manifest = json.loads(path.read_text())
    corruption(manifest)
    path.write_text(json.dumps(manifest))


# manifest texts that are not a JSON object: each must exit 1 naming the file
MALFORMED_MANIFESTS = {
    "truncated": '{"ids": [',
    "single-quoted": "{'ids': []}",
    "not-an-object": "5",
}


# Netpbm corruptions of one dataset file: each must exit 1 naming the file
NETPBM_CORRUPTIONS = {
    "truncated-payload": lambda b: b[:-1],
    "bad-magic": lambda b: b"P7" + b[2:],
    "maxval-65535": lambda b: b.replace(b"\n255\n", b"\n65535\n", 1),
}


def corrupt_netpbm(dataset: Path, kind: str, case: str) -> Path:
    """Corrupt the first sample's image or mask; return its path."""
    sid = json.loads((dataset / "manifest.json").read_text())["ids"][0]
    path = dataset / kind / f"{sid}.pgm"
    path.write_bytes(NETPBM_CORRUPTIONS[case](path.read_bytes()))
    return path


def negate_first_running_var(path: Path) -> None:
    """Set the first batch-norm running variance in a single-precision
    checkpoint's ``params.bin`` to -1."""
    from caggnet.models import load_checkpoint

    start = 0
    for name, p in load_checkpoint(path.parent).params.items():
        if name.endswith(".running_var"):
            break
        start += p.value.size
    data = np.frombuffer(path.read_bytes(), dtype="<f4").copy()
    data[start] = -1.0
    path.write_bytes(data.tobytes())


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


class TestUsageErrors:
    # argparse's own exit code 2 is the CLI's code for divergence, so a
    # usage error must exit 1 with argparse's message naming the problem
    # and it prints the usage of the subcommand it belongs to, or the
    # root's when it comes before any subcommand
    @pytest.mark.parametrize("argv,named", [
        # the removed thread flag is refused like any unknown flag
        (["synth", "--out", "d", "--threads", "2.7"], "--threads"),
        (["train", "--epochs", "x"], "--epochs"),
        (["train", "--no-such-flag"], "--no-such-flag"),
        (["train", "--arch", "resnet"], "--arch"),
        ([], "command"),
        # each subcommand takes only the flags it reads
        (["gradcheck", "--seed", "1"], "--seed"),
        (["gradcheck", "--out", "d"], "--out"),
        (["gradcheck", "--config", "c.json"], "--config"),
        (["eval", "--checkpoint", "ckpt", "--out", "d", "--seed", "1"], "--seed"),
        (["synth", "--out", "d", "--data", "x"], "--data"),
        (["--no-such-flag", "train"], "--no-such-flag"),
    ])
    def test_usage_error_exits_1_naming_it(self, tmp_path, capsys, monkeypatch,
                                           argv, named):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err and named in err and "Traceback" not in err
        prog = f"caggnet {argv[0]}" if argv and not argv[0].startswith("-") else "caggnet"
        assert err.startswith(f"usage: {prog} [-h]")
        assert f"\n{prog}: error: " in err
        assert not (tmp_path / "d").exists()

    # a --json-out that names no file is refused before the suite runs
    @pytest.mark.parametrize("json_out", ["", "."], ids=["empty", "directory"])
    def test_json_out_naming_no_file_exits_1(self, tmp_path, capsys, monkeypatch,
                                             json_out):
        monkeypatch.chdir(tmp_path)
        assert main(["gradcheck", "--scope", "ops", "--json-out", json_out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--json-out {json_out!r}: must name a file" in captured.err
        assert "Traceback" not in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestFlags:
    def test_every_train_flag_sets_a_config_leaf(self):
        # a dest that names no leaf would be dropped without a word
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["train"]._actions
                 if a.option_strings} - {"help", "config"}
        assert dests and dests <= set(config_leaves(default_config()))


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

    def test_defaults_are_synth_configs(self, tmp_path):
        from caggnet.data_io import SynthConfig, gen_synthetic, save_dataset

        out, ref = tmp_path / "d", tmp_path / "ref"
        assert main(["synth", "--out", str(out), "--seed", "5"]) == 0
        split = json.loads((out / "manifest.json").read_text())["split"]
        save_dataset(ref, gen_synthetic(SynthConfig(seed=5)), split)
        assert checksum_tree(out) == checksum_tree(ref)

    def test_bad_size_fails_validation(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "x"), "--size", "24"])
        assert code == 1

    def test_size_too_large_to_allocate_exits_1_naming_it(self, tmp_path, capsys):
        # the pixel grid alone would take more than a 47-bit address space
        out = tmp_path / "x"
        assert main(["synth", "--out", str(out), "--size", "16777216"]) == 1
        err = capsys.readouterr().err
        assert "--size 16777216" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("fraction", [1.5, 1.0, 0.0, -0.25])
    def test_train_fraction_out_of_range_exits_1_naming_it(self, tmp_path, capsys,
                                                           fraction):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {"train_fraction": fraction}}))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"),
                     "--count", "8", "--size", "16"]) == 1
        err = capsys.readouterr().err
        assert "train.train_fraction" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flags,config", [(["--seed", "-1"], {}),
                                              ([], {"seed": -1})])
    def test_negative_seed_exits_1_naming_it(self, tmp_path, capsys, flags, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"),
                     "--count", "4", "--size", "16"] + flags) == 1
        err = capsys.readouterr().err
        assert "config key 'seed'" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()


    @pytest.mark.parametrize("config,named", [
        ({"data_dir": "x"}, "'data_dir'"),
        ({"model": {"arch": "unet"}}, "'model.arch'"),
        ({"train": {"threshold": 0.3}}, "'train.threshold'"),
        ({"no_such_key": 1}, "'no_such_key'"),
    ])
    def test_key_synth_does_not_read_exits_1_naming_it(self, tmp_path, capsys,
                                                       config, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "d"),
                     "--count", "4", "--size", "16"]) == 1
        err = capsys.readouterr().err
        assert named in err and "synth" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    def test_reads_its_config_keys(self, tmp_path):
        out = tmp_path / "d"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 5, "out_dir": str(out),
                                   "train": {"train_fraction": 0.5}}))
        assert main(["synth", "--config", str(cfg), "--count", "4",
                     "--size", "16"]) == 0
        assert main(["synth", "--out", str(tmp_path / "ref"), "--count", "4",
                     "--size", "16", "--seed", "5"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["split"]["train"]) == 2
        assert checksum_tree(out / "images") == checksum_tree(tmp_path / "ref" / "images")


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

    def test_default_model_is_model_config_default(self, dataset, tmp_path):
        # the CLI takes its model defaults from ModelConfig
        from caggnet.models import ModelConfig

        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset), "--out", str(out),
                     "--epochs", "1"]) == 0
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert manifest["config"] == dataclasses.asdict(ModelConfig(seed=0, dtype="single"))

    def test_missing_dataset_exits_1(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r")]) == 1

    def test_no_dataset_flag_exits_1(self, tmp_path):
        assert main(["train", "--out", str(tmp_path / "r")]) == 1

    def test_model_too_wide_to_allocate_exits_1_naming_it(self, dataset, tmp_path,
                                                          capsys):
        # the first weight alone would take more than a 47-bit address space
        out = tmp_path / "r"
        assert main(["train", "--data", str(dataset), "--out", str(out),
                     "--base-channels", str(2**50)]) == 1
        err = capsys.readouterr().err
        assert f"'model.base_channels' {2**50}" in err and "Traceback" not in err
        assert not out.exists()

    # a removed key is refused like any other unknown key
    @pytest.mark.parametrize("config,named", [
        ({"loss": {"clamp_eps": 1e-7}}, "'loss.clamp_eps'"),
        ({"no_such_key": 1}, "'no_such_key'"),
    ])
    def test_unknown_config_key_exits_1_naming_it(self, dataset, tmp_path, capsys,
                                                  config, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + self.TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert f"unknown config key {named}" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("case", sorted(DATASET_CORRUPTIONS))
    def test_bad_dataset_manifest_exits_1(self, dataset, tmp_path, capsys, case):
        corruption, named = DATASET_CORRUPTIONS[case]
        corrupt_manifest(dataset / "manifest.json", corruption)
        assert main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + self.TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert str(dataset) in err and named in err
        assert not (tmp_path / "r").exists()

    # each config value must have its default's type (an int counts as a
    # float, a bool never as a number); a wrong one exits 1 naming its key
    @pytest.mark.parametrize("config,named", [
        ({"optim": {"lr": "0.01"}}, "optim.lr"),
        ({"optim": {"lr": True}}, "optim.lr"),
        ({"loss": {"alpha": "0.25"}}, "loss.alpha"),
        ({"model": {"levels": 2.9}}, "model.levels"),
        ({"train": {"batch_size": True}}, "train.batch_size"),
        ({"seed": "7"}, "'seed'"),
        ({"train": {"threshold": "x"}}, "train.threshold"),
        ({"data_dir": 5}, "data_dir"),
        ({"out_dir": None}, "out_dir"),
    ])
    def test_wrong_config_type_exits_1_naming_key(self, dataset, tmp_path, capsys,
                                                  config, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + self.TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flags,config,named", [
        (["--epochs", "0"], {}, "epochs_max"),
        (["--patience", "-1"], {}, "patience"),
        ([], {"optim": {"lr": 0}}, "lr"),
        (["--lr", "-0.001"], {}, "lr"),
        (["--batch-size", "0"], {}, "batch_size"),
        ([], {"optim": {"beta1": 1.5}}, "beta1"),
        ([], {"optim": {"beta1": -0.1}}, "beta1"),
        ([], {"optim": {"beta2": 1.0}}, "beta2"),
        ([], {"optim": {"eps": 0.0}}, "eps"),
        ([], {"train": {"threshold": 7.0}}, "train.threshold"),
        ([], {"train": {"threshold": 0.0}}, "train.threshold"),
        (["--in-channels", "3"], {}, "model.in_channels"),
        # the 16x16 images do not halve five times
        (["--levels", "6"], {}, "model.levels"),
        (["--seed", "-1"], {}, "'seed'"),
        ([], {"seed": -1}, "'seed'"),
        # the focal parameters are checked whatever loss reads them
        (["--loss", "bce", "--alpha", "5"], {}, "alpha"),
        (["--loss", "bce", "--gamma", "-1"], {}, "gamma"),
    ])
    def test_bad_training_knob_exits_1_naming_it(self, dataset, tmp_path, capsys,
                                                 flags, config, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + self.TRAIN_ARGS + flags) == 1
        assert named in capsys.readouterr().err
        # checked before anything is written: no output directory at all
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_dataset_manifest_exits_1_naming_it(self, dataset, tmp_path,
                                                          capsys, case):
        (dataset / "manifest.json").write_text(MALFORMED_MANIFESTS[case])
        assert main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + self.TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert str(dataset / "manifest.json") in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("kind", ["images", "masks"])
    @pytest.mark.parametrize("case", sorted(NETPBM_CORRUPTIONS))
    def test_malformed_netpbm_exits_1_naming_it(self, dataset, tmp_path, capsys,
                                                kind, case):
        path = corrupt_netpbm(dataset, kind, case)
        assert main(["train", "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + self.TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()

    def test_mixed_image_sizes_need_batch_size_1(self, tmp_path, capsys):
        from caggnet.data_io import SynthConfig, gen_synthetic, save_dataset

        small = gen_synthetic(SynthConfig(count=6, size=32, seed=1))
        large = gen_synthetic(SynthConfig(count=2, size=64, seed=2))
        data = tmp_path / "data"
        save_dataset(data, small + large, {"train": [s.id for s in small[1:] + large],
                                           "val": [small[0].id]})
        args = ["train", "--data", str(data), "--epochs", "1", "--levels", "2",
                "--base-channels", "2"]
        assert main(args + ["--out", str(tmp_path / "r"), "--batch-size", "8"]) == 1
        err = capsys.readouterr().err
        assert repr(large[0].id) in err and "64x64" in err and "32x32" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()
        assert main(args + ["--out", str(tmp_path / "r1"), "--batch-size", "1"]) == 0

    def test_deterministic_reruns(self, dataset, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--data", str(dataset), "--out", str(out)]
                        + self.TRAIN_ARGS) == 0
            outs.append(out)
        a = checksum_tree(outs[0] / "checkpoint")
        b = checksum_tree(outs[1] / "checkpoint")
        assert a == b
        assert (outs[0] / "train_log.csv").read_bytes() == \
            (outs[1] / "train_log.csv").read_bytes()


def config_leaves(node: dict, prefix: str = ""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from config_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def nested(leaf: str, value) -> dict:
    out = value
    for key in reversed(leaf.split(".")):
        out = {key: out}
    return out


# every float leaf of the default config
FLOAT_LEAVES = [leaf for leaf in config_leaves(default_config())
                if isinstance(functools.reduce(dict.get, leaf.split("."), default_config()),
                              float)]


class TestNonFiniteConfig:
    # `json` reads the literals NaN and Infinity, which pass range checks
    # written as `x < 0`
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("leaf", FLOAT_LEAVES)
    def test_non_finite_float_exits_1_naming_key(self, dataset, tmp_path, capsys,
                                                 leaf, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(nested(leaf, value)))
        assert main(["train", "--config", str(cfg), "--data", str(dataset),
                     "--out", str(tmp_path / "r")] + TestTrain.TRAIN_ARGS) == 1
        err = capsys.readouterr().err
        assert f"config key {leaf!r}" in err and "Traceback" not in err
        assert not (tmp_path / "r").exists()


@st.composite
def mutated_config(draw) -> tuple[dict, str]:
    """A config file with one leaf mutated, and the name an error about it
    must contain."""
    leaf = draw(st.sampled_from(sorted(config_leaves(default_config()))))
    kind = draw(st.sampled_from(["wrong-type", "non-finite", "out-of-range",
                                 "unknown-key"]))
    if kind == "unknown-key":
        key = leaf.rpartition(".")[0] + ".no_such_key" if "." in leaf else "no_such_key"
        return nested(key, 1), key
    value = draw(st.sampled_from({
        "wrong-type": ["1", [1], {}, True, None],
        "non-finite": [math.nan, math.inf, -math.inf],
        "out-of-range": [-1, 0, -0.5, 1.5],
    }[kind]))
    return nested(leaf, value), leaf.rpartition(".")[2]


class TestConfigFuzz:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mutated_config())
    def test_mutated_leaf_runs_or_exits_1_naming_it(self, dataset, tmp_path, capsys,
                                                    case):
        config, named = case
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        (root / "c.json").write_text(json.dumps(config))
        code = main(["train", "--config", str(root / "c.json"), "--data", str(dataset),
                     "--out", str(root / "r")] + TestTrain.TRAIN_ARGS)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code != 0:
            assert code == 1 and named in err, (config, err)
            assert not (root / "r").exists()


class TestKnobs:
    """Every leaf of `default_config()` takes effect on a training run, or is
    listed with the reason it cannot."""

    # a value other than the default for each leaf; the base run is the
    # default config for 3 epochs on dataset "a", whose manifest holds no
    # split, so that `train.train_fraction` splits it
    EFFECTIVE = {
        "seed": 4,
        "data_dir": "b",
        "model.arch": "unet",
        "model.levels": 2,
        "model.columns": 1,
        "model.base_channels": 4,
        "model.wab_reduction": 4,
        "loss.kind": "bce",
        "loss.alpha": 0.5,
        "loss.gamma": 1.0,
        "optim.lr": 1e-2,
        "optim.beta1": 0.5,
        "optim.beta2": 0.9,
        "optim.eps": 1e-3,
        "train.epochs_max": 2,
        "train.batch_size": 2,
        "train.patience": 0,
        "train.train_fraction": 0.5,
        "train.threshold": 0.3,
    }
    WITHOUT_EFFECT = {
        "out_dir": "names where the outputs go, not what they hold",
        "model.in_channels": "must equal the dataset's channel count, and "
                             "synth writes one-channel images",
    }

    @staticmethod
    def train(root: Path, name: str, override: dict) -> tuple[bytes, dict]:
        """Train with `override` on top of the base config; return the
        run's config.json and its deterministic outputs."""
        out = root / name
        path = root / f"{name}.json"
        path.write_text(json.dumps(load_config(str(root / "base.json"),
                                               {**override, "out_dir": str(out)})))
        assert main(["train", "--config", str(path)]) == 0
        return ((out / "config.json").read_bytes(),
                {"train_log.csv": (out / "train_log.csv").read_bytes(),
                 **checksum_tree(out / "checkpoint")})

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("knobs")
        for name, seed in (("a", "3"), ("b", "4")):
            assert main(["synth", "--out", str(root / name), "--count", "6",
                         "--size", "16", "--seed", seed]) == 0
            corrupt_manifest(root / name / "manifest.json", lambda m: m.pop("split"))
        (root / "base.json").write_text(json.dumps(
            {"data_dir": str(root / "a"), "train": {"epochs_max": 3}}))
        return root, self.train(root, "base", {})

    def test_table_covers_every_leaf(self):
        assert not self.EFFECTIVE.keys() & self.WITHOUT_EFFECT.keys()
        assert sorted(self.EFFECTIVE.keys() | self.WITHOUT_EFFECT.keys()) == \
            sorted(config_leaves(default_config()))

    @pytest.mark.parametrize("leaf", sorted(EFFECTIVE))
    def test_knob_changes_config_and_outputs(self, base, leaf):
        root, (base_config, base_outputs) = base
        value = self.EFFECTIVE[leaf]
        if leaf == "data_dir":
            value = str(root / value)
        config, outputs = self.train(root, leaf, nested(leaf, value))
        assert config != base_config
        assert outputs != base_outputs


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

    @pytest.mark.parametrize("in_channels,threshold,named", [
        (1, 7.0, "train.threshold"),
        (1, 0.0, "train.threshold"),
        (3, 0.5, "model.in_channels"),
    ])
    def test_bad_input_exits_1_before_writing(self, dataset, tmp_path, capsys,
                                               in_channels, threshold, named):
        from caggnet.models import ModelConfig, build_caggnet, save_checkpoint

        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, build_caggnet(ModelConfig(
            levels=2, columns=1, base_channels=2, in_channels=in_channels)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {"threshold": threshold}}))
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--data", str(dataset), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("config,named", [
        ({"model": {"levels": 7}}, "'model.levels'"),
        ({"seed": 1}, "'seed'"),
        ({"train": {"epochs_max": 3}}, "'train.epochs_max'"),
        ({"no_such_key": 1}, "'no_such_key'"),
    ])
    def test_key_eval_does_not_read_exits_1_naming_it(self, dataset, tmp_path,
                                                      capsys, config, named):
        # so a train run's config.json is not an eval config
        ckpt = self.fresh_checkpoint(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--data", str(dataset), "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert named in err and "eval" in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    def test_reads_its_config_keys(self, dataset, tmp_path):
        ckpt = self.fresh_checkpoint(tmp_path)
        reports = {}
        for threshold in (0.5, 0.02):
            out = tmp_path / f"e{threshold}"
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"data_dir": str(dataset), "out_dir": str(out),
                                       "train": {"threshold": threshold}}))
            assert main(["eval", "--config", str(cfg), "--checkpoint", str(ckpt)]) == 0
            reports[threshold] = (out / "metrics.csv").read_bytes()
        assert reports[0.5] != reports[0.02]

    def fresh_checkpoint(self, tmp_path):
        from caggnet.models import ModelConfig, build_caggnet, save_checkpoint

        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, build_caggnet(ModelConfig(levels=2, columns=1,
                                                        base_channels=2)))
        return ckpt

    def test_unknown_checkpoint_parameter_exits_1(self, dataset, tmp_path, capsys):
        ckpt = self.fresh_checkpoint(tmp_path)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["params"].append("stray.weight")
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
        assert not (tmp_path / "e").exists()

    def test_split_without_manifest_split_exits_1(self, dataset, tmp_path, capsys):
        ckpt = self.fresh_checkpoint(tmp_path)
        manifest = json.loads((dataset / "manifest.json").read_text())
        del manifest["split"]
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e"), "--split", "val"]) == 1
        assert str(dataset) in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    # checkpoint manifest corruptions: each must exit 1 naming the
    # checkpoint directory and the key or value at fault
    CHECKPOINT_CORRUPTIONS = {
        "no-arch": (lambda m: m.pop("arch"), "'arch'"),
        "no-config": (lambda m: m.pop("config"), "'config'"),
        "no-params": (lambda m: m.pop("params"), "'params'"),
        "unknown-config-key": (lambda m: m["config"].update(depth=3), "'depth'"),
        "unknown-arch": (lambda m: m.update(arch="resnet"), "'resnet'"),
        "arch-not-a-string": (lambda m: m.update(arch=5), "'arch'"),
        "config-not-an-object": (lambda m: m.update(config=5), "'config'"),
        "params-not-a-list": (lambda m: m.update(params=5), "'params'"),
        "config-value-type": (lambda m: m["config"].update(levels="2"), "'levels'"),
        "param-not-an-object": (lambda m: m["params"].__setitem__(0, 5), "'params'"),
        "stray-name": (lambda m: m["params"].append("stray.weight"),
                       "'stray.weight'"),
        "missing-name": (lambda m: m["params"].pop(1), "'enc0.conv1.bias'"),
        "reordered-names": (lambda m: m["params"].reverse(), "position 0"),
        "name-not-a-string": (lambda m: m["params"].__setitem__(
            0, {"name": m["params"][0]}), "position 0"),
        "format-1": (lambda m: m.update(format=1), "format 1"),
        "format-2": (lambda m: m.update(format=2), "format 2"),
        "format-3": (lambda m: m.update(format=3), "format 3"),
        "negative-seed": (lambda m: m["config"].update(seed=-1),
                          "config: seed must be >= 0"),
        "levels-out-of-range": (lambda m: m["config"].update(levels=1),
                                "config: levels must be >= 2"),
        # the first weight alone would take more than a 47-bit address space
        "too-wide-to-allocate": (lambda m: m["config"].update(base_channels=2**50),
                                 "config: the caggnet model's parameters do not "
                                 "fit in memory"),
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
        assert not (tmp_path / "e").exists()

    # corruptions of the raw little-endian float32 values of a
    # single-precision checkpoint: each must exit 1 naming the file
    DUMP_CORRUPTIONS = {
        "missing": lambda path: path.unlink(),
        "truncated": lambda path: path.write_bytes(path.read_bytes()[:-3]),
        "float64": lambda path: path.write_bytes(
            np.frombuffer(path.read_bytes(), dtype="<f4").astype("<f8").tobytes()),
        "extra-value": lambda path: path.write_bytes(
            path.read_bytes() + np.zeros(1, dtype="<f4").tobytes()),
        "nan": lambda path: path.write_bytes(
            np.full(1, np.nan, dtype="<f4").tobytes() + path.read_bytes()[4:]),
        "negative-running-var": negate_first_running_var,
    }

    @pytest.mark.parametrize("case", sorted(DUMP_CORRUPTIONS))
    def test_bad_checkpoint_dump_exits_1(self, dataset, tmp_path, capsys, case):
        ckpt = self.fresh_checkpoint(tmp_path)
        self.DUMP_CORRUPTIONS[case](ckpt / "params.bin")
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "params.bin" in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("case", sorted(DATASET_CORRUPTIONS))
    def test_bad_dataset_manifest_exits_1(self, dataset, tmp_path, capsys, case):
        corruption, named = DATASET_CORRUPTIONS[case]
        ckpt = self.fresh_checkpoint(tmp_path)
        corrupt_manifest(dataset / "manifest.json", corruption)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e"), "--split", "val"]) == 1
        err = capsys.readouterr().err
        assert str(dataset) in err and named in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_checkpoint_manifest_exits_1_naming_it(self, dataset, tmp_path,
                                                             capsys, case):
        ckpt = self.fresh_checkpoint(tmp_path)
        (ckpt / "manifest.json").write_text(MALFORMED_MANIFESTS[case])
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert str(ckpt / "manifest.json") in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("kind", ["images", "masks"])
    @pytest.mark.parametrize("case", sorted(NETPBM_CORRUPTIONS))
    def test_malformed_netpbm_exits_1_naming_it(self, dataset, tmp_path, capsys,
                                                kind, case):
        ckpt = self.fresh_checkpoint(tmp_path)
        path = corrupt_netpbm(dataset, kind, case)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    def test_checkpoint_too_deep_for_images_exits_1_before_writing(
            self, dataset, tmp_path, capsys):
        from caggnet.models import ModelConfig, build_caggnet, save_checkpoint

        ckpt = tmp_path / "ckpt"
        save_checkpoint(ckpt, build_caggnet(ModelConfig(levels=6, columns=1,
                                                        base_channels=2)))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")]) == 1
        err = capsys.readouterr().err
        assert "model.levels" in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

    def test_no_dataset_exits_1_naming_data_dir(self, tmp_path, capsys):
        ckpt = self.fresh_checkpoint(tmp_path)
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "e")]) == 1
        assert "no dataset: set data_dir" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("case", ["empty-val-split", "no-ids"])
    def test_nothing_to_evaluate_exits_1_before_writing(self, dataset, tmp_path,
                                                        capsys, case):
        ckpt = self.fresh_checkpoint(tmp_path)
        if case == "no-ids":
            (dataset / "manifest.json").write_text('{"ids": []}')
            flags, named = [], str(dataset)
        else:
            corrupt_manifest(dataset / "manifest.json",
                             lambda m: m["split"].update(val=[]))
            flags, named = ["--split", "val"], f"{dataset} split 'val'"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "e")] + flags) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "e").exists()

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

    def test_json_out_in_missing_directory_exits_1_before_checking(self, capsys,
                                                                   tmp_path):
        json_out = tmp_path / "missing" / "reports.json"
        assert main(["gradcheck", "--scope", "ops", "--json-out", str(json_out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--json-out {json_out}" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "missing").exists()

    def test_corrupted_backward_fails(self, monkeypatch):
        from caggnet import autograd

        original = autograd.RULES["conv2d"]
        monkeypatch.setitem(autograd.RULES, "conv2d", lambda node, g: tuple(
            None if gi is None else gi * 1.01 for gi in original(node, g)))
        assert main(["gradcheck", "--scope", "ops"]) == 1


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

    # one BLAS thread unless the caller sets any BLAS variable, which is
    # then kept as it is
    @pytest.mark.parametrize("caller,expect", [
        ({}, ["1"] * 5),
        ({"OPENBLAS_NUM_THREADS": "3"}, ["None", "3", "None", "None", "None"]),
    ], ids=["unset", "caller-sets-openblas"])
    def test_threads_pinned_before_numpy_loads(self, tmp_path, caller, expect):
        args = ["synth", "--out", str(tmp_path / "d"), "--count", "1",
                "--size", "16"]
        child_env = {k: v for k, v in os.environ.items() if k not in self.BLAS_VARS}
        child_env["PYTHONPATH"] = str(Path(caggnet.__file__).parents[1])
        child_env.update(caller)
        script = self.SCRIPT.format(vars=self.BLAS_VARS)
        done = subprocess.run([sys.executable, "-c", script, *args], env=child_env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        early, code, loaded, *values = done.stdout.splitlines()[-1].split()
        assert (early, code, loaded) == ("False", "0", "True")
        assert values == expect
