"""Command-line entry point: synth, train, eval, gradcheck.

Experiments are driven by a JSON config whose keys are validated
exhaustively (unknown keys are rejected); a command-line flag overrides
the config key that its argparse dest names, and each subcommand takes
only the flags and config keys it reads. Every command is deterministic
given its config; `gradcheck` writes only its --json-out, the others
only under --out.

Exit codes: 0 success, 1 configuration/data error, 2 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path


def _defaults(cls, *names: str) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name in names}


def default_config() -> dict:
    """The config every command starts from. A leaf that a dataclass also
    uses takes that dataclass's field default; the others are written
    here. The imports load numpy, so they wait for `main` to pin the
    BLAS threads."""
    from .models import ModelConfig
    from .train import AdamState, EarlyStopper, FocalLossConfig

    return {
        "seed": 0,
        "data_dir": None,
        "out_dir": "out",
        "model": {"arch": "caggnet", **_defaults(
            ModelConfig, "levels", "columns", "base_channels", "in_channels",
            "wab_reduction")},
        "loss": {"kind": "focal", **_defaults(FocalLossConfig, "alpha", "gamma")},
        "optim": _defaults(AdamState, "lr", "beta1", "beta2", "eps"),
        "train": {"epochs_max": 100, "batch_size": 4,
                  **_defaults(EarlyStopper, "patience"),
                  "train_fraction": 0.8, "threshold": 0.5},
    }


class CliError(Exception):
    """User-facing configuration or data problem (exit code 1)."""


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# leaves whose value must lie strictly between 0 and 1
OPEN_UNIT_LEAVES = ("train.train_fraction", "train.threshold")


def _check_leaf(where: str, default, value) -> None:
    """A config value must have its default's type: an int counts as a
    float but a bool never as an int, and a float must be finite (`json`
    reads `NaN` and `Infinity`) and, for `OPEN_UNIT_LEAVES`, in (0, 1).
    `seed` must be >= 0, as numpy's generators require. `data_dir` is a
    string or null."""
    if default is None:
        ok, kind = value is None or isinstance(value, str), "a string or null"
    elif isinstance(default, float):
        ok = type(value) in (int, float) and abs(value) < math.inf
        kind = "a finite number"
    else:
        ok, kind = type(value) is type(default), type(default).__name__
    if not ok:
        raise CliError(f"config key {where!r} must be {kind}, got {value!r}")
    if where in OPEN_UNIT_LEAVES and not 0.0 < value < 1.0:
        raise CliError(f"config key {where!r} must be in (0, 1), got {value!r}")
    if where == "seed" and value < 0:
        raise CliError(f"config key 'seed' must be >= 0, got {value!r}")


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise CliError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise CliError(f"config key {where!r} must be an object")
            out[key] = _merge_config(base[key], value, where)
        else:
            _check_leaf(where, base[key], value)
            out[key] = value
    return out


def load_config(path: str | None, overrides: dict, command: str = "train",
                reads: tuple[str, ...] | None = None) -> dict:
    """The defaults, then the file at `path`, then `overrides`; the file may
    set only the leaves in `reads`, those `command` reads (None: all)."""
    cfg = default_config()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise CliError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise CliError(f"config file {path} is not valid JSON: {e}")
        if not isinstance(user, dict):
            raise CliError("config root must be a JSON object")
        for leaf in _leaves(user):
            if reads is not None and leaf not in reads:
                raise CliError(f"config key {leaf!r} is not read by {command}")
        cfg = _merge_config(cfg, user)
    return _merge_config(cfg, overrides)


def _leaves(node: dict, prefix: str = ""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def _flag_overrides(args) -> dict:
    """Nest the set flags whose dest names a `default_config` leaf, such as
    ``optim.lr``, into the config layout."""
    leaves = set(_leaves(default_config()))
    out: dict = {}
    for dest, value in vars(args).items():
        if dest in leaves and value is not None:
            *parents, key = dest.split(".")
            node = out
            for parent in parents:
                node = node.setdefault(parent, {})
            node[key] = value
    return out


def _load_dataset(cfg: dict, model_cfg) -> tuple[list, dict]:
    """Load `data_dir` and check every image against `model_cfg`, so that
    `train` and `eval` reject a dataset before they write anything."""
    from .data_io import load_dataset
    from .models import check_input
    from .tensor_core import ShapeError

    data_dir = cfg["data_dir"]
    if data_dir is None:
        raise CliError("no dataset: set data_dir in the config or pass --data")
    if not Path(data_dir).exists():
        raise CliError(f"dataset directory not found: {data_dir}")
    samples, manifest = load_dataset(data_dir)
    for s in samples:
        try:
            check_input(model_cfg, s.image)
        except ShapeError as e:
            raise CliError(f"dataset {data_dir} sample {s.id!r}: {e}")
    return samples, manifest


def cmd_train(args, cfg: dict) -> int:
    from .data_io import split, split_from_manifest, write_atomic
    from .models import BUILDERS, ModelConfig
    from .train import (AdamState, EarlyStopper, TrainingDiverged, check_loop_args,
                        make_loss, train_loop)

    model_section = dict(cfg["model"])
    arch = model_section.pop("arch")
    if arch not in BUILDERS:
        raise CliError(f"config key 'model.arch' must be one of "
                       f"{', '.join(BUILDERS)}, got {arch!r}")
    try:
        model = BUILDERS[arch](ModelConfig(**model_section, seed=cfg["seed"],
                                           dtype="single"))
    except MemoryError:
        keys = ", ".join(f"'model.{k}' {model_section[k]}"
                         for k in ("levels", "columns", "base_channels"))
        raise CliError(f"the {arch} model's parameters do not fit in memory "
                       f"at config keys {keys}") from None
    samples, manifest = _load_dataset(cfg, model.cfg)
    if "split" in manifest:
        train_set, val_set = split_from_manifest(samples, manifest)
    else:
        train_set, val_set = split(samples, cfg["train"]["train_fraction"],
                                   seed=cfg["seed"])
    loss_fn = make_loss(**cfg["loss"])
    optim = AdamState(**cfg["optim"])
    stopper = EarlyStopper(patience=cfg["train"]["patience"])
    check_loop_args(train_set, val_set, cfg["train"]["epochs_max"],
                    cfg["train"]["batch_size"])
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        log = train_loop(
            model, train_set, val_set, loss_fn, optim, stopper,
            epochs_max=cfg["train"]["epochs_max"],
            batch_size=cfg["train"]["batch_size"],
            seed=cfg["seed"],
            threshold=cfg["train"]["threshold"],
            checkpoint_dir=out_dir / "checkpoint",
        )
    except TrainingDiverged as e:
        print(f"training diverged: {e}", file=sys.stderr)
        return 2

    log.write_csv(out_dir / "train_log.csv")
    log.write_timing_csv(out_dir / "timing.csv")
    write_atomic(out_dir / "config.json", json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    best = log.best_val_iou
    print(f"trained {len(log.rows)} epochs; best val IoU {best:.4f} "
          f"at epoch {log.best_epoch}")
    return 0


def cmd_eval(args, cfg: dict) -> int:
    from . import data_io
    from .metrics import binarize, evaluate_model
    from .models import load_checkpoint

    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise CliError(f"checkpoint not found: {ckpt}")
    model = load_checkpoint(ckpt)
    samples, manifest = _load_dataset(cfg, model.cfg)
    if args.split:
        if "split" not in manifest:
            raise CliError(f"--split {args.split}: dataset {cfg['data_dir']} has "
                           f"no split in its manifest")
        train, val = data_io.split_from_manifest(samples, manifest)
        samples = {"train": train, "val": val}[args.split]
    if not samples:
        part = f" split {args.split!r}" if args.split else ""
        raise CliError(f"dataset {cfg['data_dir']}{part} holds no sample to evaluate")

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    threshold = cfg["train"]["threshold"]
    report, preds = evaluate_model(model, samples, threshold=threshold,
                                   keep_predictions=True)
    report.write_csv(out_dir / "metrics.csv")
    report.write_json(out_dir / "metrics.json")
    if args.dump_masks:
        mask_dir = out_dir / "pred_masks"
        mask_dir.mkdir(exist_ok=True)
        for s, p in zip(samples, preds):
            data_io.write_netpbm(mask_dir / f"{s.id}.pgm", binarize(p, threshold))
    print(f"evaluated {len(samples)} images: mean IoU {report.mean_iou:.4f}, "
          f"mean F1 {report.mean_f1:.4f}")
    return 0


def cmd_gradcheck(args, cfg: dict) -> int:
    from . import gradcheck
    from .data_io import write_atomic

    json_out = args.json_out
    if json_out is not None:
        if not json_out or Path(json_out).is_dir():
            raise CliError(f"--json-out {json_out!r}: must name a file")
        if not Path(json_out).parent.is_dir():
            raise CliError(f"--json-out {json_out}: its directory does not exist")
    scopes = list(gradcheck.SCOPES) if args.scope == "all" else [args.scope]
    reports = []
    for scope in scopes:
        reports.extend(gradcheck.run_scope(scope))

    width = max(len(r.op) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        coord = f"{r.worst_coord[0]}[{r.worst_coord[1]}]"
        print(f"{r.op:<{width}}  max_rel_err={r.max_rel_err:.3e}  "
              f"worst={coord}  {status}")
    if json_out is not None:
        write_atomic(json_out, json.dumps(
            [dataclasses.asdict(r) for r in reports], indent=2) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_synth(args, cfg: dict) -> int:
    from . import data_io

    # only the set flags, so that the defaults live in SynthConfig alone
    shape = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(data_io.SynthConfig)
             if f.name != "seed" and getattr(args, f.name) is not None}
    try:
        synth = data_io.SynthConfig(**shape, seed=cfg["seed"])
        samples = data_io.gen_synthetic(synth)
        n_train = int(round(cfg["train"]["train_fraction"] * len(samples)))
        if synth.count == 1:
            split_ids = {"train": [samples[0].id], "val": [samples[0].id]}
        else:
            ids = [s.id for s in samples]
            split_ids = {"train": ids[:n_train], "val": ids[n_train:]}
            if not split_ids["train"] or not split_ids["val"]:
                split_ids = {"train": ids[:-1], "val": ids[-1:]}
        out_dir = Path(cfg["out_dir"])
        data_io.save_dataset(out_dir, samples, split_ids)
    except (ValueError, OSError) as e:
        raise CliError(str(e))
    except MemoryError:
        raise CliError(f"--count {synth.count} images of --size {synth.size}: "
                       f"they do not fit in memory") from None
    print(f"wrote {len(samples)} samples to {cfg['out_dir']}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other bad input, not argparse's 2,
    which this CLI keeps for divergence. Subparsers inherit the class, and
    each refuses its own unknown arguments, so the usage shown is its own."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="caggnet",
        description="Desk-scale crossing-aggregation segmentation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that sets a config key takes the key as its dest, which
    # --help shows as the metavar, or as the help of a flag with choices;
    # a subcommand takes only the flags it reads, and its config file only
    # the leaves in its `reads` (None: every leaf)
    def config_flags(p, seed=True, data=True):
        p.add_argument("--config", help="JSON config file")
        if seed:
            p.add_argument("--seed", dest="seed", type=int)
        if data:
            p.add_argument("--data", dest="data_dir", help="dataset directory")
        p.add_argument("--out", dest="out_dir", help="output directory")

    p_train = sub.add_parser("train", help="train a model")
    config_flags(p_train)
    p_train.add_argument("--arch", dest="model.arch", choices=["caggnet", "unet"],
                         help="model.arch")
    p_train.add_argument("--levels", dest="model.levels", type=int)
    p_train.add_argument("--columns", dest="model.columns", type=int)
    p_train.add_argument("--base-channels", dest="model.base_channels", type=int)
    p_train.add_argument("--in-channels", dest="model.in_channels", type=int)
    p_train.add_argument("--loss", dest="loss.kind", choices=["focal", "bce"],
                         help="loss.kind")
    p_train.add_argument("--alpha", dest="loss.alpha", type=float)
    p_train.add_argument("--gamma", dest="loss.gamma", type=float)
    p_train.add_argument("--lr", dest="optim.lr", type=float)
    p_train.add_argument("--epochs", dest="train.epochs_max", type=int)
    p_train.add_argument("--batch-size", dest="train.batch_size", type=int)
    p_train.add_argument("--patience", dest="train.patience", type=int)
    p_train.set_defaults(func=cmd_train, reads=None)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    config_flags(p_eval, seed=False)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["train", "val"],
                        help="restrict to one manifest split")
    p_eval.add_argument("--dump-masks", action="store_true")
    p_eval.set_defaults(func=cmd_eval, reads=("data_dir", "out_dir", "train.threshold"))

    p_grad = sub.add_parser("gradcheck", help="finite-difference check suites")
    p_grad.add_argument("--scope", choices=["ops", "blocks", "model", "all"],
                        default="all")
    p_grad.add_argument("--json-out", dest="json_out")
    p_grad.set_defaults(func=cmd_gradcheck, reads=())

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    config_flags(p_synth, data=False)
    p_synth.add_argument("--count", type=int)
    p_synth.add_argument("--size", type=int)
    p_synth.add_argument("--blobs-min", dest="blobs_min", type=int)
    p_synth.add_argument("--blobs-max", dest="blobs_max", type=int)
    p_synth.add_argument("--radius-min", dest="radius_min", type=int)
    p_synth.add_argument("--radius-max", dest="radius_max", type=int)
    p_synth.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p_synth.set_defaults(func=cmd_synth, reads=("seed", "out_dir", "train.train_fraction"))
    return parser


def main(argv=None) -> int:
    # one BLAS thread, for byte-reproducible runs, unless the caller sized
    # the pools; it must precede numpy's first import, which neither this
    # module nor the package __init__ makes
    if "numpy" not in sys.modules and not os.environ.keys() & BLAS_THREAD_VARS:
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None), _flag_overrides(args),
                          args.command, args.reads)
        return args.func(args, cfg)
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
