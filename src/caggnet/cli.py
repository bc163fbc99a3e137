"""Command-line entry point: synth, train, eval, gradcheck.

Experiments are driven by a JSON config whose keys are validated
exhaustively (unknown keys are rejected); a command-line flag overrides
the config key that its argparse dest names. Every command is
deterministic given its config, and all outputs land under the directory
passed via --out.

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

THREADS_ENV = "CAGGNET_THREADS"

DEFAULT_CONFIG = {
    "seed": 0,
    "data_dir": None,
    "out_dir": "out",
    "threads": None,
    "model": {
        "arch": "caggnet",
        "levels": 3,
        "columns": 2,
        "base_channels": 8,
        "in_channels": 1,
        "wab_reduction": 2,
    },
    "loss": {
        "kind": "focal",
        "alpha": 0.25,
        "gamma": 2.0,
        "clamp_eps": 1e-7,
    },
    "optim": {
        "lr": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
    },
    "train": {
        "epochs_max": 100,
        "batch_size": 4,
        "patience": 32,
        "train_fraction": 0.8,
        "threshold": 0.5,
    },
}


class CliError(Exception):
    """User-facing configuration or data problem (exit code 1)."""


def _pin_threads(n: int) -> None:
    # must run before numpy is imported to take effect on the BLAS pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(n)


# leaves whose value must lie strictly between 0 and 1
OPEN_UNIT_LEAVES = ("train.train_fraction", "train.threshold")


def _check_leaf(where: str, default, value) -> None:
    """A config value must have its default's type: an int counts as a
    float but a bool never as an int, and a float must be finite (`json`
    reads `NaN` and `Infinity`) and, for `OPEN_UNIT_LEAVES`, in (0, 1).
    `seed` must be >= 0, as numpy's generators require. `data_dir` is a
    string or null; `threads` is `_resolve_threads`'s."""
    if where == "threads":
        return
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


def load_config(path: str | None, overrides: dict) -> dict:
    cfg = DEFAULT_CONFIG
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
        cfg = _merge_config(cfg, user)
    return _merge_config(cfg, overrides)


def _leaves(node: dict, prefix: str = ""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def _flag_overrides(args) -> dict:
    """Nest the set flags whose dest names a `DEFAULT_CONFIG` leaf, such as
    ``optim.lr``, into the config layout."""
    leaves = set(_leaves(DEFAULT_CONFIG))
    out: dict = {}
    for dest, value in vars(args).items():
        if dest in leaves and value is not None:
            *parents, key = dest.split(".")
            node = out
            for parent in parents:
                node = node.setdefault(parent, {})
            node[key] = value
    return out


def _resolve_threads(cfg: dict) -> int:
    threads = cfg.get("threads")
    source = "threads / --threads"
    if threads is None:
        source = f"${THREADS_ENV}"
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError:
            raise CliError(f"{source} must be an integer, got {raw!r}")
    if not isinstance(threads, int) or isinstance(threads, bool):
        raise CliError(f"{source} must be an integer, got {threads!r}")
    if threads < 1:
        raise CliError(f"{source} must be >= 1, got {threads}")
    return threads


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
    model = BUILDERS[arch](ModelConfig(**model_section, seed=cfg["seed"],
                                       dtype="single"))
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
    from .tensor_core import Tensor4

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
            data_io.write_netpbm(mask_dir / f"{s.id}.pgm",
                                 Tensor4(binarize(p, threshold).data.astype("float64")))
    print(f"evaluated {len(samples)} images: mean IoU {report.mean_iou:.4f}, "
          f"mean F1 {report.mean_f1:.4f}")
    return 0


def cmd_gradcheck(args, cfg: dict) -> int:
    from . import gradcheck
    from .data_io import write_atomic

    scopes = ["ops", "blocks", "model"] if args.scope == "all" else [args.scope]
    reports = []
    for scope in scopes:
        reports.extend(gradcheck.run_scope(scope))

    width = max(len(r.op) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        coord = f"{r.worst_coord[0]}[{r.worst_coord[1]}]"
        print(f"{r.op:<{width}}  max_rel_err={r.max_rel_err:.3e}  "
              f"worst={coord}  {status}")
    if args.json_out:
        write_atomic(args.json_out, json.dumps(
            [dataclasses.asdict(r) for r in reports], indent=2) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_synth(args, cfg: dict) -> int:
    from . import data_io

    try:
        synth = data_io.SynthConfig(
            count=args.count, size=args.size,
            blobs_min=args.blobs_min, blobs_max=args.blobs_max,
            radius_min=args.radius_min, radius_max=args.radius_max,
            noise_sigma=args.noise_sigma, seed=cfg["seed"],
        )
        synth.validate()
        samples = data_io.gen_synthetic(synth)
        n_train = int(round(cfg["train"]["train_fraction"] * len(samples)))
        if args.count == 1:
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
    print(f"wrote {len(samples)} samples to {cfg['out_dir']}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other bad input, not argparse's 2,
    which this CLI keeps for divergence. Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="caggnet",
        description="Desk-scale crossing-aggregation segmentation engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that sets a config key takes the key as its dest, which
    # --help shows as the metavar, or as the help of a flag with choices
    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", dest="seed", type=int)
        p.add_argument("--data", dest="data_dir", help="dataset directory")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--threads", dest="threads", type=int,
                       help=f"intra-op threads (default ${THREADS_ENV} or 1)")

    p_train = sub.add_parser("train", help="train a model")
    common(p_train)
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
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["train", "val"],
                        help="restrict to one manifest split")
    p_eval.add_argument("--dump-masks", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check suites")
    common(p_grad)
    p_grad.add_argument("--scope", choices=["ops", "blocks", "model", "all"],
                        default="all")
    p_grad.add_argument("--json-out", dest="json_out")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p_synth)
    p_synth.add_argument("--count", type=int, default=8)
    p_synth.add_argument("--size", type=int, default=32)
    p_synth.add_argument("--blobs-min", dest="blobs_min", type=int, default=1)
    p_synth.add_argument("--blobs-max", dest="blobs_max", type=int, default=3)
    p_synth.add_argument("--radius-min", dest="radius_min", type=int, default=3)
    p_synth.add_argument("--radius-max", dest="radius_max", type=int, default=6)
    p_synth.add_argument("--noise-sigma", dest="noise_sigma", type=float,
                         default=0.03)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, _flag_overrides(args))
        # thread pinning must precede the first numpy import; neither
        # this module nor the package __init__ loads numpy
        threads = _resolve_threads(cfg)
        if "numpy" not in sys.modules:
            _pin_threads(threads)
        return args.func(args, cfg)
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
