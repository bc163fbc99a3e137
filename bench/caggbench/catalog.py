"""Workloads and metrics of the benchmark, and the map from each layer
metric to the end-to-end metric it should move.

`BENCHMARK.json` at the repository root is `benchmark_json()` written out;
the self-tests check that the two agree.
"""

from __future__ import annotations

import re

RUN_SECONDS = 60

WORKLOADS = {
    "train-cagg-32": (
        "small arrays, so per-op numpy calls and tape bookkeeping weigh most; "
        "the only workload with backward, Adam and the checkpoint write"),
    "eval-cagg-128": (
        "forward only at 16x the pixels per image, from a reloaded checkpoint: "
        "conv forward kernel, eval-mode tape and one-image feeding dominate"),
    "gradcheck-f64": (
        "float64, tiny tensors, thousands of forwards: the ordered float64 conv "
        "and per-op dispatch; a float32-only kernel change leaves it unchanged"),
}
# Run by name and by `--workload all`, but left out of BENCHMARK.json: on a
# shared 2-vCPU Xeon VM its pass time swings by up to 1.6x with the host's
# load, for minutes at a time, so no allowed bound (at most 0.25) holds.
UNBOUNDED_WORKLOADS = ("gradcheck-f64",)

# name, unit, better, bound. The time bounds are the largest allowed: on a
# shared 2-vCPU Xeon VM the same pass slows by up to 1.2x (train, eval)
# for minutes at a time (bench/README.md).
END_TO_END = (
    ("pass_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

FUNCTIONAL_OPS = (
    "add", "mul", "scale", "sum_all", "concat_channels", "channel_scale",
    "conv2d", "maxpool2", "upsample_nearest2", "batchnorm2d", "relu",
    "sigmoid", "global_avg_pool",
)
LOSS_OPS = ("bce_loss", "focal_loss")
BLOCKS = ("conv_block_forward", "cam_forward", "wab_forward", "wam_head")
GRADCHECK_SCOPES = ("ops", "blocks", "model")

# ParamStore weight names, without ".weight", of the conv layers of
# CAggNet at levels=3, columns=2, in construction order.
CONV_LAYERS = (
    tuple(f"enc{i}.conv{k}" for i in range(3) for k in (1, 2))
    + tuple(f"cam{j}_{i}.conv{k}" for j in (1, 2) for i in range(3) for k in (1, 2))
    + tuple(f"wab{i}.fc{k}" for i in range(3) for k in (1, 2))
    + ("fuse0", "fuse1", "head")
)

TRAIN = "pass_s@train-cagg-32"
EVAL = "pass_s@eval-cagg-128"
GRAD = "pass_s@gradcheck-f64"


def _per_layer() -> list[tuple[str, str, str, str]]:
    """(name, unit, better, moves) for every layer metric."""
    rows = []
    for op in FUNCTIONAL_OPS:
        rows.append((f"functional.{op}.fwd_s", "s", "lower", f"{TRAIN}, {EVAL}"))
    rows.append(("functional.conv2d.calls", "count", "lower", f"{TRAIN}, {EVAL}"))
    rows.append(("functional.conv2d.fwd_gflops", "GFLOP/s", "higher",
                 f"{TRAIN}, {EVAL}; not {GRAD} for a float32-only kernel"))
    for op in FUNCTIONAL_OPS + LOSS_OPS:
        rows.append((f"autograd.{op}.bwd_s", "s", "lower", TRAIN))
    rows.append(("autograd.conv2d.bwd_gflops", "GFLOP/s", "higher", TRAIN))
    rows.append(("autograd.backward_s", "s", "lower", TRAIN))
    rows.append(("autograd.tape_nodes", "count", "lower", "peak_rss_mb@eval-cagg-128"))
    rows.append(("autograd.tape_mb", "MB", "lower", "peak_rss_mb@eval-cagg-128"))
    for layer in CONV_LAYERS:
        rows.append((f"conv.{layer}.fwd_s", "s", "lower", f"{TRAIN}, {EVAL}"))
        rows.append((f"conv.{layer}.bwd_s", "s", "lower", TRAIN))
    for block in BLOCKS:
        rows.append((f"blocks.{block}.self_s", "s", "lower", f"{GRAD}, then {TRAIN}"))
    rows.append(("models.forward.self_s", "s", "lower", f"{GRAD}, then {TRAIN}"))
    rows.append(("models.build_s", "s", "lower", "setup_s@train-cagg-32"))
    rows.append(("models.load_checkpoint_s", "s", "lower", "setup_s@eval-cagg-128"))
    for name in ("models.save_checkpoint_s", "models.apply_grads_s",
                 "train.adam_step_s", "train.loss_s", "train.train_loop.self_s"):
        rows.append((name, "s", "lower", TRAIN))
    for name in ("evaluate_model", "binarize", "confusion"):
        rows.append((f"metrics.{name}_s", "s", "lower",
                     f"{EVAL}, {TRAIN} through validation"))
    rows.append(("data_io.load_dataset_s", "s", "lower",
                 "setup_s@train-cagg-32, setup_s@eval-cagg-128"))
    for scope in GRADCHECK_SCOPES:
        rows.append((f"gradcheck.{scope}_s", "s", "lower", GRAD))
    rows.append(("gradcheck.finite_diff_check.calls", "count", "lower", GRAD))
    rows.append(("trace.overhead_share", "ratio", "lower", "none: tracing cost"))
    return rows


PER_LAYER = _per_layer()

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()
                      if n not in UNBOUNDED_WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }
