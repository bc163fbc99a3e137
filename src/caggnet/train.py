"""Losses, optimizer, early stopping, and the training loop.

Both losses are means over every pixel in the batch and clamp predicted
probabilities to [CLAMP_EPS, 1 - CLAMP_EPS] before taking logs; a
gradient is zero where the clamp binds. The focal loss

    loss = mean( -alpha_t * (1 - P_t)^gamma * log(P_t) )

uses P_t = p where the target is 1 and 1 - p where it is 0, with
alpha_t = alpha and 1 - alpha respectively; gamma = 0 and alpha = 0.5
recover half the binary cross entropy.

Each loss is defined once, the way `functional` defines an op: one
forward (`traced_bce_loss`, `traced_focal_loss`) that validates, computes
and records a node, plus one backward rule registered in `autograd.RULES`
under `bce_loss`/`focal_loss`. A loss value outside training is the same
forward on a ``Tape(grad=False)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autograd import TapeNode, Var, backward, register_backward
from .data_io import batch_arrays, write_atomic
from .metrics import evaluate_model
from .models import ParamStore, forward, save_checkpoint
from .tensor_core import DTYPE_OF_TAG, ShapeError, TensorError


# how far both losses keep a predicted probability from 0 and 1
CLAMP_EPS = 1e-7


class TrainingDiverged(RuntimeError):
    """Raised when the probability map or a gradient stops being finite."""


@dataclass
class FocalLossConfig:
    alpha: float = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def _check_loss_inputs(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"loss shape mismatch: {pred.shape} vs {target.shape}")


def traced_bce_loss(pred: Var, target: np.ndarray) -> Var:
    """Mean binary cross entropy between a probability map and a mask."""
    pv = pred.value
    target = np.asarray(target, dtype=pv.dtype)
    _check_loss_inputs(pv, target)
    p = np.clip(pv, CLAMP_EPS, 1.0 - CLAMP_EPS)
    loss = -(target * np.log(p) + (1.0 - target) * np.log1p(-p)).mean()
    out = np.asarray(loss, dtype=pv.dtype).reshape(1, 1, 1, 1)
    return pred.tape.record("bce_loss", (pred,), out, ctx=(pv, target))


def _bce_loss_bwd(node: TapeNode, g: np.ndarray):
    pred, target = node.ctx
    p = np.clip(pred, CLAMP_EPS, 1.0 - CLAMP_EPS)
    inside = (pred >= CLAMP_EPS) & (pred <= 1.0 - CLAMP_EPS)
    dp = -(target / p - (1.0 - target) / (1.0 - p)) / pred.size
    return ((g.reshape(()) * dp * inside).astype(pred.dtype),)


def traced_focal_loss(pred: Var, target: np.ndarray, cfg: FocalLossConfig) -> Var:
    """Mean focal loss between a probability map and a mask."""
    pv = pred.value
    target = np.asarray(target, dtype=pv.dtype)
    _check_loss_inputs(pv, target)
    alpha, gamma = cfg.alpha, cfg.gamma
    p = np.clip(pv, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pt = np.where(target == 1, p, 1.0 - p)
    at = np.where(target == 1, alpha, 1.0 - alpha)
    loss = (at * (1.0 - pt) ** gamma * -np.log(pt)).mean()
    out = np.asarray(loss, dtype=pv.dtype).reshape(1, 1, 1, 1)
    return pred.tape.record("focal_loss", (pred,), out,
                            ctx=(pv, target, alpha, gamma))


def _focal_loss_bwd(node: TapeNode, g: np.ndarray):
    pred, target, alpha, gamma = node.ctx
    p = np.clip(pred, CLAMP_EPS, 1.0 - CLAMP_EPS)
    pt = np.where(target == 1, p, 1.0 - p)
    at = np.where(target == 1, alpha, 1.0 - alpha)
    # d/dpt of -(1-pt)^g log(pt); the first term vanishes identically at g=0
    dpt = -at * ((1.0 - pt) ** gamma / pt
                 - gamma * (1.0 - pt) ** (gamma - 1.0) * np.log(pt))
    sign = np.where(target == 1, 1.0, -1.0)
    inside = (pred >= CLAMP_EPS) & (pred <= 1.0 - CLAMP_EPS)
    return ((g.reshape(()) * dpt * sign * inside / pred.size).astype(pred.dtype),)


register_backward("bce_loss", _bce_loss_bwd)
register_backward("focal_loss", _focal_loss_bwd)


@dataclass
class AdamState:
    """Adam's hyperparameters and state. The moments `m` and `v` are flat
    over the trainable parameters in `ParamStore` construction order and
    are allocated on the first step."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = field(default=None, repr=False, compare=False)
    v: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        # written so that NaN fails every check
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {beta}")
        if not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


def adam_step(store: ParamStore, state: AdamState, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of every trainable parameter, in
    place, from the flat gradient of `ParamStore.apply_grads`. A
    non-finite gradient aborts before anything changes, naming the first
    parameter that holds one."""
    if grad.shape != (store.trainable_count(),):
        raise ShapeError(f"flat gradient has shape {grad.shape}; the store has "
                         f"{store.trainable_count()} trainable values")
    if not np.isfinite(grad).all():
        name = next(name for name, _, where in store.flat_slices()
                    if not np.isfinite(grad[where]).all())
        raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    state.m *= b1
    state.m += (1.0 - b1) * grad
    state.v *= b2
    state.v += (1.0 - b2) * grad * grad
    m_hat = state.m / (1.0 - b1 ** state.t)
    v_hat = state.v / (1.0 - b2 ** state.t)
    update = state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    for _, value, where in store.flat_slices():
        value -= update[where].reshape(value.shape)


@dataclass
class EarlyStopper:
    """Stops once the metric has not improved for more than `patience`
    consecutive epochs."""

    patience: int = 32
    best_metric: float = float("-inf")
    epochs_since_best: int = 0

    def __post_init__(self):
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")

    def update(self, metric: float) -> bool:
        if metric > self.best_metric:
            self.best_metric = metric
            self.epochs_since_best = 0
            return True
        self.epochs_since_best += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.epochs_since_best > self.patience


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_iou: float
    val_f1: float


@dataclass
class TrainingLog:
    rows: list[EpochRow] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_iou: float = float("-inf")

    def write_csv(self, path) -> None:
        # wall-clock timing goes to a sidecar so this file is
        # byte-reproducible across identical runs
        write_atomic(path, "".join(
            ["epoch,train_loss,val_iou,val_f1\n"]
            + [f"{r.epoch},{r.train_loss!r},{r.val_iou!r},{r.val_f1!r}\n" for r in self.rows]))

    def write_timing_csv(self, path) -> None:
        write_atomic(path, "".join(
            ["epoch,seconds\n"]
            + [f"{r.epoch},{s:.3f}\n" for r, s in zip(self.rows, self.seconds)]))


def make_loss(kind: str, **focal):
    """Traced loss closure loss(pred_var, target_array) -> scalar Var.
    `focal` holds `FocalLossConfig` fields, checked whatever the kind, as
    every config value is."""
    cfg = FocalLossConfig(**focal)
    if kind == "bce":
        return traced_bce_loss
    if kind == "focal":
        return lambda pred, target: traced_focal_loss(pred, target, cfg)
    raise ValueError(f"unknown loss kind {kind!r}")


def check_loop_args(train_samples, val_samples, epochs_max: int,
                    batch_size: int) -> None:
    """Raise ValueError for the `train_loop` arguments it cannot run with,
    so that a caller can check them before it writes anything."""
    if len(train_samples) == 0 or len(val_samples) == 0:
        raise ValueError("train and validation sets must both be non-empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if epochs_max < 1:
        raise ValueError(f"epochs_max must be >= 1, got {epochs_max}")
    first = train_samples[0]
    size = (first.image.h, first.image.w)
    odd = next((s for s in train_samples if (s.image.h, s.image.w) != size), None)
    if batch_size > 1 and odd is not None:
        raise ValueError(f"batch_size {batch_size} stacks training images of one "
                         f"size, but sample {odd.id!r} is {odd.image.h}x{odd.image.w} "
                         f"and sample {first.id!r} is {size[0]}x{size[1]}")


def _train_step(model, x, y, loss_fn, optimizer: AdamState, epoch: int) -> float:
    """Forward, loss, backward and one Adam update on one batch; returns
    the loss. The step's tape and gradients are locals here, so they are
    freed when it returns: one training tape is alive at a time, never
    during the next batch's forward or validation."""
    try:
        fp = forward(model, x, training=True)
        loss_var = loss_fn(fp.probs_var, y)
    except TensorError as e:
        # forward rejects a non-finite map; a finite one in [0, 1] gives
        # a finite clamped loss
        raise TrainingDiverged(f"epoch {epoch}: {e}") from e
    grad = model.params.apply_grads(fp.tape, backward(fp.tape, loss_var))
    adam_step(model.params, optimizer, grad)
    return float(loss_var.value.reshape(()))


def train_loop(model, train_samples, val_samples, loss_fn,
               optimizer: AdamState, stopper: EarlyStopper, epochs_max: int,
               batch_size: int, seed: int = 0, threshold: float = 0.5,
               checkpoint_dir=None, stop_at_iou: float | None = None) -> TrainingLog:
    """Seeded minibatch training with per-epoch validation.

    Each epoch shuffles the training set, runs forward/backward/Adam per
    minibatch, then evaluates IoU/F1 on the validation set. The best
    validation-IoU parameters are tracked (and written to checkpoint_dir
    when given) and restored into the model when the loop ends, whether
    by early stopping, by reaching `stop_at_iou`, or by exhausting
    `epochs_max`.
    """
    check_loop_args(train_samples, val_samples, epochs_max, batch_size)
    rng = np.random.default_rng(seed)
    dtype = DTYPE_OF_TAG[model.cfg.dtype]
    log = TrainingLog()
    best_values = model.params.snapshot()

    for epoch in range(epochs_max):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_samples))
        losses = []
        for start in range(0, len(order), batch_size):
            idxs = order[start:start + batch_size]
            x, y = batch_arrays(train_samples, idxs, dtype)
            losses.append(_train_step(model, x, y, loss_fn, optimizer, epoch))

        try:
            report = evaluate_model(model, val_samples, threshold=threshold)
        except TensorError as e:
            raise TrainingDiverged(f"epoch {epoch} validation: {e}") from e
        row = EpochRow(epoch=epoch, train_loss=float(np.mean(losses)),
                       val_iou=report.mean_iou, val_f1=report.mean_f1)
        log.rows.append(row)
        log.seconds.append(time.perf_counter() - t0)

        if stopper.update(row.val_iou):
            log.best_epoch = epoch
            log.best_val_iou = row.val_iou
            best_values = model.params.snapshot()
        if stop_at_iou is not None and row.val_iou >= stop_at_iou:
            break
        if stopper.should_stop:
            break

    model.params.load_values(best_values)
    if checkpoint_dir is not None:
        save_checkpoint(checkpoint_dir, model)
    return log
