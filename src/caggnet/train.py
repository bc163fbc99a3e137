"""Losses, optimizer, early stopping, and the training loop.

Both losses are means over every pixel in the batch and clamp predicted
probabilities away from 0 and 1 before taking logs. The focal loss

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
from .metrics import evaluate_model
from .models import ParamStore, forward, save_checkpoint
from .tensor_core import DTYPE_OF_TAG, ShapeError, Tensor4, TensorError


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient stops being finite."""


def _check_clamp_eps(clamp_eps: float) -> None:
    if not 0.0 < clamp_eps < 1e-3:
        raise ValueError(f"clamp_eps must be in (0, 1e-3), got {clamp_eps}")


@dataclass
class FocalLossConfig:
    alpha: float = 0.25
    gamma: float = 2.0
    clamp_eps: float = 1e-7

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        _check_clamp_eps(self.clamp_eps)


def _check_loss_inputs(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ShapeError(f"loss shape mismatch: {pred.shape} vs {target.shape}")
    if not np.all((target == 0) | (target == 1)):
        raise TensorError("loss target must be strictly binary")


def traced_bce_loss(pred: Var, target: np.ndarray,
                    clamp_eps: float = 1e-7) -> Var:
    """Mean binary cross entropy between a probability map and a mask."""
    pv = pred.value
    target = np.asarray(target, dtype=pv.dtype)
    _check_loss_inputs(pv, target)
    p = np.clip(pv, clamp_eps, 1.0 - clamp_eps)
    loss = -(target * np.log(p) + (1.0 - target) * np.log1p(-p)).mean()
    out = np.asarray(loss, dtype=pv.dtype).reshape(1, 1, 1, 1)
    return pred.tape.record("bce_loss", (pred,), out,
                            ctx=(pv, target, clamp_eps))


def _bce_loss_bwd(node: TapeNode, g: np.ndarray):
    pred, target, clamp_eps = node.ctx
    p = np.clip(pred, clamp_eps, 1.0 - clamp_eps)
    inside = (pred >= clamp_eps) & (pred <= 1.0 - clamp_eps)
    dp = -(target / p - (1.0 - target) / (1.0 - p)) / pred.size
    return ((g.reshape(()) * dp * inside).astype(pred.dtype),)


def traced_focal_loss(pred: Var, target: np.ndarray, cfg: FocalLossConfig) -> Var:
    """Mean focal loss between a probability map and a mask."""
    pv = pred.value
    target = np.asarray(target, dtype=pv.dtype)
    _check_loss_inputs(pv, target)
    alpha, gamma, clamp_eps = cfg.alpha, cfg.gamma, cfg.clamp_eps
    p = np.clip(pv, clamp_eps, 1.0 - clamp_eps)
    pt = np.where(target == 1, p, 1.0 - p)
    at = np.where(target == 1, alpha, 1.0 - alpha)
    loss = (at * (1.0 - pt) ** gamma * -np.log(pt)).mean()
    out = np.asarray(loss, dtype=pv.dtype).reshape(1, 1, 1, 1)
    return pred.tape.record("focal_loss", (pred,), out,
                            ctx=(pv, target, alpha, gamma, clamp_eps))


def _focal_loss_bwd(node: TapeNode, g: np.ndarray):
    pred, target, alpha, gamma, clamp_eps = node.ctx
    p = np.clip(pred, clamp_eps, 1.0 - clamp_eps)
    pt = np.where(target == 1, p, 1.0 - p)
    at = np.where(target == 1, alpha, 1.0 - alpha)
    # d/dpt of -(1-pt)^g log(pt); the first term vanishes identically at g=0
    dpt = -at * ((1.0 - pt) ** gamma / pt
                 - gamma * (1.0 - pt) ** (gamma - 1.0) * np.log(pt))
    sign = np.where(target == 1, 1.0, -1.0)
    inside = (pred >= clamp_eps) & (pred <= 1.0 - clamp_eps)
    return ((g.reshape(()) * dpt * sign * inside / pred.size).astype(pred.dtype),)


register_backward("bce_loss", _bce_loss_bwd)
register_backward("focal_loss", _focal_loss_bwd)


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0


def adam_step(store: ParamStore, state: AdamState) -> None:
    """One bias-corrected Adam update, in place; gradients are zeroed
    afterwards. Aborts on a non-finite gradient, naming the parameter."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in store.items():
        if not p.trainable:
            continue
        g = p.grad
        if not np.isfinite(g).all():
            raise TrainingDiverged(f"non-finite gradient for parameter {name!r}")
        p.adam_m *= b1
        p.adam_m += (1.0 - b1) * g
        p.adam_v *= b2
        p.adam_v += (1.0 - b2) * g * g
        m_hat = p.adam_m / c1
        v_hat = p.adam_v / c2
        p.value -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.grad[...] = 0


@dataclass
class EarlyStopper:
    """Stops once the metric has not improved for more than `patience`
    consecutive epochs."""

    patience: int = 32
    best_metric: float = float("-inf")
    epochs_since_best: int = 0

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
    stopped_early: bool = False

    def write_csv(self, path) -> None:
        # wall-clock timing goes to a sidecar so this file is
        # byte-reproducible across identical runs
        with open(path, "w") as fh:
            fh.write("epoch,train_loss,val_iou,val_f1\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.train_loss!r},{r.val_iou!r},{r.val_f1!r}\n")

    def write_timing_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,seconds\n")
            for r, s in zip(self.rows, self.seconds):
                fh.write(f"{r.epoch},{s:.3f}\n")


def _batch_arrays(samples, idxs, dtype) -> tuple[Tensor4, np.ndarray]:
    images = np.concatenate([samples[i].image.data for i in idxs], axis=0)
    masks = np.concatenate([samples[i].mask.data for i in idxs], axis=0)
    return Tensor4(images.astype(dtype, copy=True)), masks.astype(dtype)


def make_loss(kind: str, *, alpha: float = 0.25, gamma: float = 2.0,
              clamp_eps: float = 1e-7):
    """Traced loss closure loss(pred_var, target_array) -> scalar Var."""
    if kind == "bce":
        _check_clamp_eps(clamp_eps)
        return lambda pred, target: traced_bce_loss(pred, target, clamp_eps)
    if kind == "focal":
        cfg = FocalLossConfig(alpha=alpha, gamma=gamma, clamp_eps=clamp_eps)
        return lambda pred, target: traced_focal_loss(pred, target, cfg)
    raise ValueError(f"unknown loss kind {kind!r}")


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
    if len(train_samples) == 0 or len(val_samples) == 0:
        raise ValueError("train and validation sets must both be non-empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
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
            x, y = _batch_arrays(train_samples, idxs, dtype)
            try:
                fp = forward(model, x, training=True)
                loss_var = loss_fn(fp.probs_var, y)
            except TensorError as e:
                # non-finite activations surface here before the loss does
                raise TrainingDiverged(f"epoch {epoch}: {e}") from e
            loss = float(loss_var.value.reshape(()))
            if not np.isfinite(loss):
                raise TrainingDiverged(f"loss became {loss} at epoch {epoch}")
            grads = backward(fp.tape, loss_var)
            model.params.apply_grads(fp.tape, grads)
            adam_step(model.params, optimizer)
            losses.append(loss)

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
            log.stopped_early = True
            break

    model.params.load_values(best_values)
    if checkpoint_dir is not None:
        save_checkpoint(checkpoint_dir, model)
    return log
