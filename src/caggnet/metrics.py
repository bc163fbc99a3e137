"""Pixel-level segmentation metrics: precision, sensitivity, IoU, F1.

Degenerate conventions: with no positive pixels anywhere (tp = fp = fn
= 0) every metric is 1.0 (an empty prediction of an empty mask is
correct); with tp = 0 but fp + fn > 0, IoU and F1 are 0.0. Aggregates
report both the mean of per-image scores and the micro-averaged (pooled
counts) scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .tensor_core import DTYPE_OF_TAG, ShapeError, Tensor4, TensorError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)


def binarize(pred: Tensor4, threshold: float = 0.5) -> Tensor4:
    """Threshold a probability map into a {0, 1} mask; the boundary is
    inclusive (pixel >= threshold -> 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return Tensor4((pred.data >= threshold).astype(pred.data.dtype))


def _require_binary(a: np.ndarray, what: str) -> None:
    if not np.all((a == 0) | (a == 1)):
        raise TensorError(f"{what} must be strictly binary")


def confusion(pred_mask: Tensor4, gt_mask: Tensor4) -> ConfusionCounts:
    p, g = pred_mask.data, gt_mask.data
    if p.shape != g.shape:
        raise ShapeError(f"confusion shape mismatch: {p.shape} vs {g.shape}")
    _require_binary(p, "prediction mask")
    _require_binary(g, "ground-truth mask")
    pb = p == 1
    gb = g == 1
    tp = int(np.count_nonzero(pb & gb))
    fp = int(np.count_nonzero(pb & ~gb))
    fn = int(np.count_nonzero(~pb & gb))
    tn = int(np.count_nonzero(~pb & ~gb))
    return ConfusionCounts(tp, fp, fn, tn)


def precision(c: ConfusionCounts) -> float:
    return 1.0 if c.tp + c.fp == 0 else c.tp / (c.tp + c.fp)


def sensitivity(c: ConfusionCounts) -> float:
    return 1.0 if c.tp + c.fn == 0 else c.tp / (c.tp + c.fn)


def iou(c: ConfusionCounts) -> float:
    """Intersection over union, tp / (tp + fp + fn)."""
    denom = c.tp + c.fp + c.fn
    return 1.0 if denom == 0 else c.tp / denom


def f1(c: ConfusionCounts) -> float:
    """Harmonic mean of precision and sensitivity, 2tp / (2tp + fp + fn)."""
    denom = 2 * c.tp + c.fp + c.fn
    return 1.0 if denom == 0 else 2 * c.tp / denom


@dataclass
class ImageMetrics:
    id: str
    pr: float
    se: float
    iou: float
    f1: float


@dataclass
class MetricsReport:
    per_image: list[ImageMetrics] = field(default_factory=list)
    mean_iou: float = 0.0
    mean_f1: float = 0.0
    pooled_iou: float = 0.0
    pooled_f1: float = 0.0
    threshold: float = 0.5

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,pr,se,iou,f1\n")
            for m in self.per_image:
                fh.write(f"{m.id},{m.pr!r},{m.se!r},{m.iou!r},{m.f1!r}\n")
            mean_pr = float(np.mean([m.pr for m in self.per_image]))
            mean_se = float(np.mean([m.se for m in self.per_image]))
            fh.write(f"mean,{mean_pr!r},{mean_se!r},{self.mean_iou!r},{self.mean_f1!r}\n")
            fh.write(f"pooled,,,{self.pooled_iou!r},{self.pooled_f1!r}\n")

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "per_image": [vars(m) for m in self.per_image],
            "aggregate": {
                "mean_iou": self.mean_iou,
                "mean_f1": self.mean_f1,
                "pooled_iou": self.pooled_iou,
                "pooled_f1": self.pooled_f1,
            },
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def summarize(ids: list[str], counts: list[ConfusionCounts],
              threshold: float) -> MetricsReport:
    report = MetricsReport(threshold=threshold)
    total = ConfusionCounts(0, 0, 0, 0)
    for sid, c in zip(ids, counts):
        report.per_image.append(ImageMetrics(
            id=sid, pr=precision(c), se=sensitivity(c), iou=iou(c), f1=f1(c)
        ))
        total = total + c
    report.mean_iou = float(np.mean([m.iou for m in report.per_image]))
    report.mean_f1 = float(np.mean([m.f1 for m in report.per_image]))
    report.pooled_iou = iou(total)
    report.pooled_f1 = f1(total)
    return report


def evaluate_model(model, samples, threshold: float = 0.5,
                   keep_predictions: bool = False):
    """Per-image metrics for a model over a sample list.

    Returns the MetricsReport, or (report, predictions) when
    keep_predictions is set (predictions are the raw probability maps).
    """
    from .models import forward

    if len(samples) == 0:
        raise ValueError("cannot evaluate on an empty sample list")
    ids, counts, preds = [], [], []
    for s in samples:
        x = Tensor4(s.image.data.astype(DTYPE_OF_TAG[model.cfg.dtype], copy=True))
        probs = forward(model, x, training=False).probs
        mask = binarize(probs, threshold)
        gt = Tensor4(s.mask.data.astype(mask.data.dtype, copy=True))
        counts.append(confusion(mask, gt))
        ids.append(s.id)
        if keep_predictions:
            preds.append(probs)
    report = summarize(ids, counts, threshold)
    return (report, preds) if keep_predictions else report
