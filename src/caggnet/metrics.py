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

from .data_io import batch_arrays, write_atomic
from .tensor_core import DTYPE_OF_TAG, ShapeError, Tensor4


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.fp + other.fp,
                               self.fn + other.fn, self.tn + other.tn)


def binarize(pred: Tensor4, threshold: float = 0.5) -> Tensor4:
    """Threshold a probability map into a {0, 1} mask; the boundary is
    inclusive (pixel >= threshold -> 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    return Tensor4((pred.data >= threshold).astype(pred.data.dtype))


def confusion(pred_mask: Tensor4, gt_mask: Tensor4) -> ConfusionCounts:
    """Pixel counts of a `binarize` output against a `Sample` mask; both
    are {0, 1} by construction, so neither is scanned again here."""
    p, g = pred_mask.data, gt_mask.data
    if p.shape != g.shape:
        raise ShapeError(f"confusion shape mismatch: {p.shape} vs {g.shape}")
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
        mean_pr = float(np.mean([m.pr for m in self.per_image]))
        mean_se = float(np.mean([m.se for m in self.per_image]))
        write_atomic(path, "".join(
            ["id,pr,se,iou,f1\n"]
            + [f"{m.id},{m.pr!r},{m.se!r},{m.iou!r},{m.f1!r}\n" for m in self.per_image]
            + [f"mean,{mean_pr!r},{mean_se!r},{self.mean_iou!r},{self.mean_f1!r}\n",
               f"pooled,,,{self.pooled_iou!r},{self.pooled_f1!r}\n"]))

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
        write_atomic(path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")


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


# most pixels (n * h * w) fed to one eval forward
EVAL_PIXEL_BUDGET = 8192


def evaluate_model(model, samples, threshold: float = 0.5,
                   keep_predictions: bool = False):
    """Per-image metrics for a model over a sample list.

    Consecutive samples of the same image shape go through the model
    together, in chunks of as many images as fit `EVAL_PIXEL_BUDGET`
    pixels and at least one; eval mode treats every image in a batch
    alone, so the probabilities are those of one image at a time (within
    the float32 conv limits stated in `functional`).
    Returns the MetricsReport, or (report, predictions) when
    keep_predictions is set (predictions are the raw (1, 1, h, w)
    probability maps, in sample order).
    """
    from .models import forward

    if len(samples) == 0:
        raise ValueError("cannot evaluate on an empty sample list")
    dtype = DTYPE_OF_TAG[model.cfg.dtype]
    ids, counts, preds = [], [], []
    start = 0
    while start < len(samples):
        shape = samples[start].image.data.shape
        limit = start + max(1, EVAL_PIXEL_BUDGET // (shape[2] * shape[3]))
        stop = start + 1
        while (stop < min(limit, len(samples))
               and samples[stop].image.data.shape == shape):
            stop += 1
        x, gt = batch_arrays(samples, range(start, stop), dtype)
        probs = forward(model, x, training=False).probs.data
        for i, s in enumerate(samples[start:stop]):
            p = Tensor4(probs[i:i + 1])
            counts.append(confusion(binarize(p, threshold), Tensor4(gt[i:i + 1])))
            ids.append(s.id)
            if keep_predictions:
                preds.append(p)
        start = stop
    report = summarize(ids, counts, threshold)
    return (report, preds) if keep_predictions else report
