"""Desk-scale crossing-aggregation segmentation engine.

A from-scratch CPU implementation of the CAggNet architecture (crossing
aggregation grid plus weighted aggregation head) with a U-Net baseline,
tape-based reverse-mode differentiation, focal/BCE losses, Adam, pixel
metrics, and bit-exact Netpbm data handling.

The names below are exported lazily: importing the package (or
`caggnet.cli`) does not load numpy, so the CLI can pin the BLAS thread
count before numpy first loads.
"""

import importlib

_EXPORTS = {
    "autograd": ("CheckReport", "Tape", "Var", "backward", "finite_diff_check"),
    "metrics": ("ConfusionCounts", "MetricsReport", "binarize", "confusion",
                "f1", "iou"),
    "models": ("CaggNet", "ForwardPass", "ModelConfig", "ParamStore", "UNet",
               "build_caggnet", "build_unet", "forward", "load_checkpoint",
               "save_checkpoint"),
    "tensor_core": ("Shape4", "ShapeError", "Tensor4", "TensorError", "zeros"),
    "train": ("AdamState", "EarlyStopper", "FocalLossConfig", "TrainingDiverged",
              "adam_step", "train_loop"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
