"""Parameter containers for the layer ops, and the convolution oracle.

`Conv2dParams` and `BatchNormState` hold the arrays a model's layers
own; the ops themselves, forward and backward, live in `functional`.
`conv2d_reference` is a naive scalar-loop convolution kept free of any
code shared with `functional.conv2d`, so it can serve as an independent
oracle: in double precision the two must agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import ShapeError, Tensor4


@dataclass
class Conv2dParams:
    """Square-kernel convolution weights: (c_out, c_in, k, k) plus bias.

    k = 3 implies zero padding 1, k = 1 implies padding 0; stride is
    always 1, so spatial extents are preserved.
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = self.weight
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise ShapeError(f"conv weight must be (c_out, c_in, k, k), got {w.shape}")
        if w.shape[2] not in (1, 3):
            raise ShapeError(f"kernel size {w.shape[2]} not in {{1, 3}}")
        if self.bias.shape != (w.shape[0],):
            raise ShapeError(
                f"bias length {self.bias.shape} does not match c_out={w.shape[0]}"
            )

    @property
    def c_out(self) -> int:
        return self.weight.shape[0]

    @property
    def c_in(self) -> int:
        return self.weight.shape[1]

    @property
    def k(self) -> int:
        return self.weight.shape[2]


@dataclass
class BatchNormState:
    """Per-channel affine normalization state.

    gamma/beta are learnable; running_mean/running_var are updated with
    `momentum` in training mode and consumed in eval mode. Normalization
    uses the biased batch variance; running_var stores the same quantity.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    def __post_init__(self):
        c = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape != (c,):
                raise ShapeError(f"batchnorm {name} must have shape ({c},)")
        if self.eps <= 0:
            raise ShapeError("batchnorm eps must be > 0")
        if np.any(self.running_var < 0):
            raise ShapeError("running_var must be >= 0")


def conv2d_reference(x: Tensor4, p: Conv2dParams) -> Tensor4:
    """Naive scalar-loop convolution used as the independent oracle.

    Walks every output pixel and accumulates bias + sum over (ci, ki, kj)
    with Python float arithmetic. Double precision only; kept free of any
    shared code with the production kernel.
    """
    xd = x.data
    if xd.dtype != np.float64:
        raise ShapeError("conv2d_reference is double precision only")
    w, b = p.weight, p.bias
    n, c_in, h, wd = xd.shape
    c_out, c_in2, k, _ = w.shape
    if c_in2 != c_in:
        raise ShapeError(f"conv2d channel mismatch: input c={c_in}, weight c_in={c_in2}")
    pad = (k - 1) // 2
    out = np.empty((n, c_out, h, wd), dtype=np.float64)
    for b_i in range(n):
        for co in range(c_out):
            for i in range(h):
                for j in range(wd):
                    acc = float(b[co])
                    for ci in range(c_in):
                        for ki in range(k):
                            for kj in range(k):
                                ii = i + ki - pad
                                jj = j + kj - pad
                                if 0 <= ii < h and 0 <= jj < wd:
                                    acc += float(xd[b_i, ci, ii, jj]) * float(
                                        w[co, ci, ki, kj]
                                    )
                    out[b_i, co, i, j] = acc
    return Tensor4(out)
