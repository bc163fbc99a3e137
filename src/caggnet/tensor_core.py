"""Dense 4-D tensors in batch-channel-height-width layout.

Images, masks, model inputs and probability maps are `Tensor4` values: a
contiguous, row-major float array with (n, c, h, w) extents, each at
least 1, and a precision tag ("single" for float32, "double" for
float64). Tensors are frozen at construction so they can be shared
freely; learnable parameters are kept as plain mutable arrays elsewhere,
and the ops in `functional` work on the arrays inside tape handles.
"""

from __future__ import annotations

import numpy as np

DTYPE_OF_TAG = {"single": np.float32, "double": np.float64}
TAG_OF_DTYPE = {np.dtype(np.float32): "single", np.dtype(np.float64): "double"}


class ShapeError(ValueError):
    """Raised when tensor extents do not line up for an operation."""


class TensorError(ValueError):
    """Raised for invalid tensor contents (non-finite values, bad dtype)."""


class Tensor4:
    """Immutable 4-D float tensor.

    Wraps a contiguous numpy array of dtype float32 or float64 and freezes
    it (``writeable = False``). The constructor takes ownership of the
    array it is given: pass a fresh array or accept that the original
    becomes read-only. Every extent must be at least 1 and all values
    must be finite.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"expected 4-D data, got ndim={arr.ndim}")
        if arr.dtype not in (np.float32, np.float64):
            raise TensorError(f"unsupported dtype {arr.dtype}; use float32/float64")
        if arr.size == 0:
            raise ShapeError(f"extents {arr.shape} must all be >= 1")
        if not np.isfinite(arr).all():
            raise TensorError("tensor contains NaN or Inf")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def dtype_tag(self) -> str:
        return TAG_OF_DTYPE[self.data.dtype]

    def __repr__(self) -> str:
        return f"Tensor4(shape={self.data.shape}, dtype={self.dtype_tag})"
