"""Dense 4-D tensors in batch-channel-height-width layout.

Images, masks, model inputs and probability maps are `Tensor4` values: a
contiguous, row-major float array with explicit (n, c, h, w) extents and
a precision tag ("single" for float32, "double" for float64). Tensors are
frozen at construction so they can be shared freely; learnable parameters
are kept as plain mutable arrays elsewhere, and the ops in `functional`
work on the arrays inside tape handles.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# Hard ceiling on element counts; keeps accidental shape typos from
# allocating the machine away and guarantees extents fit the dump header.
MAX_ELEMENTS = 1 << 40

DTYPE_OF_TAG = {"single": np.float32, "double": np.float64}
TAG_OF_DTYPE = {np.dtype(np.float32): "single", np.dtype(np.float64): "double"}

_DUMP_MAGIC_TAG = {"single": 0, "double": 1}
_DUMP_TAG_DTYPE = {0: "<f4", 1: "<f8"}


class ShapeError(ValueError):
    """Raised when tensor extents do not line up for an operation."""


class TensorError(ValueError):
    """Raised for invalid tensor contents (non-finite values, bad dtype)."""


@dataclass(frozen=True)
class Shape4:
    """Extents of a 4-D tensor: batch, channels, height, width."""

    n: int
    c: int
    h: int
    w: int

    def __post_init__(self):
        for name in ("n", "c", "h", "w"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ShapeError(f"extent {name}={v!r} is not an integer")
            if v < 1:
                raise ShapeError(f"extent {name}={v} must be >= 1")
        if self.count > MAX_ELEMENTS:
            raise ShapeError(
                f"element count {self.count} exceeds limit {MAX_ELEMENTS}"
            )

    @property
    def count(self) -> int:
        return self.n * self.c * self.h * self.w

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.c, self.h, self.w)


class Tensor4:
    """Immutable 4-D float tensor.

    Wraps a contiguous numpy array of dtype float32 or float64 and freezes
    it (``writeable = False``). The constructor takes ownership of the
    array it is given: pass a fresh array or accept that the original
    becomes read-only. All values must be finite.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"expected 4-D data, got ndim={arr.ndim}")
        if arr.dtype not in (np.float32, np.float64):
            raise TensorError(f"unsupported dtype {arr.dtype}; use float32/float64")
        Shape4(*arr.shape)  # validates extents and element count
        if not np.isfinite(arr).all():
            raise TensorError("tensor contains NaN or Inf")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> Shape4:
        return Shape4(*self.data.shape)

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


def zeros(shape: Shape4, dtype: str = "double") -> Tensor4:
    """All-zero tensor of the given shape and precision tag."""
    if not isinstance(shape, Shape4):
        shape = Shape4(*shape)
    return Tensor4(np.zeros(shape.as_tuple(), dtype=DTYPE_OF_TAG[dtype]))


# --- binary dump format -----------------------------------------------------
#
# Little-endian header: 4 x u32 extents (n, c, h, w), 1 x u8 dtype tag
# (0 = single, 1 = double), followed by the raw scalars row-major.

def write_tensor(path, x: Tensor4) -> None:
    shape = x.shape
    if max(shape.as_tuple()) >= 1 << 32:
        raise ShapeError("extent does not fit u32 dump header")
    tag = _DUMP_MAGIC_TAG[x.dtype_tag]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4IB", *shape.as_tuple(), tag))
        fh.write(np.ascontiguousarray(x.data, dtype=_DUMP_TAG_DTYPE[tag]).tobytes())


def read_tensor(path) -> Tensor4:
    with open(path, "rb") as fh:
        header = fh.read(17)
        if len(header) != 17:
            raise TensorError(f"{path}: truncated header ({len(header)} bytes)")
        n, c, h, w, tag = struct.unpack("<4IB", header)
        if tag not in _DUMP_TAG_DTYPE:
            raise TensorError(f"{path}: unknown dtype tag {tag}")
        shape = Shape4(n, c, h, w)
        raw = fh.read()
    dtype = np.dtype(_DUMP_TAG_DTYPE[tag])
    expected = shape.count * dtype.itemsize
    if len(raw) != expected:
        raise TensorError(
            f"{path}: payload is {len(raw)} bytes, expected {expected}"
        )
    data = np.frombuffer(raw, dtype=dtype).reshape(shape.as_tuple())
    try:
        return Tensor4(data.astype(dtype.newbyteorder("="), copy=True))
    except TensorError as e:
        raise TensorError(f"{path}: {e}") from None
