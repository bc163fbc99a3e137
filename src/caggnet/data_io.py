"""Image ingestion and dataset plumbing.

Only binary Netpbm is supported: P5 (grayscale) and P6 (RGB), maxval 255.
The format is bit-exact and self-contained, so golden files and
round-trip tests need no external decoder. A dataset directory looks
like::

    images/<id>.pgm | <id>.ppm
    masks/<id>.pgm
    manifest.json          {"ids": [...], "split": {"train": [...], "val": [...]}}

Masks binarize on read (byte > 127 -> 1). The synthetic generator paints
filled disks (intensity 0.8 on a 0.1 background, masks exactly the disk
union) plus optional Gaussian noise, and is the desk-scale stand-in for
real segmentation data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor_core import Tensor4


class NetpbmError(ValueError):
    """Parse failure; the message carries the byte offset."""


@dataclass
class Sample:
    image: Tensor4  # (1, 1|3, H, W), values in [0, 1]
    mask: Tensor4   # (1, 1, H, W), strictly {0, 1}
    id: str

    def __post_init__(self):
        if (self.image.h, self.image.w) != (self.mask.h, self.mask.w):
            raise ValueError(
                f"sample {self.id}: image {self.image.h}x{self.image.w} vs "
                f"mask {self.mask.h}x{self.mask.w}"
            )
        if not np.all((self.mask.data == 0) | (self.mask.data == 1)):
            raise ValueError(f"sample {self.id}: mask is not binary")


@dataclass
class SynthConfig:
    count: int = 8
    size: int = 32
    blobs_min: int = 1
    blobs_max: int = 3
    radius_min: int = 3
    radius_max: int = 6
    noise_sigma: float = 0.03
    seed: int = 0

    def validate(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.size < 8 or self.size & (self.size - 1):
            raise ValueError(f"size must be a power of two >= 8, got {self.size}")
        if not 1 <= self.blobs_min <= self.blobs_max:
            raise ValueError("blob count range is invalid")
        if not 1 <= self.radius_min <= self.radius_max:
            raise ValueError("radius range is invalid")
        if 2 * self.radius_max + 2 > self.size:
            raise ValueError(
                f"radius_max {self.radius_max} too large for size {self.size}"
            )
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


# --- Netpbm ------------------------------------------------------------------

_WHITESPACE = b" \t\r\n\x0b\x0c"


def _next_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Scan the next header token, skipping whitespace and # comments."""
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch in (b"#",):
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif ch in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise NetpbmError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and buf[pos:pos + 1] not in _WHITESPACE:
        pos += 1
    return buf[start:pos], pos


def _parse_int(token: bytes, pos: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise NetpbmError(
            f"bad {what} {token!r} ending at byte {pos}"
        ) from None


def read_netpbm(path) -> Tensor4:
    """Read a binary P5/P6 file into a (1, 1|3, H, W) tensor scaled v/255."""
    buf = Path(path).read_bytes()
    magic, pos = _next_token(buf, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise NetpbmError(f"unsupported magic {magic!r} at byte 0")
    tok, pos = _next_token(buf, pos)
    width = _parse_int(tok, pos, "width")
    tok, pos = _next_token(buf, pos)
    height = _parse_int(tok, pos, "height")
    tok, pos = _next_token(buf, pos)
    maxval = _parse_int(tok, pos, "maxval")
    if maxval != 255:
        raise NetpbmError(f"maxval {maxval} (must be 255) ending at byte {pos}")
    if pos >= len(buf) or buf[pos:pos + 1] not in _WHITESPACE:
        raise NetpbmError(f"missing whitespace after maxval at byte {pos}")
    pos += 1  # exactly one whitespace byte before the payload
    expected = width * height * channels
    payload = buf[pos:pos + expected]
    if len(payload) != expected:
        raise NetpbmError(
            f"truncated payload at byte {pos + len(payload)}: "
            f"got {len(payload)} of {expected} bytes"
        )
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        data = data.reshape(1, 1, height, width)
    else:
        data = data.reshape(height, width, 3).transpose(2, 0, 1)[None]
    return Tensor4(np.ascontiguousarray(data))


def write_netpbm(path, img: Tensor4) -> None:
    """Write a (1, 1|3, H, W) tensor in [0, 1] as binary P5/P6."""
    if img.n != 1 or img.c not in (1, 3):
        raise ValueError(f"expected (1, 1|3, H, W), got {img.data.shape}")
    data = img.data
    if data.min() < 0 or data.max() > 1:
        raise ValueError("image values must lie in [0, 1]")
    bytes_ = np.rint(data * 255.0).astype(np.uint8)
    magic = b"P5" if img.c == 1 else b"P6"
    if img.c == 1:
        payload = bytes_[0, 0].tobytes()
    else:
        payload = bytes_[0].transpose(1, 2, 0).tobytes()
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (img.w, img.h))
        fh.write(payload)


def read_mask(path) -> Tensor4:
    """Read a P5 file as a binary mask: byte > 127 -> 1."""
    raw = read_netpbm(path)
    if raw.c != 1:
        raise NetpbmError(f"mask {path} must be grayscale P5")
    return Tensor4((np.rint(raw.data * 255.0) > 127).astype(np.float64))


# --- resizing ----------------------------------------------------------------

def resize_nearest(img: Tensor4, new_h: int, new_w: int) -> Tensor4:
    """Nearest-neighbor resize; source index is floor(i * H / new_h).

    Binary masks stay binary (pixels are only copied, never blended).
    """
    if new_h < 1 or new_w < 1:
        raise ValueError("target extents must be positive")
    h, w = img.h, img.w
    rows = (np.arange(new_h) * h) // new_h
    cols = (np.arange(new_w) * w) // new_w
    return Tensor4(np.ascontiguousarray(img.data[:, :, rows[:, None], cols[None, :]]))


# --- synthetic data ----------------------------------------------------------

def gen_synthetic(cfg: SynthConfig) -> list[Sample]:
    """Deterministic blob-segmentation dataset.

    Each image holds 0.1 background with disks of intensity 0.8; the mask
    is exactly the union of the disks (|x - c| <= r at pixel centers).
    Gaussian noise of cfg.noise_sigma is added to the image and clipped
    to [0, 1]; masks are noise-free.
    """
    cfg.validate()
    size = cfg.size
    yy, xx = np.mgrid[0:size, 0:size]
    samples = []
    for k in range(cfg.count):
        # child stream per image: geometry is independent of whether (and
        # how much) noise the other images consumed
        rng = np.random.default_rng((cfg.seed, k))
        mask = np.zeros((size, size), dtype=bool)
        blobs = int(rng.integers(cfg.blobs_min, cfg.blobs_max + 1))
        for _ in range(blobs):
            r = int(rng.integers(cfg.radius_min, cfg.radius_max + 1))
            cy = int(rng.integers(r, size - r))
            cx = int(rng.integers(r, size - r))
            mask |= (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        image = np.where(mask, 0.8, 0.1)
        if cfg.noise_sigma > 0:
            image = image + rng.normal(0.0, cfg.noise_sigma, size=image.shape)
            image = np.clip(image, 0.0, 1.0)
        samples.append(Sample(
            image=Tensor4(image[None, None].astype(np.float64)),
            mask=Tensor4(mask[None, None].astype(np.float64)),
            id=f"synth-{cfg.seed:04d}-{k:04d}",
        ))
    return samples


def split(samples: list[Sample], train_fraction: float,
          seed: int = 0) -> tuple[list[Sample], list[Sample]]:
    """Seeded shuffle into disjoint covering (train, val) lists."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_train = int(round(train_fraction * len(samples)))
    train = [samples[i] for i in order[:n_train]]
    val = [samples[i] for i in order[n_train:]]
    if len(train) == 0 or len(val) == 0:
        raise ValueError(
            f"split of {len(samples)} samples at {train_fraction} leaves "
            "an empty side"
        )
    return train, val


# --- dataset directories ------------------------------------------------------

MANIFEST_NAME = "manifest.json"


def save_dataset(directory, samples: list[Sample],
                 split_ids: dict[str, list[str]] | None = None) -> None:
    directory = Path(directory)
    (directory / "images").mkdir(parents=True, exist_ok=True)
    (directory / "masks").mkdir(parents=True, exist_ok=True)
    for s in samples:
        ext = "pgm" if s.image.c == 1 else "ppm"
        write_netpbm(directory / "images" / f"{s.id}.{ext}", s.image)
        write_netpbm(directory / "masks" / f"{s.id}.pgm", s.mask)
    manifest = {"ids": [s.id for s in samples]}
    if split_ids is not None:
        manifest["split"] = split_ids
    with open(directory / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(directory) -> tuple[list[Sample], dict]:
    """Load every sample named by the manifest, in manifest order."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if "ids" not in manifest:
        raise ValueError(f"dataset {directory}: {MANIFEST_NAME} has no 'ids'")
    known = set(manifest["ids"])
    split = manifest.get("split", {"train": [], "val": []})
    for part in ("train", "val"):
        if part not in split:
            raise ValueError(f"dataset {directory}: {MANIFEST_NAME} split has "
                             f"no {part!r} list")
    for part, ids in split.items():
        stray = [i for i in ids if i not in known]
        if stray:
            raise ValueError(f"dataset {directory}: split {part!r} names id "
                             f"{stray[0]!r}, which is not in 'ids'")
    samples = []
    for sid in manifest["ids"]:
        img_dir = directory / "images"
        candidates = [img_dir / f"{sid}.pgm", img_dir / f"{sid}.ppm"]
        img_path = next((p for p in candidates if p.exists()), None)
        if img_path is None:
            raise FileNotFoundError(f"image for id {sid!r} not found in {img_dir}")
        samples.append(Sample(
            image=read_netpbm(img_path),
            mask=read_mask(directory / "masks" / f"{sid}.pgm"),
            id=sid,
        ))
    return samples, manifest


def split_from_manifest(samples: list[Sample],
                        manifest: dict) -> tuple[list[Sample], list[Sample]]:
    by_id = {s.id: s for s in samples}
    sp = manifest["split"]
    return [by_id[i] for i in sp["train"]], [by_id[i] for i in sp["val"]]
