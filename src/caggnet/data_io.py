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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor_core import Tensor4


class NetpbmError(ValueError):
    """Parse failure; the message names the file and the byte offset."""


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
        # the one binary check: every loss target and metric ground truth
        # is a Sample's mask
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
    """A header integer, ASCII digits only: `int` alone would also take a
    sign and underscores, and refuses more digits than Python's limit."""
    if token.isdigit():
        try:
            return int(token)
        except ValueError:
            pass
    shown = f"{token[:16]!r}{'...' if len(token) > 16 else ''}"
    raise NetpbmError(f"bad {what} {shown} ending at byte {pos}")


def read_netpbm(path) -> Tensor4:
    """Read a binary P5/P6 file into a (1, 1|3, H, W) tensor scaled v/255."""
    try:
        return _parse_netpbm(Path(path).read_bytes())
    except NetpbmError as e:
        raise NetpbmError(f"{path}: {e}") from None


def _parse_netpbm(buf: bytes) -> Tensor4:
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
    if width < 1 or height < 1:
        raise NetpbmError(f"extents {width}x{height} must be positive, ending at "
                          f"byte {pos}")
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
    write_atomic(path, magic + b"\n%d %d\n255\n" % (img.w, img.h) + payload)


def read_mask(path) -> Tensor4:
    """Read a P5 file as a binary mask: byte > 127 -> 1."""
    raw = read_netpbm(path)
    if raw.c != 1:
        raise NetpbmError(f"mask {path} must be grayscale P5")
    return Tensor4((np.rint(raw.data * 255.0) > 127).astype(np.float64))


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


def batch_arrays(samples, idxs, dtype) -> tuple[Tensor4, np.ndarray]:
    """Stack the samples at `idxs`, in order, into one image batch and
    one mask array, both cast to `dtype`; the images must share a shape."""
    images = np.concatenate([samples[i].image.data for i in idxs], axis=0)
    masks = np.concatenate([samples[i].mask.data for i in idxs], axis=0)
    return Tensor4(images.astype(dtype, copy=True)), masks.astype(dtype)


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


def write_atomic(path, data: str | bytes) -> None:
    """Write `data`, text or bytes, to a sibling ``.<name>.tmp`` and rename
    it over `path`, so that a failed write leaves the previous file, never
    a partial one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_json(path) -> dict:
    """Parse a config or a dataset or checkpoint manifest, a JSON object in
    UTF-8. Bad JSON or UTF-8, an integer past Python's digit limit,
    nesting too deep to parse and any other top-level value raise a
    ValueError that starts with the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise ValueError(f"{path}: {e}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: the top-level value must be a JSON object")
    return value


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
    write_atomic(directory / MANIFEST_NAME,
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _is_id_list(ids) -> bool:
    return isinstance(ids, list) and all(isinstance(i, str) for i in ids)


def load_dataset(directory) -> tuple[list[Sample], dict]:
    """Load every sample named by the manifest, in manifest order."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    manifest = read_json(manifest_path)
    if "ids" not in manifest:
        raise ValueError(f"dataset {directory}: {MANIFEST_NAME} has no 'ids'")
    if not _is_id_list(manifest["ids"]):
        raise ValueError(f"dataset {directory}: {MANIFEST_NAME} 'ids' must be "
                         f"a list of strings")
    # an id names files under images/ and masks/, and under eval's
    # pred_masks/, so it must be one plain, unique file name
    known = set()
    for sid in manifest["ids"]:
        if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
            raise ValueError(f"dataset {directory}: {MANIFEST_NAME} id {sid!r} "
                             f"is not a plain file name")
        if sid in known:
            raise ValueError(f"dataset {directory}: {MANIFEST_NAME} lists id "
                             f"{sid!r} twice")
        known.add(sid)
    split = manifest.get("split", {"train": [], "val": []})
    if not isinstance(split, dict):
        raise ValueError(f"dataset {directory}: {MANIFEST_NAME} 'split' must be "
                         f"an object")
    for part in ("train", "val"):
        if part not in split:
            raise ValueError(f"dataset {directory}: {MANIFEST_NAME} split has "
                             f"no {part!r} list")
    for part, ids in split.items():
        if not _is_id_list(ids):
            raise ValueError(f"dataset {directory}: {MANIFEST_NAME} split "
                             f"{part!r} must be a list of strings")
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
