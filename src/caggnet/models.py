"""Model assembly: the crossing-aggregation network and a U-Net baseline.

The aggregation grid has L resolution levels (level i runs at 1/2^i of
the input resolution with C0 * 2^i channels) and J columns after the
encoder column. Column 0 is the encoder; within each later column nodes
are evaluated top-down, each fusing

  - the same level's feature from the previous column,
  - the level above's feature from the *current* column (just computed,
    then max-pooled), and
  - the level below's feature from the *previous* column (upsampled),

with the top and bottom rows dropping the missing neighbor. In this
left-to-right, top-down order every input of a node is computed before
the node, so the wiring is an acyclic grid. The head applies channel
attention per level to the last column and fuses bottom-up into a
probability map.

Both archs are one `Model`, whose `ParamStore` holds every weight under
the layer names the builders register; each graph hands a block its
layer's prefix. This module also owns the checkpoint format: a JSON
manifest and ``params.bin``, the raw parameter values.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import functional as F
from .autograd import Tape, Var
from .blocks import _conv, cam_forward, conv_block_forward, wam_head
from .data_io import read_manifest
from .tensor_core import DTYPE_OF_TAG, ShapeError, Tensor4, TensorError


class ConfigError(ValueError):
    """Raised for invalid model configuration."""


@dataclass
class ModelConfig:
    levels: int = 3
    columns: int = 2
    base_channels: int = 8
    in_channels: int = 1
    wab_reduction: int = 2
    seed: int = 0
    dtype: str = "single"

    def validate(self) -> None:
        if self.levels < 2:
            raise ConfigError(f"levels must be >= 2, got {self.levels}")
        if self.columns < 1:
            raise ConfigError(f"columns must be >= 1, got {self.columns}")
        if self.base_channels < 1:
            raise ConfigError("base_channels must be >= 1")
        if self.in_channels not in (1, 3):
            raise ConfigError(f"in_channels must be 1 or 3, got {self.in_channels}")
        if self.wab_reduction < 1 or self.base_channels % self.wab_reduction:
            raise ConfigError(
                f"wab_reduction {self.wab_reduction} must divide "
                f"base_channels {self.base_channels}"
            )
        if self.dtype not in DTYPE_OF_TAG:
            raise ConfigError(f"dtype must be 'single' or 'double', got {self.dtype}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def width(self, level: int) -> int:
        return self.base_channels * (1 << level)


@dataclass
class Param:
    """One named array in the store; ``trainable=False`` marks a buffer."""

    value: np.ndarray
    trainable: bool = True


class ParamStore:
    """Ordered map of named parameter arrays: the model's one registry of
    weights, which the blocks read by name (``store[name]`` is the array).

    Buffers such as batch-norm running statistics are stored with
    ``trainable=False`` so checkpoints capture the full model state.
    Values are mutable and read afresh by every forward, so in-place
    optimizer updates are immediately visible to the forward pass. The
    store holds no optimizer state: `train.AdamState` owns the moments,
    flat over the trainable parameters in construction order.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> None:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self._params[name] = Param(value=value, trainable=trainable)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name].value

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def named_trainable(self):
        for name, p in self._params.items():
            if p.trainable:
                yield name, p.value

    def trainable_count(self) -> int:
        return sum(value.size for _, value in self.named_trainable())

    def flat_slices(self):
        """Yield (name, value, slice) per trainable parameter; the slice
        locates it in the flat order of `apply_grads`."""
        start = 0
        for name, value in self.named_trainable():
            yield name, value, slice(start, start + value.size)
            start += value.size

    def apply_grads(self, tape: Tape, grads: dict[int, np.ndarray]) -> np.ndarray:
        """Gather the tape's gradients into one flat array over the
        trainable parameters, in construction order, in the parameters'
        dtype. A parameter that never reached the loss gets zeros."""
        dtype = next((value.dtype for _, value in self.named_trainable()), np.float64)
        flat = np.empty(self.trainable_count(), dtype=dtype)
        for _, value, where in self.flat_slices():
            g = grads.get(tape.leaf_id_for(value))
            flat[where] = 0 if g is None else g.reshape(-1)
        return flat

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            p = self._params[name]
            if p.value.shape != arr.shape:
                raise ShapeError(
                    f"parameter {name}: stored shape {arr.shape} vs "
                    f"model shape {p.value.shape}"
                )
            p.value[...] = arr


# --- parameter construction -------------------------------------------------

def _init_conv(store: ParamStore, name: str, c_in: int, c_out: int, k: int,
               rng: np.random.Generator, dtype) -> None:
    bound = 1.0 / np.sqrt(c_in * k * k)
    store.add(f"{name}.weight",
              rng.uniform(-bound, bound, size=(c_out, c_in, k, k)).astype(dtype))
    store.add(f"{name}.bias", np.zeros(c_out, dtype=dtype))


def _init_bn(store: ParamStore, name: str, c: int, dtype) -> None:
    store.add(f"{name}.gamma", np.ones(c, dtype=dtype))
    store.add(f"{name}.beta", np.zeros(c, dtype=dtype))
    store.add(f"{name}.running_mean", np.zeros(c, dtype=dtype), trainable=False)
    store.add(f"{name}.running_var", np.ones(c, dtype=dtype), trainable=False)


def _init_conv_block(store: ParamStore, name: str, c_in: int, c_out: int,
                     rng: np.random.Generator, dtype) -> None:
    _init_conv(store, f"{name}.conv1", c_in, c_out, 3, rng, dtype)
    _init_bn(store, f"{name}.bn1", c_out, dtype)
    _init_conv(store, f"{name}.conv2", c_out, c_out, 3, rng, dtype)
    _init_bn(store, f"{name}.bn2", c_out, dtype)


def _init_wab(store: ParamStore, name: str, c: int, r: int,
              rng: np.random.Generator, dtype) -> None:
    _init_conv(store, f"{name}.fc1", c, c // r, 1, rng, dtype)
    _init_conv(store, f"{name}.fc2", c // r, c, 1, rng, dtype)


@dataclass
class Model:
    """A built network; `arch` picks its graph in `GRAPHS`."""

    cfg: ModelConfig
    arch: str
    params: ParamStore


def _encoder_store(cfg: ModelConfig):
    """Validate `cfg`, register the encoder column both archs share and
    return the store, with the generator and dtype for the arch's other
    layers. Conv weights are uniform in +-1/sqrt(fan_in) from a generator
    seeded by cfg.seed, in construction order; biases and beta are 0, gamma 1."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    dtype = DTYPE_OF_TAG[cfg.dtype]
    store = ParamStore()
    for i in range(cfg.levels):
        c_in = cfg.in_channels if i == 0 else cfg.width(i - 1)
        _init_conv_block(store, f"enc{i}", c_in, cfg.width(i), rng, dtype)
    return store, rng, dtype


def build_caggnet(cfg: ModelConfig) -> Model:
    """Assemble the crossing-aggregation network: the encoder, grid nodes
    ``cam{j}_{i}``, gates ``wab{i}``, fusions ``fuse{i}`` and ``head``."""
    store, rng, dtype = _encoder_store(cfg)
    L = cfg.levels
    for j in range(1, cfg.columns + 1):
        for i in range(L):
            z = cfg.width(i)
            if i > 0:
                z += cfg.width(i - 1)
            if i < L - 1:
                z += cfg.width(i + 1)
            _init_conv_block(store, f"cam{j}_{i}", z, cfg.width(i), rng, dtype)
    for i in range(L):
        _init_wab(store, f"wab{i}", cfg.width(i), cfg.wab_reduction, rng, dtype)
    for i in range(L - 1):
        _init_conv(store, f"fuse{i}", cfg.width(i) + cfg.width(i + 1),
                   cfg.width(i), 1, rng, dtype)
    _init_conv(store, "head", cfg.width(0), 1, 1, rng, dtype)
    return Model(cfg=cfg, arch="caggnet", params=store)


def build_unet(cfg: ModelConfig) -> Model:
    """Assemble the plain encoder-decoder baseline (cfg.columns ignored).
    Decoder block ``dec{i}`` consumes level i's skip feature concatenated
    with the upsampled feature from level i+1, in that order."""
    store, rng, dtype = _encoder_store(cfg)
    for i in range(cfg.levels - 1):
        _init_conv_block(store, f"dec{i}", cfg.width(i) + cfg.width(i + 1),
                         cfg.width(i), rng, dtype)
    _init_conv(store, "head", cfg.width(0), 1, 1, rng, dtype)
    return Model(cfg=cfg, arch="unet", params=store)


# the builder of each `arch`; an entry looks its builder up when called,
# so that rebinding `build_caggnet` or `build_unet` (a profiler's wrapper,
# say) also reaches the builds made through this table
BUILDERS = {"caggnet": lambda cfg: build_caggnet(cfg),
            "unet": lambda cfg: build_unet(cfg)}


def check_input(cfg: ModelConfig, x: Tensor4) -> None:
    """Raise ShapeError unless `x` has `cfg.in_channels` channels and
    extents divisible by 2**(levels-1), as the pooling needs."""
    if x.c != cfg.in_channels:
        raise ShapeError(f"{x.c} input channels, but "
                         f"model.in_channels={cfg.in_channels}")
    multiple = 1 << (cfg.levels - 1)
    if x.h % multiple or x.w % multiple:
        raise ShapeError(f"spatial size {x.h}x{x.w} must be divisible by "
                         f"{multiple} (model.levels={cfg.levels})")


@dataclass
class ForwardPass:
    """Forward result: probability map plus the tape that produced it;
    an eval-mode tape records nothing."""

    probs: Tensor4
    tape: Tape
    probs_var: Var


def _encoder_column(model: Model, x: Var, training: bool) -> list[Var]:
    feats = []
    h = x
    for i in range(model.cfg.levels):
        if i > 0:
            h = F.maxpool2(h)
        h = conv_block_forward(h, model.params, f"enc{i}", training)
        feats.append(h)
    return feats


def _caggnet_graph(model: Model, x: Var, training: bool) -> Var:
    # only the previous column stays alive while the next one is built
    prev = _encoder_column(model, x, training)
    L = model.cfg.levels
    for j in range(1, model.cfg.columns + 1):
        current: list[Var] = []
        for i in range(L):
            above = current[i - 1] if i > 0 else None
            below = prev[i + 1] if i < L - 1 else None
            current.append(cam_forward(prev[i], above, below, model.params,
                                       f"cam{j}_{i}", training))
        prev = current
    return wam_head(prev[::-1], model.params)


def _unet_graph(model: Model, x: Var, training: bool) -> Var:
    feats = _encoder_column(model, x, training)
    L = model.cfg.levels
    d = feats[L - 1]
    for i in range(L - 2, -1, -1):
        merged = F.concat_channels([feats[i], F.upsample_nearest2(d)])
        d = conv_block_forward(merged, model.params, f"dec{i}", training)
    return F.sigmoid(_conv(d, model.params, "head"))


# the graph of each `arch`, the keys of `BUILDERS`
GRAPHS = {"caggnet": _caggnet_graph, "unet": _unet_graph}


def forward(model: Model, x: Tensor4, training: bool = False) -> ForwardPass:
    """Run the model on a batch, producing an (n, 1, h, w) probability map.

    In training mode the returned ForwardPass carries the tape for
    `backward`. Eval mode runs on a ``Tape(grad=False)``, so it keeps no
    activations and its tape cannot be differentiated.
    """
    check_input(model.cfg, x)
    if x.dtype_tag != model.cfg.dtype:
        raise ShapeError(
            f"input precision {x.dtype_tag} does not match model {model.cfg.dtype}"
        )
    tape = Tape(grad=training)
    out = GRAPHS[model.arch](model, tape.leaf(x.data), training)
    return ForwardPass(probs=Tensor4(out.value), tape=tape, probs_var=out)


# --- checkpointing ----------------------------------------------------------

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_PARAMS = "params.bin"
CHECKPOINT_FORMAT = 4
_PARAMS_DTYPE = {"single": np.dtype("<f4"), "double": np.dtype("<f8")}
_JSON_NAME = {str: "string", int: "integer", dict: "object", list: "array"}


def save_checkpoint(directory, model) -> None:
    """Write ``manifest.json`` (format, arch, config, parameter names) and
    ``params.bin``: every parameter and buffer in `ParamStore`
    construction order, as raw little-endian values in the config's
    precision, with no header. The loader splits it by that order:
    changing the order or the encoding must bump CHECKPOINT_FORMAT. A
    non-finite value is refused.

    The files go into a fresh ``.<name>.tmp``; the old checkpoint is then
    renamed to ``.<name>.old``, the new one renamed in and the old one
    removed. A failure while writing leaves the previous checkpoint.
    """
    directory = Path(directory)
    tmp = directory.with_name(f".{directory.name}.tmp")
    old = directory.with_name(f".{directory.name}.old")
    for leftover in (tmp, old):
        shutil.rmtree(leftover, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        flat = np.concatenate([p.value.reshape(-1) for _, p in model.params.items()])
        if not np.isfinite(flat).all():
            raise TensorError(f"checkpoint {directory}: a parameter holds NaN or Inf")
        (tmp / CHECKPOINT_PARAMS).write_bytes(
            flat.astype(_PARAMS_DTYPE[model.cfg.dtype], copy=False).tobytes())
        manifest = {"format": CHECKPOINT_FORMAT, "arch": model.arch,
                    "config": asdict(model.cfg), "params": model.params.names()}
        (tmp / CHECKPOINT_MANIFEST).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if directory.exists():
        os.replace(directory, old)
        os.replace(tmp, directory)
        shutil.rmtree(old)
    else:
        os.replace(tmp, directory)


def load_checkpoint(directory):
    """Rebuild a model from a checkpoint directory; ``params.bin`` must hold
    exactly the rebuilt model's values, split in construction order. A
    non-finite value or a negative running variance names its parameter."""
    directory = Path(directory)
    manifest = read_manifest(directory / CHECKPOINT_MANIFEST)
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"checkpoint {directory} has format {manifest.get('format')!r}; "
                          f"expected {CHECKPOINT_FORMAT}, raw values in {CHECKPOINT_PARAMS!r}")
    for key, kind in (("arch", str), ("config", dict), ("params", list)):
        if key not in manifest:
            raise ConfigError(f"checkpoint {directory} manifest has no {key!r}")
        if not isinstance(manifest[key], kind):
            raise ConfigError(f"checkpoint {directory} manifest {key!r} must be "
                              f"a JSON {_JSON_NAME[kind]}")
    defaults = asdict(ModelConfig())
    unknown = sorted(set(manifest["config"]) - set(defaults))
    if unknown:
        raise ConfigError(f"checkpoint {directory} config has unknown key(s) "
                          f"{', '.join(map(repr, unknown))}")
    for key, value in manifest["config"].items():
        if type(value) is not type(defaults[key]):
            raise ConfigError(f"checkpoint {directory} config {key!r} must be "
                              f"a JSON {_JSON_NAME[type(defaults[key])]}")
    if manifest["arch"] not in BUILDERS:
        raise ConfigError(f"checkpoint {directory} has unknown arch "
                          f"{manifest['arch']!r}")
    cfg = ModelConfig(**manifest["config"])
    try:
        cfg.validate()
    except ConfigError as e:
        raise ConfigError(f"checkpoint {directory} config: {e}") from e
    try:
        model = BUILDERS[manifest["arch"]](cfg)
    except MemoryError:
        raise ConfigError(f"checkpoint {directory} config: the {manifest['arch']} "
                          f"model's parameters do not fit in memory") from None
    listed, names = manifest["params"], model.params.names()
    if listed != names:
        at = next((i for i, (a, b) in enumerate(zip(listed, names)) if a != b),
                  min(len(listed), len(names)))
        got, want = (repr(x[at]) if at < len(x) else "no name" for x in (listed, names))
        raise ConfigError(f"checkpoint {directory} manifest 'params' has {got} at "
                          f"position {at}, where the {model.arch} model has {want}")
    raw = (directory / CHECKPOINT_PARAMS).read_bytes()
    dtype = _PARAMS_DTYPE[cfg.dtype]
    sizes = [p.value.size for _, p in model.params.items()]
    if len(raw) != sum(sizes) * dtype.itemsize:
        raise ConfigError(f"checkpoint {directory} {CHECKPOINT_PARAMS!r} holds "
                          f"{len(raw)} bytes; the model's {sum(sizes)} {cfg.dtype} "
                          f"values take {sum(sizes) * dtype.itemsize}")
    parts = np.split(np.frombuffer(raw, dtype=dtype), np.cumsum(sizes)[:-1])
    values = {}
    for (name, p), part in zip(model.params.items(), parts):
        if not np.isfinite(part).all():
            raise ConfigError(f"checkpoint {directory} {CHECKPOINT_PARAMS!r} holds a "
                              f"non-finite value in {name!r}")
        if name.endswith(".running_var") and np.any(part < 0):
            raise ConfigError(f"checkpoint {directory} {CHECKPOINT_PARAMS!r} holds a "
                              f"negative variance in {name!r}")
        values[name] = part.reshape(p.value.shape)
    model.params.load_values(values)
    return model
