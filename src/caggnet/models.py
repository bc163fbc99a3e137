"""Model assembly: the crossing-aggregation network and a U-Net baseline.

The aggregation grid has L resolution levels (level i runs at 1/2^i of
the input resolution with C0 * 2^i channels) and J columns after the
encoder column. Column 0 is the encoder; within each later column nodes
are evaluated top-down, each fusing

  - the same level's feature from the previous column,
  - the level above's feature from the *current* column (just computed,
    then max-pooled), and
  - the level below's feature from the *previous* column (upsampled),

with the top and bottom rows dropping the missing neighbor. This
left-to-right, top-down order makes the wiring an acyclic grid, which is
asserted while the schedule is built. The head applies channel attention
per level to the last column and fuses bottom-up into a probability map.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import functional as F
from .autograd import Tape, Var
from .blocks import (
    CamNode,
    ConvBlock,
    WabParams,
    cam_forward,
    conv_block_forward,
    wam_head,
)
from .nn_ops import BatchNormState, Conv2dParams
from .tensor_core import DTYPE_OF_TAG, ShapeError, Tensor4, read_tensor, write_tensor


class ConfigError(ValueError):
    """Raised for invalid model configuration."""


@dataclass
class ModelConfig:
    levels: int = 4
    columns: int = 3
    base_channels: int = 8
    in_channels: int = 1
    upsample_mode: str = "nearest2"
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
        if self.upsample_mode != "nearest2":
            raise ConfigError(f"unsupported upsample_mode {self.upsample_mode!r}")
        if self.wab_reduction < 1 or self.base_channels % self.wab_reduction:
            raise ConfigError(
                f"wab_reduction {self.wab_reduction} must divide "
                f"base_channels {self.base_channels}"
            )
        if self.dtype not in DTYPE_OF_TAG:
            raise ConfigError(f"dtype must be 'single' or 'double', got {self.dtype}")

    def width(self, level: int) -> int:
        return self.base_channels * (1 << level)


@dataclass
class Param:
    """One named array in the store, with gradient and Adam moments."""

    value: np.ndarray
    grad: np.ndarray
    adam_m: np.ndarray
    adam_v: np.ndarray
    trainable: bool = True


class ParamStore:
    """Ordered map of named parameter arrays.

    Learnable tensors carry gradient and Adam moment buffers; buffers
    such as batch-norm running statistics are stored with
    ``trainable=False`` so checkpoints capture the full model state.
    Values are mutable and aliased by the model blocks, so in-place
    optimizer updates are immediately visible to the forward pass.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, value: np.ndarray, trainable: bool = True) -> np.ndarray:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self._params[name] = Param(
            value=value,
            grad=np.zeros_like(value),
            adam_m=np.zeros_like(value),
            adam_v=np.zeros_like(value),
            trainable=trainable,
        )
        return value

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def named_trainable(self):
        for name, p in self._params.items():
            if p.trainable:
                yield name, p.value

    def trainable_count(self) -> int:
        return sum(p.value.size for _, p in self._params.items() if p.trainable)

    def apply_grads(self, tape: Tape, grads: dict[int, np.ndarray]) -> None:
        """Copy tape gradients into the per-parameter grad buffers.

        Parameters that never reached the loss keep a zero gradient.
        """
        for _, p in self._params.items():
            if not p.trainable:
                continue
            tid = tape.leaf_id_for(p.value)
            g = grads.get(tid) if tid is not None else None
            p.grad[...] = 0 if g is None else g

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
               rng: np.random.Generator, dtype) -> Conv2dParams:
    bound = 1.0 / np.sqrt(c_in * k * k)
    w = rng.uniform(-bound, bound, size=(c_out, c_in, k, k)).astype(dtype)
    b = np.zeros(c_out, dtype=dtype)
    return Conv2dParams(
        weight=store.add(f"{name}.weight", w),
        bias=store.add(f"{name}.bias", b),
    )


def _init_bn(store: ParamStore, name: str, c: int, dtype) -> BatchNormState:
    return BatchNormState(
        gamma=store.add(f"{name}.gamma", np.ones(c, dtype=dtype)),
        beta=store.add(f"{name}.beta", np.zeros(c, dtype=dtype)),
        running_mean=store.add(f"{name}.running_mean",
                               np.zeros(c, dtype=dtype), trainable=False),
        running_var=store.add(f"{name}.running_var",
                              np.ones(c, dtype=dtype), trainable=False),
    )


def _init_conv_block(store: ParamStore, name: str, c_in: int, c_out: int,
                     rng: np.random.Generator, dtype) -> ConvBlock:
    return ConvBlock(
        conv1=_init_conv(store, f"{name}.conv1", c_in, c_out, 3, rng, dtype),
        bn1=_init_bn(store, f"{name}.bn1", c_out, dtype),
        conv2=_init_conv(store, f"{name}.conv2", c_out, c_out, 3, rng, dtype),
        bn2=_init_bn(store, f"{name}.bn2", c_out, dtype),
    )


def _init_wab(store: ParamStore, name: str, c: int, r: int,
              rng: np.random.Generator, dtype) -> WabParams:
    return WabParams(
        fc1=_init_conv(store, f"{name}.fc1", c, c // r, 1, rng, dtype),
        fc2=_init_conv(store, f"{name}.fc2", c // r, c, 1, rng, dtype),
        reduction=r,
    )


@dataclass
class CaggNet:
    cfg: ModelConfig
    encoder: list[ConvBlock]
    grid: list[list[CamNode]]  # grid[j][i]: column j+1, level i
    wabs: list[WabParams]      # indexed by level
    fuse: list[Conv2dParams]   # indexed by level, 0 .. L-2
    head: Conv2dParams
    params: ParamStore
    arch: str = field(default="caggnet", init=False)


@dataclass
class UNet:
    cfg: ModelConfig
    encoder: list[ConvBlock]
    decoder: list[ConvBlock]   # indexed by level, 0 .. L-2
    head: Conv2dParams
    params: ParamStore
    arch: str = field(default="unet", init=False)


def _assert_acyclic_schedule(levels: int, columns: int) -> None:
    # Nodes are produced in (column, level) lexicographic order; every
    # input must already be produced when its consumer runs.
    produced = {(i, 0) for i in range(levels)}
    for j in range(1, columns + 1):
        for i in range(levels):
            needs = [(i, j - 1)]
            if i > 0:
                needs.append((i - 1, j))
            if i < levels - 1:
                needs.append((i + 1, j - 1))
            for dep in needs:
                if dep not in produced:
                    raise ConfigError(
                        f"grid schedule is not acyclic: node (level {i}, "
                        f"column {j}) needs unproduced {dep}"
                    )
            produced.add((i, j))


def build_caggnet(cfg: ModelConfig) -> CaggNet:
    """Assemble the crossing-aggregation network.

    Parameter initialization is deterministic in cfg.seed: conv weights
    are uniform in +-1/sqrt(fan_in), biases zero, batch-norm gamma 1 and
    beta 0, drawn in a fixed construction order.
    """
    cfg.validate()
    _assert_acyclic_schedule(cfg.levels, cfg.columns)
    rng = np.random.default_rng(cfg.seed)
    dtype = DTYPE_OF_TAG[cfg.dtype]
    store = ParamStore()
    L = cfg.levels

    encoder = []
    for i in range(L):
        c_in = cfg.in_channels if i == 0 else cfg.width(i - 1)
        encoder.append(_init_conv_block(store, f"enc{i}", c_in, cfg.width(i),
                                        rng, dtype))

    grid = []
    for j in range(1, cfg.columns + 1):
        column = []
        for i in range(L):
            z = cfg.width(i)
            if i > 0:
                z += cfg.width(i - 1)
            if i < L - 1:
                z += cfg.width(i + 1)
            body = _init_conv_block(store, f"cam{j}_{i}", z, cfg.width(i),
                                    rng, dtype)
            column.append(CamNode(body=body))
        grid.append(column)

    wabs = [
        _init_wab(store, f"wab{i}", cfg.width(i), cfg.wab_reduction, rng, dtype)
        for i in range(L)
    ]
    fuse = [
        _init_conv(store, f"fuse{i}", cfg.width(i) + cfg.width(i + 1),
                   cfg.width(i), 1, rng, dtype)
        for i in range(L - 1)
    ]
    head = _init_conv(store, "head", cfg.width(0), 1, 1, rng, dtype)
    return CaggNet(cfg=cfg, encoder=encoder, grid=grid, wabs=wabs, fuse=fuse,
                   head=head, params=store)


def build_unet(cfg: ModelConfig) -> UNet:
    """Assemble the plain encoder-decoder baseline (cfg.columns ignored).

    The decoder at level i consumes the level's skip feature concatenated
    with the upsampled feature from level i+1, in that order.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    dtype = DTYPE_OF_TAG[cfg.dtype]
    store = ParamStore()
    L = cfg.levels

    encoder = []
    for i in range(L):
        c_in = cfg.in_channels if i == 0 else cfg.width(i - 1)
        encoder.append(_init_conv_block(store, f"enc{i}", c_in, cfg.width(i),
                                        rng, dtype))
    decoder = [
        _init_conv_block(store, f"dec{i}", cfg.width(i) + cfg.width(i + 1),
                         cfg.width(i), rng, dtype)
        for i in range(L - 1)
    ]
    head = _init_conv(store, "head", cfg.width(0), 1, 1, rng, dtype)
    return UNet(cfg=cfg, encoder=encoder, decoder=decoder, head=head,
                params=store)


@dataclass
class ForwardPass:
    """Forward result: probability map plus the tape that produced it;
    an eval-mode tape records nothing."""

    probs: Tensor4
    tape: Tape
    probs_var: Var


def _encoder_column(model, x: Var, training: bool) -> list[Var]:
    feats = []
    h = x
    for i, block in enumerate(model.encoder):
        if i > 0:
            h = F.maxpool2(h)
        h = conv_block_forward(h, block, training)
        feats.append(h)
    return feats


def _caggnet_graph(model: CaggNet, x: Var, training: bool) -> Var:
    columns = [_encoder_column(model, x, training)]
    L = model.cfg.levels
    for j, column_nodes in enumerate(model.grid, start=1):
        prev = columns[j - 1]
        current: list[Var] = []
        for i in range(L):
            above = current[i - 1] if i > 0 else None
            below = prev[i + 1] if i < L - 1 else None
            current.append(cam_forward(prev[i], above, below,
                                       column_nodes[i], training))
        columns.append(current)
    feats = columns[-1]
    deepest_first = feats[::-1]
    return wam_head(deepest_first, model.wabs[::-1], model.fuse, model.head)


def _unet_graph(model: UNet, x: Var, training: bool) -> Var:
    feats = _encoder_column(model, x, training)
    L = model.cfg.levels
    d = feats[L - 1]
    for i in range(L - 2, -1, -1):
        merged = F.concat_channels([feats[i], F.upsample_nearest2(d)])
        d = conv_block_forward(merged, model.decoder[i], training)
    t = x.tape
    return F.sigmoid(F.conv2d(d, t.leaf(model.head.weight), t.leaf(model.head.bias)))


def forward(model, x: Tensor4, training: bool = False) -> ForwardPass:
    """Run the model on a batch, producing an (n, 1, h, w) probability map.

    In training mode the returned ForwardPass carries the tape for
    `backward`. Eval mode runs on a ``Tape(grad=False)``, so it keeps no
    activations and its tape cannot be differentiated.
    """
    cfg = model.cfg
    if x.c != cfg.in_channels:
        raise ShapeError(
            f"model expects {cfg.in_channels} input channels, got {x.c}"
        )
    multiple = 1 << (cfg.levels - 1)
    if x.h % multiple or x.w % multiple:
        raise ShapeError(
            f"spatial size {x.h}x{x.w} must be divisible by {multiple} "
            f"(levels={cfg.levels})"
        )
    if x.dtype_tag != cfg.dtype:
        raise ShapeError(
            f"input precision {x.dtype_tag} does not match model {cfg.dtype}"
        )
    tape = Tape(grad=training)
    xv = tape.leaf(x.data)
    if isinstance(model, CaggNet):
        out = _caggnet_graph(model, xv, training)
    elif isinstance(model, UNet):
        out = _unet_graph(model, xv, training)
    else:
        raise ConfigError(f"unknown model type {type(model).__name__}")
    return ForwardPass(probs=Tensor4(out.value), tape=tape, probs_var=out)


# --- checkpointing ----------------------------------------------------------

CHECKPOINT_MANIFEST = "manifest.json"
CHECKPOINT_FORMAT = 1


def save_checkpoint(directory, model) -> None:
    """Write config plus every parameter/buffer as binary tensor dumps."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for idx, (name, p) in enumerate(model.params.items()):
        fname = f"p{idx:04d}.t4"
        arr = p.value
        kind = "vector" if arr.ndim == 1 else "tensor4"
        as4 = arr.reshape(arr.shape[0], 1, 1, 1) if arr.ndim == 1 else arr
        write_tensor(directory / fname, Tensor4(as4.copy()))
        entries.append({
            "name": name,
            "kind": kind,
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "trainable": p.trainable,
            "file": fname,
        })
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "arch": model.arch,
        "config": asdict(model.cfg),
        "params": entries,
    }
    with open(directory / CHECKPOINT_MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(directory):
    """Rebuild a model from a checkpoint directory."""
    directory = Path(directory)
    with open(directory / CHECKPOINT_MANIFEST) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"checkpoint {directory} has format "
                          f"{manifest.get('format')!r}; expected {CHECKPOINT_FORMAT}")
    for key in ("arch", "config", "params"):
        if key not in manifest:
            raise ConfigError(f"checkpoint {directory} manifest has no {key!r}")
    unknown = sorted(set(manifest["config"]) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ConfigError(f"checkpoint {directory} config has unknown key(s) "
                          f"{', '.join(map(repr, unknown))}")
    cfg = ModelConfig(**manifest["config"])
    if manifest["arch"] == "caggnet":
        model = build_caggnet(cfg)
    elif manifest["arch"] == "unet":
        model = build_unet(cfg)
    else:
        raise ConfigError(f"checkpoint {directory} has unknown arch "
                          f"{manifest['arch']!r}")
    values = {}
    for entry in manifest["params"]:
        for key in ("name", "file", "kind", "dtype", "shape"):
            if key not in entry:
                raise ConfigError(f"checkpoint {directory} has a parameter entry "
                                  f"with no {key!r}")
        if entry["name"] not in model.params:
            raise ConfigError(f"checkpoint {directory} has unknown parameter "
                              f"{entry['name']!r}")
        arr = read_tensor(directory / entry["file"]).data
        if entry["kind"] == "vector":
            arr = arr.reshape(-1)
        if (entry["dtype"], entry["shape"]) != (str(arr.dtype), list(arr.shape)):
            raise ConfigError(f"checkpoint {directory} parameter {entry['name']!r} is "
                              f"{entry['dtype']!r} {entry['shape']} in the manifest but "
                              f"{arr.dtype} {list(arr.shape)} in {entry['file']!r}")
        values[entry["name"]] = arr
    missing = set(model.params.names()) - set(values)
    if missing:
        raise ConfigError(f"checkpoint missing parameters: {sorted(missing)}")
    model.params.load_values(values)
    return model
