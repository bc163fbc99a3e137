"""Outside-in tracing of the caggnet layers.

`Tracer.installed` replaces public functions with timing wrappers under
every name a caller looks up at call time: each `caggnet.*` module
attribute bound to the function, the entries of `caggnet.autograd.RULES`
and `caggnet.gradcheck.SCOPES`, and `ParamStore.apply_grads`. On exit it
puts every original back and checks that it did. Spans are kept in
memory, in flat arrays, and turned into per-layer metrics when the run
ends; the program's own source is not touched.
"""

from __future__ import annotations

import contextlib
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

from . import catalog


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    `parent[i]` is the index of span i's parent, or -1. Spans come from
    nested synchronous calls on one thread, so children lie inside their
    parent and never overlap each other: the covered part is the sum of
    the children's durations.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros_like(dur)
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def _conv_flops(x: np.ndarray, w: np.ndarray) -> float:
    """Multiply-adds x2 of a same-size convolution of x with w."""
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    return 2.0 * n * c_out * h * wd * c_in * k * k


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.span_names: list[str] = []
        self.layer_names: list[str] = list(catalog.CONV_LAYERS)
        self.name = array("i")
        self.parent = array("i")
        self.layer = array("i")
        self.flops = array("d")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._weights: dict[int, tuple[weakref.ref, int]] = {}
        self._bwd_tapes: list = []
        self._tape_keys: set = set()
        self.tape_nodes = 0
        self.tape_bytes = 0
        self._patches: list[tuple] = []

    def __len__(self) -> int:
        return len(self.name)

    # --- spans ---------------------------------------------------------------

    def _index(self, table: list[str], name: str) -> int:
        try:
            return table.index(name)
        except ValueError:
            table.append(name)
            return len(table) - 1

    def _span(self, fn, name: str, layer=None, flops=None):
        """Wrap `fn` so that every call records one span named `name`.

        `layer(args)` and `flops(args)` give the conv layer index (-1 for
        none) and the computed FLOPs of the call."""
        nid = self._index(self.span_names, name)
        names, parents, layers, flopses = self.name, self.parent, self.layer, self.flops
        starts, ends, stack = self.start, self.end, self._stack

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            layers.append(-1 if layer is None else layer(args))
            flopses.append(0.0 if flops is None else flops(args))
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # --- conv layer names ----------------------------------------------------

    def register_params(self, params) -> None:
        """Name the conv weights of a ParamStore by their parameter names."""
        for name, value in params.named_trainable():
            if name.endswith(".weight") and value.ndim == 4:
                lid = self._index(self.layer_names, name[:-len(".weight")])
                self._weights[id(value)] = (weakref.ref(value), lid)

    def _layer_of(self, weight: np.ndarray) -> int:
        entry = self._weights.get(id(weight))
        return entry[1] if entry is not None and entry[0]() is weight else -1

    def _bwd_conv_args(self, args):
        """(input, weight) arrays of a conv2d node seen by its backward rule."""
        if not self._bwd_tapes:
            return None
        node = args[0]
        values = self._bwd_tapes[-1].values
        return values[node.inputs[0]], values[node.inputs[1]]

    # --- patching ------------------------------------------------------------

    def _set(self, container, key, new, item: bool = False) -> None:
        old = container[key] if item else getattr(container, key)
        self._patches.append((container, key, old, item))
        if item:
            container[key] = new
        else:
            setattr(container, key, new)

    def _bind(self, original, wrapper) -> None:
        """Point every caggnet module attribute bound to `original` at
        `wrapper`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "caggnet":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _install(self, prog) -> None:
        F = prog.functional
        for op in catalog.FUNCTIONAL_OPS:
            fn = getattr(F, op, None)
            if fn is None:
                continue
            if op == "conv2d":
                wrapped = self._span(
                    fn, "functional.conv2d",
                    layer=lambda a: self._layer_of(a[1].value),
                    flops=lambda a: _conv_flops(a[0].value, a[1].value))
            else:
                wrapped = self._span(fn, f"functional.{op}")
            self._bind(fn, wrapped)

        rules = prog.autograd.RULES
        for op, rule in list(rules.items()):
            if op == "conv2d":
                def layer(a):
                    xw = self._bwd_conv_args(a)
                    return -1 if xw is None else self._layer_of(xw[1])

                def flops(a):
                    xw = self._bwd_conv_args(a)
                    return 0.0 if xw is None else 2.0 * _conv_flops(*xw)

                wrapped = self._span(rule, "autograd.conv2d", layer, flops)
            else:
                wrapped = self._span(rule, f"autograd.{op}")
            self._set(rules, op, wrapped, item=True)

        backward = prog.autograd.backward
        timed_backward = self._span(backward, "autograd.backward")

        def traced_backward(tape, *args, **kwargs):
            self._bwd_tapes.append(tape)
            try:
                return timed_backward(tape, *args, **kwargs)
            finally:
                self._bwd_tapes.pop()

        self._bind(backward, traced_backward)

        for block in catalog.BLOCKS:
            fn = getattr(prog.blocks, block)
            self._bind(fn, self._span(fn, f"blocks.{block}"))

        timed_forward = self._span(prog.models.forward, "models.forward")

        def traced_forward(model, x, *args, **kwargs):
            fp = timed_forward(model, x, *args, **kwargs)
            self._tape_stats(fp.tape, (x.data.shape, x.data.dtype, args, tuple(kwargs.items())))
            return fp

        self._bind(prog.models.forward, traced_forward)

        for build in (prog.models.build_caggnet, prog.models.build_unet):
            timed_build = self._span(build, "models.build")

            def traced_build(*args, _timed=timed_build, **kwargs):
                model = _timed(*args, **kwargs)
                self.register_params(model.params)
                return model

            self._bind(build, traced_build)

        spans = {
            "models.load_checkpoint": prog.models.load_checkpoint,
            "models.save_checkpoint": prog.models.save_checkpoint,
            "train.adam_step": prog.train.adam_step,
            "train.loss": prog.train.traced_bce_loss,
            "train.train_loop": prog.train.train_loop,
            "metrics.evaluate_model": prog.metrics.evaluate_model,
            "metrics.binarize": prog.metrics.binarize,
            "metrics.confusion": prog.metrics.confusion,
            "data_io.load_dataset": prog.data_io.load_dataset,
            "gradcheck.finite_diff_check": prog.autograd.finite_diff_check,
        }
        for name, fn in spans.items():
            self._bind(fn, self._span(fn, name))
        focal = prog.train.traced_focal_loss
        self._bind(focal, self._span(focal, "train.loss"))

        store = prog.models.ParamStore
        self._set(store, "apply_grads",
                  self._span(store.apply_grads, "models.apply_grads"))
        scopes = prog.gradcheck.SCOPES
        for scope, fn in list(scopes.items()):
            self._set(scopes, scope, self._span(fn, f"gradcheck.{scope}"), item=True)

    def _restore(self) -> None:
        patches, self._patches = self._patches, []
        for container, key, old, item in reversed(patches):
            if item:
                container[key] = old
            else:
                setattr(container, key, old)
        left = [key for container, key, old, item in patches
                if (container[key] if item else getattr(container, key)) is not old]
        if left:
            raise RuntimeError(f"tracing left wrapped names behind: {left}")

    @contextlib.contextmanager
    def installed(self, prog):
        """Trace the program's layers inside the block."""
        try:
            self._install(prog)
            yield self
        finally:
            self._restore()

    def _tape_stats(self, tape, key) -> None:
        # value bytes plus saved-context arrays that are not tape values;
        # the size depends only on the input shape and mode, so each kind
        # of forward is measured once
        if key in self._tape_keys:
            return
        self._tape_keys.add(key)
        seen = {id(v) for v in tape.values}
        nbytes = sum(v.nbytes for v in tape.values)
        for node in tape.nodes:
            for item in node.ctx:
                if isinstance(item, np.ndarray) and id(item) not in seen:
                    seen.add(id(item))
                    nbytes += item.nbytes
        self.tape_nodes = max(self.tape_nodes, len(tape.nodes))
        self.tape_bytes = max(self.tape_bytes, nbytes)

    # --- results -------------------------------------------------------------

    def summarize(self, lo: int = 0, hi: int | None = None) -> dict:
        """Totals per span name and per conv layer over spans [lo, hi)."""
        hi = len(self) if hi is None else hi

        def col(arr, dtype):
            return np.frombuffer(arr[lo:hi], dtype=dtype) if hi > lo else np.empty(0, dtype)

        name = col(self.name, np.int32)
        layer = col(self.layer, np.int32)
        parent = col(self.parent, np.int32).astype(np.int64) - lo
        parent[parent < 0] = -1
        start, end = col(self.start, np.float64), col(self.end, np.float64)
        dur = end - start
        own = self_times(start, end, parent)
        flops = col(self.flops, np.float64)
        k = len(self.span_names)

        def by_name(weights=None):
            sums = np.bincount(name, weights=weights, minlength=k)
            return {n: float(sums[i]) for i, n in enumerate(self.span_names)}

        def by_layer(span):
            sel = layer >= 0
            if span in self.span_names:
                sel &= name == self.span_names.index(span)
            else:
                sel[:] = False
            sums = np.bincount(layer[sel], weights=dur[sel], minlength=len(self.layer_names))
            return {n: float(sums[i]) for i, n in enumerate(self.layer_names)}

        return {"total": by_name(dur), "self": by_name(own), "calls": by_name(),
                "flops": by_name(flops), "conv_fwd": by_layer("functional.conv2d"),
                "conv_bwd": by_layer("autograd.conv2d")}

    def save(self, path) -> None:
        """Write every span to an .npz file."""
        np.savez(path, span_names=np.array(self.span_names),
                 layer_names=np.array(self.layer_names),
                 name=np.array(self.name), parent=np.array(self.parent),
                 layer=np.array(self.layer), flops=np.array(self.flops),
                 start=np.array(self.start), end=np.array(self.end))


def layer_metrics(tracer: Tracer, setup: dict, passes: dict, n_passes: int,
                  overhead_share: float) -> dict[str, float]:
    """Every per-layer metric of the catalog for one set-up plus one pass.

    `setup` and `passes` are `Tracer.summarize` results over the set-up
    spans and over all traced passes; pass totals are averaged over the
    `n_passes` traced passes.
    """
    def get(kind, key):
        return setup[kind].get(key, 0.0) + passes[kind].get(key, 0.0) / n_passes

    def gflops(span):
        t = get("total", span)
        return get("flops", span) / t / 1e9 if t > 0 else 0.0

    out = {}
    for op in catalog.FUNCTIONAL_OPS:
        out[f"functional.{op}.fwd_s"] = get("total", f"functional.{op}")
    out["functional.conv2d.calls"] = get("calls", "functional.conv2d")
    out["functional.conv2d.fwd_gflops"] = gflops("functional.conv2d")
    for op in catalog.FUNCTIONAL_OPS + catalog.LOSS_OPS:
        out[f"autograd.{op}.bwd_s"] = get("total", f"autograd.{op}")
    out["autograd.conv2d.bwd_gflops"] = gflops("autograd.conv2d")
    out["autograd.backward_s"] = get("total", "autograd.backward")
    out["autograd.tape_nodes"] = float(tracer.tape_nodes)
    out["autograd.tape_mb"] = tracer.tape_bytes / 2**20
    for layer in catalog.CONV_LAYERS:
        out[f"conv.{layer}.fwd_s"] = get("conv_fwd", layer)
        out[f"conv.{layer}.bwd_s"] = get("conv_bwd", layer)
    for block in catalog.BLOCKS:
        out[f"blocks.{block}.self_s"] = get("self", f"blocks.{block}")
    out["models.forward.self_s"] = get("self", "models.forward")
    for name in ("models.build", "models.load_checkpoint", "models.save_checkpoint",
                 "models.apply_grads", "train.adam_step", "train.loss",
                 "metrics.evaluate_model", "metrics.binarize", "metrics.confusion",
                 "data_io.load_dataset"):
        out[f"{name}_s"] = get("total", name)
    out["train.train_loop.self_s"] = get("self", "train.train_loop")
    for scope in catalog.GRADCHECK_SCOPES:
        out[f"gradcheck.{scope}_s"] = get("total", f"gradcheck.{scope}")
    out["gradcheck.finite_diff_check.calls"] = get("calls", "gradcheck.finite_diff_check")
    out["trace.overhead_share"] = overhead_share
    return {name: out[name] for name, *_ in catalog.PER_LAYER}
