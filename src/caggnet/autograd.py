"""Tape-based reverse-mode differentiation.

A `Tape` is an append-only record of every differentiable operation
executed during a forward pass. Each recorded node stores the ids of its
operand tensors, whatever forward values its backward rule needs, and the
id of the tensor it produced. Ids index into the tape's value table;
leaves (inputs and parameters) are registered with `Tape.leaf` and have no
node. `backward` takes an output `Var` and the cotangent to start from
(1 for a scalar loss) and walks the node list in reverse, applying one
registered backward rule per operation kind and summing gradient
contributions over all paths.

A tape built with ``Tape(grad=False)`` checks operands exactly like a
recording one but keeps no values and no nodes, in the spirit of
PyTorch's ``no_grad``: eval forwards use it, and `backward` refuses it.

The rules are registered by the modules that define the ops
(`functional` for layer and tensor ops, `train` for the losses); this
module only provides the machinery plus the finite-difference oracle used
to validate every rule, which takes the function that builds the checked
graph, weights its output by a fixed random cotangent and runs `backward`
on it itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np


class AutogradError(ValueError):
    """Raised for malformed tapes, bad loss shapes, or failed preconditions."""


@dataclass(frozen=True)
class TapeNode:
    """One recorded operation: inputs -> output plus saved context."""

    op: str
    inputs: tuple[int, ...]
    out: int
    ctx: tuple


@dataclass(frozen=True, eq=False)
class Var:
    """A tensor value plus its id on the tape that produced it; the id is
    -1 on a tape that records nothing."""

    tape: "Tape"
    id: int
    value: np.ndarray


# One backward rule per differentiable op kind. A rule receives the node
# and the gradient w.r.t. the node's output and returns one gradient array
# (or None) per input, in input order.
BackwardRule = Callable[[TapeNode, np.ndarray], tuple]
RULES: dict[str, BackwardRule] = {}


def register_backward(op: str, rule: BackwardRule) -> None:
    if op in RULES:
        raise AutogradError(f"backward rule for {op!r} registered twice")
    RULES[op] = rule


class Tape:
    """Append-only operation record for one forward pass.

    With ``grad=False`` nothing is recorded: every Var gets id -1 and
    `values`/`nodes` stay empty, but dtype, tape and rule checks still run.
    """

    def __init__(self, grad: bool = True):
        self.grad = grad
        self.values: list[np.ndarray] = []
        self.nodes: list[TapeNode] = []
        self.dtype: np.dtype | None = None
        self._leaf_ids: dict[int, int] = {}

    def _push(self, value: np.ndarray) -> int:
        if self.dtype is None:
            self.dtype = value.dtype
        elif value.dtype != self.dtype:
            raise AutogradError(
                f"mixed dtypes on tape: {self.dtype} vs {value.dtype}"
            )
        if not self.grad:
            return -1
        self.values.append(value)
        return len(self.values) - 1

    def leaf(self, value) -> Var:
        """Register an input or parameter array; repeated registration of
        the same array object returns the same id."""
        value = np.asarray(value)
        if value.dtype not in (np.float32, np.float64):
            raise AutogradError(f"leaf dtype {value.dtype} is not float32/float64")
        key = id(value)
        if key in self._leaf_ids:
            return Var(self, self._leaf_ids[key], value)
        tid = self._push(value)
        if self.grad:
            self._leaf_ids[key] = tid
        return Var(self, tid, value)

    def leaf_id_for(self, value: np.ndarray) -> int | None:
        """Tape id of a previously registered leaf array, or None."""
        return self._leaf_ids.get(id(value))

    def record(self, op: str, inputs: Iterable[Var], out_value: np.ndarray,
               ctx: tuple = ()) -> Var:
        """Append an op node; returns a Var for its output."""
        if op not in RULES:
            raise AutogradError(f"op {op!r} has no registered backward rule")
        ids = []
        for v in inputs:
            if v.tape is not self:
                raise AutogradError("operands live on different tapes")
            ids.append(v.id)
        out = self._push(out_value)
        if self.grad:
            self.nodes.append(TapeNode(op, tuple(ids), out, ctx))
        return Var(self, out, out_value)


def backward(tape: Tape, out: Var,
             grad: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """Reverse-accumulate the gradient of sum(out * grad) w.r.t. every leaf.

    `grad` is the cotangent the walk starts from and must have `out`'s
    shape. Without it, `out` must be the loss, of shape (1, 1, 1, 1), and
    the walk starts from 1. `out` must be a Var recorded on `tape`.
    Returns the leaves' gradients keyed by tape id; an absent id has a
    zero gradient. A returned gradient may be `grad` itself or an array
    that other leaves share (`add` passes its gradient on as it is), so
    callers must treat them as read-only. A node's output gradient is
    complete once the walk reaches that node, so it is dropped there: the
    live gradients are the frontier of the walk, not the whole tape. The
    tape itself is only read, so `backward` can run on it again.
    Gradients over multiple paths are summed; traversal order is fixed
    (reverse recording order, inputs in recorded order) so replays are
    bit-identical.
    """
    if not tape.grad:
        raise AutogradError("backward needs a recording tape, not Tape(grad=False)")
    if out.tape is not tape:
        raise AutogradError("the loss was recorded on another tape")
    if grad is None:
        if out.value.shape != (1, 1, 1, 1):
            raise AutogradError(
                f"loss must have shape (1, 1, 1, 1), got {out.value.shape}"
            )
        grad = np.ones((1, 1, 1, 1), dtype=out.value.dtype)
    elif grad.shape != out.value.shape:
        raise AutogradError(
            f"grad shape {grad.shape} differs from the output shape {out.value.shape}"
        )
    grads: dict[int, np.ndarray] = {out.id: grad}
    for node in reversed(tape.nodes):
        g = grads.pop(node.out, None)
        if g is None:
            continue
        input_grads = RULES[node.op](node, g)
        for tid, ig in zip(node.inputs, input_grads):
            if ig is None:
                continue
            acc = grads.get(tid)
            grads[tid] = ig if acc is None else acc + ig
    return grads


@dataclass
class CheckReport:
    """Outcome of one finite-difference gradient check."""

    op: str
    max_rel_err: float
    worst_coord: tuple[str, int]
    passed: bool

    def to_json(self) -> str:
        return json.dumps({
            "op": self.op,
            "max_rel_err": self.max_rel_err,
            "worst_coord": list(self.worst_coord),
            "passed": self.passed,
        })


# `finite_diff_check`'s step, tolerance, sample size and sample seed
FD_EPS = 1e-5
FD_TOL = 1e-4
FD_MAX_COORDS = 256
FD_SEED = 0


def finite_diff_check(build: Callable, params: Mapping[str, np.ndarray],
                      name: str = "loss") -> CheckReport:
    """Compare tape gradients against central finite differences.

    `params` maps names to parameter arrays, and `build(params)` records a
    deterministic output of them, of any shape, on a fresh recording
    tape, returning ``(out_var, leaves)`` with `leaves` mapping parameter
    names to their leaf Vars (a missing name has a zero gradient). The
    checked function is sum(out * r), for a fixed cotangent r drawn
    uniform in [0.5, 1.5) in the output's shape from seed 1,
    so that transposed-index mistakes cannot cancel out; a scalar output
    is weighted too. The first build is run through `backward` seeded
    with r; every other build is only evaluated.
    Parameters must be float64; each coordinate is perturbed in place by
    +-FD_EPS and the central difference (f(p+eps) - f(p-eps)) / (2 eps)
    is compared to the tape gradient using the relative error
    |a-b| / max(1, |a|, |b|), which passes up to FD_TOL. At most
    FD_MAX_COORDS coordinates, sampled with seed FD_SEED, are checked per
    parameter (all of them when the parameter is small enough).
    """
    rng = np.random.default_rng(FD_SEED)
    for pname, arr in params.items():
        if arr.dtype != np.float64:
            raise AutogradError(
                f"finite_diff_check needs float64 params; {pname} is {arr.dtype}"
            )

    out, leaves = build(params)
    r = np.random.default_rng(1).uniform(0.5, 1.5, size=out.value.shape)

    def f(p) -> float:
        return float((build(p)[0].value * r).sum())

    f0 = float((out.value * r).sum())
    if not math.isfinite(f0):
        raise AutogradError(f"non-finite output {f0} at the base point")
    tape_grads = backward(out.tape, out, r)
    grads = {n: tape_grads.get(v.id) for n, v in leaves.items()}

    max_rel = 0.0
    worst = ("", -1)
    for pname, arr in params.items():
        size = arr.size
        if size <= FD_MAX_COORDS:
            coords = np.arange(size)
        else:
            coords = np.sort(rng.choice(size, size=FD_MAX_COORDS, replace=False))
        flat = arr.reshape(-1)
        gflat = None
        g = grads.get(pname)
        if g is not None:
            gflat = g.reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + FD_EPS
            lp = f(params)
            flat[idx] = orig - FD_EPS
            lm = f(params)
            flat[idx] = orig
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise AutogradError(
                    f"non-finite evaluation while perturbing {pname}[{idx}]"
                )
            fd = (lp - lm) / (2.0 * FD_EPS)
            tg = 0.0 if gflat is None else float(gflat[idx])
            rel = abs(fd - tg) / max(1.0, abs(fd), abs(tg))
            if rel > max_rel:
                max_rel = rel
                worst = (pname, int(idx))
    return CheckReport(op=name, max_rel_err=max_rel, worst_coord=worst,
                       passed=max_rel <= FD_TOL)
