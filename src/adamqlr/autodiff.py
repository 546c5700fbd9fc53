"""Loss, gradient and curvature-vector evaluations for scalar objectives.

An :class:`Objective` bundles a traced computation graph with a fast
plain-numpy value path. Gradients come from one reverse sweep; exact
Hessian-vector products from a tangent-seeded trace whose backward pass
carries tangents along (one extra dual pass per product, no materialized
matrix); Gauss-Newton/Fisher products from a model-output tangent
sandwiched with the closed-form output-space loss Hessian.

`fd_grad` deliberately runs through the tape-free value path so the
finite-difference oracle shares no derivative code with what it checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import Batch
from .params import ManifestEntry, ParamVector
from .tape import Node, Tape


class EvalOverflowError(ArithmeticError):
    """An evaluation produced a non-finite result; context says where."""

    def __init__(self, context: str, value: float):
        super().__init__(f"non-finite result ({value!r}) in {context}")
        self.context = context
        self.value = value


class MatrixCapExceededError(ValueError):
    """Refused to densify a curvature matrix beyond the configured cap."""


class UnsupportedCurvatureError(ValueError):
    """The objective lacks the model/loss split this curvature kind needs."""


class CurvatureKind(enum.Enum):
    HESSIAN = "hessian"
    GGN_FISHER = "ggn_fisher"


class LossKind(enum.Enum):
    MSE = "mse"
    SOFTMAX_CROSS_ENTROPY = "softmax_cross_entropy"


@dataclass
class OpCounters:
    """Instrumentation for per-step cost accounting in tests."""

    eval_loss: int = 0
    eval_grad: int = 0
    curvature_vp: int = 0

    def reset(self) -> None:
        self.eval_loss = 0
        self.eval_grad = 0
        self.curvature_vp = 0


counters = OpCounters()


@dataclass(frozen=True)
class Objective:
    """A scalar training objective: model graph + loss, mean-reduced.

    `trace` builds the computation graph on a tape and returns the model
    output node (None for objectives that are directly a scalar, like the
    banana-valley benchmark) and the scalar loss node. `value` computes
    the same scalar without recording a tape. `predict` maps (params,
    inputs) to raw model outputs where that notion exists.
    """

    name: str
    manifest: tuple[ManifestEntry, ...]
    loss_kind: Optional[LossKind]
    trace: Callable[[Tape, Node, Optional[Batch]], tuple[Optional[Node], Node]]
    value: Callable[[np.ndarray, Optional[Batch]], float]
    predict: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    batch_free: bool = False

    @property
    def n_params(self) -> int:
        last = self.manifest[-1]
        return last.offset + last.size

    def init_vector(self, values: np.ndarray) -> ParamVector:
        return ParamVector(values, self.manifest)


def _check_params(obj: Objective, params: ParamVector) -> None:
    if len(params) != obj.n_params:
        raise ValueError(
            f"objective {obj.name!r} expects {obj.n_params} parameters, got {len(params)}"
        )


def _check_batch(obj: Objective, batch: Optional[Batch]) -> None:
    if batch is None and not obj.batch_free:
        raise ValueError(f"objective {obj.name!r} requires a batch")
    if batch is not None and len(batch) == 0:
        raise ValueError(f"objective {obj.name!r} cannot be evaluated on an empty batch")


def eval_loss(obj: Objective, params: ParamVector, batch: Optional[Batch]) -> float:
    """Mean-reduced loss; raises EvalOverflowError instead of returning inf/nan."""
    _check_params(obj, params)
    _check_batch(obj, batch)
    counters.eval_loss += 1
    value = float(obj.value(params.values, batch))
    if not np.isfinite(value):
        raise EvalOverflowError(f"eval_loss({obj.name})", value)
    return value


def eval_grad(
    obj: Objective, params: ParamVector, batch: Optional[Batch]
) -> tuple[float, ParamVector]:
    """Loss and its gradient from one forward + one reverse sweep."""
    _check_params(obj, params)
    _check_batch(obj, batch)
    counters.eval_grad += 1
    tape = Tape()
    theta = tape.input(params.values)
    _, loss = obj.trace(tape, theta, batch)
    value = float(loss.val)
    if not np.isfinite(value):
        raise EvalOverflowError(f"eval_grad({obj.name})", value)
    (grad, _), = tape.backward(loss, (np.float64(1.0), None), [theta], use_tangents=False)
    return value, params.with_values(grad)


def _output_loss_hvp(
    kind: LossKind, outputs: np.ndarray, out_tan: np.ndarray, n: int
) -> np.ndarray:
    """Closed-form H_out @ (J v) for the mean-reduced loss kinds."""
    if kind is LossKind.MSE:
        return (2.0 / n) * out_tan
    probs = _softmax(outputs)
    pz = probs * out_tan
    return (pz - probs * pz.sum(axis=1, keepdims=True)) / n


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def curvature_vp(
    obj: Objective,
    params: ParamVector,
    batch: Optional[Batch],
    v: ParamVector,
    kind: CurvatureKind,
) -> ParamVector:
    """Product with the chosen curvature matrix.

    HESSIAN is the exact Hessian of the loss. GGN_FISHER is the
    Gauss-Newton sandwich J^T H_out J: for softmax cross-entropy this is
    the model Fisher matrix; for MSE it is the Gauss-Newton matrix
    (2/N * J^T J under this module's loss convention).
    """
    _check_params(obj, params)
    _check_batch(obj, batch)
    if len(v) != len(params):
        raise ValueError("direction length must match parameter length")
    counters.curvature_vp += 1
    if kind is not CurvatureKind.HESSIAN and obj.loss_kind is None:
        raise UnsupportedCurvatureError(
            f"objective {obj.name!r} has no model/loss split; use HESSIAN curvature"
        )
    tape = Tape()
    theta = tape.input(params.values, tangent=v.values)
    outputs, loss = obj.trace(tape, theta, batch)
    if not np.isfinite(float(loss.val)):
        raise EvalOverflowError(f"curvature_vp({obj.name})", float(loss.val))
    if kind is CurvatureKind.HESSIAN:
        # Exact Hessian-vector product via a tangent-carrying reverse sweep.
        (_, hv), = tape.backward(loss, (np.float64(1.0), None), [theta], use_tangents=True)
        return params.with_values(np.zeros_like(params.values) if hv is None else hv)
    out_tan = outputs.tan
    if out_tan is None:
        out_tan = np.zeros_like(outputs.val)
    u = _output_loss_hvp(obj.loss_kind, outputs.val, out_tan, outputs.val.shape[0])
    (jtu, _), = tape.backward(outputs, (u, None), [theta], use_tangents=False)
    return params.with_values(jtu)


def explicit_matrix(
    obj: Objective,
    params: ParamVector,
    batch: Optional[Batch],
    kind: CurvatureKind,
    cap: int = 200,
) -> np.ndarray:
    """Dense curvature matrix assembled column-by-column; test oracle only.

    Refuses to run past `cap` parameters so it cannot sneak into
    production paths. The result is symmetrized by averaging with its
    transpose.
    """
    _check_params(obj, params)
    n = len(params)
    if n > cap:
        raise MatrixCapExceededError(
            f"explicit matrix for {n} parameters exceeds cap {cap}"
        )
    cols = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols[:, i] = curvature_vp(obj, params, batch, params.with_values(e), kind).values
    return 0.5 * (cols + cols.T)


def fd_grad(
    obj: Objective, params: ParamVector, batch: Optional[Batch], h: float = 1e-5
) -> ParamVector:
    """Central-difference gradient oracle over the tape-free value path."""
    if h <= 0:
        raise ValueError("step size must be positive")
    _check_params(obj, params)
    _check_batch(obj, batch)
    base = params.values
    grad = np.empty_like(base)
    for i in range(base.size):
        step = np.zeros_like(base)
        step[i] = h
        up = eval_loss(obj, params.with_values(base + step), batch)
        down = eval_loss(obj, params.with_values(base - step), batch)
        grad[i] = (up - down) / (2.0 * h)
    return params.with_values(grad)
