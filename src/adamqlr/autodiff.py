"""Loss, gradient and curvature-vector evaluations for scalar objectives.

An :class:`Objective` bundles a traced computation graph with a fast
tape-free loss. :func:`linearize` records the graph once at a
point, and every derivative there reuses that one forward pass. Gradients
come from one reverse sweep. Curvature products first replay the
direction's tangent through the recorded tape. Exact Hessian-vector
products then take a reverse sweep that carries tangents along (no
materialized matrix); Gauss-Newton/Fisher products multiply the
model-output tangent by the loss node's output-space Hessian (`Node.ggn`)
and take a plain reverse sweep. Each loss is stated once, by its fused
node in `tape`. `eval_grad` and `curvature_vp` are the same
calls on a fresh linearization. Each linearization owns its tape, so
separate linearizations are safe to evaluate concurrently.

`eval_loss`, `eval_outputs` and `Linearization.trial` share one tape-free
evaluation, which counts once in `counters.eval_loss` and raises
`EvalOverflowError` naming its caller. `eval_outputs` also returns the
model outputs the loss came from.

`fd_grad` deliberately runs through the tape-free loss path so the
finite-difference oracle shares no derivative code with what it checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import Batch
from .params import ParamVector
from .tape import Node, Tape, mean_xent, mse_targets


class EvalOverflowError(ArithmeticError):
    """An evaluation produced a non-finite result; context says where."""

    def __init__(self, context: str, value: float):
        super().__init__(f"non-finite result ({value!r}) in {context}")
        self.context = context
        self.value = value


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
    """A scalar training objective, mean-reduced over a batch.

    `n_params` is the length of the flat parameter vector it reads.
    `trace` builds the computation graph on a tape and returns the model
    output node (None for objectives that are directly a scalar, like the
    banana-valley benchmark), the scalar loss node, and the input layer's
    pre-activation node when that layer is affine in the parameters with
    the batch inputs as its constant factor (None otherwise).

    A model over data sets `loss_kind` and `predict(values, inputs, pre)`,
    its raw outputs (given that layer's pre-activation as `pre`, only the
    layers above it run); its tape-free loss is `loss_eval` of them. A
    plain function of the parameters sets `value(values, batch)` instead.
    """

    name: str
    n_params: int
    trace: Callable[[Tape, Node, Optional[Batch]], tuple[Optional[Node], Node, Optional[Node]]]
    value: Optional[Callable[[np.ndarray, Optional[Batch]], float]] = None
    predict: Optional[Callable[..., np.ndarray]] = None
    loss_kind: Optional[LossKind] = None


def _check(obj: Objective, params: ParamVector, batch: Optional[Batch]) -> None:
    if len(params) != obj.n_params:
        raise ValueError(
            f"objective {obj.name!r} expects {obj.n_params} parameters, got {len(params)}"
        )
    if batch is None and obj.loss_kind is not None:
        raise ValueError(f"objective {obj.name!r} requires a batch")
    if batch is not None and len(batch) == 0:
        raise ValueError(f"objective {obj.name!r} cannot be evaluated on an empty batch")


def _evaluate(
    obj: Objective, values: np.ndarray, batch: Optional[Batch], context: str, pre=None
) -> tuple[float, Optional[np.ndarray]]:
    """The loss at `values` without a tape, and the model outputs it came
    from (None for a plain function). Counts once in `counters.eval_loss`;
    a non-finite loss raises EvalOverflowError naming `context`."""
    counters.eval_loss += 1
    if obj.loss_kind is None:
        outputs, value = None, float(obj.value(values, batch))
    else:
        outputs = obj.predict(values, batch.inputs, pre)
        value = loss_eval(obj.loss_kind, outputs, batch.targets)
    if not math.isfinite(value):
        raise EvalOverflowError(f"{context}({obj.name})", value)
    return value, outputs


def eval_loss(obj: Objective, params: ParamVector, batch: Optional[Batch]) -> float:
    """Mean-reduced loss; raises EvalOverflowError instead of returning inf/nan."""
    _check(obj, params, batch)
    return _evaluate(obj, params.values, batch, "eval_loss")[0]


def eval_outputs(obj: Objective, params: ParamVector, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean-reduced loss and the model outputs it came from, from one forward pass.

    The same evaluation as `eval_loss`, so its loss equals `eval_loss`'s
    bit for bit, and it checks, counts and raises the same way.
    """
    if obj.loss_kind is None:
        raise ValueError(f"objective {obj.name!r} has no model outputs")
    _check(obj, params, batch)
    return _evaluate(obj, params.values, batch, "eval_outputs")


@dataclass(frozen=True, eq=False)
class Linearization:
    """One recorded forward pass of an objective at a point.

    Made by :func:`linearize`. ``value`` is the loss at the point. Each
    derivative reuses the recorded tape: ``grad()`` is one reverse sweep,
    ``curvature_vp()`` one tangent replay and one reverse sweep, and
    neither runs another forward pass. ``trial()`` is the loss a step
    along the latest product's direction, read partly off its tangents.
    Each call counts once in ``counters``. A product leaves its tangents
    on the tape, so use one linearization from one thread at a time.
    """

    obj: Objective
    params: ParamVector
    batch: Optional[Batch]
    tape: Tape
    theta: Node
    outputs: Optional[Node]
    loss: Node
    pre: Optional[Node]

    @property
    def value(self) -> float:
        return float(self.loss.val)

    def _check_finite(self, context: str) -> None:
        if not math.isfinite(self.value):
            raise EvalOverflowError(f"{context}({self.obj.name})", self.value)

    def grad(self) -> ParamVector:
        """Gradient of the loss from one reverse sweep."""
        counters.eval_grad += 1
        self._check_finite("eval_grad")
        grad, _ = self.tape.backward(
            self.loss, (np.float64(1.0), None), self.theta, use_tangents=False
        )
        return ParamVector(grad)

    def curvature_vp(self, v: ParamVector, kind: CurvatureKind) -> ParamVector:
        """Product with the chosen curvature matrix.

        HESSIAN is the exact Hessian of the loss. GGN_FISHER is the
        Gauss-Newton sandwich J^T H_out J, H_out from the loss node's `ggn`
        (a fused loss node has one): for softmax cross-entropy this is the
        model Fisher matrix; for MSE it is the Gauss-Newton matrix (2/N *
        J^T J under this module's loss convention).
        """
        if len(v) != len(self.params):
            raise ValueError("direction length must match parameter length")
        counters.curvature_vp += 1
        tape, theta, loss = self.tape, self.theta, self.loss
        if kind is not CurvatureKind.HESSIAN and loss.ggn is None:
            raise UnsupportedCurvatureError(
                f"objective {self.obj.name!r} has no model/loss split; use HESSIAN curvature"
            )
        self._check_finite("curvature_vp")
        tape.replay_tangent(theta, v.values)
        if kind is CurvatureKind.HESSIAN:
            # Exact Hessian-vector product via a tangent-carrying reverse sweep.
            _, hv = tape.backward(loss, (np.float64(1.0), None), theta, use_tangents=True)
            return ParamVector(np.zeros_like(self.params.values) if hv is None else hv)
        outputs = self.outputs
        out_tan = np.zeros_like(outputs.val) if outputs.tan is None else outputs.tan
        jtu, _ = tape.backward(outputs, (loss.ggn(out_tan), None), theta, use_tangents=False)
        return ParamVector(jtu)

    def trial(self, alpha: float) -> tuple[ParamVector, float]:
        """The point ``params - alpha * v`` and the loss there, for ``v`` the
        direction of the latest curvature product.

        An affine input layer's pre-activation there is ``pre.val - alpha *
        pre.tan``, so only the layers above it run. Counts and raises like
        `eval_loss`.
        """
        v, params = self.theta.tan, self.params
        if v is None:
            raise ValueError("trial needs a curvature product to give its direction")
        point = params if alpha == 0.0 else ParamVector(params.values - alpha * v)
        pre = None
        if self.pre is not None:
            pre = alpha * self.pre.tan
            np.subtract(self.pre.val, pre, out=pre)
        return point, _evaluate(self.obj, point.values, self.batch, "trial", pre)[0]


def linearize(obj: Objective, params: ParamVector, batch: Optional[Batch]) -> Linearization:
    """Record one forward pass of ``obj`` at ``params`` for its derivatives."""
    _check(obj, params, batch)
    tape = Tape()
    theta = tape.input(params.values)
    outputs, loss, pre = obj.trace(tape, theta, batch)
    return Linearization(obj, params, batch, tape, theta, outputs, loss, pre)


def eval_grad(
    obj: Objective, params: ParamVector, batch: Optional[Batch]
) -> tuple[float, ParamVector]:
    """Loss and its gradient from one forward + one reverse sweep."""
    lin = linearize(obj, params, batch)
    return lin.value, lin.grad()


def loss_eval(kind: LossKind, outputs: np.ndarray, targets) -> float:
    """Mean-reduced loss over the batch, checked as the tape's loss node checks it."""
    outputs = np.asarray(outputs, dtype=np.float64)
    if kind is LossKind.SOFTMAX_CROSS_ENTROPY:
        return float(mean_xent(outputs, targets)[0])
    diff = outputs - mse_targets(outputs, targets)
    diff *= diff
    # sum / N, where the mse node takes (1/N)·sum: the two round differently,
    # and records hold both.
    return float(diff.sum() / outputs.shape[0])


def curvature_vp(
    obj: Objective,
    params: ParamVector,
    batch: Optional[Batch],
    v: ParamVector,
    kind: CurvatureKind,
) -> ParamVector:
    """Curvature-vector product on a fresh linearization; see
    :meth:`Linearization.curvature_vp`."""
    return linearize(obj, params, batch).curvature_vp(v, kind)


def fd_grad(
    obj: Objective, params: ParamVector, batch: Optional[Batch], h: float = 1e-5
) -> ParamVector:
    """Central-difference gradient oracle over the tape-free loss path."""
    if h <= 0:
        raise ValueError("step size must be positive")
    _check(obj, params, batch)
    base = params.values
    grad = np.empty_like(base)
    for i in range(base.size):
        step = np.zeros_like(base)
        step[i] = h
        up = eval_loss(obj, ParamVector(base + step), batch)
        down = eval_loss(obj, ParamVector(base - step), batch)
        grad[i] = (up - down) / (2.0 * h)
    return ParamVector(grad)
