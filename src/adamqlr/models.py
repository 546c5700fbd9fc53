"""Concrete objectives: MLPs, the two loss kinds, and benchmark functions.

Every model is expressed twice over the same parameter layout: a plain
numpy forward pass, `predict` (fast, used by loss evaluation and
finite-difference oracles), and a taped graph (used by every derivative
computation). Tests pin the two paths against each other.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import LossKind, Objective
from .data import Batch
from .params import ParamVector
from .tape import Node, Tape, data_matmul, matmul, rosenbrock_terms


class Activation(enum.Enum):
    RELU = "relu"
    TANH = "tanh"


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected net: input width, hidden widths, output width.

    The output layer is always linear; softmax lives inside the loss.
    When `activation` is None it defaults to tanh for regression (MSE)
    and relu for classification, either is configurable.
    """

    layer_widths: tuple[int, ...]
    loss: LossKind
    activation: Optional[Activation] = None

    def __post_init__(self):
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) < 2:
            raise ValueError("an MLP needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ValueError("all layer widths must be positive")

    @property
    def hidden_activation(self) -> Activation:
        if self.activation is not None:
            return self.activation
        return Activation.TANH if self.loss is LossKind.MSE else Activation.RELU


# Where every Rosenbrock run starts.
ROSENBROCK_START = (1.0, -1.0)


@dataclass(frozen=True)
class RosenbrockSpec:
    a: float = 1.0
    b: float = 100.0

    def __post_init__(self):
        # A finite a whose f overflows at the start is left to the run, which
        # reports it as a divergence.
        if not math.isfinite(self.a):
            raise ValueError(f"a must be finite, got {self.a!r}")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"b must be finite and positive, got {self.b!r}")


def _mlp_layers(spec: MlpSpec):
    """Yield (din, dout, weight offset, bias offset) for each layer in turn.

    This is the MLP's one statement of its parameter layout: each layer's
    (din, dout) weight matrix, row-major, then its dout biases, then the
    next layer.
    """
    offset = 0
    for din, dout in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        yield din, dout, offset, offset + din * dout
        offset += din * dout + dout


def _mlp_n_params(spec: MlpSpec) -> int:
    *_, (_, dout, _, b0) = _mlp_layers(spec)
    return b0 + dout


def mlp_init(spec: MlpSpec, seed: int) -> ParamVector:
    """Uniform fan-in/fan-out weights in [-s, s], s = sqrt(6/(fan_in+fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    values = np.zeros(_mlp_n_params(spec))
    for din, dout, w0, b0 in _mlp_layers(spec):
        s = np.sqrt(6.0 / (din + dout))
        values[w0:b0] = rng.uniform(-s, s, size=din * dout)
    return ParamVector(values)


def _mlp_forward_raw(
    spec: MlpSpec, values: np.ndarray, inputs: np.ndarray, pre: Optional[np.ndarray] = None
) -> np.ndarray:
    """Model outputs; a given input-layer pre-activation `pre` replaces that layer's product.

    Writes only into the arrays it makes: `inputs` and `pre` stay as they are.
    """
    act = spec.hidden_activation
    h = inputs
    n_layers = len(spec.layer_widths) - 1
    for i, (din, dout, w0, b0) in enumerate(_mlp_layers(spec)):
        if i == 0 and pre is not None:
            h, out = pre, None  # the caller's array: activate into a new one
        else:
            w = values[w0:b0].reshape(din, dout)
            h = out = data_matmul(h, w) if i == 0 else matmul(h, w)
            h += values[b0 : b0 + dout]
        if i < n_layers - 1:
            h = np.maximum(h, 0.0, out=out) if act is Activation.RELU else np.tanh(h, out=out)
    return h


def _mlp_trace(spec: MlpSpec, tape: Tape, theta: Node, inputs: np.ndarray) -> tuple[Node, Node]:
    """The output node and the input layer's pre-activation node."""
    act = spec.hidden_activation
    h = tape.const(inputs)
    n_layers = len(spec.layer_widths) - 1
    for i, (din, dout, w0, b0) in enumerate(_mlp_layers(spec)):
        h = tape.affine(h, theta, w0, b0, din, dout)
        if i == 0:
            pre = h
        if i < n_layers - 1:
            h = tape.relu(h) if act is Activation.RELU else tape.tanh(h)
    return h, pre


def _loss_node(tape: Tape, kind: LossKind, outputs: Node, targets: np.ndarray) -> Node:
    if kind is LossKind.SOFTMAX_CROSS_ENTROPY:
        return tape.softmax_xent(outputs, targets)
    return tape.mse(outputs, targets)


def mlp_objective(spec: MlpSpec) -> Objective:
    def trace(tape: Tape, theta: Node, batch: Batch):
        outputs, pre = _mlp_trace(spec, tape, theta, batch.inputs)
        return outputs, _loss_node(tape, spec.loss, outputs, batch.targets), pre

    widths = "x".join(str(w) for w in spec.layer_widths)
    return Objective(
        name=f"mlp[{widths}]",
        n_params=_mlp_n_params(spec),
        trace=trace,
        predict=functools.partial(_mlp_forward_raw, spec),
        loss_kind=spec.loss,
    )


def rosenbrock_objective(spec: RosenbrockSpec = RosenbrockSpec()) -> Objective:
    """f(x, y) = (a - x)^2 + b (y - x^2)^2 on a 2-parameter vector.

    Batch-independent; curvature products use the exact Hessian (there is
    no model/loss split, so Gauss-Newton/Fisher curvature is undefined).
    The trace is one fused node, :meth:`Tape.rosenbrock`, with the bits of
    the same function traced through the oracle ops of ``tests/oracle_ops.py``;
    the tape-free value is the node's, `rosenbrock_terms`.
    """
    a, b = float(spec.a), float(spec.b)

    def trace(tape: Tape, theta: Node, batch):
        return None, tape.rosenbrock(theta, a, b), None

    def value(values: np.ndarray, batch) -> float:
        return rosenbrock_terms(*values.tolist(), a, b)[2]

    return Objective(name="rosenbrock", n_params=2, trace=trace, value=value)


def accuracy(outputs: np.ndarray, labels: np.ndarray) -> float:
    return float((outputs.argmax(axis=1) == labels).mean())
