"""Optimizer state machines: Adam, SGD, and the damped quadratic-model
learning-rate wrapper.

The wrapper keeps whatever update direction its inner rule proposes
(Adam's bias-corrected moment ratio, or the raw gradient) and picks the
step size by minimizing a damped second-order model along that direction:

    alpha = (g . d) / (d^T (C + lambda I) d)

where C is Hessian or Gauss-Newton/Fisher curvature. The damping lambda
adapts Levenberg-Marquardt style from the reduction ratio rho = actual
loss change / model-predicted change: above 3/4 the model is trusted and
lambda shrinks, below 1/4 it grows. Each guard is a GuardEvent on the
step: no step when g . d <= 0; the clipped, rescaled largest step when
d^T (C + lambda I) d <= 0; lambda left alone when the predicted change is
at most 1e-12 * max(1, |f|); and a non-finite post-step loss rejects the
step and multiplies lambda by omega_inc. One forward pass is shared by the
gradient, one curvature-vector product and the post-step loss: an MLP's
input-layer product at the new point is read off that pass and its
tangent, so only the layers above it run again. Everything else is vector
arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff
from .autodiff import CurvatureKind, EvalOverflowError, Objective
from .data import Batch, check_bounds
from .params import NonFiniteError, ParamVector

LAMBDA_MIN = 1e-8
LAMBDA_MAX = 1e10
RHO_GUARD_SCALE = 1e-12


class GuardEvent(enum.Enum):
    NON_DESCENT = "non_descent"
    NON_CONVEX = "non_convex"
    DEGENERATE_MODEL = "degenerate_model"
    STEP_REJECTED = "step_rejected"
    LAMBDA_CEILING = "lambda_ceiling"


class Direction(enum.Enum):
    ADAM = "adam"
    SGD = "sgd"


@dataclass(frozen=True)
class AdamHyper:
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        check_bounds(self, "in [0, 1)", "beta1", "beta2")
        check_bounds(self, "finite and non-negative", "epsilon")


@dataclass(frozen=True)
class AdamState:
    """First/second moment buffers and the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


def adam_direction(
    state: AdamState, g: ParamVector, h: AdamHyper = AdamHyper()
) -> tuple[AdamState, ParamVector]:
    """Advance the moment buffers and return the bias-corrected direction."""
    gv = g.values
    if not np.isfinite(gv).all():
        raise NonFiniteError("non-finite gradient passed to adam_direction")
    if state.m.shape != gv.shape:
        raise ValueError("Adam state length does not match gradient length")
    t = state.t + 1
    m = h.beta1 * state.m + (1.0 - h.beta1) * gv
    v = h.beta2 * state.v + (1.0 - h.beta2) * gv * gv
    m_hat = m / (1.0 - h.beta1**t)
    v_hat = v / (1.0 - h.beta2**t)
    d = m_hat / (np.sqrt(v_hat) + h.epsilon)
    return AdamState(m, v, t), ParamVector(d)


def bias_corrected_v(state: AdamState, h: AdamHyper = AdamHyper()) -> np.ndarray:
    if state.t == 0:
        raise ValueError("no steps taken yet")
    return state.v / (1.0 - h.beta2**state.t)


def sgd_step(
    params: ParamVector,
    g: ParamVector,
    lr: float,
    momentum_buf: Optional[np.ndarray] = None,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
) -> tuple[ParamVector, np.ndarray]:
    """One (possibly momentum/weight-decayed) SGD update.

    buf' = momentum * buf + g + weight_decay * theta;  theta' = theta - lr * buf'.
    """
    if not np.isfinite(g.values).all():
        raise NonFiniteError("non-finite gradient passed to sgd_step")
    if momentum_buf is None:
        momentum_buf = np.zeros_like(params.values)
    buf = momentum * momentum_buf + g.values + weight_decay * params.values
    return ParamVector(params.values - lr * buf), buf


@dataclass(frozen=True)
class QLRConfig:
    """Knobs of the quadratic-model learning-rate wrapper.

    The untuned defaults (initial damping 1e-3, halving/doubling damping
    factors, learning-rate cap 0.1) are the recommended run-anywhere
    setting. `hyper` holds the moment constants of the Adam direction.
    """

    curvature: CurvatureKind = CurvatureKind.GGN_FISHER
    lambda0: float = 1e-3
    omega_dec: float = 0.5
    omega_inc: float = 2.0
    alpha_max: float = 0.1
    rescale_k: float = 1.0
    damped: bool = True
    direction: Direction = Direction.ADAM
    hyper: AdamHyper = AdamHyper()

    def __post_init__(self):
        check_bounds(self, "in (0, 1]", "omega_dec")
        check_bounds(self, "finite and at least 1", "omega_inc")
        # An infinite lambda0 would be clamped silently, and the non-convex
        # fallback steps rescale_k * alpha_max.
        check_bounds(self, "finite and positive", "lambda0", "alpha_max", "rescale_k")


def _clamp_lambda(lam: float) -> float:
    return min(max(lam, LAMBDA_MIN), LAMBDA_MAX)


@dataclass(frozen=True)
class QLRState:
    """Damping plus the wrapped direction state and guard-event counts."""

    lam: float
    adam: Optional[AdamState]
    events: dict[GuardEvent, int] = field(default_factory=dict)

    def __post_init__(self):
        if not LAMBDA_MIN <= self.lam <= LAMBDA_MAX:
            raise ValueError(f"lambda {self.lam} outside [{LAMBDA_MIN}, {LAMBDA_MAX}]")

    @classmethod
    def init(cls, cfg: QLRConfig, n_params: int) -> "QLRState":
        adam = AdamState.init(n_params) if cfg.direction is Direction.ADAM else None
        return cls(lam=_clamp_lambda(cfg.lambda0), adam=adam)


@dataclass(frozen=True)
class StepDiagnostics:
    alpha: float
    lam: float
    rho: float
    g_dot_d: float
    f_before: float
    f_after: float
    guard: Optional[GuardEvent] = None


def select_learning_rate(
    g_dot_d: float, d_cd: float, d_dot_d: float, lam: float
) -> tuple[float, Optional[GuardEvent]]:
    """Minimizer of the damped quadratic model along the direction, and its guard.

    When g . d <= 0 the step is 0.0 (NON_DESCENT): no step. When the damped
    curvature term is not positive the model is unbounded below and the
    step is inf (NON_CONVEX), which `apply_lr_policy` clips to alpha_max
    and rescales.
    """
    if g_dot_d <= 0.0:
        return 0.0, GuardEvent.NON_DESCENT
    denom = d_cd + lam * d_dot_d
    if denom <= 0.0:
        return math.inf, GuardEvent.NON_CONVEX
    return g_dot_d / denom, None


def apply_lr_policy(alpha_raw: float, cfg: QLRConfig) -> float:
    """Clip to alpha_max, then rescale by k (strictly in that order)."""
    return cfg.rescale_k * min(alpha_raw, cfg.alpha_max)


def quadratic_model_change(alpha: float, g_dot_d: float, d_cld: float) -> float:
    """M(theta - alpha d) - M(theta) for the damped quadratic model."""
    return -alpha * g_dot_d + 0.5 * alpha * alpha * d_cld


def compute_rho(
    f_change: float, m_change: float, f_before: float = 0.0
) -> tuple[float, Optional[GuardEvent]]:
    """Reduction ratio: actual loss change over model-predicted change, or
    NaN (DEGENERATE_MODEL) when the latter is at most 1e-12 * max(1, |f_before|).
    """
    if abs(m_change) <= RHO_GUARD_SCALE * max(1.0, abs(f_before)):
        return math.nan, GuardEvent.DEGENERATE_MODEL
    return f_change / m_change, None


def update_damping(rho: float, lam: float, cfg: QLRConfig) -> float:
    """Levenberg-Marquardt stepping, clamped to [1e-8, 1e10]."""
    if rho > 0.75:
        lam = cfg.omega_dec * lam
    elif rho < 0.25:
        lam = cfg.omega_inc * lam
    return _clamp_lambda(lam)


def qlr_step(
    obj: Objective,
    params: ParamVector,
    batch: Optional[Batch],
    state: QLRState,
    cfg: QLRConfig,
) -> tuple[ParamVector, QLRState, StepDiagnostics]:
    """One wrapped optimizer step.

    Order of operations: one recorded forward pass, the gradient from it,
    direction, one curvature-vector product on the same recorded pass,
    learning-rate selection with guards, the parameter update and the loss
    at the new point (`Linearization.trial`, which reuses the recorded
    input-layer product where the objective has one), and finally the
    damping update from the reduction ratio (taking effect next step). A
    non-finite post-step loss rejects the update and grows the damping
    instead.
    """
    lin = autodiff.linearize(obj, params, batch)
    f_before, g = lin.value, lin.grad()

    if cfg.direction is Direction.ADAM:
        if state.adam is None:
            raise ValueError("QLRState has no Adam buffers but direction is ADAM")
        adam_state, d = adam_direction(state.adam, g, cfg.hyper)
    else:
        adam_state, d = state.adam, g

    cd = lin.curvature_vp(d, cfg.curvature)
    g_dot_d = float(g.values @ d.values)
    d_cd = float(d.values @ cd.values)
    d_dot_d = float(d.values @ d.values)

    alpha_raw, guard = select_learning_rate(g_dot_d, d_cd, d_dot_d, state.lam)
    alpha = apply_lr_policy(alpha_raw, cfg)
    fired = [] if guard is None else [guard]
    rho, lam = math.nan, state.lam
    try:
        new_params, f_after = lin.trial(alpha)
    except EvalOverflowError:
        guard, f_after, new_params = GuardEvent.STEP_REJECTED, math.inf, params
        fired.append(guard)
        lam = _clamp_lambda(cfg.omega_inc * state.lam)
    if guard is None:
        m_change = quadratic_model_change(alpha, g_dot_d, d_cd + state.lam * d_dot_d)
        rho, guard = compute_rho(f_after - f_before, m_change, f_before)
        if guard is not None:
            fired.append(guard)
        elif cfg.damped:
            lam = update_damping(rho, state.lam, cfg)

    # Only a rejection or a damped update sets lambda; either may leave it at the ceiling.
    lam_updated = guard is GuardEvent.STEP_REJECTED or (guard is None and cfg.damped)
    if lam_updated and lam >= LAMBDA_MAX:
        fired.append(GuardEvent.LAMBDA_CEILING)
    events = dict(state.events)
    for event in fired:
        events[event] = events.get(event, 0) + 1

    diag = StepDiagnostics(alpha, lam, rho, g_dot_d, f_before, f_after, guard)
    return new_params, QLRState(lam, adam_state, events), diag


def empirical_fisher_diag(
    obj: Objective, params: ParamVector, batch: Batch
) -> ParamVector:
    """Mean elementwise square of per-example gradients (data labels)."""
    n = len(batch)
    if n == 0:
        raise ValueError("empirical Fisher diagonal of an empty batch")
    acc = np.zeros_like(params.values)
    for i in range(n):
        _, g = autodiff.eval_grad(obj, params, batch.take([i]))
        acc += g.values * g.values
    return ParamVector(acc / n)


def fisher_adam_alignment(fisher_diag: ParamVector, v_hat: np.ndarray) -> tuple[float, float]:
    """Cosine similarity and log-ratio spread between the empirical Fisher
    diagonal and Adam's bias-corrected second-moment buffer.

    The spread is the standard deviation of elementwise log ratios over
    components where both vectors exceed 1e-30.
    """
    f = fisher_diag.values
    v = np.asarray(v_hat)
    cos = float(f @ v / max(np.linalg.norm(f) * np.linalg.norm(v), 1e-30))
    mask = (f > 1e-30) & (v > 1e-30)
    if not mask.any():
        return cos, math.nan
    ratios = np.log(v[mask]) - np.log(f[mask])
    return cos, float(ratios.std())
