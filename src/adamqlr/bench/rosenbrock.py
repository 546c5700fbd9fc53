"""Banana-valley benchmark runner with the published optimizer presets."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..autodiff import CurvatureKind
from ..models import RosenbrockSpec, rosenbrock_objective
from ..params import NonFiniteError, ParamVector
from .config import AdamOpt, OptimizerConfig, QlrOpt, SgdFullOpt, SgdMinimalOpt
from .training import RunStatus, make_stepper

PRESET_NAMES = ("gd", "gd-full", "adam", "adamqlr-tuned", "adamqlr-untuned")


def preset_optimizer(
    name: str,
    lr: Optional[float] = None,
    momentum: Optional[float] = None,
    weight_decay: Optional[float] = None,
) -> OptimizerConfig:
    """Optimizer block for one preset; lr/momentum flags override GD defaults.

    The quadratic-model variants use Hessian curvature here: with no
    probabilistic model there is no Fisher matrix on this objective.
    """
    if name == "gd":
        return SgdMinimalOpt(lr=1e-3 if lr is None else lr)
    if name == "gd-full":
        # default lr scaled down so the momentum-amplified step stays stable
        return SgdFullOpt(
            lr=1e-4 if lr is None else lr,
            momentum=0.9 if momentum is None else momentum,
            weight_decay=0.0 if weight_decay is None else weight_decay,
        )
    if name == "adam":
        return AdamOpt(lr=9.8848e-2 if lr is None else lr)
    if name == "adamqlr-tuned":
        return QlrOpt(
            curvature=CurvatureKind.HESSIAN,
            lambda0=3.0270e-6,
            omega_dec=0.9,
            omega_inc=2.1,
            alpha_max=6.098,
        )
    if name == "adamqlr-untuned":
        return QlrOpt(curvature=CurvatureKind.HESSIAN)
    raise ValueError(f"unknown optimizer preset {name!r}; choose from {PRESET_NAMES}")


@dataclass
class RosenbrockResult:
    """Visited points (step, x, y, f), including the starting point."""

    points: list[tuple[int, float, float, float]]
    status: RunStatus

    @property
    def final_f(self) -> float:
        return self.points[-1][3]


def run_rosenbrock(
    optimizer: OptimizerConfig,
    steps: int = 200,
    start: tuple[float, float] = (1.0, -1.0),
    spec: RosenbrockSpec = RosenbrockSpec(),
) -> RosenbrockResult:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    obj = rosenbrock_objective(spec)
    params = ParamVector(np.asarray(start, dtype=np.float64), obj.manifest)
    stepper = make_stepper(optimizer, 2)
    points = [(0, float(params.values[0]), float(params.values[1]), obj.value(params.values, None))]
    try:
        for i in range(1, steps + 1):
            params, _ = stepper.step(obj, params, None)
            f = obj.value(params.values, None)
            if not np.isfinite(f):
                raise NonFiniteError(f"f = {f} at step {i}")
            points.append((i, float(params.values[0]), float(params.values[1]), f))
    except ArithmeticError:
        return RosenbrockResult(points, RunStatus.DIVERGED)
    return RosenbrockResult(points, RunStatus.COMPLETED)


def write_trajectory(result: RosenbrockResult, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("step", "x", "y", "f"))
        for step, x, y, f in result.points:
            writer.writerow((step, repr(x), repr(y), repr(f)))
