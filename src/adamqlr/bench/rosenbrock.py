"""Banana-valley benchmark runner with the published optimizer presets."""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Iterator, Optional

from .. import autodiff
from ..autodiff import CurvatureKind
from ..models import ROSENBROCK_START, RosenbrockSpec, rosenbrock_objective
from ..params import ParamVector
from .config import AdamOpt, ConfigError, OptimizerConfig, QlrOpt, SgdFullOpt, SgdMinimalOpt
from .training import RunStatus, make_stepper

# Each preset's optimizer block; its keyword arguments are the overrides it takes.
_PRESETS = {
    "gd": lambda lr=1e-3: SgdMinimalOpt(lr=lr),
    # default lr scaled down so the momentum-amplified step stays stable
    "gd-full": lambda lr=1e-4, momentum=0.9, weight_decay=0.0: SgdFullOpt(
        lr=lr, momentum=momentum, weight_decay=weight_decay
    ),
    "adam": lambda lr=9.8848e-2: AdamOpt(lr=lr),
    "adamqlr-tuned": lambda: QlrOpt(
        curvature=CurvatureKind.HESSIAN,
        lambda0=3.0270e-6,
        omega_dec=0.9,
        omega_inc=2.1,
        alpha_max=6.098,
    ),
    "adamqlr-untuned": lambda: QlrOpt(curvature=CurvatureKind.HESSIAN),
}
PRESET_NAMES = tuple(_PRESETS)


def preset_optimizer(
    name: str,
    lr: Optional[float] = None,
    momentum: Optional[float] = None,
    weight_decay: Optional[float] = None,
) -> OptimizerConfig:
    """Optimizer block for one preset, with the given overrides applied.

    `gd` and `adam` take `lr`, `gd-full` takes all three overrides and the
    quadratic-model presets take none; an override the preset would
    ignore is a ConfigError. The quadratic-model variants use Hessian
    curvature here: with no probabilistic model there is no Fisher matrix
    on this objective.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown optimizer preset {name!r}; choose from {PRESET_NAMES}")
    make = _PRESETS[name]
    takes = inspect.signature(make).parameters
    given = {"lr": lr, "momentum": momentum, "weight_decay": weight_decay}
    overrides = {key: value for key, value in given.items() if value is not None}
    ignored = ["--" + key.replace("_", "-") for key in overrides if key not in takes]
    if ignored:
        raise ConfigError(f"optimizer preset {name!r} does not take {', '.join(ignored)}")
    return make(**overrides)


@dataclass
class RosenbrockResult:
    """Visited points (step, x, y, f), including the starting point."""

    points: list[tuple[int, float, float, float]]
    status: RunStatus

    @property
    def final_f(self) -> float:
        return self.points[-1][3]


def trajectory(
    optimizer: OptimizerConfig,
    steps: int = 200,
    start: tuple[float, float] = ROSENBROCK_START,
    spec: RosenbrockSpec = RosenbrockSpec(),
) -> Iterator[tuple[int, float, float, float]]:
    """The points (step, x, y, f) of ``steps`` steps of ``optimizer`` from ``start``.

    The start comes first, even when its f is not finite. Point k's f is
    the ``train_loss`` of step k + 1, run as point k is drawn; the last
    point and one whose next step raises (a Ctrl-C re-raised after it)
    evaluate f alone. A divergence ends the trajectory at its last finite
    point, so it falls short of ``steps + 1`` points only by diverging.
    Bad arguments raise here, before any point is drawn.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    obj = rosenbrock_objective(spec)
    stepper = make_stepper(optimizer, 2)

    def checked(i: int, params: ParamVector) -> Iterator[tuple[int, float, float, float]]:
        try:
            f = autodiff.eval_loss(obj, params, None)
        except ArithmeticError:
            return
        yield (i, *params.values.tolist(), f)

    def points(params: ParamVector) -> Iterator[tuple[int, float, float, float]]:
        yield (0, *params.values.tolist(), obj.value(params.values, None))
        try:
            params, _ = stepper.step(obj, params, None)
        except ArithmeticError:
            return
        i = 1
        while i < steps:
            try:
                after, fields = stepper.step(obj, params, None)
            except ArithmeticError:
                break
            except KeyboardInterrupt:
                yield from checked(i, params)
                raise
            yield (i, *params.values.tolist(), fields["train_loss"])
            i, params = i + 1, after
        yield from checked(i, params)

    return points(ParamVector(start))


def run_rosenbrock(
    optimizer: OptimizerConfig,
    steps: int = 200,
    start: tuple[float, float] = ROSENBROCK_START,
    spec: RosenbrockSpec = RosenbrockSpec(),
) -> RosenbrockResult:
    """Every point of the `trajectory`; a run ends early only by diverging."""
    points = list(trajectory(optimizer, steps, start, spec))
    status = RunStatus.COMPLETED if len(points) == steps + 1 else RunStatus.DIVERGED
    return RosenbrockResult(points, status)
