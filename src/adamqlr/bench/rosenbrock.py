"""Banana-valley benchmark runner with the published optimizer presets."""

from __future__ import annotations

import contextlib
import csv
import inspect
from dataclasses import dataclass
from typing import Callable, Optional

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
    """Visited points (step, x, y, f), including the starting point; a run
    that keeps only its latest point holds that one here."""

    points: list[tuple[int, float, float, float]]
    status: RunStatus

    @property
    def final_f(self) -> float:
        return self.points[-1][3]


def run_rosenbrock(
    optimizer: OptimizerConfig,
    steps: int = 200,
    start: tuple[float, float] = ROSENBROCK_START,
    spec: RosenbrockSpec = RosenbrockSpec(),
    out=None,
    latest_only: bool = False,
) -> RosenbrockResult:
    """Take ``steps`` steps of ``optimizer`` from ``start``.

    The result holds every point, or with ``latest_only`` only the latest.
    With ``out``, a path, the trajectory is written there as CSV point by
    point: the header and the start before the first step, then each step
    as it is taken, and only the latest point is held in memory. A path
    that cannot be opened fails before any step, and a run stopped by a
    divergence or an interrupt leaves every point it took.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    obj = rosenbrock_objective(spec)
    params = ParamVector(start)
    stepper = make_stepper(optimizer, 2)
    points: list[tuple[int, float, float, float]] = []

    def keep_latest(point: tuple[int, float, float, float]) -> None:
        points[:] = (point,)

    record = keep_latest if latest_only or out is not None else points.append
    with contextlib.ExitStack() as stack:
        if out is not None:
            fh = stack.enter_context(open(out, "w", newline="", buffering=1))
            record = _csv_recorder(fh, record)
        # The start's f is recorded even when it is not finite, so a run that
        # diverges from there still leaves its one point.
        record((0, *params.values.tolist(), obj.value(params.values, None)))
        try:
            for i in range(1, steps + 1):
                params, _ = stepper.step(obj, params, None)
                record((i, *params.values.tolist(), autodiff.eval_loss(obj, params, None)))
        except ArithmeticError:
            return RosenbrockResult(points, RunStatus.DIVERGED)
    return RosenbrockResult(points, RunStatus.COMPLETED)


def _csv_recorder(fh, keep: Callable[[tuple], None]) -> Callable[[tuple], None]:
    """Writes the CSV header to ``fh`` and returns a recorder that passes
    each point to ``keep`` and writes it as one line."""
    writer = csv.writer(fh)
    writer.writerow(("step", "x", "y", "f"))

    def record(point: tuple[int, float, float, float]) -> None:
        keep(point)
        step, x, y, f = point
        writer.writerow((step, repr(x), repr(y), repr(f)))

    return record
