"""Sensitivity sweeps as pure config grids over one base run config.

Each sweep varies exactly one knob of the quadratic-model optimizer; the
symmetric damping-factor sweep sets the increase factor and its
reciprocal decrease factor together. Enumerated configs reuse the
training loop unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, QlrOpt, RunConfig
from .search import BATCH_SIZE_CHOICES, apply_sample


@dataclass(frozen=True)
class SweepSpec:
    field: str  # rescale_k | alpha_max | lambda0 | batch_size | omega_sym
    values: tuple


def standard_sweeps() -> dict[str, SweepSpec]:
    return {
        "rescale_k": SweepSpec("rescale_k", tuple(2.0 ** np.arange(-1.0, 1.01, 0.2))),
        "alpha_max": SweepSpec("alpha_max", tuple(10.0 ** np.arange(-4.0, 0.01, 0.5))),
        "lambda0": SweepSpec("lambda0", tuple(10.0 ** np.arange(-8.0, 0.01, 0.5))),
        "batch_size": SweepSpec("batch_size", BATCH_SIZE_CHOICES),
        "omega_sym": SweepSpec("omega_sym", tuple(2.0 ** np.arange(0.0, 2.01, 0.2))),
    }


def apply_sweep_value(base_cfg: RunConfig, field: str, value) -> RunConfig:
    if field == "batch_size":
        return apply_sample(base_cfg, {"batch_size": value})
    if not isinstance(base_cfg.optimizer, QlrOpt):
        raise ConfigError(f"sweep field {field!r} requires the qlr optimizer")
    if field == "omega_sym":
        return apply_sample(base_cfg, {"omega_inc": float(value), "omega_dec": 1.0 / float(value)})
    if field not in ("rescale_k", "alpha_max", "lambda0"):
        raise ConfigError(f"unknown sweep field {field!r}")
    return apply_sample(base_cfg, {field: float(value)})


def enumerate_sweep(base_cfg: RunConfig, sweep: SweepSpec) -> list[RunConfig]:
    return [apply_sweep_value(base_cfg, sweep.field, v) for v in sweep.values]
