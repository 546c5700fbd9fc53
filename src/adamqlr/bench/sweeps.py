"""Sensitivity sweeps as pure config grids over one base run config.

Each sweep varies exactly one knob of the quadratic-model optimizer; the
symmetric damping-factor sweep sets the increase factor and its
reciprocal decrease factor together. Each grid value becomes a search
sample, so a sweep's configs are built as the tuner's are and reuse the
training loop unchanged.
"""

from __future__ import annotations

import numpy as np

from ..optim import QLRConfig
from .config import ConfigError, RunConfig
from .search import BATCH_SIZE_CHOICES, apply_sample

# Grid values of each sweep, in the order its runs take them.
SWEEP_GRIDS = {
    "rescale_k": tuple(2.0 ** np.arange(-1.0, 1.01, 0.2)),
    "alpha_max": tuple(10.0 ** np.arange(-4.0, 0.01, 0.5)),
    "lambda0": tuple(10.0 ** np.arange(-8.0, 0.01, 0.5)),
    "batch_size": BATCH_SIZE_CHOICES,
    "omega_sym": tuple(2.0 ** np.arange(0.0, 2.01, 0.2)),
}


def sweep_configs(base_cfg: RunConfig, name: str) -> list[RunConfig]:
    """The base config with sweep `name`'s knob set to each of its grid values.

    Every sweep but `batch_size` varies a qlr optimizer knob; `omega_sym`
    sets `omega_inc` to the value and `omega_dec` to its reciprocal.
    """
    values = SWEEP_GRIDS[name]
    if name != "batch_size" and not isinstance(base_cfg.optimizer, QLRConfig):
        raise ConfigError(f"sweep field {name!r} requires the qlr optimizer")
    if name == "omega_sym":
        samples = [{"omega_inc": float(v), "omega_dec": 1.0 / float(v)} for v in values]
    else:  # apply_sample takes batch sizes as ints
        samples = [{name: v if name == "batch_size" else float(v)} for v in values]
    return [apply_sample(base_cfg, sample) for sample in samples]
