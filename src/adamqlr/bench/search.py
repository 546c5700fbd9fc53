"""Seeded random-search hyperparameter tuning with optional successive halving.

Each trial samples from per-hyperparameter distributions (log-uniform
ranges, a discrete batch-size set, and 1 - log-uniform for momentum) using
a stream derived from (seed, trial index), so the trial sequence is
deterministic and independent of execution order. Successive halving runs
everything at a quarter of the epoch budget, promotes the top third, then
repeats at half and full budget; rungs whose budgets coincide run once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from ..data import keyed_rng
from ..optim import QLRConfig
from .config import AdamOpt, ConfigError, RunConfig, SgdFullOpt, SgdMinimalOpt, to_dict
from .training import RunResult, RunStatus, run_training

BATCH_SIZE_CHOICES = (50, 100, 200, 400, 800, 1600, 3200)


@dataclass(frozen=True)
class LogUniform:
    lo: float
    hi: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))


@dataclass(frozen=True)
class OneMinusLogUniform:
    """Samples 1 - x with x log-uniform; concentrates mass near 1."""

    lo: float
    hi: float

    def sample(self, rng: np.random.Generator) -> float:
        return 1.0 - LogUniform(self.lo, self.hi).sample(rng)


@dataclass(frozen=True)
class Choice:
    values: tuple

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.integers(0, len(self.values)))]


Distribution = Union[LogUniform, OneMinusLogUniform, Choice]


_SPACES: dict[type, dict[str, Distribution]] = {
    SgdMinimalOpt: {"lr": LogUniform(1e-6, 1e-1)},
    SgdFullOpt: {
        "lr": LogUniform(1e-6, 1e-1),
        "momentum": OneMinusLogUniform(1e-4, 0.3),
        "weight_decay": LogUniform(1e-10, 1.0),
    },
    AdamOpt: {"lr": LogUniform(1e-6, 1.0)},
    QLRConfig: {
        "alpha_max": LogUniform(1e-4, 10.0),
        "lambda0": LogUniform(1e-8, 1.0),
        "omega_dec": LogUniform(0.5, 1.0),
        "omega_inc": LogUniform(1.0, 4.0),
    },
}


def search_space_for(cfg: RunConfig) -> dict[str, Distribution]:
    """Per-hyperparameter search distributions for `cfg`'s optimizer, and
    for its batch size when it has a dataset."""
    space = dict(_SPACES[type(cfg.optimizer)])
    if cfg.dataset is not None:
        space["batch_size"] = Choice(BATCH_SIZE_CHOICES)
    return space


class SearchObjective(enum.Enum):
    FINAL_VAL_LOSS = "val"
    FINAL_TRAIN_LOSS = "train"


@dataclass
class TrialResult:
    config: dict
    score: float
    status: RunStatus
    failure_step: Optional[int] = None
    rung_epochs: Optional[int] = None


def sample_space(space: dict[str, Distribution], rng: np.random.Generator) -> dict:
    return {name: dist.sample(rng) for name, dist in sorted(space.items())}


def apply_sample(base_cfg: RunConfig, sample: dict) -> RunConfig:
    """New run config with the sampled hyperparameters substituted in."""
    fields = {k: v for k, v in sample.items() if k != "batch_size"}
    cfg = replace(base_cfg, optimizer=replace(base_cfg.optimizer, **fields))
    if "batch_size" in sample:
        if cfg.dataset is None:
            raise ConfigError("batch_size sampled but config has no dataset block")
        cfg = replace(
            cfg,
            dataset=replace(
                cfg.dataset, batch=replace(cfg.dataset.batch, batch_size=int(sample["batch_size"]))
            ),
        )
    return cfg


def score_of(result: RunResult, objective: SearchObjective) -> float:
    """Final objective value; diverged runs score +inf so they rank last."""
    if result.status is RunStatus.DIVERGED or result.last is None:
        return math.inf
    val = result.val_loss if objective is SearchObjective.FINAL_VAL_LOSS else None
    return result.last.train_loss if val is None else val


def search_trials(
    space: dict[str, Distribution],
    budget: int,
    objective: SearchObjective,
    base_cfg: RunConfig,
    seed: int,
    halving: bool = False,
) -> Iterator[tuple[TrialResult, TrialResult]]:
    """Each trial as it finishes, with the best trial so far.

    The best so far is the lowest score among the trials run at the
    budget of the latest rung, ties going to the earliest sample; after
    the last trial it is the search's result. Deterministic in (space,
    budget, seed). An invalid budget raises here, before any trial runs.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    epochs = base_cfg.epochs
    # Below 4 epochs rungs share a budget; each budget runs once, in order.
    rungs = [max(1, epochs // 4), max(1, epochs // 2), epochs] if halving else [epochs]
    rungs = list(dict.fromkeys(rungs))
    return _run_trials(space, seed, range(budget), rungs, objective, base_cfg)


def _run_trials(
    space: dict[str, Distribution],
    seed: int,
    active: Sequence[int],
    rungs: list[int],
    objective: SearchObjective,
    base_cfg: RunConfig,
) -> Iterator[tuple[TrialResult, TrialResult]]:
    # Each trial draws its keyed sample as it runs, so the first starts at once.
    # A rung keeps the best trial, and the scores only when a next rung reads them.
    for rung_i, rung_epochs in enumerate(rungs):
        promotes = rung_i < len(rungs) - 1
        scored: list[tuple[float, int]] = []
        best: Optional[tuple[float, int, TrialResult]] = None
        for idx in active:
            cfg = apply_sample(base_cfg, sample_space(space, keyed_rng(seed, idx)))
            cfg = replace(cfg, epochs=rung_epochs, output_path=None)
            result = run_training(cfg)
            trial = TrialResult(
                config=to_dict(cfg),
                score=score_of(result, objective),
                status=result.status,
                failure_step=result.failure_step,
                rung_epochs=rung_epochs,
            )
            if promotes:
                scored.append((trial.score, idx))
            if best is None or (trial.score, idx) < best[:2]:
                best = (trial.score, idx, trial)
            yield trial, best[2]
        if promotes:
            scored.sort()
            active = [idx for _, idx in scored[: max(1, len(scored) // 3)]]
