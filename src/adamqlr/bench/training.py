"""The training loop: any configured optimizer over any configured objective.

A run is fully determined by (config, seed) except for wall-clock fields.
Divergence that survives the optimizer's own rejection logic, any
ArithmeticError raised by a step or an evaluation, terminates the run
with a recorded status instead of raising.
"""

from __future__ import annotations

import enum
import functools
import logging
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .. import autodiff, data, models, optim
from ..autodiff import Objective
from ..data import Batch, Task
from ..models import MlpSpec, RosenbrockSpec
from ..params import ParamVector
from .config import (
    AdamOpt,
    ConfigError,
    CsvLoader,
    DatasetConfig,
    IdxLoader,
    OptimizerConfig,
    RunConfig,
    SgdFullOpt,
    SgdMinimalOpt,
    SyntheticLoader,
)
from .records import MetricRecord

logger = logging.getLogger(__name__)


class RunStatus(enum.Enum):
    COMPLETED = "completed"
    DIVERGED = "diverged"
    TIMED_OUT = "timed_out"


@dataclass
class RunResult:
    status: RunStatus
    last: Optional[MetricRecord] = None
    val_loss: Optional[float] = None
    failure_step: Optional[int] = None
    final_params: Optional[ParamVector] = None
    standardize_stats: Optional[data.StandardizeStats] = None


class _SgdStepper:
    def __init__(self, opt: SgdFullOpt, n_params: int):
        self.opt = opt
        self.buf: Optional[np.ndarray] = None

    def step(self, obj: Objective, params: ParamVector, batch: Optional[Batch]):
        f, g = autodiff.eval_grad(obj, params, batch)
        params, self.buf = optim.sgd_step(
            params, g, self.opt.lr, self.buf, self.opt.momentum, self.opt.weight_decay
        )
        return params, {"train_loss": f, "alpha": self.opt.lr}


class _AdamStepper:
    def __init__(self, opt: AdamOpt, n_params: int):
        self.opt = opt
        self.state = optim.AdamState.init(n_params)

    def step(self, obj: Objective, params: ParamVector, batch: Optional[Batch]):
        f, g = autodiff.eval_grad(obj, params, batch)
        self.state, d = optim.adam_direction(self.state, g, self.opt.hyper)
        params = params.with_values(params.values - self.opt.lr * d.values)
        return params, {"train_loss": f, "alpha": self.opt.lr}


class _QlrStepper:
    def __init__(self, cfg: optim.QLRConfig, n_params: int):
        self.cfg = cfg
        self.state = optim.QLRState.init(cfg, n_params)

    def step(self, obj: Objective, params: ParamVector, batch: Optional[Batch]):
        params, self.state, diag = optim.qlr_step(obj, params, batch, self.state, self.cfg)
        return params, {
            "train_loss": diag.f_before,
            "alpha": diag.alpha,
            "lam": diag.lam,
            "rho": diag.rho,
            "guard_event": diag.guard,
        }


# Minimal SGD is full SGD without momentum or weight decay.
_STEPPERS = {
    SgdMinimalOpt: lambda opt, n_params: _SgdStepper(SgdFullOpt(opt.lr), n_params),
    SgdFullOpt: _SgdStepper,
    AdamOpt: _AdamStepper,
    optim.QLRConfig: _QlrStepper,
}


def make_stepper(opt: OptimizerConfig, n_params: int):
    """A stepper whose `step(obj, params, batch)` returns the new params and
    the step's `MetricRecord` fields as a dict."""
    return _STEPPERS[type(opt)](opt, n_params)


def load_dataset(loader) -> Batch:
    # Looked up per call, so a wrapper swapped onto a `data` loader at run time is used.
    loaders = {CsvLoader: data.load_csv, IdxLoader: data.load_idx, SyntheticLoader: data.synthesize}
    if type(loader) not in loaders:
        raise ConfigError(f"unknown loader config {type(loader).__name__}")
    return loaders[type(loader)](**vars(loader))


@functools.cache
def _warn_batch_clamp(batch_size: int, n_train: int) -> None:
    logger.warning(
        "batch size %d exceeds train split size %d; clamping to full batch", batch_size, n_train
    )


def prepare_data(dcfg: DatasetConfig):
    """Load, split and (for regression) standardize; returns splits + stats.

    Warns when the batch size exceeds the train split, which every epoch's
    `batch_iter` then clamps to one full batch: once per process for each
    (batch size, train split size) pair, so a sweep or a tuner says it once.
    """
    ds = load_dataset(dcfg.loader)
    train, val, test = data.split_dataset(ds, dcfg.split)
    if len(train) == 0:
        raise ConfigError(
            f"train split is empty: train_fraction {dcfg.split.train_fraction} "
            f"of {len(ds)} rows leaves no rows to train on"
        )
    if dcfg.batch.batch_size > len(train):
        _warn_batch_clamp(dcfg.batch.batch_size, len(train))
    stats = None
    if dcfg.standardize and ds.task is Task.REGRESSION:
        train, val, test, stats = data.standardize_splits(train, val, test)
    return train, val, test, stats


def check_model_fits(spec: MlpSpec, train: Batch, *others: Batch) -> None:
    """Refuse a model whose widths do not fit the data; a classifier must
    cover the labels of `train` and of every other split given."""
    d_in = train.inputs.shape[1]
    if spec.layer_widths[0] != d_in:
        raise ConfigError(
            f"model input width {spec.layer_widths[0]} != data feature count {d_in}"
        )
    d_out = spec.layer_widths[-1]
    if train.task is Task.CLASSIFICATION:
        n_classes = 1 + max(int(s.targets.max()) for s in (train, *others) if len(s))
        if d_out < n_classes:
            raise ConfigError(f"output width {d_out} < {n_classes} classes")
    elif d_out != train.targets.shape[1]:
        raise ConfigError(
            f"output width {d_out} != target dimension {train.targets.shape[1]}"
        )


def _fill_eval(
    result: RunResult,
    obj: Objective,
    params: ParamVector,
    train: Batch,
    val: Batch,
    test: Batch,
    stats,
) -> None:
    """Fill `result.last`'s eval fields and `result.val_loss`, one forward pass per split."""
    classification = train.task is Task.CLASSIFICATION
    for name, split in (("train", train), ("val", val), ("test", test)):
        if len(split) == 0:
            continue
        loss, outputs = autodiff.eval_outputs(obj, params, split)
        if name != "train":
            setattr(result.last, f"{name}_loss", loss)
        if name == "val":
            result.val_loss = loss
        if classification:
            setattr(result.last, f"{name}_acc", models.accuracy(outputs, split.targets))
        elif name == "train" and stats is not None and stats.target_std is not None:
            if stats.target_std.size == 1:
                logger.info(
                    "raw-unit train RMSE: %.6g",
                    float(stats.target_std[0]) * np.sqrt(loss),
                )


def start_training(cfg: RunConfig) -> tuple[RunResult, Iterator[MetricRecord]]:
    """Set up one configured training job; it runs as its records are drawn.

    An MLP takes one step per batch of its data plan and is evaluated on
    its splits at the configured epoch cadence. A Rosenbrock model takes
    one step per epoch from (1, -1) and has no splits to evaluate.

    The iterator holds only the current epoch's records and yields them once
    its eval fields are filled, or as the run stops. The result is the run's
    summary and fills in as the iterator runs: `last` is the latest record,
    `val_loss` the latest validation loss, and the status and final params
    are settled once the iterator is exhausted. A ValueError raised mid-run
    is re-raised as a ConfigError naming the steps taken and the epoch.
    """
    stats = splits = None
    if isinstance(cfg.model, RosenbrockSpec):
        obj = models.rosenbrock_objective(cfg.model)
        params = ParamVector(models.ROSENBROCK_START)

        def batches(epoch):
            return (None,)

    else:
        train, val, test, stats = prepare_data(cfg.dataset)
        splits = (train, val, test)
        check_model_fits(cfg.model, *splits)
        obj = models.mlp_objective(cfg.model)
        params = models.mlp_init(cfg.model, cfg.seed)

        def batches(epoch):
            return data.batch_iter(train, cfg.dataset.batch, epoch)

    stepper = make_stepper(cfg.optimizer, len(params))
    result = RunResult(RunStatus.COMPLETED, final_params=params, standardize_stats=stats)

    def steps() -> Iterator[MetricRecord]:
        params, step, held = result.final_params, 0, []
        t0 = time.perf_counter()
        try:
            for epoch in range(cfg.epochs):
                for batch in batches(epoch):
                    params, fields = stepper.step(obj, params, batch)
                    # Let go of this batch before the next one is gathered, so a
                    # run never holds two: fmnist's are 20 and 10 MB.
                    del batch
                    step += 1
                    result.last = MetricRecord(step, epoch, time.perf_counter() - t0, **fields)
                    held.append(result.last)
                    if time.perf_counter() - t0 > cfg.max_runtime_s:
                        result.status = RunStatus.TIMED_OUT
                        break
                if result.status is RunStatus.TIMED_OUT:
                    break
                if splits and ((epoch + 1) % cfg.eval_every_epochs == 0 or epoch == cfg.epochs - 1):
                    _fill_eval(result, obj, params, *splits, stats)
                yield from held
                held = []
        except ArithmeticError:
            result.status, result.failure_step = RunStatus.DIVERGED, step
        except ValueError as e:
            raise ConfigError(f"after {step} steps, in epoch {epoch}: {e}") from e
        result.final_params = params
        yield from held

    return result, steps()


def run_training(cfg: RunConfig) -> RunResult:
    """Run one configured training job to its end; see `start_training`."""
    result, records = start_training(cfg)
    for _ in records:
        pass
    return result
