"""End-to-end training loop behavior."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from adamqlr import data, eval_loss, models
from adamqlr.bench import config as config_mod
from adamqlr.bench import training
from adamqlr.bench.diagnostics import fisher_alignment
from adamqlr.bench.training import RunStatus, run_training
from adamqlr.optim import LAMBDA_MIN

from helpers import least_squares_mse, run_with_records
from test_cli import wide_cfg_dict


def regression_cfg(**overrides):
    d = {
        "model": {"kind": "mlp", "layer_widths": [3, 1], "loss": "mse"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "regression", "n": 60, "d": 3,
                       "seed": 2, "noise": 0.0},
            "split": {"train_fraction": 0.7, "val_fraction": 0.15, "test_fraction": 0.15, "seed": 0},
            "batch": {"batch_size": 16, "shuffle_seed": 1},
            "standardize": True,
        },
        "optimizer": {"kind": "sgd_minimal", "lr": 0.05},
        "epochs": 60,
        "seed": 0,
    }
    d.update(overrides)
    return config_mod.from_dict(d)


def test_sgd_reaches_least_squares_regime():
    cfg = regression_cfg()
    result, records = run_with_records(cfg)
    assert result.status is RunStatus.COMPLETED
    initial, final = records[0].train_loss, records[-1].train_loss
    assert final <= 0.05 * initial


def test_same_seed_identical_records_excluding_wall_time():
    cfg = regression_cfg(optimizer={"kind": "qlr"})
    (_, a), (_, b) = run_with_records(cfg), run_with_records(cfg)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        da, db = ra.to_dict(), rb.to_dict()
        da.pop("wall_time_s")
        db.pop("wall_time_s")
        assert da == db


def test_split_products_leave_records_unchanged(halves):
    # A 784-input classifier: its input-layer products, in the steps and in
    # evaluation, reach `tape.SPLIT_MADDS`.
    cfg = config_mod.from_dict({**wide_cfg_dict(), "epochs": 3})
    split, split_records = run_with_records(cfg)
    assert halves._pool is not None  # the worker ran halves
    halves.split = False
    whole, whole_records = run_with_records(cfg)
    assert split.status is whole.status is RunStatus.COMPLETED
    np.testing.assert_array_equal(split.final_params.values, whole.final_params.values)
    assert len(split_records) == len(whole_records) == 6
    for ra, rb in zip(split_records, whole_records):
        da, db = ra.to_dict(), rb.to_dict()
        da.pop("wall_time_s")
        db.pop("wall_time_s")
        assert da == db


def test_qlr_records_respect_bounds():
    cfg = regression_cfg(optimizer={"kind": "qlr", "rescale_k": 1.5})
    result, records = run_with_records(cfg)
    assert result.status is RunStatus.COMPLETED
    for rec in records:
        assert rec.lam >= LAMBDA_MIN
        assert 0.0 <= rec.alpha <= 1.5 * 0.1


def test_eval_fields_filled_at_epoch_cadence():
    cfg = regression_cfg(epochs=4, eval_every_epochs=2)
    _, records = run_with_records(cfg)
    with_val = [r for r in records if r.val_loss is not None]
    # epochs 1 and 3 (0-indexed) evaluate; last epoch always does
    assert len(with_val) == 2
    assert all(r.test_loss is not None for r in with_val)


def classification_cfg(**overrides):
    d = {
        "model": {"kind": "mlp", "layer_widths": [4, 16, 3], "loss": "softmax_cross_entropy"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "classification", "n": 120,
                       "d": 4, "seed": 5, "n_classes": 3},
            "split": {"train_fraction": 0.7, "val_fraction": 0.15, "test_fraction": 0.15, "seed": 0},
            "batch": {"batch_size": 32, "shuffle_seed": 0},
        },
        "optimizer": {"kind": "adam", "lr": 0.01},
        "epochs": 30,
        "seed": 1,
    }
    d.update(overrides)
    return config_mod.from_dict(d)


def test_classification_reports_accuracy():
    _, records = run_with_records(classification_cfg())
    last = [r for r in records if r.train_acc is not None][-1]
    assert last.train_acc >= 0.9
    assert last.val_acc is not None and last.test_acc is not None


def test_classification_eval_is_one_forward_pass_per_split(monkeypatch):
    # Adam's steps run only the taped forward, so every predict call below is
    # evaluation.
    rows = []
    make = models.mlp_objective

    def objective(spec):
        obj = make(spec)

        def predict(values, inputs, pre=None):
            rows.append(len(inputs))
            return obj.predict(values, inputs, pre)

        return dataclasses.replace(obj, predict=predict)

    monkeypatch.setattr(training.models, "mlp_objective", objective)
    cfg = classification_cfg(epochs=1)
    result = run_training(cfg)
    assert result.status is RunStatus.COMPLETED
    splits = training.prepare_data(cfg.dataset)[:3]
    assert rows == [len(split) for split in splits]


def test_classification_eval_matches_loss_and_predict_oracle():
    # Runs are deterministic, so the params at the end of epoch k are the
    # final params of the same run cut after k epochs.
    cfg = classification_cfg(optimizer={"kind": "qlr"}, epochs=3)
    _, records = run_with_records(cfg)
    train, val, test, _ = training.prepare_data(cfg.dataset)
    obj = models.mlp_objective(cfg.model)
    evaluated = [r for r in records if r.train_acc is not None]
    assert [r.epoch for r in evaluated] == [0, 1, 2]
    for rec in evaluated:
        params = run_training(dataclasses.replace(cfg, epochs=rec.epoch + 1)).final_params
        want = {}
        for name, split in (("train", train), ("val", val), ("test", test)):
            if name != "train":
                want[f"{name}_loss"] = eval_loss(obj, params, split)
            outputs = obj.predict(params.values, split.inputs)
            want[f"{name}_acc"] = models.accuracy(outputs, split.targets)
        assert {k: getattr(rec, k) for k in want} == want


def test_regression_eval_logs_raw_unit_train_rmse(caplog):
    cfg = regression_cfg(epochs=2)
    with caplog.at_level("INFO", logger=training.__name__):
        result = run_training(cfg)
    train, _, _, stats = training.prepare_data(cfg.dataset)
    rmse = float(stats.target_std[0]) * np.sqrt(
        eval_loss(models.mlp_objective(cfg.model), result.final_params, train)
    )
    lines = [r.getMessage() for r in caplog.records if "raw-unit" in r.getMessage()]
    assert len(lines) == 2
    assert lines[-1] == f"raw-unit train RMSE: {rmse:.6g}"


@pytest.mark.parametrize("task", ["regression", "classification"])
def test_train_only_split_trains_to_completion(task):
    cfg = config_mod.from_dict(
        {
            "model": {"kind": "mlp", "layer_widths": [4, 3],
                      "loss": "mse" if task == "regression" else "softmax_cross_entropy"},
            "dataset": {
                "loader": {"kind": "synthetic", "task": task, "n": 40, "d": 4, "seed": 5,
                           **({"n_targets": 3} if task == "regression" else {})},
                "split": {"train_fraction": 1.0, "val_fraction": 0.0, "test_fraction": 0.0},
                "batch": {"batch_size": 16},
            },
            "optimizer": {"kind": "qlr"},
            "epochs": 3,
        }
    )
    result, records = run_with_records(cfg)
    assert result.status is RunStatus.COMPLETED
    assert len(records) == 9
    last = records[-1]
    assert all(getattr(last, f"{s}_{m}") is None for s in ("val", "test") for m in ("loss", "acc"))
    assert (last.train_acc is not None) == (task == "classification")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergent_run_records_status():
    mlp = regression_cfg(optimizer={"kind": "sgd_minimal", "lr": 1e6}, epochs=50)
    rosenbrock = config_mod.from_dict(
        {"model": {"kind": "rosenbrock"}, "optimizer": {"kind": "sgd_minimal", "lr": 10},
         "epochs": 50}
    )
    for cfg in (mlp, rosenbrock):
        result, records = run_with_records(cfg)
        assert result.status is RunStatus.DIVERGED
        assert 0 < len(records) < cfg.epochs
        assert result.failure_step == len(records)
        assert all(np.isfinite(r.train_loss) for r in records)
        assert np.all(np.isfinite(result.final_params.values))


def test_runtime_limit_times_out():
    cfg = regression_cfg(epochs=100_000, max_runtime_s=0.05)
    result, records = run_with_records(cfg)
    assert result.status is RunStatus.TIMED_OUT
    assert 0 < len(records) < 100_000


def test_batch_size_clamped_to_full_batch():
    cfg = regression_cfg()
    cfg = config_mod.from_dict({**config_mod.to_dict(cfg)})
    big = config_mod.to_dict(cfg)
    big["dataset"]["batch"]["batch_size"] = 3200
    _, records = run_with_records(config_mod.from_dict(big))
    # 42 train rows -> one full batch per epoch
    steps_per_epoch = sum(1 for r in records if r.epoch == 0)
    assert steps_per_epoch == 1


@pytest.mark.parametrize("job", ["train", "diag-fisher"])
def test_oversized_batch_warned_once_per_run(job, caplog):
    training._warn_batch_clamp.cache_clear()  # said once per process
    # 120 rows, no batch block: the default 3200-row batch exceeds the 96-row train split
    cfg = config_mod.from_dict(
        {
            "model": {"kind": "mlp", "layer_widths": [4, 16, 3], "loss": "softmax_cross_entropy"},
            "dataset": {"loader": {"kind": "synthetic", "task": "classification", "n": 120,
                                   "d": 4, "seed": 5, "n_classes": 3}},
            "optimizer": {"kind": "adam", "lr": 1e-2},
            "epochs": 5,
        }
    )
    with caplog.at_level("WARNING"):
        if job == "train":
            assert len(run_with_records(cfg)[1]) == 5
        else:
            assert fisher_alignment(cfg, steps=5)["steps"] == 5
    clamps = [rec.getMessage() for rec in caplog.records if "clamp" in rec.getMessage()]
    assert clamps == ["batch size 3200 exceeds train split size 96; clamping to full batch"]


def test_model_width_mismatch_is_config_error():
    from adamqlr.bench.config import ConfigError

    with pytest.raises(ConfigError, match="feature count"):
        run_training(regression_cfg(model={"kind": "mlp", "layer_widths": [5, 1], "loss": "mse"}))


def test_rosenbrock_model_trains_batch_free():
    cfg = config_mod.from_dict(
        {
            "model": {"kind": "rosenbrock"},
            "optimizer": {"kind": "qlr", "curvature": "hessian"},
            "epochs": 50,
            "seed": 0,
        }
    )
    result, records = run_with_records(cfg)
    assert result.status is RunStatus.COMPLETED
    assert len(records) == 50
    assert records[-1].train_loss < records[0].train_loss


def test_run_holds_no_memory_per_epoch():
    # A finished run keeps its summary, not its records: the bytes it holds
    # do not grow with its epochs.
    def cfg(epochs):
        return config_mod.from_dict(
            {"model": {"kind": "rosenbrock"}, "optimizer": {"kind": "sgd_minimal", "lr": 1e-4},
             "epochs": epochs, "max_runtime_s": 10.0}
        )

    def held_by_run(epochs):
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result = run_training(cfg(epochs))
        gc.collect()
        assert result.status is RunStatus.COMPLETED
        return tracemalloc.get_traced_memory()[0] - before

    run_training(cfg(10))  # caches filled by a first run are not the runs' to hold
    tracemalloc.start()
    try:
        short, long = held_by_run(100), held_by_run(1000)
    finally:
        tracemalloc.stop()
    assert abs(long - short) < 16 * 1024


def spy_on_held_batches(monkeypatch) -> list[bool]:
    """Patch `data.batch_iter` to note, as each batch's successor is gathered,
    whether that batch is still alive; returns the list of notes."""
    real, held = data.batch_iter, []

    def batch_iter(ds, plan, epoch):
        for batch in real(ds, plan, epoch):
            ref = weakref.ref(batch)
            yield batch
            del batch
            held.append(ref() is not None)

    monkeypatch.setattr(data, "batch_iter", batch_iter)
    return held


def test_each_batch_is_let_go_before_the_next_is_gathered(monkeypatch):
    # Held while the next is gathered, two batches (20 and 10 MB on fmnist)
    # would be alive at once.
    held = spy_on_held_batches(monkeypatch)
    for opt in ({"kind": "sgd_minimal", "lr": 0.05}, {"kind": "adam", "lr": 0.01}, {"kind": "qlr"}):
        run_training(regression_cfg(optimizer=opt, epochs=3))
    assert len(held) == 3 * 3 * 3 and not any(held)  # 42 rows in batches of 16


def test_fisher_alignment_lets_go_of_each_batch_before_the_next_is_gathered(monkeypatch):
    held = spy_on_held_batches(monkeypatch)
    fisher_alignment(regression_cfg(optimizer={"kind": "adam", "lr": 0.01}), steps=7)
    assert len(held) == 6 and not any(held)  # the 7th batch has no successor


def test_oracle_floor_matches_least_squares():
    # the standardized noiseless problem is exactly linear: SGD approaches
    # the closed-form optimum, which for noise=0 is ~0
    from adamqlr.bench.training import prepare_data

    cfg = regression_cfg(epochs=300)
    train, _, _, _ = prepare_data(cfg.dataset)
    assert least_squares_mse(train.inputs, train.targets) <= 1e-20


@pytest.mark.parametrize("curvature", ["ggn_fisher", "hessian"])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_training_run_leaves_no_cyclic_garbage(task, curvature):
    # Regression nets use tanh hidden units, classifiers relu; each step's tape
    # must be freed by refcount alone, not left for the cyclic collector.
    loss = "mse" if task == "regression" else "softmax_cross_entropy"
    cfg = config_mod.from_dict(
        {
            "model": {"kind": "mlp", "layer_widths": [4, 8, 3], "loss": loss},
            "dataset": {
                "loader": {"kind": "synthetic", "task": task, "n": 60, "d": 4, "seed": 3,
                           **({"n_classes": 3} if task == "classification" else {"n_targets": 3})},
                "batch": {"batch_size": 16},
            },
            "optimizer": {"kind": "qlr", "curvature": curvature},
            "epochs": 3,
        }
    )
    gc.collect()
    gc.disable()
    try:
        result = run_training(cfg)
        assert result.status is RunStatus.COMPLETED
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()
