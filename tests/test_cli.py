"""Command-line interface contracts: subcommands and exit codes."""

import contextlib
import ctypes
import functools
import gc
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adamqlr import autodiff, data, models, tape
from adamqlr.autodiff import EvalOverflowError
from adamqlr.bench import cli, rosenbrock, search, training
from adamqlr.bench.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INTERRUPTED,
    EXIT_IO,
    EXIT_OK,
    configure_malloc,
    main,
)
from adamqlr.bench.config import ConfigError
from adamqlr.bench.records import read_records
from adamqlr.bench.rosenbrock import preset_optimizer, run_rosenbrock
from adamqlr.bench.sweeps import SWEEP_GRIDS
from adamqlr.data import Batch

from test_data import write_idx


def write_cfg(tmp_path, d, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def regression_cfg_dict(**over):
    d = {
        "model": {"kind": "mlp", "layer_widths": [3, 1], "loss": "mse"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "regression", "n": 50, "d": 3, "seed": 1},
            "split": {"train_fraction": 0.7, "val_fraction": 0.15, "test_fraction": 0.15, "seed": 0},
            "batch": {"batch_size": 16},
        },
        "optimizer": {"kind": "qlr"},
        "epochs": 5,
        "seed": 0,
    }
    d.update(over)
    return d


def peak_bytes_held(argvs) -> list[int]:
    """Peak traced bytes above the start of each ``main(argv)`` call, after
    one untraced run of the first, so caches it fills are not counted."""
    peaks = []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argvs[0]) == EXIT_OK
        tracemalloc.start()
        try:
            for argv in argvs:
                gc.collect()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                assert main(argv) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    return peaks


def diverging_adam_cfg_dict():
    return {
        "model": {"kind": "mlp", "layer_widths": [4, 16, 3], "loss": "softmax_cross_entropy"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "classification", "n": 120,
                       "d": 4, "seed": 5, "n_classes": 3},
            "batch": {"batch_size": 32},
        },
        "optimizer": {"kind": "adam", "lr": 1e300},
        "epochs": 1,
    }


def wide_cfg_dict():
    """A 784-input classifier whose input-layer products reach `tape.SPLIT_MADDS`."""
    return {
        "model": {"kind": "mlp", "layer_widths": [784, 50, 10], "loss": "softmax_cross_entropy"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "classification", "n": 400,
                       "d": 784, "seed": 10, "n_classes": 10},
            "split": {"train_fraction": 0.8, "val_fraction": 0.1, "test_fraction": 0.1, "seed": 0},
            "batch": {"batch_size": 256, "shuffle_seed": 0},
        },
        "optimizer": {"kind": "qlr"},
        "epochs": 2,
        "seed": 0,
    }


@pytest.mark.parametrize("command", ["train", "diag-fisher", "rosenbrock"])
def test_divergence_prints_no_numpy_warnings(command, tmp_path, recwarn):
    if command == "rosenbrock":
        argv = ["rosenbrock", "--optimizer", "gd", "--lr", "10"]
    else:
        argv = [command, "--config", write_cfg(tmp_path, diverging_adam_cfg_dict())]
    assert main(argv) == EXIT_DIVERGED
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def set_key(d: dict, key: str, value) -> None:
    """Set the value at dotted ``key`` of the nested dict ``d``."""
    *parents, leaf = key.split(".")
    functools.reduce(dict.__getitem__, parents, d)[leaf] = value


# A negative seed that would reach numpy's generators is refused as the
# config and flags are read, before any data is prepared, naming its path
# or flag. A seed that `keyed_rng` takes must also lie below 2**32.
@pytest.mark.parametrize(
    "command, key, flags, error",
    [
        ("train", "seed", [], "config: seed must be non-negative, got -1"),
        ("sweep", "seed", ["--sweep", "omega_sym"], "config: seed must be non-negative, got -1"),
        ("train", "dataset.split.seed", [], "dataset.split: seed must be non-negative, got -1"),
        ("train", None, ["--seed", "-5"], "--seed must be non-negative, got -5"),
        ("bootstrap", None, ["--seed", "-1"], "--seed must be non-negative, got -1"),
        ("gradcheck", None, ["--seed", "-1"], "--seed must be non-negative, got -1"),
        ("tune", None, ["--seed", "-1", "--budget", "1"], "--seed must lie in [0, 2**32), got -1"),
        ("train", "dataset.loader.seed", [], "dataset.loader: seed must lie in [0, 2**32), got -1"),
        ("train", "dataset.batch.shuffle_seed", [],
         "dataset.batch: shuffle_seed must lie in [0, 2**32), got -1"),
    ],
)
def test_negative_seed_is_refused_naming_it(
    command, key, flags, error, tmp_path, monkeypatch, capsys
):
    d = regression_cfg_dict(epochs=1)
    if key is not None:
        set_key(d, key, -1)
    cfg = write_cfg(tmp_path, d)
    if command == "bootstrap":
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run.jsonl")]) == EXIT_OK
        argv = ["bootstrap", "--inputs", str(tmp_path / "*.jsonl")]
    elif command == "gradcheck":
        argv = ["gradcheck"]
    else:
        argv = [command, "--config", cfg]
    monkeypatch.setattr(
        training, "prepare_data", lambda *a: pytest.fail("data prepared before the seed was read")
    )
    capsys.readouterr()
    assert main(argv + flags) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {error}\n"


# SeedSequence splits an int into 32-bit words, so each group of seeds
# below would draw one stream if all were taken: -1 and 2**63 - 1 once
# folded into 63 bits; -2**63 and 2**63 folded to 0; 2**32 + 5 reads as
# (5, 1), the epoch-1 shuffle of seed 5 and trial 1 of `tune --seed 5`.
@pytest.mark.parametrize("seeds", [(-1, 2**63 - 1), (-(2**63), 2**63, 0), (2**32 + 5, 5)])
@pytest.mark.parametrize(
    "command, key, named",
    [
        ("train", "dataset.loader.seed", "dataset.loader: seed"),
        ("train", "dataset.batch.shuffle_seed", "dataset.batch: shuffle_seed"),
        ("tune", "seed", "config: seed"),
        ("tune", None, "--seed"),
    ],
)
def test_keyed_seeds_sharing_a_stream_are_accepted_at_most_once(
    command, key, named, seeds, tmp_path, capsys
):
    accepted = []
    for seed in seeds:
        d = regression_cfg_dict(epochs=1)
        flags = ["--budget", "1"] if command == "tune" else []
        if key is None:
            flags += ["--seed", str(seed)]
        else:
            set_key(d, key, seed)
        capsys.readouterr()
        code = main([command, "--config", write_cfg(tmp_path, d), *flags])
        if code == EXIT_OK:
            accepted.append(seed)
        else:
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err.startswith(f"config error: {named} must ")
    assert len(accepted) <= 1, accepted


class TestTrain:
    def test_writes_jsonl_and_norm_sidecar(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, regression_cfg_dict())
        out = tmp_path / "run.jsonl"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        records = read_records(out)
        assert len(records) == 5 * 3  # 35 train rows, batch 16 -> 3 steps/epoch
        assert (tmp_path / "run.jsonl.norm.json").exists()
        assert "status=completed" in capsys.readouterr().out

    def test_csv_extension_selects_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, regression_cfg_dict())
        out = tmp_path / "run.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("step,epoch,")

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_cfg(tmp_path, regression_cfg_dict())
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["train", "--config", cfg, "--out", str(a), "--seed", "1"])
        main(["train", "--config", cfg, "--out", str(b), "--seed", "2"])
        ra, rb = read_records(a), read_records(b)
        assert ra[0].train_loss != rb[0].train_loss

    def test_divergence_exit_code(self, tmp_path, capsys):
        d = regression_cfg_dict(optimizer={"kind": "sgd_minimal", "lr": 1e9}, epochs=30)
        cfg = write_cfg(tmp_path, d)
        assert main(["train", "--config", cfg]) == EXIT_DIVERGED
        assert capsys.readouterr().out.startswith("status=diverged ")

    def test_misshaped_batch_mid_run_is_config_error(self, tmp_path, capsys, monkeypatch):
        batch_iter = data.batch_iter

        def drop_a_column_after_epoch_0(ds, plan, epoch):
            for batch in batch_iter(ds, plan, epoch):
                yield batch if epoch == 0 else Batch(batch.inputs[:, :-1], batch.targets)

        monkeypatch.setattr(data, "batch_iter", drop_a_column_after_epoch_0)
        cfg = write_cfg(tmp_path, regression_cfg_dict())
        out = tmp_path / "run.jsonl"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "status=" not in captured.out
        assert captured.err.startswith("config error: after 3 steps, in epoch 1:")
        records = read_records(out)  # epoch 0, evaluated, is kept
        assert [(r.step, r.epoch) for r in records] == [(1, 0), (2, 0), (3, 0)]
        assert records[-1].val_loss is not None

    def test_interrupt_leaves_every_finished_epoch(self, tmp_path, monkeypatch, capsys):
        make_stepper = training.make_stepper

        class InterruptedAtStep8:
            def __init__(self, opt, n_params):
                self.inner, self.steps = make_stepper(opt, n_params), 0

            def step(self, *args):
                self.steps += 1
                if self.steps == 8:
                    raise KeyboardInterrupt
                return self.inner.step(*args)

        monkeypatch.setattr(training, "make_stepper", InterruptedAtStep8)
        cfg = write_cfg(tmp_path, regression_cfg_dict())
        out = tmp_path / "run.csv"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_INTERRUPTED == 130
        assert capsys.readouterr().err == "interrupted\n"
        records = read_records(out)  # 3 steps per epoch: epochs 0 and 1
        assert [r.step for r in records] == [1, 2, 3, 4, 5, 6]
        assert [r.val_loss is not None for r in records] == [False, False, True] * 2

    @pytest.mark.parametrize("standardize", [True, False])
    def test_empty_train_split_is_named_config_error(self, tmp_path, capsys, recwarn, standardize):
        d = regression_cfg_dict()
        d["dataset"]["split"] = {"train_fraction": 0.0, "val_fraction": 0.5, "test_fraction": 0.5}
        d["dataset"]["standardize"] = standardize
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "status=" not in captured.out
        assert captured.err.startswith("config error: train split is empty:")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_unknown_key_exit_code(self, tmp_path):
        d = regression_cfg_dict()
        d["typo"] = 1
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, text, problem",
        [
            ("model", "null", "expected an object"),
            ("epochs", "1e400", "expected an integer"),
            ("optimizer", '{"kind": "adam", "lr": NaN}', "lr must be finite"),
            ("optimizer", '{"kind": "sgd_minimal", "lr": -0.01}', "lr must be finite"),
            ("optimizer", '{"kind": "adam", "lr": 1' + "0" * 400 + "}", "is out of range"),
        ],
        ids=["null-model", "float-epochs", "nan-lr", "negative-lr", "lr-overflows-a-float"],
    )
    def test_malformed_value_exit_code(self, tmp_path, capsys, key, text, problem):
        path = tmp_path / "cfg.json"
        text = json.dumps(regression_cfg_dict(**{key: "PLACEHOLDER"})).replace('"PLACEHOLDER"', text)
        path.write_text(text)
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and problem in err

    SYNTHETIC = regression_cfg_dict()["dataset"]["loader"]
    CSV = {"kind": "csv", "path": "never-read.csv", "n_features": 3}

    @pytest.mark.parametrize(
        "loader, error",
        [
            ({**SYNTHETIC, "task": "classification", "separation": float("nan")},
             "separation must be finite, got nan"),
            ({**SYNTHETIC, "task": "classification", "separation": float("inf")},
             "separation must be finite, got inf"),
            ({**SYNTHETIC, "n_targets": -1}, "n_targets must be positive, got -1"),
            ({**SYNTHETIC, "n_targets": 0}, "n_targets must be positive, got 0"),
            ({**SYNTHETIC, "n": 0}, "n must be positive, got 0"),
            ({**SYNTHETIC, "d": 0}, "d must be positive, got 0"),
            ({**SYNTHETIC, "task": "classification", "n_classes": 0},
             "n_classes must be positive, got 0"),
            ({**CSV, "n_features": 0}, "n_features must be positive, got 0"),
            ({**CSV, "target_columns": 0}, "target_columns must be positive, got 0"),
        ],
    )
    def test_bad_loader_knob_is_config_error_naming_it(self, tmp_path, capsys, loader, error):
        d = regression_cfg_dict()
        d["dataset"]["loader"] = loader
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: dataset.loader: {error}\n"

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    @pytest.mark.parametrize("gz, problem", [(False, "truncated header"),
                                             (True, "unreadable gzip data")])
    @pytest.mark.parametrize("which", ["images", "labels"])
    def test_truncated_idx_file_is_config_error(self, tmp_path, capsys, which, gz, problem):
        img, lbl = write_idx(tmp_path, np.zeros((1, 1, 1)), [0], gz=gz)
        path = img if which == "images" else lbl
        path.write_bytes(path.read_bytes()[:5])
        d = regression_cfg_dict()
        d["model"] = {"kind": "mlp", "layer_widths": [1, 2], "loss": "softmax_cross_entropy"}
        d["dataset"]["loader"] = {"kind": "idx", "images_path": str(img), "labels_path": str(lbl)}
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {path}: {problem}")

    def test_class_seen_only_outside_train_fails_before_any_step(self, tmp_path, capsys):
        # The one class-3 row lands in val, so a 3-wide model cannot score it.
        labels = np.arange(40) % 3
        labels[np.random.default_rng(0).permutation(40)[32]] = 3  # val's first row
        img, lbl = write_idx(tmp_path, np.arange(160).reshape(40, 2, 2), labels)
        d = regression_cfg_dict()
        d["model"] = {"kind": "mlp", "layer_widths": [4, 5, 3], "loss": "softmax_cross_entropy"}
        d["dataset"] = {
            "loader": {"kind": "idx", "images_path": str(img), "labels_path": str(lbl)},
            "split": {"seed": 0},
            "batch": {"batch_size": 8},
        }
        out = tmp_path / "run.jsonl"
        assert main(["train", "--config", write_cfg(tmp_path, d), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "output width 3 < 4 classes" in err and "steps" not in err
        assert not out.exists()

    def test_no_classes_is_config_error(self, tmp_path, capsys, recwarn):
        d = regression_cfg_dict()
        d["model"] = {"kind": "mlp", "layer_widths": [3, 2], "loss": "softmax_cross_entropy"}
        d["dataset"]["loader"] = {"kind": "synthetic", "task": "classification", "n": 50,
                                  "d": 3, "n_classes": 0}
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert "n_classes must be positive" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_evaluation_ends_run_diverged(self, tmp_path, capsys, monkeypatch):
        raised = []
        eval_outputs = autodiff.eval_outputs

        def watched(*args):
            try:
                return eval_outputs(*args)
            except EvalOverflowError as e:
                raised.append(e.context)
                raise

        monkeypatch.setattr(autodiff, "eval_outputs", watched)
        # One full-batch step lands where the step's own loss is finite but the
        # evaluation's overflows.
        d = regression_cfg_dict(optimizer={"kind": "sgd_minimal", "lr": 1e200}, epochs=1)
        d["dataset"]["batch"]["batch_size"] = 36  # the whole train split
        out = tmp_path / "run.jsonl"
        assert main(["train", "--config", write_cfg(tmp_path, d), "--out", str(out)]) == EXIT_DIVERGED
        assert raised == ["eval_outputs(mlp[3x1])"]
        assert capsys.readouterr().out.startswith("status=diverged steps=1 ")
        assert len(read_records(out)) == 1

    @pytest.mark.parametrize(
        "block, key, message",
        [
            ("loader", "noise", "dataset.loader: noise must be finite and non-negative"),
            ("optimizer", "lambda0", "optimizer: lambda0 must be finite and positive"),
            # NaN passes both of `SplitSpec`'s comparisons; unchecked, splitting
            # failed on numpy's bare "cannot convert float NaN to integer".
            *[("split", key, "dataset.split: split fractions must be finite, got (")
              for key in ("train_fraction", "val_fraction", "test_fraction")],
        ],
    )
    def test_nan_knob_is_config_error(self, tmp_path, capsys, block, key, message):
        d = regression_cfg_dict()
        (d["optimizer"] if block == "optimizer" else d["dataset"][block])[key] = float("nan")
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("eval_every_epochs", 0, "config: eval_every_epochs must be >= 1"),
            ("dataset.batch.batch_size", 0, "dataset.batch: batch_size must be positive"),
            ("model.layer_widths", [3, 2], "output width 2 != target dimension 1"),
        ],
    )
    def test_bad_run_shape_is_config_error(self, tmp_path, capsys, key, value, message):
        d = regression_cfg_dict()
        set_key(d, key, value)
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "optimizer, message",
        [
            ({"kind": "qlr", "lambda0": float("inf")},
             "optimizer: lambda0 must be finite and positive"),
            ({"kind": "qlr", "omega_inc": float("inf")},
             "optimizer: need 0 < omega_dec <= 1 <= omega_inc < inf"),
            ({"kind": "qlr", "rescale_k": float("inf")},
             "optimizer: rescale_k must be finite and positive"),
            ({"kind": "qlr", "alpha_max": float("inf")},
             "optimizer: alpha_max must be finite and positive"),
            ({"kind": "qlr", "hyper": {"epsilon": float("inf")}},
             "optimizer.hyper: epsilon must be finite and non-negative"),
        ],
    )
    def test_infinite_knob_is_config_error(self, tmp_path, capsys, optimizer, message):
        # Unchecked, each would pin the damping at its ceiling (from the start,
        # or from the first untrusted step), diverge at step 0, take an infinite
        # non-convex fallback step, or make every direction 0.
        d = regression_cfg_dict(optimizer=optimizer)
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("key, value", [("a", float("inf")), ("a", float("nan")),
                                            ("b", float("nan")), ("b", float("inf"))])
    def test_non_finite_rosenbrock_coefficient_is_config_error(self, tmp_path, capsys, key, value):
        # Unchecked, f is NaN or infinite at the start and the run reports a divergence.
        d = {"model": {"kind": "rosenbrock", key: value},
             "optimizer": {"kind": "sgd_minimal", "lr": 1e-3}, "epochs": 2}
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: model: {key} must be finite")

    def test_rosenbrock_coefficient_overflowing_at_the_start_diverges(self, tmp_path, capsys):
        # A finite a of 1e308 is a valid model whose f overflows at (1, -1).
        d = {"model": {"kind": "rosenbrock", "a": 1e308},
             "optimizer": {"kind": "sgd_minimal", "lr": 1e-3}, "epochs": 2}
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_DIVERGED
        assert capsys.readouterr().out.startswith("status=diverged ")

    @pytest.mark.parametrize("limit", [float("nan"), -1.0])
    def test_bad_runtime_limit_is_config_error(self, tmp_path, capsys, limit):
        # A NaN limit would never compare as exceeded, so the run would have none.
        d = regression_cfg_dict(max_runtime_s=limit)
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "max_runtime_s must be non-negative" in err

    def test_zero_runtime_limit_stops_after_one_step(self, tmp_path, capsys):
        d = regression_cfg_dict(max_runtime_s=0)
        assert main(["train", "--config", write_cfg(tmp_path, d)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("status=timed_out steps=1 ")


class TestRosenbrock:
    @pytest.mark.parametrize("preset", ["gd", "gd-full", "adam", "adamqlr-tuned", "adamqlr-untuned"])
    def test_presets_run(self, preset, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["rosenbrock", "--optimizer", preset, "--steps", "25", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "step,x,y,f"
        assert len(lines) == 27  # header + start + 25 steps
        assert "final_f=" in capsys.readouterr().out

    @staticmethod
    def spy_on_steps(monkeypatch, interrupt_at=None):
        """Record every Rosenbrock step taken; raise Ctrl-C at step ``interrupt_at``."""
        make_stepper, steps = rosenbrock.make_stepper, []

        class Spy:
            def __init__(self, opt, n_params):
                self.inner = make_stepper(opt, n_params)

            def step(self, *args):
                steps.append(args)
                if len(steps) == interrupt_at:
                    raise KeyboardInterrupt
                return self.inner.step(*args)

        monkeypatch.setattr(rosenbrock, "make_stepper", Spy)
        return steps

    def test_interrupt_leaves_every_point_taken(self, tmp_path, monkeypatch, capsys):
        # Interrupted at step k: the start and steps 1..k-1 are on file.
        k = 7
        self.spy_on_steps(monkeypatch, interrupt_at=k)
        out = tmp_path / "traj.csv"
        argv = ["rosenbrock", "--optimizer", "adamqlr-untuned", "--out", str(out)]
        assert main(argv) == EXIT_INTERRUPTED
        assert capsys.readouterr().err == "interrupted\n"
        header, *rows = out.read_text().splitlines()
        assert header == "step,x,y,f"
        want = run_rosenbrock(preset_optimizer("adamqlr-untuned"), steps=k - 1).points
        assert [tuple(map(float, row.split(","))) for row in rows] == want

    def test_unwritable_out_exits_before_any_step(self, tmp_path, monkeypatch, capsys):
        steps = self.spy_on_steps(monkeypatch)
        out = tmp_path / "missing" / "traj.csv"
        assert main(["rosenbrock", "--optimizer", "gd", "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error:")
        assert steps == [] and not out.parent.exists()

    def test_diverged_run_leaves_every_finite_point(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        argv = ["rosenbrock", "--optimizer", "gd", "--lr", "10", "--out", str(out)]
        assert main(argv) == EXIT_DIVERGED
        rows = out.read_text().splitlines()[1:]
        assert "status=diverged steps=3 " in capsys.readouterr().out
        assert [int(row.split(",")[0]) for row in rows] == [0, 1, 2, 3]

    def test_run_without_out_holds_no_memory_per_step(self):
        # Only the last point is printed, so only the latest is kept.
        short, long = peak_bytes_held(
            [["rosenbrock", "--optimizer", "gd", "--steps", str(n)] for n in (100, 1000)]
        )
        assert long - short < 16 * 1024

    def test_run_written_to_file_holds_no_memory_per_step(self, tmp_path):
        # Each point goes to the file as it is taken; only the latest is kept.
        argv = ["rosenbrock", "--optimizer", "gd", "--steps"]
        short, long = peak_bytes_held(
            [[*argv, str(n), "--out", str(tmp_path / f"{n}.csv")] for n in (100, 1000)]
        )
        assert long - short < 16 * 1024
        assert len((tmp_path / "1000.csv").read_text().splitlines()) == 1000 + 2

    def test_trajectory_csv_round_trip(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        argv = ["rosenbrock", "--optimizer", "adam", "--steps", "5", "--start", "0.5,0.5"]
        assert main([*argv, "--out", str(path)]) == EXIT_OK
        res = run_rosenbrock(preset_optimizer("adam"), steps=5, start=(0.5, 0.5))
        header, *rows = path.read_text().splitlines()
        assert header == "step,x,y,f"
        cells = [row.split(",") for row in rows]
        assert [(int(step), *map(float, xyf)) for step, *xyf in cells] == res.points
        step, x, y, f = res.points[-1]
        assert capsys.readouterr().out == (
            f"status=completed steps={step} final_f={f!r} final_xy=({x!r},{y!r})\n"
        )

    def test_zero_steps_is_config_error_before_out_is_created(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        argv = ["rosenbrock", "--optimizer", "gd", "--steps", "0", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: steps must be >= 1\n"
        assert not out.exists()

    def test_trajectory_takes_each_step_as_its_point_is_drawn(self, monkeypatch):
        # Point k's f comes from step k + 1, so drawing point k runs steps k
        # and k + 1; the start and the last point run none.
        steps, n = self.spy_on_steps(monkeypatch), 10
        points = rosenbrock.trajectory(preset_optimizer("gd"), n)
        assert steps == []
        assert next(points)[0] == 0 and steps == []
        for k in range(1, n):
            assert next(points)[0] == k and len(steps) == k + 1
        assert next(points)[0] == n and len(steps) == n
        assert next(points, None) is None and len(steps) == n

    @pytest.mark.parametrize("start", ["oops", "nan,0", "0,inf"])
    def test_bad_start_is_config_error(self, start):
        assert main(["rosenbrock", "--optimizer", "gd", "--start", start]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "preset,flag,value",
        [("gd", "--lr", "nan"), ("gd", "--lr", "-0.01"), ("adam", "--lr", "0"),
         ("gd-full", "--momentum", "nan"), ("gd-full", "--weight-decay", "inf")],
    )
    def test_bad_step_size_override_is_config_error(self, preset, flag, value, capsys):
        argv = ["rosenbrock", "--optimizer", preset, "--steps", "5", flag, value]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_lr_override(self, capsys):
        assert main(["rosenbrock", "--optimizer", "gd", "--steps", "5", "--lr", "1e-5"]) == EXIT_OK

    def test_gd_full_takes_every_override(self, capsys):
        argv = ["rosenbrock", "--optimizer", "gd-full", "--steps", "5",
                "--lr", "1e-5", "--momentum", "0.5", "--weight-decay", "0.1"]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize(
        "preset,flag,value",
        [("gd", "--momentum", "0.9"), ("adam", "--weight-decay", "0.1"),
         ("adamqlr-tuned", "--lr", "5")],
    )
    def test_override_the_preset_ignores_is_config_error(self, preset, flag, value, capsys):
        argv = ["rosenbrock", "--optimizer", preset, "--steps", "5", flag, value]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag in err and repr(preset) in err


class TestTune:
    def test_writes_results_json(self, tmp_path):
        cfg = write_cfg(tmp_path, regression_cfg_dict(epochs=3))
        out = tmp_path / "tune.json"
        rc = main(["tune", "--config", cfg, "--budget", "3", "--objective", "val",
                   "--out", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["trials"]) == 3
        assert payload["best"]["score"] <= min(t["score"] for t in payload["trials"])
        sampled = payload["trials"][0]["config"]["optimizer"]
        assert sampled["kind"] == "qlr"
        assert 1e-8 <= sampled["lambda0"] <= 1.0

    @pytest.mark.parametrize(
        "error, code", [(KeyboardInterrupt, EXIT_INTERRUPTED), (ConfigError, EXIT_CONFIG)]
    )
    def test_stopped_search_keeps_finished_trials(self, tmp_path, monkeypatch, error, code):
        cfg = write_cfg(tmp_path, regression_cfg_dict(epochs=2))
        out, k = tmp_path / "tune.json", 3
        run, calls = search.run_training, []

        def stopped_at_k(run_cfg):
            calls.append(run_cfg)
            if len(calls) == k:
                raise error("stop")
            return run(run_cfg)

        monkeypatch.setattr(search, "run_training", stopped_at_k)
        argv = ["tune", "--config", cfg, "--budget", "5", "--out", str(out)]
        assert main(argv) == code
        payload = json.loads(out.read_text())
        assert len(payload["trials"]) == k - 1
        scores = [t["score"] for t in payload["trials"]]
        assert payload["best"]["score"] == min(scores)
        assert payload["best"]["config"] == payload["trials"][scores.index(min(scores))]["config"]
        # The finished trials are those of the uninterrupted search.
        monkeypatch.setattr(search, "run_training", run)
        assert main([*argv[:-1], str(tmp_path / "full.json")]) == EXIT_OK
        full = json.loads((tmp_path / "full.json").read_text())
        assert full["trials"][: k - 1] == payload["trials"]

    def test_search_stopped_in_its_first_trial_leaves_no_best(self, tmp_path, monkeypatch):
        def interrupted(run_cfg):
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "run_training", interrupted)
        out = tmp_path / "tune.json"
        cfg = write_cfg(tmp_path, regression_cfg_dict())
        assert main(["tune", "--config", cfg, "--budget", "3", "--out", str(out)]) == EXIT_INTERRUPTED
        assert json.loads(out.read_text()) == {"best": None, "trials": []}

    def test_search_without_out_holds_no_memory_per_trial(self, tmp_path):
        # Without --out only the best trial is read, so only it is kept.
        cfg = write_cfg(tmp_path, {"model": {"kind": "rosenbrock"},
                                   "optimizer": {"kind": "sgd_minimal", "lr": 1e-4}, "epochs": 1})
        short, long = peak_bytes_held(
            [["tune", "--config", cfg, "--budget", str(n)] for n in (25, 250)]
        )
        assert long - short < 16 * 1024

    @pytest.mark.parametrize(
        "n, budget, message",
        [(50, "0", "budget must be >= 1"), (0, "2", "dataset.loader: n must be positive, got 0")],
        ids=["budget", "loader"],
    )
    def test_invalid_value_leaves_out_file_untouched(self, tmp_path, capsys, n, budget, message):
        # Both are refused before the first trial starts, so before --out is written.
        out = tmp_path / "tune.json"
        out.write_bytes(b'{"earlier": "search"}\n')
        d = regression_cfg_dict()
        d["dataset"]["loader"]["n"] = n
        cfg = write_cfg(tmp_path, d)
        assert main(["tune", "--config", cfg, "--budget", budget, "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert out.read_bytes() == b'{"earlier": "search"}\n'


class TestAllocationFailure:
    """An array the config sizes too large to allocate is a config error (exit 2).

    The allocating call is made to raise, so the tests allocate nothing
    whatever the host's overcommit setting.
    """

    NUMPY_MESSAGE = (
        "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
        "and data type float64"
    )

    @staticmethod
    def fail_at_call(monkeypatch, module, name, k, error):
        real, calls = getattr(module, name), []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == k:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, failing)

    @pytest.mark.parametrize("module, name", [(models, "mlp_init"), (data, "synthesize")])
    @pytest.mark.parametrize(
        "error, message",
        [(MemoryError(NUMPY_MESSAGE), NUMPY_MESSAGE), (MemoryError(), "out of memory")],
    )
    def test_train(self, tmp_path, monkeypatch, capsys, module, name, error, message):
        self.fail_at_call(monkeypatch, module, name, 1, error)
        cfg = write_cfg(tmp_path, regression_cfg_dict())
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run.jsonl")]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"config error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("module, name", [(models, "mlp_init"), (data, "synthesize")])
    def test_tune_keeps_finished_trials(self, tmp_path, monkeypatch, capsys, module, name):
        cfg = write_cfg(tmp_path, regression_cfg_dict(epochs=2))
        argv = ["tune", "--config", cfg, "--budget", "4", "--out"]
        assert main([*argv, str(tmp_path / "full.json")]) == EXIT_OK
        full = json.loads((tmp_path / "full.json").read_text())
        capsys.readouterr()
        k = 3
        self.fail_at_call(monkeypatch, module, name, k, MemoryError(self.NUMPY_MESSAGE))
        assert main([*argv, str(tmp_path / "tune.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {self.NUMPY_MESSAGE}\n"
        payload = json.loads((tmp_path / "tune.json").read_text())
        assert payload["trials"] == full["trials"][: k - 1]
        scores = [t["score"] for t in payload["trials"]]
        assert payload["best"]["score"] == min(scores)


class TestSweep:
    def test_one_row_per_grid_value(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, regression_cfg_dict(epochs=2))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--sweep", "omega_sym", "--out", str(out)]) == EXIT_OK
        header, *rows = out.read_text().splitlines()
        assert header == "omega_sym,status,final_train_loss,final_val_loss"
        values = SWEEP_GRIDS["omega_sym"]
        assert [float(row.split(",")[0]) for row in rows] == [float(v) for v in values]
        assert {row.split(",")[1] for row in rows} == {"completed"}
        assert capsys.readouterr().out.splitlines() == rows

    def test_interrupted_sweep_keeps_finished_lines(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, regression_cfg_dict(epochs=2))
        out, k = tmp_path / "sweep.csv", 3
        run, calls = cli.run_training, []

        def interrupted_at_k(run_cfg):
            calls.append(run_cfg)
            if len(calls) == k:
                raise KeyboardInterrupt
            return run(run_cfg)

        monkeypatch.setattr(cli, "run_training", interrupted_at_k)
        rc = main(["sweep", "--config", cfg, "--sweep", "omega_sym", "--out", str(out)])
        assert rc == EXIT_INTERRUPTED == 130
        header, *rows = out.read_text().splitlines()
        assert header == "omega_sym,status,final_train_loss,final_val_loss"
        values = SWEEP_GRIDS["omega_sym"][: k - 1]
        assert [float(row.split(",")[0]) for row in rows] == [float(v) for v in values]
        for row in rows:
            _, status, train, val = row.split(",")
            assert status == "completed" and float(train) >= 0.0 and float(val) >= 0.0

    def test_batch_clamp_warned_once_per_sweep(self, tmp_path, monkeypatch, caplog):
        training._warn_batch_clamp.cache_clear()
        monkeypatch.setitem(SWEEP_GRIDS, "lambda0", (1e-3, 1e-2))
        d = regression_cfg_dict(epochs=2)
        d["dataset"]["batch"]["batch_size"] = 3200
        with caplog.at_level("WARNING"):
            assert main(["sweep", "--config", write_cfg(tmp_path, d), "--sweep", "lambda0"]) == EXIT_OK
        clamps = [rec.getMessage() for rec in caplog.records if "clamp" in rec.getMessage()]
        assert clamps == ["batch size 3200 exceeds train split size 36; clamping to full batch"]

    def test_batch_size_on_a_model_without_data_is_config_error(self, tmp_path, capsys):
        d = {"model": {"kind": "rosenbrock"}, "optimizer": {"kind": "qlr"}, "epochs": 2}
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--config", write_cfg(tmp_path, d), "--sweep", "batch_size",
                "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: batch_size sampled but config has no dataset block\n"
        )
        assert not out.exists()

    def test_qlr_field_on_adam_config_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, regression_cfg_dict(optimizer={"kind": "adam", "lr": 0.01}))
        assert main(["sweep", "--config", cfg, "--sweep", "lambda0"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: sweep field 'lambda0' requires the qlr optimizer\n"


class TestBootstrap:
    def _make_runs(self, tmp_path):
        cfg = write_cfg(tmp_path, regression_cfg_dict(epochs=4))
        for seed in (1, 2, 3):
            main(["train", "--config", cfg, "--seed", str(seed),
                  "--out", str(tmp_path / f"run{seed}.jsonl")])

    def test_step_aligned_csv(self, tmp_path):
        self._make_runs(tmp_path)
        out = tmp_path / "trend.csv"
        rc = main(["bootstrap", "--inputs", str(tmp_path / "run*.jsonl"),
                   "--n-boot", "10", "--align", "step", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "index,mean,std"
        assert len(lines) == 13  # 12 steps

    def test_time_aligned(self, tmp_path):
        self._make_runs(tmp_path)
        rc = main(["bootstrap", "--inputs", str(tmp_path / "run*.jsonl"),
                   "--n-boot", "5", "--align", "time", "--n-points", "7",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_OK
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 8

    @pytest.mark.parametrize("align", ["step", "time"])
    @pytest.mark.parametrize("n_points", ["0", "-3"])
    def test_n_points_below_one_is_config_error(self, tmp_path, capsys, n_points, align):
        self._make_runs(tmp_path)
        rc = main(["bootstrap", "--inputs", str(tmp_path / "run*.jsonl"),
                   "--align", align, "--n-points", n_points])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: n_points must be at least 1, got {n_points}\n"
        )

    def test_without_out_writes_the_csv_to_stdout(self, tmp_path, capsys):
        self._make_runs(tmp_path)
        capsys.readouterr()
        rc = main(["bootstrap", "--inputs", str(tmp_path / "run*.jsonl"), "--n-boot", "3"])
        assert rc == EXIT_OK
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == "index,mean,std"
        assert [row.split(",")[0] for row in rows] == [str(i) for i in range(12)]

    def test_metric_no_record_holds_is_config_error(self, tmp_path, capsys):
        d = regression_cfg_dict(epochs=2)
        d["dataset"]["split"].update(train_fraction=1.0, val_fraction=0.0, test_fraction=0.0)
        out = tmp_path / "run.jsonl"
        assert main(["train", "--config", write_cfg(tmp_path, d), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        rc = main(["bootstrap", "--inputs", str(out), "--metric", "val_loss"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: no values for metric 'val_loss' in input records\n"
        )

    def test_zero_n_boot_is_config_error(self, tmp_path, capsys):
        self._make_runs(tmp_path)
        rc = main(["bootstrap", "--inputs", str(tmp_path / "run*.jsonl"), "--n-boot", "0"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: n_boot must be >= 1\n"

    def test_no_matches_is_config_error(self, tmp_path):
        assert main(["bootstrap", "--inputs", str(tmp_path / "zzz*.jsonl")]) == EXIT_CONFIG

    GOOD = '{"step": 1, "epoch": 0, "wall_time_s": 0.5, "train_loss": 2.0}'

    @pytest.mark.parametrize(
        "name, text, problem",
        [
            ("no-step.csv", "epoch,wall_time_s,train_loss\n0,0.5,2.0\n", "2: no 'step' value"),
            ("no-loss.jsonl", GOOD + '\n{"step": 2, "epoch": 0, "wall_time_s": 0.6}\n',
             "2: no 'train_loss' value"),
            ("bogus.jsonl", GOOD + '\n' + GOOD[:-1] + ', "guard_event": "BOGUS"}\n',
             "2: bad 'guard_event' value 'BOGUS'"),
            ("list.jsonl", GOOD + "\n[1, 2]\n", "2: expected a record object, got [1, 2]"),
            ("huge-step.jsonl", '{"step": 1e400, "epoch": 0, "wall_time_s": 0.5, '
             '"train_loss": 2.0}\n', "1: bad 'step' value inf"),
        ],
        ids=["csv-no-step", "jsonl-no-train-loss", "bogus-guard-event", "not-an-object",
             "step-overflows"],
    )
    def test_malformed_record_file_is_config_error(self, tmp_path, capsys, name, text, problem):
        path = tmp_path / name
        path.write_text(text)
        assert main(["bootstrap", "--inputs", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {path}:{problem}\n"

    @pytest.mark.parametrize("metric", ["nosuch", "guard_event"])
    def test_non_numeric_metric_is_usage_error(self, metric, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bootstrap", "--inputs", str(tmp_path / "run*.jsonl"), "--metric", metric])
        assert exc.value.code == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err


class TestGradcheckAndDiagFisher:
    def test_gradcheck_all_models(self, capsys):
        for model in ("mlp-regression", "mlp-classification", "rosenbrock"):
            assert main(["gradcheck", "--model", model]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_diag_fisher_reports_alignment(self, tmp_path, capsys):
        d = {
            "model": {"kind": "mlp", "layer_widths": [5, 3], "loss": "softmax_cross_entropy"},
            "dataset": {
                "loader": {"kind": "synthetic", "task": "classification", "n": 120,
                           "d": 5, "seed": 0, "n_classes": 3},
                "batch": {"batch_size": 32},
            },
            "optimizer": {"kind": "adam", "lr": 0.01},
            "epochs": 1,
        }
        cfg = write_cfg(tmp_path, d)
        out = tmp_path / "diag.json"
        assert main(["diag-fisher", "--config", cfg, "--steps", "40", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert -1.0 <= report["cosine_similarity"] <= 1.0
        assert report["steps"] == 40

    def test_diag_fisher_divergence_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, diverging_adam_cfg_dict())
        assert main(["diag-fisher", "--config", cfg, "--steps", "20"]) == EXIT_DIVERGED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("diverged: ")
        assert len(captured.err.splitlines()) == 1

    def test_diag_fisher_requires_adam(self, tmp_path):
        cfg = write_cfg(tmp_path, regression_cfg_dict())
        assert main(["diag-fisher", "--config", cfg]) == EXIT_CONFIG

    def test_diag_fisher_requires_an_mlp(self, tmp_path, capsys):
        d = {"model": {"kind": "rosenbrock"}, "optimizer": {"kind": "adam", "lr": 1e-3},
             "epochs": 2}
        assert main(["diag-fisher", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: fisher alignment diagnostic requires an MLP model\n"
        )

    def test_diag_fisher_zero_steps_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, regression_cfg_dict(optimizer={"kind": "adam", "lr": 0.01}))
        assert main(["diag-fisher", "--config", cfg, "--steps", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: steps must be >= 1\n"

    @pytest.mark.parametrize(
        "widths, message",
        [
            ([5, 16, 3], "model input width 5 != data feature count 4"),
            ([4, 16, 2], "output width 2 < 3 classes"),
        ],
        ids=["input-width", "output-width"],
    )
    def test_diag_fisher_checks_model_fits_data(self, tmp_path, capsys, widths, message):
        d = diverging_adam_cfg_dict()  # 4 features, 3 classes
        d["model"]["layer_widths"] = widths
        d["optimizer"]["lr"] = 0.01
        assert main(["diag-fisher", "--config", write_cfg(tmp_path, d)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestConfigureMalloc:
    def test_sets_mmap_then_trim_threshold(self, monkeypatch):
        calls = []
        lib = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
        configure_malloc()
        # M_MMAP_THRESHOLD (-3) to 32 MiB, then M_TRIM_THRESHOLD (-1) to 256 MiB.
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    @pytest.mark.parametrize("libc", ["no-mallopt", "no-library"])
    def test_missing_mallopt_is_a_no_op(self, monkeypatch, capsys, libc):
        def cdll(name):
            if libc == "no-library":
                raise OSError("no C library")
            return SimpleNamespace()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main(["gradcheck"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("OK\n")

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no mallopt")
    def test_thresholds_accepted_by_the_c_library(self, monkeypatch):
        real = ctypes.CDLL(None).mallopt
        results = []
        lib = SimpleNamespace(mallopt=lambda param, value: results.append(real(param, value)))
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lib)
        configure_malloc()
        assert results == [1, 1]  # mallopt returns 0 for a value it rejects


class TestMatmulWorker:
    """The thread that runs half of each split product (`tape.HalfWorker`)."""

    @staticmethod
    def _workers():
        return {t for t in threading.enumerate() if t.name.startswith("adamqlr-matmul")}

    @pytest.mark.parametrize("halves, added", [(True, 1), (False, 0)], indirect=["halves"])
    def test_train_leaves_at_most_one_idle_worker(self, halves, added, tmp_path):
        before = self._workers()
        assert main(["train", "--config", write_cfg(tmp_path, wide_cfg_dict())]) == EXIT_OK
        assert len(self._workers() - before) == added

    def test_pinned_subprocess_train_exits_promptly(self, tmp_path):
        script = (
            "import sys, threading, time\n"
            "from adamqlr.bench.cli import main\n"
            "rc = main(['train', '--config', sys.argv[1]])\n"
            "print(sorted(t.name for t in threading.enumerate()))\n"
            "print(time.monotonic())\n"
            "sys.exit(rc)\n"
        )
        src = str(Path(cli.__file__).parents[2])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", script, write_cfg(tmp_path, wide_cfg_dict())],
            env=env, capture_output=True, text=True, timeout=120,
        )
        exited = time.monotonic()
        assert proc.returncode == EXIT_OK, proc.stderr
        *_, names, returned = proc.stdout.splitlines()
        if tape._n_cpus() >= 2:
            assert "adamqlr-matmul_0" in names
        # Interpreter exit joins the idle worker at once.
        assert exited - float(returned) < 10.0
