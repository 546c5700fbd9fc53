"""Command-line interface contracts: subcommands and exit codes."""

import json

import numpy as np
import pytest

from adamqlr import data
from adamqlr.bench.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main
from adamqlr.bench.records import read_records
from adamqlr.data import Batch


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


@pytest.mark.parametrize("command", ["train", "diag-fisher", "rosenbrock"])
def test_divergence_prints_no_numpy_warnings(command, tmp_path, recwarn):
    if command == "rosenbrock":
        argv = ["rosenbrock", "--optimizer", "gd", "--lr", "10"]
    else:
        argv = [command, "--config", write_cfg(tmp_path, diverging_adam_cfg_dict())]
    assert main(argv) == EXIT_DIVERGED
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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
        assert main(["train", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "status=" not in captured.out
        assert captured.err.startswith("config error: after 3 steps, in epoch 1:")

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

    @pytest.mark.parametrize("key, text", [("model", "null"), ("epochs", "1e400")])
    def test_malformed_value_exit_code(self, tmp_path, capsys, key, text):
        path = tmp_path / "cfg.json"
        text = json.dumps(regression_cfg_dict(**{key: "PLACEHOLDER"})).replace('"PLACEHOLDER"', text)
        path.write_text(text)
        assert main(["train", "--config", str(path)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == EXIT_IO


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

    def test_bad_start_is_config_error(self):
        assert main(["rosenbrock", "--optimizer", "gd", "--start", "oops"]) == EXIT_CONFIG

    def test_lr_override(self, capsys):
        assert main(["rosenbrock", "--optimizer", "gd", "--steps", "5", "--lr", "1e-5"]) == EXIT_OK


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

    def test_no_matches_is_config_error(self, tmp_path):
        assert main(["bootstrap", "--inputs", str(tmp_path / "zzz*.jsonl")]) == EXIT_CONFIG


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
