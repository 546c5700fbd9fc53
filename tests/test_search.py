"""Random-search tuner: distributions, determinism, and oracle agreement."""

import numpy as np
import pytest

from adamqlr.bench import config as config_mod
from adamqlr.bench import search
from adamqlr.bench.search import (
    BATCH_SIZE_CHOICES,
    Choice,
    LogUniform,
    OneMinusLogUniform,
    SearchObjective,
    apply_sample,
    sample_space,
    search_space_for,
    search_trials,
)
from adamqlr.bench.training import run_training
from adamqlr.data import keyed_rng


def toy_cfg(optimizer=None, epochs=6):
    return config_mod.from_dict(
        {
            "model": {"kind": "mlp", "layer_widths": [2, 1], "loss": "mse"},
            "dataset": {
                "loader": {"kind": "synthetic", "task": "regression", "n": 40, "d": 2,
                           "seed": 3, "noise": 0.05},
                "split": {"train_fraction": 0.6, "val_fraction": 0.2, "test_fraction": 0.2, "seed": 0},
                "batch": {"batch_size": 8, "shuffle_seed": 0},
            },
            "optimizer": optimizer or {"kind": "sgd_minimal", "lr": 0.01},
            "epochs": epochs,
            "seed": 0,
        }
    )


class TestSpaces:
    def test_table_ranges(self):
        qlr = search_space_for(toy_cfg({"kind": "qlr"}))
        assert qlr["alpha_max"] == LogUniform(1e-4, 10.0)
        assert qlr["lambda0"] == LogUniform(1e-8, 1.0)
        assert qlr["omega_dec"] == LogUniform(0.5, 1.0)
        assert qlr["omega_inc"] == LogUniform(1.0, 4.0)
        assert qlr["batch_size"] == Choice(BATCH_SIZE_CHOICES)
        full = search_space_for(toy_cfg({"kind": "sgd_full", "lr": 0.01}))
        assert full["lr"] == LogUniform(1e-6, 1e-1)
        assert full["momentum"] == OneMinusLogUniform(1e-4, 0.3)
        assert full["weight_decay"] == LogUniform(1e-10, 1.0)
        adam = search_space_for(toy_cfg({"kind": "adam", "lr": 0.01}))
        assert adam == {"lr": LogUniform(1e-6, 1.0), "batch_size": Choice(BATCH_SIZE_CHOICES)}

    def test_batch_size_only_with_a_dataset(self):
        rosenbrock = config_mod.from_dict(
            {"model": {"kind": "rosenbrock"}, "optimizer": {"kind": "qlr", "curvature": "hessian"},
             "epochs": 3}
        )
        assert "batch_size" not in search_space_for(rosenbrock)
        assert search_space_for(rosenbrock).keys() == search_space_for(
            toy_cfg({"kind": "qlr"})
        ).keys() - {"batch_size"}

    def test_samples_respect_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = sample_space(search_space_for(toy_cfg({"kind": "sgd_full", "lr": 0.01})), rng)
            assert 1e-6 <= s["lr"] <= 1e-1
            assert 0.7 <= s["momentum"] <= 1.0 - 1e-4
            assert 1e-10 <= s["weight_decay"] <= 1.0
            assert s["batch_size"] in BATCH_SIZE_CHOICES

    def test_apply_sample_updates_optimizer_and_batch(self):
        cfg = toy_cfg({"kind": "qlr"})
        out = apply_sample(cfg, {"lambda0": 1e-5, "batch_size": 400})
        assert out.optimizer.lambda0 == 1e-5
        assert out.dataset.batch.batch_size == 400
        # base config untouched
        assert cfg.optimizer.lambda0 == 1e-3


def run_search(*args, **kwargs):
    """The best trial and every trial, drawn from `search_trials` as `tune` draws them."""
    best, trials = None, []
    for trial, best in search_trials(*args, **kwargs):
        trials.append(trial)
    return best, trials


class TestRandomSearch:
    def test_budget_one_returns_that_trial(self):
        best, trials = run_search(
            search_space_for(toy_cfg()), 1, SearchObjective.FINAL_VAL_LOSS,
            toy_cfg(), seed=0,
        )
        assert len(trials) == 1
        assert best is trials[0]

    def test_collapsed_space_yields_identical_configs(self):
        space = {"lr": Choice((0.05,))}
        _, trials = run_search(space, 5, SearchObjective.FINAL_VAL_LOSS, toy_cfg(), seed=1)
        lrs = {t.config["optimizer"]["lr"] for t in trials}
        assert lrs == {0.05}

    def test_deterministic_in_seed(self):
        space = search_space_for(toy_cfg())
        b1, t1 = run_search(space, 4, SearchObjective.FINAL_VAL_LOSS, toy_cfg(), seed=7)
        b2, t2 = run_search(space, 4, SearchObjective.FINAL_VAL_LOSS, toy_cfg(), seed=7)
        assert [t.config for t in t1] == [t.config for t in t2]
        assert b1.score == b2.score

    def test_trial_streams_independent_of_order(self):
        space = search_space_for(toy_cfg({"kind": "adam", "lr": 0.01}))
        direct = [sample_space(space, keyed_rng(3, i)) for i in range(5)]
        reverse = [sample_space(space, keyed_rng(3, i)) for i in reversed(range(5))]
        assert direct == list(reversed(reverse))

    def test_lr_only_convex_toy_matches_grid_oracle(self):
        # dense grid oracle over the same landscape; best sampled lr must land
        # within one octave of the grid optimum
        base = toy_cfg(epochs=10)
        space = {"lr": LogUniform(1e-4, 1.0)}

        def final_loss(lr):
            cfg = apply_sample(base, {"lr": lr})
            result = run_training(cfg)
            return result.last.train_loss if result.last else np.inf

        grid = np.logspace(-4, 0, 60)
        grid_losses = [final_loss(lr) for lr in grid]
        grid_best = grid[int(np.argmin(grid_losses))]

        best, _ = run_search(space, 50, SearchObjective.FINAL_TRAIN_LOSS, base, seed=11)
        best_lr = best.config["optimizer"]["lr"]
        assert 0.5 * grid_best <= best_lr <= 2.0 * grid_best

    @pytest.mark.parametrize("halving", [False, True])
    def test_first_trial_draws_only_its_own_sample(self, monkeypatch, halving):
        draws = []

        def counted(space, rng):
            draws.append(space)
            return sample_space(space, rng)

        monkeypatch.setattr(search, "sample_space", counted)
        trials = search_trials(
            search_space_for(toy_cfg()), 1000, SearchObjective.FINAL_VAL_LOSS,
            toy_cfg(epochs=1), seed=0, halving=halving,
        )
        trial, best = next(trials)
        assert len(draws) == 1
        assert best is trial

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_trials_rank_last(self):
        space = {"lr": Choice((1e9, 1e-2))}
        best, trials = run_search(
            space, 6, SearchObjective.FINAL_TRAIN_LOSS, toy_cfg(), seed=2
        )
        assert best.config["optimizer"]["lr"] == 1e-2
        assert any(t.score == np.inf for t in trials)

    def test_successive_halving_promotes_top_third(self):
        space = search_space_for(toy_cfg())
        best, trials = run_search(
            space, 9, SearchObjective.FINAL_VAL_LOSS, toy_cfg(epochs=8), seed=5,
            halving=True,
        )
        rungs = sorted({t.rung_epochs for t in trials})
        assert rungs == [2, 4, 8]
        assert sum(1 for t in trials if t.rung_epochs == 2) == 9
        assert sum(1 for t in trials if t.rung_epochs == 4) == 3
        assert sum(1 for t in trials if t.rung_epochs == 8) == 1
        assert best.rung_epochs == 8

    @pytest.mark.parametrize(
        "epochs, rungs", [(2, [1, 2]), (1, [1])], ids=["2-epochs", "1-epoch"]
    )
    def test_halving_runs_each_budget_once(self, epochs, rungs):
        # Below 4 epochs the quarter and half rungs coincide; a repeated
        # budget would re-run promoted trials with the same seeds.
        _, trials = run_search(
            search_space_for(toy_cfg()), 3, SearchObjective.FINAL_VAL_LOSS,
            toy_cfg(epochs=epochs), seed=5, halving=True,
        )
        assert list(dict.fromkeys(t.rung_epochs for t in trials)) == rungs
        assert [t.rung_epochs for t in trials].count(rungs[0]) == 3
        run = [(t.rung_epochs, t.config["optimizer"]["lr"]) for t in trials]
        assert len(run) == len(set(run))
