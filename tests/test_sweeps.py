"""Sensitivity sweep grids."""

import numpy as np
import pytest

from adamqlr.bench import config as config_mod
from adamqlr.bench.config import ConfigError
from adamqlr.bench.sweeps import SWEEP_GRIDS, sweep_configs


def qlr_cfg():
    return config_mod.from_dict(
        {
            "model": {"kind": "mlp", "layer_widths": [3, 1], "loss": "mse"},
            "dataset": {"loader": {"kind": "synthetic", "task": "regression", "n": 30, "d": 3}},
            "optimizer": {"kind": "qlr"},
            "epochs": 2,
        }
    )


def test_grid_contents():
    np.testing.assert_allclose(SWEEP_GRIDS["rescale_k"], 2.0 ** np.arange(-1.0, 1.01, 0.2))
    assert len(SWEEP_GRIDS["rescale_k"]) == 11
    np.testing.assert_allclose(SWEEP_GRIDS["alpha_max"], 10.0 ** np.arange(-4.0, 0.01, 0.5))
    assert len(SWEEP_GRIDS["alpha_max"]) == 9
    np.testing.assert_allclose(SWEEP_GRIDS["lambda0"], 10.0 ** np.arange(-8.0, 0.01, 0.5))
    assert len(SWEEP_GRIDS["lambda0"]) == 17
    assert SWEEP_GRIDS["batch_size"] == (50, 100, 200, 400, 800, 1600, 3200)
    np.testing.assert_allclose(SWEEP_GRIDS["omega_sym"], 2.0 ** np.arange(0.0, 2.01, 0.2))


def test_enumerate_reuses_base_config():
    base = qlr_cfg()
    cfgs = sweep_configs(base, "lambda0")
    assert len(cfgs) == 17
    for cfg, value in zip(cfgs, SWEEP_GRIDS["lambda0"]):
        assert cfg.optimizer.lambda0 == pytest.approx(value)
        assert cfg.epochs == base.epochs


def test_omega_pair_set_symmetrically():
    cfg = sweep_configs(qlr_cfg(), "omega_sym")[2]  # the grid's third value, 2 ** 0.4
    assert cfg.optimizer.omega_inc == pytest.approx(2.0 ** 0.4)
    assert cfg.optimizer.omega_dec == pytest.approx(2.0 ** -0.4)


def test_batch_size_sweep_touches_dataset():
    cfg = sweep_configs(qlr_cfg(), "batch_size")[4]  # the grid's fifth value, 800
    assert cfg.dataset.batch.batch_size == 800


def test_non_qlr_optimizer_rejected():
    base = config_mod.from_dict(
        {
            "model": {"kind": "rosenbrock"},
            "optimizer": {"kind": "sgd_minimal", "lr": 0.01},
            "epochs": 2,
        }
    )
    with pytest.raises(ConfigError):
        sweep_configs(base, "rescale_k")
