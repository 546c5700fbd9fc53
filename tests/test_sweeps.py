"""Sensitivity sweep grids."""

import numpy as np
import pytest

from adamqlr.bench import config as config_mod
from adamqlr.bench.config import ConfigError
from adamqlr.bench.sweeps import apply_sweep_value, enumerate_sweep, standard_sweeps


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
    sweeps = standard_sweeps()
    np.testing.assert_allclose(sweeps["rescale_k"].values, 2.0 ** np.arange(-1.0, 1.01, 0.2))
    assert len(sweeps["rescale_k"].values) == 11
    np.testing.assert_allclose(sweeps["alpha_max"].values, 10.0 ** np.arange(-4.0, 0.01, 0.5))
    assert len(sweeps["alpha_max"].values) == 9
    np.testing.assert_allclose(sweeps["lambda0"].values, 10.0 ** np.arange(-8.0, 0.01, 0.5))
    assert len(sweeps["lambda0"].values) == 17
    assert sweeps["batch_size"].values == (50, 100, 200, 400, 800, 1600, 3200)
    np.testing.assert_allclose(sweeps["omega_sym"].values, 2.0 ** np.arange(0.0, 2.01, 0.2))


def test_enumerate_reuses_base_config():
    base = qlr_cfg()
    cfgs = enumerate_sweep(base, standard_sweeps()["lambda0"])
    assert len(cfgs) == 17
    for cfg, value in zip(cfgs, standard_sweeps()["lambda0"].values):
        assert cfg.optimizer.lambda0 == pytest.approx(value)
        assert cfg.epochs == base.epochs


def test_omega_pair_set_symmetrically():
    cfg = apply_sweep_value(qlr_cfg(), "omega_sym", 2.0 ** 0.4)
    assert cfg.optimizer.omega_inc == pytest.approx(2.0 ** 0.4)
    assert cfg.optimizer.omega_dec == pytest.approx(2.0 ** -0.4)


def test_batch_size_sweep_touches_dataset():
    cfg = apply_sweep_value(qlr_cfg(), "batch_size", 800)
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
        apply_sweep_value(base, "rescale_k", 1.5)
