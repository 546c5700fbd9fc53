"""Strict JSON config parsing."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamqlr import (
    AdamHyper,
    BatchPlan,
    CurvatureKind,
    Direction,
    LossKind,
    SplitSpec,
    Task,
)
from adamqlr.bench import config as config_mod
from adamqlr.bench.config import (
    AdamOpt,
    ConfigError,
    CsvLoader,
    DatasetConfig,
    IdxLoader,
    QlrOpt,
    RunConfig,
    SgdFullOpt,
    SgdMinimalOpt,
    SyntheticLoader,
)
from adamqlr.models import Activation, MlpSpec, RosenbrockSpec


def minimal_dict():
    return {
        "model": {"kind": "mlp", "layer_widths": [4, 8, 2], "loss": "softmax_cross_entropy"},
        "dataset": {
            "loader": {"kind": "synthetic", "task": "classification", "n": 100, "d": 4},
        },
        "optimizer": {"kind": "qlr"},
        "epochs": 3,
    }


def test_parse_minimal_qlr():
    cfg = config_mod.from_dict(minimal_dict())
    assert isinstance(cfg.model, MlpSpec)
    assert isinstance(cfg.optimizer, QlrOpt)
    assert cfg.optimizer.curvature is CurvatureKind.GGN_FISHER
    assert cfg.optimizer.direction is Direction.ADAM
    assert cfg.optimizer.lambda0 == 1e-3
    assert cfg.dataset.batch.batch_size == 3200


def test_unknown_top_level_key_rejected():
    d = minimal_dict()
    d["optmizer_typo"] = {}
    with pytest.raises(ConfigError, match="unknown keys"):
        config_mod.from_dict(d)


def test_unknown_nested_key_rejected():
    d = minimal_dict()
    d["optimizer"]["learning_rate"] = 0.1
    with pytest.raises(ConfigError, match="unknown keys"):
        config_mod.from_dict(d)

    d = minimal_dict()
    d["dataset"]["split"] = {"train_frac": 0.8}
    with pytest.raises(ConfigError, match="unknown keys"):
        config_mod.from_dict(d)


def test_bad_enum_value():
    d = minimal_dict()
    d["model"]["loss"] = "huber"
    with pytest.raises(ConfigError, match="huber"):
        config_mod.from_dict(d)


def test_mlp_requires_dataset():
    d = minimal_dict()
    del d["dataset"]
    with pytest.raises(ConfigError, match="dataset"):
        config_mod.from_dict(d)


def test_rosenbrock_without_dataset():
    cfg = config_mod.from_dict(
        {"model": {"kind": "rosenbrock"}, "optimizer": {"kind": "sgd_minimal", "lr": 1e-3}, "epochs": 10}
    )
    assert isinstance(cfg.model, RosenbrockSpec)
    assert cfg.dataset is None


def test_rosenbrock_with_dataset_is_config_error():
    d = minimal_dict()
    d["model"] = {"kind": "rosenbrock"}
    with pytest.raises(ConfigError, match="rosenbrock model takes no dataset block"):
        config_mod.from_dict(d)


def test_sgd_full_fields():
    d = minimal_dict()
    d["optimizer"] = {"kind": "sgd_full", "lr": 0.05, "momentum": 0.9, "weight_decay": 1e-4}
    opt = config_mod.from_dict(d).optimizer
    assert isinstance(opt, SgdFullOpt)
    assert (opt.lr, opt.momentum, opt.weight_decay) == (0.05, 0.9, 1e-4)


def test_invalid_hyper_becomes_config_error():
    d = minimal_dict()
    d["optimizer"] = {"kind": "adam", "lr": 0.1, "hyper": {"beta1": 1.5}}
    with pytest.raises(ConfigError):
        config_mod.from_dict(d)


@pytest.mark.parametrize(
    "optimizer, message",
    [
        ({"kind": "sgd_minimal", "lr": -0.01}, "optimizer: lr must be finite and positive"),
        ({"kind": "sgd_minimal", "lr": 0.0}, "optimizer: lr must be finite and positive"),
        ({"kind": "adam", "lr": float("nan")}, "optimizer: lr must be finite and positive"),
        ({"kind": "sgd_full", "lr": float("inf")}, "optimizer: lr must be finite and positive"),
        ({"kind": "sgd_full", "lr": 0.1, "momentum": float("nan")},
         "optimizer: momentum must be finite"),
        ({"kind": "sgd_full", "lr": 0.1, "weight_decay": float("-inf")},
         "optimizer: weight_decay must be finite"),
        ({"kind": "adam", "lr": 0.1, "hyper": {"epsilon": float("nan")}},
         "optimizer.hyper: epsilon must be finite and non-negative"),
        ({"kind": "qlr", "lambda0": float("nan")}, "optimizer: lambda0 must be finite and positive"),
    ],
)
def test_step_size_knobs_must_be_finite(optimizer, message):
    d = minimal_dict()
    d["optimizer"] = optimizer
    with pytest.raises(ConfigError, match=f"^{message}"):
        config_mod.from_dict(d)


@pytest.mark.parametrize("noise", [float("nan"), -0.1, float("inf")])
def test_synthetic_noise_must_be_finite_and_non_negative(noise):
    d = minimal_dict()
    d["dataset"]["loader"]["noise"] = noise
    with pytest.raises(ConfigError, match="^dataset.loader: noise must be finite and non-negative"):
        config_mod.from_dict(d)


def test_round_trip_through_to_dict():
    d = minimal_dict()
    d["optimizer"] = {
        "kind": "qlr", "curvature": "hessian", "lambda0": 1e-4, "omega_dec": 0.7,
        "omega_inc": 1.8, "alpha_max": 0.5, "rescale_k": 2.0, "damped": False,
        "direction": "sgd",
    }
    d["dataset"]["standardize"] = False
    cfg = config_mod.from_dict(d)
    again = config_mod.from_dict(config_mod.to_dict(cfg))
    assert again == cfg


def test_from_json_and_invalid_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(minimal_dict()))
    assert config_mod.from_json(path).epochs == 3
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        config_mod.from_json(path)


def test_loss_kind_values_cover_spec_names():
    assert LossKind.MSE.value == "mse"
    assert LossKind.SOFTMAX_CROSS_ENTROPY.value == "softmax_cross_entropy"


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("optimizer", "damped", "false"),
        ("dataset", "standardize", "false"),
    ],
)
def test_bool_fields_take_only_json_booleans(block, key, value):
    d = minimal_dict()
    d[block][key] = value
    with pytest.raises(ConfigError, match=f"{key}: expected true or false"):
        config_mod.from_dict(d)


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("epochs", True, "an integer"),
        ("seed", "3", "an integer"),
        ("max_runtime_s", "inf", "a number"),
    ],
)
def test_numbers_take_only_json_numbers(key, value, expected):
    d = minimal_dict()
    d[key] = value
    with pytest.raises(ConfigError, match=f"{key}: expected {expected}"):
        config_mod.from_dict(d)


def test_batch_block_without_batch_size_defaults_to_3200():
    d = minimal_dict()
    d["dataset"]["batch"] = {"shuffle_seed": 4}
    assert config_mod.from_dict(d).dataset.batch.batch_size == 3200


def test_readme_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    cfg = config_mod.from_dict(json.loads(example))
    assert isinstance(cfg.optimizer, QlrOpt)
    assert cfg.dataset.batch.batch_size == 3200


floats = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6)
non_negative = st.floats(0.0, 1e6)
counts = st.integers(1, 5000)
seeds = st.integers(0, 2**63 - 1)
unit = st.floats(0.0, 0.999)

loaders = st.one_of(
    st.builds(CsvLoader, st.text(), counts, counts),
    st.builds(IdxLoader, st.text(), st.text()),
    st.builds(
        SyntheticLoader,
        st.sampled_from(Task), counts, counts, seeds, counts, non_negative, counts, floats,
    ),
)
datasets = st.builds(
    DatasetConfig,
    loaders,
    st.builds(lambda fractions, seed: SplitSpec(*fractions, seed),
              st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (1.0, 0.0, 0.0)]), seeds),
    st.builds(BatchPlan, counts, seeds),
    st.booleans(),
)
hypers = st.builds(AdamHyper, unit, unit, st.floats(0.0, 1.0))
optimizers = st.one_of(
    st.builds(SgdMinimalOpt, positive),
    st.builds(SgdFullOpt, positive, unit, unit),
    st.builds(AdamOpt, positive, hypers),
    st.builds(
        QlrOpt,
        st.sampled_from(CurvatureKind),
        positive,
        st.floats(1e-3, 1.0),
        st.floats(1.0, 10.0),
        positive,
        positive,
        st.booleans(),
        st.sampled_from(Direction),
        hypers,
    ),
)
mlps = st.builds(
    MlpSpec,
    st.lists(counts, min_size=2, max_size=4).map(tuple),
    st.sampled_from(LossKind),
    st.none() | st.sampled_from(Activation),
)
run_configs = st.one_of(
    st.tuples(mlps, datasets),
    st.tuples(st.builds(RosenbrockSpec, floats, positive), st.none()),
).flatmap(
    lambda model_data: st.builds(
        RunConfig,
        st.just(model_data[0]),
        optimizers,
        counts,
        st.just(model_data[1]),
        positive | st.just(float("inf")),
        seeds,
        st.none() | st.text(),
        counts,
    )
)


@settings(max_examples=100)
@given(run_configs)
def test_round_trip_property(cfg):
    d = config_mod.to_dict(cfg)
    assert config_mod.from_dict(d) == cfg
    assert config_mod.from_dict(json.loads(json.dumps(d))) == cfg


def _nodes(value, path=()):
    """Path of every value below the root of a JSON document."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


REPLACEMENTS = [None, "x", 1.5, -1, [], {}, {"kind": "zzz"}, json.loads("1e400")]


@settings(max_examples=200, report_multiple_bugs=False)
@given(run_configs, st.integers(0, 2**16), st.sampled_from(["delete", "typo", *REPLACEMENTS]))
def test_single_leaf_mutation_parses_or_raises_config_error(cfg, pick, action):
    d = config_mod.to_dict(cfg)
    nodes = list(_nodes(d))
    *parents, key = nodes[pick % len(nodes)]
    parent = d
    for p in parents:
        parent = parent[p]
    if action == "delete":
        del parent[key]
    elif action == "typo" and isinstance(parent, dict):
        parent[f"{key}_typo"] = parent[key]
    elif action != "typo":
        parent[key] = action
    try:
        config_mod.from_dict(d)
    except ConfigError:
        pass
