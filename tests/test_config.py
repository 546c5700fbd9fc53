"""Strict JSON config parsing."""

import copy
import dataclasses
import functools
import json
import math
import operator
import re
import typing
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
    QLRConfig,
    SplitSpec,
    Task,
)
from adamqlr.bench import cli
from adamqlr.bench import config as config_mod
from adamqlr.bench.config import (
    AdamOpt,
    ConfigError,
    CsvLoader,
    DatasetConfig,
    IdxLoader,
    RunConfig,
    SgdFullOpt,
    SgdMinimalOpt,
    SyntheticLoader,
)
from adamqlr.bench.records import read_records
from adamqlr.bench.search import search_space_for
from adamqlr.bench.training import check_model_fits, make_stepper
from adamqlr.data import synthesize
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
    assert isinstance(cfg.optimizer, QLRConfig)
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


@pytest.mark.parametrize(
    "cls", typing.get_args(config_mod.OptimizerConfig), ids=lambda cls: cls.__name__
)
def test_each_optimizer_block_decodes_steps_and_tunes(cls):
    # The optimizer's config class is its one identity: the codec's tag,
    # the stepper and the search space are all looked up by it.
    d = minimal_dict()
    d["optimizer"] = {"kind": config_mod._KINDS[cls]}
    if "lr" in {f.name for f in dataclasses.fields(cls)}:
        d["optimizer"]["lr"] = 0.01
    cfg = config_mod.from_dict(d)
    assert type(cfg.optimizer) is cls and not hasattr(cls, "kind")
    assert config_mod.to_dict(cfg)["optimizer"]["kind"] == d["optimizer"]["kind"]
    assert callable(make_stepper(cfg.optimizer, 10).step)
    space = search_space_for(cfg)
    assert "batch_size" in space
    assert space.keys() - {"batch_size"} <= {f.name for f in dataclasses.fields(cls)}


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
    d["model"]["loss"] = "mse"
    d["dataset"]["loader"].update(task="regression", noise=noise)
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
    assert isinstance(cfg.optimizer, QLRConfig)
    assert cfg.dataset.batch.batch_size == 3200


floats = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6)
non_negative = st.floats(0.0, 1e6)
counts = st.integers(1, 5000)
seeds = st.integers(0, 2**32 - 1)
unit = st.floats(0.0, 0.999)

# A synthetic loader takes the other task's knobs at their defaults only.
loaders = st.one_of(
    st.builds(CsvLoader, st.text(), counts, counts),
    st.builds(IdxLoader, st.text(), st.text()),
    st.builds(SyntheticLoader, st.just(Task.REGRESSION), counts, counts, seeds,
              n_targets=counts, noise=non_negative),
    st.builds(SyntheticLoader, st.just(Task.CLASSIFICATION), counts, counts, seeds,
              n_classes=counts, separation=floats),
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
        QLRConfig,
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
LOSSES = {Task.REGRESSION: LossKind.MSE, Task.CLASSIFICATION: LossKind.SOFTMAX_CROSS_ENTROPY}


def mlps(loader):
    """MLPs whose loss fits `loader`'s task and whose widths fit its data, if it is synthetic."""
    widths = st.lists(counts, min_size=2, max_size=4)
    if isinstance(loader, SyntheticLoader):
        if loader.task is Task.REGRESSION:
            n_outputs = st.just(loader.n_targets)
        else:
            n_outputs = st.integers(min(loader.n, loader.n_classes), 5000)
        widths = st.builds(lambda hidden, last: [loader.d, *hidden, last],
                           st.lists(counts, max_size=2), n_outputs)
    return st.builds(
        MlpSpec,
        widths.map(tuple),
        st.just(LOSSES[loader.task]),
        st.none() | st.sampled_from(Activation),
    )


# An MLP fits its loader, and Rosenbrock's curvature is the Hessian.
run_configs = st.one_of(
    datasets.flatmap(lambda ds: st.tuples(mlps(ds.loader), st.just(ds), optimizers)),
    st.tuples(
        st.builds(RosenbrockSpec, floats, positive),
        st.none(),
        optimizers.filter(
            lambda opt: not isinstance(opt, QLRConfig) or opt.curvature is CurvatureKind.HESSIAN
        ),
    ),
).flatmap(
    lambda model_data_opt: st.builds(
        RunConfig,
        st.just(model_data_opt[0]),
        st.just(model_data_opt[2]),
        counts,
        st.just(model_data_opt[1]),
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


def _parent(d, path):
    """The object or list of the document `d` that holds the value at `path`."""
    return functools.reduce(operator.getitem, path[:-1], d)


REPLACEMENTS = [None, "x", 1.5, -1, [], {}, {"kind": "zzz"}, json.loads("1e400")]


@settings(max_examples=200, report_multiple_bugs=False)
@given(run_configs, st.integers(0, 2**16), st.sampled_from(["delete", "typo", *REPLACEMENTS]))
def test_single_leaf_mutation_parses_or_raises_config_error(cfg, pick, action):
    d = config_mod.to_dict(cfg)
    nodes = list(_nodes(d))
    path = nodes[pick % len(nodes)]
    parent, key = _parent(d, path), path[-1]
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


@settings(max_examples=100)
@given(st.sampled_from(Task), st.integers(1, 12), st.integers(1, 3), st.integers(1, 6),
       st.integers(1, 3), st.integers(1, 6))
def test_synthetic_sizes_are_refused_as_read_exactly_when_the_drawn_data_refuse_them(
    task, n, d, n_outputs, first, last
):
    outputs = {"n_targets" if task is Task.REGRESSION else "n_classes": n_outputs}
    loader = SyntheticLoader(task, n, d, **outputs)
    model = MlpSpec((first, 4, last), LOSSES[task])
    try:
        config_mod.from_dict({
            "model": config_mod.to_dict(model),
            "dataset": {"loader": config_mod.to_dict(loader)},
            "optimizer": {"kind": "adam", "lr": 0.1},
            "epochs": 1,
        })
    except ConfigError as e:
        refused_as_read = str(e)
    else:
        refused_as_read = None
    try:
        check_model_fits(model, synthesize(loader))
    except ConfigError as e:
        refused_drawn = f"config: {e}"
    else:
        refused_drawn = None
    assert refused_as_read == refused_drawn


# Small runs, one per model kind and optimizer kind, with every knob written out.
HYPER = {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8}
QLR = {"kind": "qlr", "lambda0": 1e-3, "omega_dec": 0.5, "omega_inc": 2.0, "alpha_max": 0.1,
       "rescale_k": 1.0, "hyper": HYPER}
RUN = {"epochs": 2, "max_runtime_s": 0.05, "seed": 0, "eval_every_epochs": 1}


def _dataset(loader):
    return {
        "loader": loader,
        "split": {"train_fraction": 0.7, "val_fraction": 0.15, "test_fraction": 0.15, "seed": 0},
        "batch": {"batch_size": 16, "shuffle_seed": 0},
    }


SCAN_CONFIGS = {
    "regression-qlr": {
        "model": {"kind": "mlp", "layer_widths": [3, 4, 1], "loss": "mse"},
        "dataset": _dataset({"kind": "synthetic", "task": "regression", "n": 40, "d": 3,
                             "seed": 1, "n_targets": 1, "noise": 0.1}),
        "optimizer": QLR,
        **RUN,
    },
    "classification-adam": {
        "model": {"kind": "mlp", "layer_widths": [4, 6, 3], "loss": "softmax_cross_entropy"},
        "dataset": _dataset({"kind": "synthetic", "task": "classification", "n": 60, "d": 4,
                             "seed": 1, "n_classes": 3, "separation": 6.0}),
        "optimizer": {"kind": "adam", "lr": 0.01, "hyper": HYPER},
        **RUN,
    },
    "csv-sgd_full": {
        "model": {"kind": "mlp", "layer_widths": [3, 5, 1], "loss": "mse"},
        "dataset": _dataset({"kind": "csv", "path": "table.csv", "n_features": 3,
                             "target_columns": 1}),
        "optimizer": {"kind": "sgd_full", "lr": 0.01, "momentum": 0.9, "weight_decay": 1e-4},
        **RUN,
    },
    "rosenbrock-qlr-hessian": {
        "model": {"kind": "rosenbrock", "a": 1.0, "b": 100.0},
        "optimizer": {**QLR, "curvature": "hessian"},
        **RUN,
    },
}
SCAN_VALUES = [math.nan, math.inf, -math.inf, 0, -1, 1e308, -1e308, 1e-320, 10**30, 2**63]


@pytest.mark.parametrize("name", SCAN_CONFIGS)
def test_every_numeric_leaf_runs_or_is_a_config_error_naming_its_block(name, tmp_path, capsys):
    """Each numeric leaf set in turn to each of `SCAN_VALUES`, then `train` run
    in-process: it raises nothing, exit 2 names the leaf's block (or, for a
    file loader's count, the file, and for a width a synthetic loader shares
    with the model, the run's width rule), exit 1 comes only from a finite
    value, and exit 0 leaves finite train losses. `max_runtime_s` keeps each
    run short."""
    csv_path = tmp_path / "table.csv"
    rows = [f"{i % 7 / 4},{i % 5 / 2},{i % 3 - 1},{i % 4 / 8}" for i in range(40)]
    csv_path.write_text("a,b,c,y\n" + "\n".join(rows) + "\n")
    base = json.loads(json.dumps(SCAN_CONFIGS[name]).replace("table.csv", str(csv_path)))
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "run.jsonl"
    for path in _nodes(base):
        leaf = _parent(base, path)[path[-1]]
        if isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            continue
        # The block's dotted path; a top-level key's type error names the key,
        # a file loader's count that misreads its file names the file, and a
        # model or loader size is also checked against the other's.
        keys = [k for k in path if isinstance(k, str)]
        named = [f"config error: {'.'.join(keys[:-1]) or 'config'}"]
        if len(keys) == 1:
            named.append(f"config error: {keys[0]}:")
        if keys[:2] == ["dataset", "loader"]:
            named.append(f"config error: {csv_path}")
        if keys[0] == "model" or keys[:2] == ["dataset", "loader"]:
            named.append("config error: config: model ")
        for value in SCAN_VALUES:
            d = copy.deepcopy(base)
            _parent(d, path)[path[-1]] = value
            cfg_path.write_text(json.dumps(d))
            out.unlink(missing_ok=True)
            code = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
            err = capsys.readouterr().err
            where = f"{'.'.join(map(str, path))} = {value!r}: exit {code}, {err!r}"
            if code == 2:
                assert err.startswith(tuple(named)), where
            elif code == 1:
                assert math.isfinite(value), where
            else:
                assert code == 0, where
                assert all(math.isfinite(r.train_loss) for r in read_records(out)), where
