"""Run configuration: dataclasses mirrored one-to-one by the JSON config file.

One codec reads the dataclasses' own fields, type hints and defaults, so
each key's name, type and default is written once, on its dataclass.
Tagged unions carry a "kind" key; enums are written by value, tuples as
lists, and None fields are omitted. Parsing is strict: unknown keys are
rejected at every level so a typo in a config cannot silently fall back
to a default, and any malformed value raises ConfigError naming its
dotted path.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import typing
from dataclasses import dataclass
from typing import Optional, Union

from ..data import BatchPlan, SplitSpec, Task, check_seed
from ..models import MlpSpec, RosenbrockSpec
from ..optim import AdamHyper, QLRConfig


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class CsvLoader:
    path: str
    n_features: int
    target_columns: int = 1


@dataclass(frozen=True)
class IdxLoader:
    images_path: str
    labels_path: str


@dataclass(frozen=True)
class SyntheticLoader:
    task: Task
    n: int
    d: int
    seed: int = 0
    n_targets: int = 1
    noise: float = 0.1
    n_classes: int = 2
    separation: float = 6.0

    def __post_init__(self):
        check_seed(self.seed, keyed=True)
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and non-negative, got {self.noise!r}")
        if not math.isfinite(self.separation):
            raise ValueError(f"separation must be finite, got {self.separation!r}")
        if self.n_targets < 1:
            raise ValueError(f"n_targets must be at least 1, got {self.n_targets!r}")


LoaderConfig = Union[CsvLoader, IdxLoader, SyntheticLoader]


@dataclass(frozen=True)
class DatasetConfig:
    loader: LoaderConfig
    split: SplitSpec = SplitSpec()
    batch: BatchPlan = BatchPlan()
    standardize: bool = True


def _check_step(lr: float, **finite: float) -> None:
    """Reject an `lr` that is not finite and positive, and any other non-finite knob."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be finite and positive, got {lr!r}")
    for name, value in finite.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SgdMinimalOpt:
    lr: float

    def __post_init__(self):
        _check_step(self.lr)


@dataclass(frozen=True)
class SgdFullOpt:
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        _check_step(self.lr, momentum=self.momentum, weight_decay=self.weight_decay)


@dataclass(frozen=True)
class AdamOpt:
    lr: float
    hyper: AdamHyper = AdamHyper()

    def __post_init__(self):
        _check_step(self.lr)


# The "qlr" block is `QLRConfig` itself: its knobs and Adam's `hyper`.
OptimizerConfig = Union[SgdMinimalOpt, SgdFullOpt, AdamOpt, QLRConfig]


@dataclass(frozen=True)
class RunConfig:
    model: Union[MlpSpec, RosenbrockSpec]
    optimizer: OptimizerConfig
    epochs: int
    dataset: Optional[DatasetConfig] = None
    max_runtime_s: float = float("inf")
    seed: int = 0
    output_path: Optional[str] = None
    eval_every_epochs: int = 1

    def __post_init__(self):
        check_seed(self.seed)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.eval_every_epochs < 1:
            raise ConfigError("eval_every_epochs must be >= 1")
        if not self.max_runtime_s >= 0:  # NaN fails this too, and would never time out
            raise ConfigError(f"max_runtime_s must be non-negative, got {self.max_runtime_s!r}")
        if isinstance(self.model, MlpSpec) and self.dataset is None:
            raise ConfigError("an MLP model requires a dataset block")
        if isinstance(self.model, RosenbrockSpec) and self.dataset is not None:
            raise ConfigError("a rosenbrock model takes no dataset block")


# JSON "kind" tag of every member of a tagged union.
_KINDS = {
    MlpSpec: "mlp",
    RosenbrockSpec: "rosenbrock",
    CsvLoader: "csv",
    IdxLoader: "idx",
    SyntheticLoader: "synthetic",
    SgdMinimalOpt: "sgd_minimal",
    SgdFullOpt: "sgd_full",
    AdamOpt: "adam",
    QLRConfig: "qlr",
}
_SCALARS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


@functools.cache
def _fields(cls) -> tuple[tuple[str, object, bool], ...]:
    """(name, type, required) of each field; cached, as resolving hints is slow."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def _check_object(d, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {type(d).__name__}")


def _decode_object(cls, d, path: str):
    where = path or "config"
    _check_object(d, where)
    unknown = d.keys() - {name for name, _, _ in _fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    missing = [name for name, _, required in _fields(cls) if required and name not in d]
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    kwargs = {}
    for name, tp, _ in _fields(cls):
        if name in d:
            kwargs[name] = _decode(tp, d[name], f"{path}.{name}" if path else name)
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from None


def _decode_tagged(members, d, path: str):
    _check_object(d, path)
    if "kind" not in d:
        raise ConfigError(f"{path}: missing keys ['kind']")
    by_kind = {_KINDS[cls]: cls for cls in members}
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in by_kind:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}")
    return _decode_object(by_kind[kind], {k: v for k, v in d.items() if k != "kind"}, path)


def _decode(tp, value, path: str):
    """`value` read from JSON as type `tp`, or ConfigError naming `path`."""
    origin = typing.get_origin(tp)
    if origin is Union:
        members = [a for a in typing.get_args(tp) if a is not type(None)]
        if value is None and len(members) < len(typing.get_args(tp)):
            return None
        if len(members) == 1:
            return _decode(members[0], value, path)
        return _decode_tagged(members, value, path)
    if dataclasses.is_dataclass(tp):
        return _decode_object(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            raise ConfigError(f"{path}: {value!r} not one of {[e.value for e in tp]}") from None
    if origin is tuple:  # tuple[item, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {type(value).__name__}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{path}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{path}: expected {_SCALARS[tp]}, got {type(value).__name__}")
    if tp is float:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{path}: {value} is out of range") from None
    return value


def from_dict(d: dict) -> RunConfig:
    return _decode_object(RunConfig, d, "")


def from_json(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return from_dict(raw)


def to_dict(cfg: RunConfig) -> dict:
    """Inverse of `from_dict`, used when persisting sampled trial configs."""
    return _encode(cfg)


def _encode(value):
    if dataclasses.is_dataclass(value):
        out = {"kind": _KINDS[type(value)]} if type(value) in _KINDS else {}
        for name, _, _ in _fields(type(value)):
            v = getattr(value, name)
            if v is not None:
                out[name] = _encode(v)
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value
