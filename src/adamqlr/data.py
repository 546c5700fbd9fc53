"""Data ingestion, splitting and deterministic mini-batch iteration.

Loaders reject non-finite values outright instead of letting them reach
the optimizer. Splitting and shuffling are pure functions of their seeds,
so a (split seed, shuffle seed, epoch) triple fully determines the data
stream a run sees.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """A file failed to parse; the message carries the offending location."""


class Task(enum.Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "classification"


@dataclass(frozen=True)
class Batch:
    """Input rows and aligned targets: a whole dataset, a split or a mini-batch.

    Integer targets are class labels, so the batch's task is read from
    them. A batch may have no rows (a split of fraction 0); `autodiff`
    refuses to evaluate an objective on one.
    """

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        if inputs.ndim != 2:
            raise ValueError("batch inputs must be a 2-D matrix")
        targets = np.asarray(self.targets)
        if np.issubdtype(targets.dtype, np.integer):
            targets = targets.astype(np.int64)
            if targets.ndim != 1:
                raise ValueError("class labels must be a 1-D integer vector")
        else:
            targets = targets.astype(np.float64)
            if targets.ndim == 1:
                targets = targets[:, None]
            if not np.all(np.isfinite(targets)):
                raise ValueError("batch targets contain non-finite values")
        if targets.shape[0] != inputs.shape[0]:
            raise ValueError("batch inputs and targets disagree on row count")
        if not np.all(np.isfinite(inputs)):
            raise ValueError("batch inputs contain non-finite values")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def task(self) -> Task:
        return Task.CLASSIFICATION if self.targets.dtype == np.int64 else Task.REGRESSION

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx) -> "Batch":
        """The rows ``idx``. They were checked when this batch was made, so only the shape is."""
        inputs = self.inputs[idx]
        if inputs.ndim != 2:
            raise ValueError("batch inputs must be a 2-D matrix")
        batch = object.__new__(Batch)
        object.__setattr__(batch, "inputs", inputs)
        object.__setattr__(batch, "targets", self.targets[idx])
        return batch


# The bounds a number read from a config or a flag can take, by the phrase
# that states them; NaN meets none. numpy takes no negative seed, and
# SeedSequence would read 2**32 + 5 as the words (5, 1): seed 5 keyed on 1.
_BOUNDS = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    "finite": math.isfinite,
    "finite and positive": lambda v: math.isfinite(v) and v > 0,
    "finite and non-negative": lambda v: math.isfinite(v) and v >= 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "finite and at least 1": lambda v: math.isfinite(v) and v >= 1,
    "in [0, 2**32)": lambda v: 0 <= v < 2**32,
}


def check_bounds(spec, bound: str, *names: str) -> None:
    """Refuse each named attribute of `spec` whose value is not `bound`, one of `_BOUNDS`."""
    test = _BOUNDS[bound]
    for name in names:
        value = getattr(spec, name)
        if not test(value):
            raise ValueError(f"{name} must be {bound}, got {value!r}")


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_bounds(self, "in [0, 2**32)", "seed")
        check_bounds(self, "finite and non-negative", "train_fraction", "val_fraction",
                     "test_fraction")
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"split fractions must sum to 1, got {total}")


@dataclass(frozen=True)
class BatchPlan:
    batch_size: int = 3200
    shuffle_seed: int = 0

    def __post_init__(self):
        check_bounds(self, "positive", "batch_size")
        check_bounds(self, "in [0, 2**32)", "shuffle_seed")


@dataclass(frozen=True)
class CsvLoader:
    """A numeric CSV file: `n_features` input columns, then `target_columns` targets."""

    path: str
    n_features: int
    target_columns: int = 1
    task = Task.REGRESSION  # not a field: every CSV target is a number

    def __post_init__(self):
        check_bounds(self, "positive", "n_features", "target_columns")


@dataclass(frozen=True)
class IdxLoader:
    """An IDX image file and its label file, either of them optionally gzipped."""

    images_path: str
    labels_path: str
    task = Task.CLASSIFICATION  # not a field: every label is a class


@dataclass(frozen=True)
class SyntheticLoader:
    """`n` rows of `d` inputs drawn by `synthesize`; `n_targets` and `noise`
    shape regression data, `n_classes` and `separation` classification data.
    The other task's two knobs are never read, so only their defaults are taken."""

    task: Task
    n: int
    d: int
    seed: int = 0
    n_targets: int = 1
    noise: float = 0.1
    n_classes: int = 2
    separation: float = 6.0

    def __post_init__(self):
        check_bounds(self, "in [0, 2**32)", "seed")
        check_bounds(self, "positive", "n", "d")
        if self.task is Task.REGRESSION:
            check_bounds(self, "positive", "n_targets")
            check_bounds(self, "finite and non-negative", "noise")
            unread = ("n_classes", "separation")
        else:
            check_bounds(self, "positive", "n_classes")
            check_bounds(self, "finite", "separation")
            unread = ("n_targets", "noise")
        for f in dataclasses.fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ValueError(
                    f"{f.name} is unread by a {self.task.value} loader, so it must be its "
                    f"default {f.default!r}, got {getattr(self, f.name)!r}"
                )


def load_csv(spec: CsvLoader) -> Batch:
    """Load a numeric CSV of `n_features` inputs followed by target columns.

    A non-numeric first row is treated as a header and skipped; a UTF-8
    byte order mark is not part of the first cell. Ragged rows, non-numeric
    cells and wrong column counts raise DataFormatError with the 1-based
    line number, and bytes that are not UTF-8 raise it naming the file.
    """
    path, n_features = spec.path, spec.n_features
    expected = n_features + spec.target_columns
    rows: list[list[float]] = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for lineno, cells in enumerate(csv.reader(fh), start=1):
                if not cells:
                    continue
                try:
                    parsed = [float(c) for c in cells]
                except ValueError:
                    if lineno == 1:
                        continue  # header row
                    raise DataFormatError(
                        f"{path}:{lineno}: non-numeric cell in row {cells!r}"
                    ) from None
                if len(parsed) != expected:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected {expected} columns, found {len(parsed)}"
                    )
                if not all(map(math.isfinite, parsed)):
                    raise DataFormatError(f"{path}:{lineno}: non-finite value")
                rows.append(parsed)
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: {e}") from None
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return Batch(data[:, :n_features], data[:, n_features:])


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 array held in the IDX file at `path`, gunzipped if it ends in ``.gz``.

    The file opens with `magic`, whose last byte is the number of
    dimensions, then one big-endian 32-bit size per dimension, then exactly
    as many bytes as their product. The array is a view of the bytes read.
    """
    path = Path(path)
    raw = path.read_bytes()
    if path.suffix == ".gz":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, gzip.BadGzipFile, zlib.error) as e:
            raise DataFormatError(f"{path}: unreadable gzip data ({e})") from None
    ndim = magic & 0xFF
    size = 4 * (1 + ndim)
    if len(raw) < size:
        raise DataFormatError(f"{path}: truncated header ({len(raw)} of {size} bytes)")
    found, *shape = struct.unpack_from(f">{1 + ndim}I", raw)
    if found != magic:
        raise DataFormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    count = math.prod(shape)
    if len(raw) - size != count:
        raise DataFormatError(f"{path}: {len(raw) - size} data bytes, header declares {count}")
    return np.frombuffer(raw, np.uint8, count, offset=size).reshape(shape)


def load_idx(spec: IdxLoader) -> Batch:
    """Load an IDX image/label file pair.

    Images are flattened to rows and scaled to [0, 1]; labels stay integer.
    """
    images = _read_idx(spec.images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(spec.labels_path, IDX_LABELS_MAGIC)
    if len(images) != len(labels):
        raise DataFormatError(
            f"image/label count mismatch: {len(images)} images vs {len(labels)} labels"
        )
    pixels = images.reshape(len(images), math.prod(images.shape[1:])).astype(np.float64)
    return Batch(pixels / 255.0, labels.astype(np.int64))


def split_dataset(ds: Batch, spec: SplitSpec) -> tuple[Batch, Batch, Batch]:
    """Disjoint permutation split; sizes floor-rounded, remainder to train."""
    n = len(ds)
    n_train = int(np.floor(spec.train_fraction * n))
    n_val = int(np.floor(spec.val_fraction * n))
    n_test = int(np.floor(spec.test_fraction * n))
    n_train += n - (n_train + n_val + n_test)
    for name, frac, size in (
        ("train", spec.train_fraction, n_train),
        ("val", spec.val_fraction, n_val),
        ("test", spec.test_fraction, n_test),
    ):
        if frac > 0 and size == 0:
            raise ValueError(
                f"{name} split is empty: {n} rows cannot honor fraction {frac}"
            )
    perm = np.random.default_rng(spec.seed).permutation(n)
    return (
        ds.take(perm[:n_train]),
        ds.take(perm[n_train : n_train + n_val]),
        ds.take(perm[n_train + n_val :]),
    )


def keyed_rng(seed: int, *keys: int) -> np.random.Generator:
    """Random stream keyed on (seed, *keys): a SeedSequence over both.

    What each stream draws does not depend on the order in which streams
    are used. The seed is one checked to be in [0, 2**32) where it was read.
    One alias stays: SeedSequence pads its entropy with zeros, so
    ``keyed_rng(s)`` and ``keyed_rng(s, 0)`` draw the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *keys]))


def batch_iter(ds: Batch, plan: BatchPlan, epoch: int) -> Iterator[Batch]:
    """Shuffled batches for one epoch, deterministic in (shuffle_seed, epoch).

    A batch size above the dataset size is clamped to one full batch.
    """
    n = len(ds)
    size = min(plan.batch_size, n)
    perm = keyed_rng(plan.shuffle_seed, epoch).permutation(n)
    for start in range(0, n, size):
        yield ds.take(perm[start : start + size])


def synthesize(spec: SyntheticLoader) -> Batch:
    """Deterministic synthetic data: linear regression or Gaussian blobs.

    Regression draws y = Wx + noise. Classification places `n_classes`
    centers with expected pairwise distance `separation` (in units of the
    unit per-coordinate cluster noise) and assigns balanced labels.
    """
    n, d = spec.n, spec.d
    rng = keyed_rng(spec.seed)
    if spec.task is Task.REGRESSION:
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, spec.n_targets)) / np.sqrt(d)
        y = x @ w
        if spec.noise > 0:
            y = y + spec.noise * rng.normal(size=y.shape)
        return Batch(x, y)
    centers = rng.normal(size=(spec.n_classes, d)) * (spec.separation / np.sqrt(2.0 * d))
    labels = np.arange(n, dtype=np.int64) % spec.n_classes
    rng.shuffle(labels)
    # centers[labels] + rng.normal(size=(n, d)), bit for bit: standard_normal
    # draws normal's stream, and each block of rows adds its centres in place.
    x = rng.standard_normal((n, d))
    rows = max(1, (1 << 16) // d)  # 512 KiB of gathered centres per block
    for start in range(0, n, rows):
        x[start : start + rows] += centers[labels[start : start + rows]]
    return Batch(x, labels)


@dataclass(frozen=True)
class StandardizeStats:
    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray | None
    target_std: np.ndarray | None

    def to_dict(self) -> dict:
        return {k: v.tolist() for k, v in vars(self).items() if v is not None}


def standardize_splits(
    train: Batch,
    val: Batch,
    test: Batch,
) -> tuple[Batch, Batch, Batch, StandardizeStats]:
    """Per-feature standardization using train statistics only.

    Regression targets are standardized too; the returned stats allow
    raw-unit metrics to be recovered downstream.
    """
    mean = train.inputs.mean(axis=0)
    std = np.maximum(train.inputs.std(axis=0), 1e-12)
    tmean = tstd = None
    do_targets = train.task is Task.REGRESSION
    if do_targets:
        tmean = train.targets.mean(axis=0)
        tstd = np.maximum(train.targets.std(axis=0), 1e-12)

    def apply(ds: Batch) -> Batch:
        x = (ds.inputs - mean) / std
        y = (ds.targets - tmean) / tstd if do_targets else ds.targets
        return Batch(x, y)

    stats = StandardizeStats(mean, std, tmean, tstd)
    return apply(train), apply(val), apply(test), stats
