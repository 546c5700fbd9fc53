"""Data ingestion, splitting and deterministic mini-batch iteration.

Loaders reject non-finite values outright instead of letting them reach
the optimizer. Splitting and shuffling are pure functions of their seeds,
so a (split seed, shuffle seed, epoch) triple fully determines the data
stream a run sees.
"""

from __future__ import annotations

import csv
import enum
import gzip
import math
import struct
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


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f < 0 for f in fracs):
            raise ValueError("split fractions must be non-negative")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


@dataclass(frozen=True)
class BatchPlan:
    batch_size: int = 3200
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


def _open_maybe_gzip(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def load_csv(path, n_features: int, target_columns: int = 1) -> Batch:
    """Load a numeric CSV of `n_features` inputs followed by target columns.

    A non-numeric first row is treated as a header and skipped. Ragged
    rows, non-numeric cells and wrong column counts raise DataFormatError
    with the 1-based line number.
    """
    if n_features < 1 or target_columns < 1:
        raise ValueError("n_features and target_columns must be positive")
    expected = n_features + target_columns
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
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
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return Batch(data[:, :n_features], data[:, n_features:])


def _read_header(fh, fmt: str, path) -> tuple[int, ...]:
    size = struct.calcsize(fmt)
    head = fh.read(size)
    if len(head) != size:
        raise DataFormatError(f"{path}: truncated header ({len(head)} of {size} bytes)")
    return struct.unpack(fmt, head)


def load_idx(images_path, labels_path) -> Batch:
    """Load an IDX image/label file pair (big-endian, optionally gzipped).

    Images are flattened to rows and scaled to [0, 1]; labels stay integer.
    """
    with _open_maybe_gzip(images_path) as fh:
        magic, n_images, n_rows, n_cols = _read_header(fh, ">IIII", images_path)
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        raw = fh.read(n_images * n_rows * n_cols)
    if len(raw) != n_images * n_rows * n_cols:
        raise DataFormatError(f"{images_path}: truncated pixel data")
    with _open_maybe_gzip(labels_path) as fh:
        magic, n_labels = _read_header(fh, ">II", labels_path)
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        raw_labels = fh.read(n_labels)
    if len(raw_labels) != n_labels:
        raise DataFormatError(f"{labels_path}: truncated label data")
    if n_images != n_labels:
        raise DataFormatError(
            f"image/label count mismatch: {n_images} images vs {n_labels} labels"
        )
    images = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    images = images.reshape(n_images, n_rows * n_cols) / 255.0
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return Batch(images, labels)


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

    Streams with different keys are independent, so what each one draws
    does not depend on the order in which they are used.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), *keys]))


def batch_iter(ds: Batch, plan: BatchPlan, epoch: int) -> Iterator[Batch]:
    """Shuffled batches for one epoch, deterministic in (shuffle_seed, epoch).

    A batch size above the dataset size is clamped to one full batch.
    """
    n = len(ds)
    size = min(plan.batch_size, n)
    perm = keyed_rng(plan.shuffle_seed, epoch).permutation(n)
    for start in range(0, n, size):
        yield ds.take(perm[start : start + size])


def synthesize(
    task: Task,
    n: int,
    d: int,
    seed: int,
    *,
    n_targets: int = 1,
    noise: float = 0.1,
    n_classes: int = 2,
    separation: float = 6.0,
) -> Batch:
    """Deterministic synthetic data: linear regression or Gaussian blobs.

    Regression draws y = Wx + noise. Classification places `n_classes`
    centers with expected pairwise distance `separation` (in units of the
    unit per-coordinate cluster noise) and assigns balanced labels.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rng = keyed_rng(seed)
    if task is Task.REGRESSION:
        x = rng.normal(size=(n, d))
        w = rng.normal(size=(d, n_targets)) / np.sqrt(d)
        y = x @ w
        if noise > 0:
            y = y + noise * rng.normal(size=y.shape)
        return Batch(x, y)
    if n_classes < 1:
        raise ValueError("n_classes must be positive")
    centers = rng.normal(size=(n_classes, d)) * (separation / np.sqrt(2.0 * d))
    labels = np.arange(n, dtype=np.int64) % n_classes
    rng.shuffle(labels)
    x = centers[labels] + rng.normal(size=(n, d))
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
