"""Bootstrapped median-trend aggregation across repeated runs."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def bootstrap_trend(
    runs: Sequence[np.ndarray], n_boot: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std across `n_boot` bootstrap medians of per-run series.

    Runs are aligned by step index (truncated to the shortest series).
    Each bootstrap sample draws len(runs) runs with replacement from one
    seeded stream, takes the elementwise median, and the returned trends
    are the mean and population standard deviation over those medians.
    """
    if not runs:
        raise ValueError("bootstrap_trend needs at least one run")
    length = min(len(r) for r in runs)
    if length == 0:
        raise ValueError("runs must be non-empty series")
    stack = np.stack([np.asarray(r, dtype=np.float64)[:length] for r in runs])
    rng = np.random.default_rng(seed)
    n_runs = stack.shape[0]
    medians = np.empty((n_boot, length))
    for b in range(n_boot):
        idx = rng.integers(0, n_runs, size=n_runs)
        medians[b] = np.median(stack[idx], axis=0)
    return medians.mean(axis=0), medians.std(axis=0)


def align_time_series(
    series: Sequence[tuple[np.ndarray, np.ndarray]], n_points: int = 100
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Interpolate (time, value) runs onto a shared uniform wall-clock grid.

    The grid spans [max of first timestamps, min of last timestamps], the
    interval where every run has data.
    """
    if not series:
        raise ValueError("no series to align")
    lo = max(float(np.asarray(t)[0]) for t, _ in series)
    hi = min(float(np.asarray(t)[-1]) for t, _ in series)
    if hi <= lo:
        raise ValueError("series do not overlap in time")
    grid = np.linspace(lo, hi, n_points)
    aligned = [
        np.interp(grid, np.asarray(t, dtype=np.float64), np.asarray(v, dtype=np.float64))
        for t, v in series
    ]
    return grid, aligned
