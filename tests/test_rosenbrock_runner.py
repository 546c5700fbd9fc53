"""Benchmark-runner contracts beyond what the CLI tests cover."""

import numpy as np
import pytest

from adamqlr.bench.rosenbrock import preset_optimizer, run_rosenbrock, write_trajectory
from adamqlr.bench.training import RunStatus


def test_tiny_lr_gd_strictly_decreases():
    res = run_rosenbrock(preset_optimizer("gd", lr=1e-5), steps=10, start=(1.0, -1.0))
    fs = [f for _, _, _, f in res.points]
    assert len(fs) == 11
    assert all(b < a for a, b in zip(fs, fs[1:]))


def test_untuned_reference_thresholds():
    res = run_rosenbrock(preset_optimizer("adamqlr-untuned"), steps=200, start=(1.0, -1.0))
    assert res.status is RunStatus.COMPLETED
    assert res.points[0][3] == 400.0
    assert res.final_f < 4.0


def test_stationary_start_never_drifts():
    res = run_rosenbrock(preset_optimizer("adamqlr-untuned"), steps=50, start=(1.0, 1.0))
    drift = max(abs(x - 1.0) + abs(y - 1.0) for _, x, y, _ in res.points)
    assert drift < 1e-8
    assert res.final_f == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_truncates_trajectory():
    res = run_rosenbrock(preset_optimizer("gd", lr=10.0), steps=100, start=(1.0, -1.0))
    assert res.status is RunStatus.DIVERGED
    assert len(res.points) < 101
    assert all(np.isfinite(f) for _, _, _, f in res.points)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="preset"):
        preset_optimizer("newton")


def test_trajectory_csv_round_trip(tmp_path):
    res = run_rosenbrock(preset_optimizer("adam"), steps=5, start=(0.5, 0.5))
    path = tmp_path / "t.csv"
    write_trajectory(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,x,y,f"
    assert len(lines) == 1 + len(res.points)
    for line, (step, x, y, f) in zip(lines[1:], res.points):
        cells = line.split(",")
        assert int(cells[0]) == step
        assert [float(c) for c in cells[1:]] == [x, y, f]
