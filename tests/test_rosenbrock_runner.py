"""Benchmark-runner contracts beyond what the CLI tests cover."""

import numpy as np
import pytest

from adamqlr import autodiff
from adamqlr.bench import rosenbrock
from adamqlr.bench.rosenbrock import PRESET_NAMES, preset_optimizer, run_rosenbrock
from adamqlr.bench.training import RunStatus

from helpers import rosenbrock_slice_objective


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


def test_each_step_is_one_checked_loss_evaluation():
    # gd's steps take only gradients, so each count is a step's recorded f.
    autodiff.counters.reset()
    res = run_rosenbrock(preset_optimizer("gd"), steps=5)
    assert autodiff.counters.eval_loss == len(res.points) - 1 == 5
    assert res.points[0][1:] == (1.0, -1.0, 400.0)
    autodiff.counters.reset()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_start_diverges_with_its_point_recorded():
    res = run_rosenbrock(preset_optimizer("gd"), steps=5, start=(1e200, 1e200))
    assert res.status is RunStatus.DIVERGED
    assert [p[:3] for p in res.points] == [(0, 1e200, 1e200)]


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
    path = tmp_path / "t.csv"
    res = run_rosenbrock(preset_optimizer("adam"), steps=5, start=(0.5, 0.5), out=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,x,y,f"
    assert len(lines) == 1 + len(res.points)
    for line, (step, x, y, f) in zip(lines[1:], res.points):
        cells = line.split(",")
        assert int(cells[0]) == step
        assert [float(c) for c in cells[1:]] == [x, y, f]


# (preset, overrides, start): every preset from (1, -1), a diverging run and
# another start.
TRAJECTORIES = [(name, {}, (1.0, -1.0)) for name in PRESET_NAMES] + [
    ("gd", {"lr": 10.0}, (1.0, -1.0)),
    ("gd", {}, (0.5, 0.5)),
    ("adamqlr-untuned", {}, (0.5, 0.5)),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, overrides, start", TRAJECTORIES)
def test_scalar_trace_visits_the_points_of_the_slice_trace(monkeypatch, name, overrides, start):
    opt = preset_optimizer(name, **overrides)
    got = run_rosenbrock(opt, steps=200, start=start)
    monkeypatch.setattr(rosenbrock, "rosenbrock_objective", rosenbrock_slice_objective)
    want = run_rosenbrock(opt, steps=200, start=start)
    assert got.status is want.status
    assert [tuple(map(repr, p)) for p in got.points] == [tuple(map(repr, p)) for p in want.points]
