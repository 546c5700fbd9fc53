"""Benchmark-runner contracts beyond what the CLI tests cover."""

import numpy as np
import pytest

from adamqlr import NonFiniteError, autodiff
from adamqlr.bench import rosenbrock
from adamqlr.bench.rosenbrock import PRESET_NAMES, preset_optimizer, run_rosenbrock
from adamqlr.bench.training import RunStatus
from adamqlr.models import rosenbrock_objective

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
    # A point's f is the checked forward pass of the step leaving it; only
    # the last point evaluates f alone. A qlr step also evaluates its trial.
    for name, trials in (("gd", 0), ("adamqlr-untuned", 5)):
        autodiff.counters.reset()
        res = run_rosenbrock(preset_optimizer(name), steps=5)
        assert len(res.points) == 6 and autodiff.counters.eval_grad == 5
        assert autodiff.counters.eval_loss == trials + 1
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


def assert_each_f_is_the_tape_free_value(points):
    value = rosenbrock_objective().value
    assert [repr(f) for *_, f in points] == [
        repr(value(np.array([x, y]), None)) for _, x, y, _ in points
    ]


# Every preset from three starts, one of them with exact zeros, and a
# diverging run.
LAGGED = [
    (name, {}, start) for name in PRESET_NAMES for start in ((1.0, -1.0), (0.5, 0.5), (0.0, 0.0))
] + [("gd", {"lr": 10.0}, (1.0, -1.0))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name, overrides, start", LAGGED)
def test_each_f_taken_from_a_step_has_the_bits_of_the_tape_free_value(name, overrides, start):
    res = run_rosenbrock(preset_optimizer(name, **overrides), steps=200, start=start)
    assert res.status is (RunStatus.DIVERGED if overrides else RunStatus.COMPLETED)
    assert_each_f_is_the_tape_free_value(res.points)


@pytest.mark.parametrize("name", ["gd", "adamqlr-untuned"])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_a_step_that_raises_ends_the_run_at_the_point_it_left(monkeypatch, name, k):
    # Step k leaves point k - 1, which is drawn with its own f evaluation.
    make_stepper = rosenbrock.make_stepper

    class Spy:
        def __init__(self, opt, n_params):
            self.inner, self.taken = make_stepper(opt, n_params), 0

        def step(self, *args):
            self.taken += 1
            if self.taken == k:
                raise NonFiniteError("planted at step k")
            return self.inner.step(*args)

    want = run_rosenbrock(preset_optimizer(name), steps=10).points[:k]
    monkeypatch.setattr(rosenbrock, "make_stepper", Spy)
    res = run_rosenbrock(preset_optimizer(name), steps=10)
    assert res.status is RunStatus.DIVERGED
    assert [tuple(map(repr, p)) for p in res.points] == [tuple(map(repr, p)) for p in want]
    assert_each_f_is_the_tape_free_value(res.points)
