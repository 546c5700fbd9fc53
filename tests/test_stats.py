"""Bootstrap trend statistics against a hand-rolled enumeration oracle."""

import numpy as np
import pytest

from adamqlr.bench.stats import align_time_series, bootstrap_trend

from helpers import brute_force_bootstrap


def test_identical_runs_zero_std():
    run = np.array([3.0, 2.0, 1.0])
    mean, std = bootstrap_trend([run.copy() for _ in range(5)], n_boot=10, seed=0)
    np.testing.assert_array_equal(mean, run)
    np.testing.assert_array_equal(std, np.zeros(3))


def test_single_run_every_median_is_that_run():
    run = np.array([5.0, 4.0, 2.5, 1.0])
    mean, std = bootstrap_trend([run], n_boot=7, seed=3)
    np.testing.assert_array_equal(mean, run)
    np.testing.assert_array_equal(std, np.zeros(4))


def test_exact_agreement_with_brute_force_oracle():
    rng = np.random.default_rng(42)
    runs = [rng.normal(size=4) for _ in range(5)]
    mean, std = bootstrap_trend(runs, n_boot=3, seed=17)
    o_mean, o_std = brute_force_bootstrap(runs, n_boot=3, seed=17)
    np.testing.assert_array_equal(mean, o_mean)
    np.testing.assert_allclose(std, o_std, rtol=0, atol=1e-15)


def test_deterministic_in_seed():
    rng = np.random.default_rng(1)
    runs = [rng.normal(size=6) for _ in range(4)]
    a = bootstrap_trend(runs, 20, seed=9)
    b = bootstrap_trend(runs, 20, seed=9)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = bootstrap_trend(runs, 20, seed=10)
    assert not np.array_equal(a[0], c[0])


def test_unequal_lengths_truncate_to_shortest():
    mean, _ = bootstrap_trend([np.ones(5), np.ones(3)], n_boot=2, seed=0)
    assert mean.shape == (3,)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        bootstrap_trend([], 3, 0)


def test_time_alignment_interpolates_onto_overlap():
    s1 = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 10.0, 20.0]))
    s2 = (np.array([0.5, 1.5, 2.5]), np.array([5.0, 15.0, 25.0]))
    grid, aligned = align_time_series([s1, s2], n_points=5)
    assert grid[0] == 0.5 and grid[-1] == 2.0
    np.testing.assert_allclose(aligned[0], grid * 10.0)
    np.testing.assert_allclose(aligned[1], grid * 10.0)


def test_time_alignment_requires_overlap():
    with pytest.raises(ValueError, match="overlap"):
        align_time_series(
            [(np.array([0.0, 1.0]), np.zeros(2)), (np.array([2.0, 3.0]), np.zeros(2))]
        )


@pytest.mark.parametrize("n_points", [0, -1])
def test_time_alignment_needs_a_grid_point(n_points):
    s = (np.array([0.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError, match=f"^n_points must be at least 1, got {n_points}$"):
        align_time_series([s, s], n_points=n_points)
