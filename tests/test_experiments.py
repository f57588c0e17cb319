"""Sweeps, fits and the closed-form comparison harness."""

import math

import numpy as np
import pytest

from periodicwalk import PotentialProfile, distribution, evolve, initial_state, moments
from periodicwalk.experiments import (
    Q1_LAW_RESIDUAL_CEILING,
    Q2_LAZY_SPREAD_CEILING,
    R_SQUARED_INVERSE_PERIOD_MIN,
    check_q1_closed_form,
    linear_fit,
    relative_spread,
    sweep_sigma_vs_inverse_period,
    sweep_sigma_vs_steps,
    sweep_sigma_vs_theta,
)


def test_linear_fit_exact_line():
    x = np.arange(10.0)
    fit = linear_fit(x, 2.0 * x + 1.0)
    assert abs(fit.slope - 2.0) < 1e-12
    assert abs(fit.intercept - 1.0) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12


def test_linear_fit_flat_perfect_fit_convention():
    fit = linear_fit([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_linear_fit_rejects_degenerate_x():
    with pytest.raises(ValueError):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_linear_fit_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        linear_fit(np.zeros((2, 2)), np.zeros((2, 2)))


def test_linear_fit_r_squared_within_bounds():
    fit = linear_fit([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0])
    assert 0.0 <= fit.r_squared < 1.0


def test_sweep_steps_ballistic_sigma_equals_n():
    result = sweep_sigma_vs_steps(1, math.pi / 2, [10, 20, 30])
    assert np.allclose(result.sigma, [10.0, 20.0, 30.0], atol=1e-10)
    assert result.independent.tolist() == [10.0, 20.0, 30.0]


def test_sweep_steps_snapshots_match_fresh_runs():
    profile = PotentialProfile(3, 0.9)
    result = sweep_sigma_vs_steps(3, 0.9, [5, 9])
    for n, sigma in zip([5, 9], result.sigma):
        fresh = moments(distribution(evolve(initial_state(n), profile, n))).sigma
        assert sigma == fresh


def test_sweep_steps_validation():
    with pytest.raises(ValueError):
        sweep_sigma_vs_steps(1, 0.5, [])
    with pytest.raises(ValueError):
        sweep_sigma_vs_steps(1, 0.5, [5, 0])


def test_sweeps_reject_non_integer_periods_and_step_counts():
    # each of these used to be truncated: q=2, n=5, n=5, 20 and 100 steps
    calls = [
        lambda: sweep_sigma_vs_inverse_period(0.5, [2.5], 20),
        lambda: sweep_sigma_vs_steps(1, 0.5, [5.7]),
        lambda: sweep_sigma_vs_steps(1, 0.5, [5.7, 10]),
        lambda: sweep_sigma_vs_theta(2, [0.5], 20.9),
        lambda: check_q1_closed_form([0.5], 100.9),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_results_never_alias_the_callers_grid():
    grid = np.array([1.0, 3.0])  # valid as step counts, angles and periods
    columns = [
        sweep_sigma_vs_steps(2, 0.5, grid).independent,
        sweep_sigma_vs_theta(2, grid, 10).independent,
        sweep_sigma_vs_inverse_period(0.5, grid, 10).independent,
        check_q1_closed_form(grid, 100).theta,
    ]
    for column in columns:
        assert column.dtype == np.float64
        assert not np.shares_memory(column, grid)


def test_sweep_theta_shape_and_metadata():
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    result = sweep_sigma_vs_theta(2, grid, 50)
    assert result.independent.tolist() == grid
    assert result.sigma.shape == (5,)


def test_sweep_theta_validation():
    with pytest.raises(ValueError):
        sweep_sigma_vs_theta(2, [], 50)
    with pytest.raises(ValueError):
        sweep_sigma_vs_theta(2, [0.5], 0)


def test_sweep_inverse_period_rows():
    result = sweep_sigma_vs_inverse_period(math.pi / 6, [1, 2, 4], 50)
    assert result.independent.tolist() == [1.0, 0.5, 0.25]
    assert result.sigma.shape == (3,)


def test_sweep_inverse_period_validation():
    with pytest.raises(ValueError):
        sweep_sigma_vs_inverse_period(0.5, [], 50)
    with pytest.raises(ValueError):
        sweep_sigma_vs_inverse_period(0.5, [0, 2], 50)
    with pytest.raises(ValueError):
        sweep_sigma_vs_inverse_period(0.5, [1, 2], 0)


def test_sigma_ordering_flips_with_theta():
    # below pi/4 a denser potential speeds the walk up, above it slows it
    low = sweep_sigma_vs_inverse_period(math.pi / 6, [2, 5], 200).sigma
    assert low[0] < low[1]
    high = sweep_sigma_vs_inverse_period(math.pi / 3, [2, 5], 200).sigma
    assert high[0] > high[1]


def test_inverse_period_trend_fits():
    falling = sweep_sigma_vs_inverse_period(math.pi / 6, list(range(2, 11)), 200)
    fit = linear_fit(falling.independent, falling.sigma)
    assert fit.slope < 0
    assert fit.r_squared >= R_SQUARED_INVERSE_PERIOD_MIN

    rising = sweep_sigma_vs_inverse_period(math.pi / 3, list(range(1, 11)), 200)
    fit = linear_fit(rising.independent, rising.sigma)
    assert fit.slope > 0
    assert fit.r_squared >= R_SQUARED_INVERSE_PERIOD_MIN


def test_quarter_pi_sigma_flat_across_periods():
    # all coins coincide at theta = pi/4, so q cannot matter
    result = sweep_sigma_vs_inverse_period(math.pi / 4, list(range(1, 11)), 100)
    assert relative_spread(result.sigma) < 1e-9


def test_q1_and_q2_nearly_equal_below_quarter_pi():
    grid = [k * math.pi / 24 for k in range(1, 6)]
    sigma1 = sweep_sigma_vs_theta(1, grid, 200).sigma
    sigma2 = sweep_sigma_vs_theta(2, grid, 200).sigma
    rel = np.abs(sigma1 - sigma2) / np.maximum(sigma1, sigma2)
    # frozen: measured max 1.8e-3 at N = 200 on this grid
    assert rel.max() < 5e-3


def test_q2_lazy_spread_below_ceiling():
    grid = [math.pi / 4 + k * math.pi / 24 for k in range(13)]
    result = sweep_sigma_vs_theta(2, grid, 100)
    assert relative_spread(result.sigma) < Q2_LAZY_SPREAD_CEILING


@pytest.mark.parametrize("k", [3, 7, 11])
def test_sigma_mirror_symmetry_in_theta(k):
    theta = k * math.pi / 24
    result = sweep_sigma_vs_theta(3, [theta, 2 * math.pi - theta], 100)
    a, b = result.sigma
    assert abs(a - b) < 1e-9
    assert abs(a - b) / max(a, b) < 1e-9


@pytest.mark.parametrize("k", [2, 9])
def test_q1_sigma_pi_shift_symmetry(k):
    theta = k * math.pi / 24
    result = sweep_sigma_vs_theta(1, [theta, theta + math.pi], 100)
    a, b = result.sigma
    assert abs(a - b) < 1e-9


def test_check_q1_exact_at_free_angle():
    table = check_q1_closed_form([math.pi / 2], 200)
    assert table.residual[0] < 1e-12
    assert abs(table.law[0] - 1.0) < 1e-12


def test_check_q1_trapped_angle_residual_small():
    table = check_q1_closed_form([0.0], 200)
    assert table.law[0] == 0.0
    assert table.residual[0] < 1e-3


def test_check_q1_full_grid_below_frozen_ceiling():
    grid = [k * math.pi / 24 for k in range(1, 48)]
    table = check_q1_closed_form(grid, 200)
    assert table.residual.max() < Q1_LAW_RESIDUAL_CEILING
    assert table.theta.shape == table.sigma2_over_n2.shape == table.law.shape


def test_check_q1_rejects_short_walks():
    with pytest.raises(ValueError):
        check_q1_closed_form([0.5], 99)
    with pytest.raises(ValueError):
        check_q1_closed_form([], 200)


def test_relative_spread_values():
    assert relative_spread([4.0, 4.0, 4.0]) == 0.0
    assert abs(relative_spread([1.0, 3.0]) - 1.0) < 1e-15
    with pytest.raises(ValueError):
        relative_spread([])
