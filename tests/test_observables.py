"""Distributions, moments, the closed-form spread law, and symmetry checks."""

import math

import numpy as np
import pytest

from periodicwalk import (
    Distribution,
    PotentialProfile,
    distribution,
    evolve,
    initial_state,
    moments,
    q1_law,
    q2_law,
    symmetry_residual,
)
from walkref import random_walk_state


def test_distribution_of_fresh_state():
    dist = distribution(initial_state(4))
    assert dist.n_steps == 0
    assert dist.positions.tolist() == [0]
    assert abs(dist.probabilities[0] - 1.0) < 1e-12


def test_distribution_window_and_parity_zeros():
    n = 9
    state = evolve(initial_state(n), PotentialProfile(4, math.pi / 6), n)
    dist = distribution(state)
    assert dist.positions.tolist() == list(range(-n, n + 1))
    assert np.all(np.diff(dist.positions) > 0)
    # odd step count: even positions are unreachable and stay exactly zero
    even = dist.positions % 2 == 0
    assert np.all(dist.probabilities[even] == 0.0)
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("support", [0, 1, 2, 7, 50])
def test_distribution_bytes_equal_axis_sum_of_squares(support):
    state = random_walk_state(np.random.default_rng(support), capacity=60, support_steps=support)
    window = state.amplitudes[60 - support : 60 + support + 1]
    expected = np.sum(window.real * window.real + window.imag * window.imag, axis=1)
    assert distribution(state).probabilities.tobytes() == expected.tobytes()


@pytest.mark.parametrize("q,theta", [(1, 0.4), (2, math.pi / 3), (5, 2.2), (7, math.pi / 4)])
def test_distribution_sums_to_one(q, theta):
    state = evolve(initial_state(50), PotentialProfile(q, theta), 50)
    dist = distribution(state)
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12


def test_free_propagation_distribution():
    n = 5
    state = evolve(initial_state(n), PotentialProfile(1, math.pi / 2), n)
    dist = distribution(state)
    by_x = dict(zip(dist.positions.tolist(), dist.probabilities.tolist()))
    assert abs(by_x[-n] - 0.5) < 1e-12
    assert abs(by_x[n] - 0.5) < 1e-12
    interior = dist.probabilities[1:-1]
    assert interior.sum() < 1e-24


def test_moments_point_mass():
    dist = Distribution(
        positions=np.array([2], dtype=np.int64),
        probabilities=np.array([1.0]),
        n_steps=2,
    )
    m = moments(dist)
    assert m.mean == 2.0
    assert m.second_moment == 4.0
    assert m.sigma == 0.0


def test_moments_hand_cases():
    symmetric = Distribution(
        positions=np.array([-1, 0, 1], dtype=np.int64),
        probabilities=np.array([0.5, 0.0, 0.5]),
        n_steps=1,
    )
    m = moments(symmetric)
    assert abs(m.mean) < 1e-15
    assert abs(m.second_moment - 1.0) < 1e-15
    assert abs(m.sigma - 1.0) < 1e-15

    skewed = Distribution(
        positions=np.array([0, 4], dtype=np.int64),
        probabilities=np.array([0.25, 0.75]),
        n_steps=4,
    )
    m = moments(skewed)
    assert abs(m.mean - 3.0) < 1e-12
    assert abs(m.second_moment - 12.0) < 1e-12
    assert abs(m.sigma - math.sqrt(3.0)) < 1e-12


def test_moments_variance_identity_on_simulated_state():
    state = evolve(initial_state(60), PotentialProfile(3, 0.8), 60)
    m = moments(distribution(state))
    assert abs(m.sigma**2 + m.mean**2 - m.second_moment) < 1e-10


def test_hadamard_sigma_golden_value():
    # frozen regression value; the coarse 0.5412 ratio guards the physics
    state = evolve(initial_state(200), PotentialProfile(1, math.pi / 4), 200)
    sigma = moments(distribution(state)).sigma
    assert abs(sigma / 200 - 0.5412) < 0.03
    assert abs(sigma - 108.24153901533569) < 1e-9


def test_q1_law_values():
    assert abs(q1_law(math.pi / 2, 100) - 100.0) < 1e-12
    assert q1_law(0.0, 50) == 0.0
    assert q1_law(math.pi, 50) == 0.0
    # frozen: 200 * sqrt(1 - cos(pi/4))
    assert abs(q1_law(math.pi / 4, 200) - 108.23922002923938) < 1e-10


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.0, 2.9])
def test_q1_law_mirror_symmetric(theta):
    assert abs(q1_law(theta, 77) - q1_law(2 * math.pi - theta, 77)) < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 2.5, math.pi, 3.5, 5.6])
def test_q2_law_is_the_q1_law_outside_the_lazy_bands(theta):
    assert q2_law(theta, 77) == q1_law(theta, 77)


@pytest.mark.parametrize("theta", [math.pi / 4, 1.0, math.pi / 2, 2.2, 3 * math.pi / 4, 4.0, 5.3])
def test_q2_law_is_the_hadamard_spread_inside_the_lazy_bands(theta):
    assert q2_law(theta, 200) == q1_law(math.pi / 4, 200)


def test_symmetry_residual_zero_for_symmetric_input():
    dist = Distribution(
        positions=np.array([-2, -1, 0, 1, 2], dtype=np.int64),
        probabilities=np.array([0.3, 0.0, 0.4, 0.0, 0.3]),
        n_steps=2,
    )
    assert symmetry_residual(dist) == 0.0


def test_symmetry_residual_detects_asymmetry():
    dist = Distribution(
        positions=np.array([0, 1], dtype=np.int64),
        probabilities=np.array([0.4, 0.6]),
        n_steps=1,
    )
    assert abs(symmetry_residual(dist) - 0.6) < 1e-15


def test_symmetry_residual_of_simulated_walk():
    state = evolve(initial_state(51), PotentialProfile(4, math.pi / 6), 51)
    assert symmetry_residual(distribution(state)) < 1e-12
