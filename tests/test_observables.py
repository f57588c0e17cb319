"""Position probabilities, moments, the closed-form spread laws, and symmetry checks."""

import math

import numpy as np
import pytest

from periodicwalk import (
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
    p = distribution(initial_state())
    assert p.shape == (1,)
    assert abs(p[0] - 1.0) < 1e-12


def test_distribution_window_and_parity_zeros():
    n = 9
    state = evolve(initial_state(), PotentialProfile(4, math.pi / 6), n)
    p = distribution(state)
    assert p.shape == (2 * n + 1,)
    # odd step count: the even positions, x = -n + i for odd i, are
    # unreachable and stay exactly zero
    assert np.all(p[1::2] == 0.0)
    assert np.all(p[::2] > 0.0)
    assert abs(p.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("support", [0, 1, 2, 7, 50])
def test_distribution_bytes_equal_axis_sum_of_squares(support):
    state = random_walk_state(np.random.default_rng(support), support)
    a = state.amplitudes
    expected = np.sum(a.real * a.real + a.imag * a.imag, axis=1)
    assert distribution(state).tobytes() == expected.tobytes()


@pytest.mark.parametrize("q,theta", [(1, 0.4), (2, math.pi / 3), (5, 2.2), (7, math.pi / 4)])
def test_distribution_sums_to_one(q, theta):
    state = evolve(initial_state(), PotentialProfile(q, theta), 50)
    assert abs(distribution(state).sum() - 1.0) < 1e-12


def test_free_propagation_distribution():
    n = 5
    state = evolve(initial_state(), PotentialProfile(1, math.pi / 2), n)
    p = distribution(state)
    assert abs(p[0] - 0.5) < 1e-12  # x = -n
    assert abs(p[-1] - 0.5) < 1e-12  # x = +n
    assert p[1:-1].sum() < 1e-24


def test_moments_point_mass():
    # x = -2 .. 2, all the weight on x = 2
    m = moments(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    assert m.mean == 2.0
    assert m.second_moment == 4.0
    assert m.sigma == 0.0


def test_moments_hand_cases():
    m = moments(np.array([0.5, 0.0, 0.5]))  # x = -1 .. 1
    assert abs(m.mean) < 1e-15
    assert abs(m.second_moment - 1.0) < 1e-15
    assert abs(m.sigma - 1.0) < 1e-15

    skewed = np.zeros(9)  # x = -4 .. 4
    skewed[4], skewed[8] = 0.25, 0.75  # x = 0 and x = 4
    m = moments(skewed)
    assert abs(m.mean - 3.0) < 1e-12
    assert abs(m.second_moment - 12.0) < 1e-12
    assert abs(m.sigma - math.sqrt(3.0)) < 1e-12


@pytest.mark.parametrize("f", [moments, symmetry_residual])
@pytest.mark.parametrize(
    "p",
    [
        pytest.param(np.array([]), id="empty"),
        pytest.param(np.ones(4) / 4, id="even"),
        pytest.param(np.ones((3, 3)), id="2d"),
    ],
)
def test_window_functions_reject_a_non_window(f, p):
    with pytest.raises(ValueError, match="2N \\+ 1"):
        f(p)


@pytest.mark.parametrize("f", [moments, symmetry_residual])
@pytest.mark.parametrize(
    "p",
    [
        pytest.param(np.array([0, 1j, 0]), id="complex"),
        pytest.param(np.array([1j, 0, 0]), id="complex-asymmetric"),
        pytest.param(np.array(["0", "1", "0"]), id="str"),
        pytest.param([None, 1.0, None], id="object"),
        pytest.param([0, 2**70, None], id="object-with-a-large-int"),
        pytest.param([0, 2**70, 1j], id="object-with-a-complex"),
    ],
)
def test_window_functions_reject_a_window_that_is_not_real(f, p):
    # A complex window used to be read as its real part, and strings died in matmul.
    with pytest.raises(ValueError, match="p must be real numbers"):
        f(p)


def test_window_functions_take_booleans_and_integers():
    assert moments(np.array([0, 1, 0])) == moments(np.array([0.0, 1.0, 0.0]))
    assert symmetry_residual(np.array([True, False, False])) == 1.0
    assert symmetry_residual(np.array([1, 0, 0], dtype=np.uint8)) == 1.0
    # A window of any real dtype gives exactly what its float64 conversion
    # gives; a longdouble one is rounded to float64 first, as fit samples are.
    window = np.random.default_rng(7).random(301) * 1000
    for dtype in (np.bool_, np.uint64, np.float16, np.float32, np.longdouble):
        p = window.astype(dtype)
        assert moments(p) == moments(p.astype(np.float64)), dtype
        assert symmetry_residual(p) == symmetry_residual(p.astype(np.float64)), dtype


def test_window_functions_take_ints_beyond_int64_as_floats():
    # numpy holds 2**70 as an object; it is a real number, as the sweeps
    # count one, so it converts to float64 like every other entry.
    assert moments([0, 2**70, 0]) == moments([0.0, 2.0**70, 0.0])
    assert moments([2**70, np.int64(1), True]) == moments([2.0**70, 1.0, 1.0])
    assert symmetry_residual([2**70, 0, 0]) == 2.0**70


@pytest.mark.parametrize("f", [moments, symmetry_residual])
def test_window_functions_refuse_an_int_beyond_the_float_range(f):
    with pytest.raises(ValueError, match="p must be real numbers within the float range"):
        f([0, 2**1024, 0])


def test_window_functions_take_a_list_as_the_array():
    p = distribution(evolve(initial_state(), PotentialProfile(3, 0.8), 20))
    assert moments(p.tolist()) == moments(p)
    assert symmetry_residual(p.tolist()) == symmetry_residual(p)
    assert moments([0.0, 1.0, 0.0]) == moments(np.array([0.0, 1.0, 0.0]))
    assert symmetry_residual([0.1, 0.8, 0.1]) == 0.0


def test_moments_variance_identity_on_simulated_state():
    state = evolve(initial_state(), PotentialProfile(3, 0.8), 60)
    m = moments(distribution(state))
    assert abs(m.sigma**2 + m.mean**2 - m.second_moment) < 1e-10


def test_hadamard_sigma_golden_value():
    # frozen regression value; the coarse 0.5412 ratio guards the physics
    state = evolve(initial_state(), PotentialProfile(1, math.pi / 4), 200)
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
    assert symmetry_residual(np.array([0.3, 0.0, 0.4, 0.0, 0.3])) == 0.0


def test_symmetry_residual_detects_asymmetry():
    # x = -1 .. 1: P(1) = 0.6 against P(-1) = 0
    assert abs(symmetry_residual(np.array([0.0, 0.4, 0.6])) - 0.6) < 1e-15


def test_symmetry_residual_of_simulated_walk():
    state = evolve(initial_state(), PotentialProfile(4, math.pi / 6), 51)
    assert symmetry_residual(distribution(state)) < 1e-12


def test_moments_over_slices_of_one_grid_keep_the_bytes_of_moments():
    # sweep-steps takes sigma as sqrt(p @ xx), xx a slice of one grid of
    # squared positions built for its longest walk, so each window starts at
    # another offset, and so at another alignment, than the grid moments
    # builds for it.  Its windows are mirrored bit for bit, so their exact
    # mean is 0 and the computed one too small to change second - mean².
    last = 1000
    x = np.arange(-last, last + 1, dtype=np.float64)
    xx = x * x
    rng = np.random.default_rng(21)
    for k in range(1, 301):
        p = rng.random(2 * k + 1)
        p[k + 1 :] = p[k - 1 :: -1]
        p /= p.sum()
        second = float(p @ xx[last - k : last + k + 1])
        fresh = moments(p)
        assert np.array([second, math.sqrt(second)]).tobytes() == (
            np.array([fresh.second_moment, fresh.sigma]).tobytes()
        ), k
