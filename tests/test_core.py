"""Kernel-level behavior: coins, profiles, states, stepping, invariants."""

import math

import numpy as np
import pytest

import periodicwalk
from periodicwalk import (
    DOWN,
    UP,
    CoinDirection,
    NormDriftError,
    PotentialProfile,
    WalkState,
    check_norm,
    evolve,
    initial_state,
    path_sum_evolve,
    point_state,
    step,
)
from walkref import SQRT_HALF, hadamard_reference, max_amp_diff, random_walk_state, strided_parity_evolve


def coin_matrix(t, r):
    """[[t, r], [r, -t]] in (DOWN, UP) order, the form of both coins."""
    return np.array([[t, r], [r, -t]])


HADAMARD = coin_matrix(SQRT_HALF, SQRT_HALF)

#: The kernel and the branch-expansion oracle each build their own coins.
WALKS = (evolve, path_sum_evolve)


def site_coin(walk, profile, x):
    """The coin that ``walk`` applies at site x, read off one step.

    Column c is the step from unit amplitude on (x, c): its DOWN row is the
    amplitude landing on (x - 1, DOWN), its UP row the one on (x + 1, UP).
    """
    columns = []
    for c in (DOWN, UP):
        after = walk(point_state(x, c), profile, 1)
        columns.append([after.amplitude(x - 1, DOWN), after.amplitude(x + 1, UP)])
    return np.array(columns).T


def test_hadamard_coin_values():
    for walk in WALKS:
        assert np.allclose(site_coin(walk, PotentialProfile(4, 0.3), 1), HADAMARD, atol=1e-15)


def test_hadamard_coin_is_unitary_and_involutive():
    for walk in WALKS:
        h = site_coin(walk, PotentialProfile(4, 0.3), 1)
        assert np.allclose(h @ h.conj().T, np.eye(2), atol=1e-12)
        assert np.allclose(h @ h, np.eye(2), atol=1e-15)


def test_scattering_coin_quarter_pi_matches_hadamard():
    for walk in WALKS:
        assert np.allclose(site_coin(walk, PotentialProfile(4, math.pi / 4), 0), HADAMARD, atol=1e-15)


def test_scattering_coin_special_angles():
    for walk in WALKS:
        free = site_coin(walk, PotentialProfile(1, math.pi / 2), 0)
        assert np.allclose(free, np.diag([1.0, -1.0]), atol=1e-15)
        mirror = site_coin(walk, PotentialProfile(1, 0.0), 0)
        assert np.allclose(mirror, np.array([[0, 1], [1, 0]]), atol=1e-15)


@pytest.mark.parametrize(
    "walk,k",
    [pytest.param(evolve, k, id=str(k)) for k in range(-12, 37)]
    + [pytest.param(path_sum_evolve, k, id=f"oracle-{k}") for k in range(-12, 37)],
)
def test_scattering_coin_unitary_for_any_angle(walk, k):
    c = site_coin(walk, PotentialProfile(1, k * math.pi / 12), 0)
    assert np.allclose(c @ c.conj().T, np.eye(2), atol=1e-12)


@pytest.mark.parametrize("bad_q", [0, -1, -7, 1.5, math.inf, math.nan])
def test_profile_rejects_bad_period(bad_q):
    with pytest.raises(ValueError):
        PotentialProfile(bad_q, 0.3)


@pytest.mark.parametrize("bad_theta", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="10**400")])
def test_profile_rejects_nonfinite_theta(bad_theta):
    with pytest.raises(ValueError):
        PotentialProfile(2, bad_theta)


def test_profile_accepts_numpy_scalars():
    profile = PotentialProfile(np.int64(4), np.float64(0.3))
    assert profile.period_q == 4
    assert isinstance(profile.period_q, int)
    assert profile.theta == 0.3


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 2.0, math.pi, 5.5, -1.2, 9.0])
def test_profile_amplitudes_square_to_one(theta):
    profile = PotentialProfile(3, theta)
    assert abs(profile.transmission**2 + profile.reflection**2 - 1.0) < 1e-15


def test_is_scattering_site_period_four():
    profile = PotentialProfile(4, 0.3)
    scattering = coin_matrix(math.sin(0.3), math.cos(0.3))
    for walk in WALKS:
        for x in (0, 4, 8, -4, -8, 12):
            assert np.array_equal(site_coin(walk, profile, x), scattering)
        for x in (1, -1, 2, -2, 3, -3, 5):
            assert np.array_equal(site_coin(walk, profile, x), HADAMARD)


def test_is_scattering_site_period_one_everywhere():
    profile = PotentialProfile(1, 0.3)
    scattering = coin_matrix(math.sin(0.3), math.cos(0.3))
    for walk in WALKS:
        assert all(np.array_equal(site_coin(walk, profile, x), scattering) for x in range(-5, 6))


def test_is_scattering_site_vectorized():
    # One step from unit DOWN amplitude on every live site of a row sends
    # each site's transmission amplitude to (x - 1, DOWN): sin(theta) at the
    # multiples of q, 1/sqrt 2 elsewhere.
    profile = PotentialProfile(3, 0.3)
    for walk in WALKS:
        for k in (5, 6):
            amps = np.zeros((2 * k + 1, 2), dtype=np.complex128)
            amps[::2, DOWN] = 1.0  # x = -k, -k + 2, ..., k
            after = walk(WalkState(amps), profile, 1)
            xs = range(-k, k + 1, 2)
            transmitted = [after.amplitude(x - 1, DOWN) for x in xs]
            assert transmitted == [math.sin(0.3) if x % 3 == 0 else SQRT_HALF for x in xs]


def test_initial_state_contents():
    state = initial_state()
    assert state.steps_taken == 0
    assert state.amplitudes.shape == (1, 2)
    assert state.amplitude(0, DOWN) == SQRT_HALF
    assert state.amplitude(0, UP) == 1j * SQRT_HALF
    assert np.count_nonzero(state.amplitudes) == 2
    assert abs(state.norm() - 1.0) < 1e-15


def test_point_state_contents():
    state = point_state(-3, UP)
    assert state.steps_taken == 3
    assert state.amplitudes.shape == (7, 2)
    assert state.amplitude(-3, UP) == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert abs(state.norm() - 1.0) < 1e-15


@pytest.mark.parametrize("position", [2.5, math.inf, math.nan])
def test_point_state_rejects_fractional_or_infinite_arguments(position):
    with pytest.raises(ValueError):
        point_state(position, UP)


def test_amplitude_outside_table_is_zero():
    state = initial_state()
    assert state.amplitude(99, DOWN) == 0j
    assert state.amplitude(-99, UP) == 0j


def test_step_at_scattering_site():
    # origin is a scatterer for every q; transmission keeps the direction
    profile = PotentialProfile(4, math.pi / 6)
    after = step(point_state(0, DOWN), profile)
    assert abs(after.amplitude(-1, DOWN) - math.sin(math.pi / 6)) < 1e-15
    assert abs(after.amplitude(1, UP) - math.cos(math.pi / 6)) < 1e-15
    assert after.steps_taken == 1

    after_up = step(point_state(0, UP), profile)
    assert abs(after_up.amplitude(-1, DOWN) - math.cos(math.pi / 6)) < 1e-15
    assert abs(after_up.amplitude(1, UP) + math.sin(math.pi / 6)) < 1e-15


def test_step_at_hadamard_site():
    profile = PotentialProfile(4, math.pi / 6)
    after = step(point_state(1, DOWN), profile)
    assert abs(after.amplitude(0, DOWN) - SQRT_HALF) < 1e-15
    assert abs(after.amplitude(2, UP) - SQRT_HALF) < 1e-15

    after_up = step(point_state(1, UP), profile)
    assert abs(after_up.amplitude(0, DOWN) - SQRT_HALF) < 1e-15
    assert abs(after_up.amplitude(2, UP) + SQRT_HALF) < 1e-15


def test_each_step_grows_the_table_by_two_rows():
    # The table is the light cone: two steps from the origin reach |x| <= 2.
    profile = PotentialProfile(2, 0.4)
    state = step(step(initial_state(), profile), profile)
    assert state.amplitudes.shape == (5, 2)
    assert state.steps_taken == 2
    assert abs(state.norm() - 1.0) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 5])
def test_evolve_returns_the_light_cone_of_every_start(n):
    # A start of k steps and n more steps give a table of 2(k + n) + 1 rows.
    profile = PotentialProfile(3, 0.9)
    rng = np.random.default_rng(n)
    for start in (initial_state(), point_state(-3, UP), point_state(2, DOWN), random_walk_state(rng, 4)):
        k = start.steps_taken
        after = evolve(start, profile, n)
        assert after.amplitudes.shape == (2 * (k + n) + 1, 2)
        assert after.steps_taken == k + n


@pytest.mark.parametrize("bad", [-1, 1.5, math.inf])
def test_evolve_rejects_negative_steps(bad):
    with pytest.raises(ValueError):
        evolve(initial_state(), PotentialProfile(1, 0.4), bad)


@pytest.mark.parametrize("shape", [(6, 2), (7, 3), (7,)])
def test_walk_state_rejects_a_table_not_shaped_for_its_capacity(shape):
    # An even row count has no middle row for the origin, and a row holds
    # exactly the DOWN and UP amplitudes of one site.
    with pytest.raises(ValueError, match="shape"):
        WalkState(np.zeros(shape, dtype=np.complex128))


@pytest.mark.parametrize("dtype", [np.float64, np.complex64])
def test_walk_state_rejects_a_table_that_is_not_complex128(dtype):
    # A float64 table would stop evolve with a casting error, and a
    # complex64 one would evolve silently in single precision.
    with pytest.raises(ValueError, match="complex128"):
        WalkState(np.ones((3, 2), dtype=dtype))


def test_evolve_zero_steps_is_identity():
    state = initial_state()
    assert evolve(state, PotentialProfile(1, 0.4), 0) is state


def test_evolve_matches_repeated_step_bitwise():
    profile = PotentialProfile(3, 0.9)
    fast = evolve(initial_state(), profile, 9)
    slow = initial_state()
    for _ in range(9):
        slow = step(slow, profile)
    assert np.array_equal(fast.amplitudes, slow.amplitudes)
    assert fast.steps_taken == slow.steps_taken == 9


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_evolve_never_writes_or_shares_its_input(n):
    # evolve works in buffers of its own and returns a fresh table, which may
    # alias neither the caller's table nor the table of another call's result
    profile = PotentialProfile(3, 0.9)
    start = random_walk_state(np.random.default_rng(5), 3)
    before = start.amplitudes.tobytes()
    first = evolve(start, profile, n)
    second = evolve(start, profile, n)
    assert start.amplitudes.tobytes() == before
    assert not np.shares_memory(first.amplitudes, start.amplitudes)
    assert not np.shares_memory(second.amplitudes, start.amplitudes)
    assert not np.shares_memory(first.amplitudes, second.amplitudes)


def test_evolve_deterministic_bit_identical():
    profile = PotentialProfile(4, 1.1)
    a = evolve(initial_state(), profile, 40)
    b = evolve(initial_state(), profile, 40)
    assert a.amplitudes.tobytes() == b.amplitudes.tobytes()


@pytest.mark.parametrize("q", [10**23, 2**63])
def test_evolve_accepts_periods_beyond_int64(q):
    # A 10-step walk reads |x| <= 9, where any period above 9 marks only the
    # origin, so every such period gives the walk of q = 10.
    start = initial_state()
    expected = evolve(start, PotentialProfile(10, 1.0), 10).amplitudes
    profile = PotentialProfile(q, 1.0)
    assert np.array_equal(evolve(start, profile, 10).amplitudes, expected)
    assert np.array_equal(evolve(evolve(start, profile, 4), profile, 6).amplitudes, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16])
def test_coefficient_fill_for_every_period(n):
    # evolve marks the scattering rows of each parity through a strided
    # slice, with its own first row and stride for odd q, even q and the
    # parity of the leftmost row, and gives each parity its step class:
    # Hadamard, all scattering or mixed.  Every period up to 2N + 3 passes
    # the reach + 1 cap on q; the starts have even and odd steps_taken, and
    # the splits put every step at the head of a call.  The second angle has
    # sin and cos both negative, so the scalar coins carry a sign.
    starts = (initial_state(), random_walk_state(np.random.default_rng(n), 3))
    for theta in (1.0, -2.5):
        for q in [*range(1, 2 * n + 4), 2**62]:
            profile = PotentialProfile(q, theta)
            for start in starts:
                expected = strided_parity_evolve(start, profile, n).amplitudes.tobytes()
                for a in range(n + 1):
                    split = evolve(evolve(start, profile, a), profile, n - a)
                    assert split.amplitudes.tobytes() == expected, (theta, q, start.steps_taken, a)


@pytest.mark.parametrize("theta_pi", [0.16666666666666666, 4.166666666666667])
def test_4000_step_walk_equals_strided_parity_kernel(theta_pi):
    # The second angle leaves a band of subnormal amplitudes at the front of
    # the walk (2168 subnormal components in the final table at q = 4), which
    # a walk of a few hundred steps never reaches.  Every step of q = 1 is all
    # scattering and every step of q = 2 all scattering or all Hadamard;
    # q = 4 alternates Hadamard and mixed steps.
    start = initial_state()
    for q in (1, 2, 4):
        profile = PotentialProfile(q, theta_pi * math.pi)
        expected = strided_parity_evolve(start, profile, 4000).amplitudes.tobytes()
        assert evolve(start, profile, 4000).amplitudes.tobytes() == expected, q


@pytest.mark.parametrize("q,theta", [(1, 0.3), (2, math.pi / 4), (5, 2.1), (3, 0.0)])
def test_step_preserves_norm_on_random_states(q, theta):
    rng = np.random.default_rng(7)
    profile = PotentialProfile(q, theta)
    for support in (0, 3, 6):
        state = random_walk_state(rng, support)
        after = step(state, profile)
        assert abs(after.norm() - 1.0) < 1e-12


def test_support_and_parity_stay_exact_zeros():
    profile = PotentialProfile(3, 0.8)
    state = initial_state()
    for n in range(1, 32):
        state = step(state, profile)
        # The table is the light cone |x| <= n; its odd rows hold the sites
        # of the other parity.
        assert state.amplitudes.shape == (2 * n + 1, 2)
        block = state.amplitudes[1::2]
        # exact zeros, not merely small: nothing ever writes these cells
        assert np.all(block.real == 0.0)
        assert np.all(block.imag == 0.0)


def test_trapping_at_theta_zero():
    # pure reflection at every site pins the walker next to the origin
    state = evolve(initial_state(), PotentialProfile(1, 0.0), 40)
    xs = np.arange(state.amplitudes.shape[0]) - state.steps_taken
    inside = np.abs(xs) <= 1
    probs = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    assert abs(probs[inside].sum() - 1.0) < 1e-12
    assert np.all(state.amplitudes[~inside] == 0)


def test_trapping_at_theta_pi():
    state = evolve(initial_state(), PotentialProfile(1, math.pi), 40)
    xs = np.arange(state.amplitudes.shape[0]) - state.steps_taken
    probs = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    assert probs[np.abs(xs) <= 1].sum() > 1.0 - 1e-12


@pytest.mark.parametrize("n", [7, 8])
def test_free_propagation_amplitudes(n):
    # theta = pi/2 transmits perfectly; the UP branch picks up (-1)^n
    state = evolve(initial_state(), PotentialProfile(1, math.pi / 2), n)
    sign = -1.0 if n % 2 else 1.0
    assert abs(state.amplitude(-n, DOWN) - SQRT_HALF) < 1e-12
    assert abs(state.amplitude(n, UP) - 1j * sign * SQRT_HALF) < 1e-12
    probs = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    assert abs(probs[state.steps_taken - n] - 0.5) < 1e-12
    assert abs(probs[state.steps_taken + n] - 0.5) < 1e-12


def test_two_step_walk_from_point_seed():
    # hand expansion: |0,DOWN> -> h(|-1,DOWN> + |1,UP>)
    #                -> h^2(|-2,DOWN> + |0,UP>) + h^2(|0,DOWN> - |2,UP>)
    state = evolve(point_state(0, DOWN), PotentialProfile(1, math.pi / 4), 2)
    probs = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    by_x = {x: probs[x + state.steps_taken] for x in range(-2, 3)}
    assert abs(by_x[-2] - 0.25) < 1e-12
    assert abs(by_x[0] - 0.5) < 1e-12
    assert abs(by_x[2] - 0.25) < 1e-12
    assert by_x[-1] == 0.0
    assert by_x[1] == 0.0


@pytest.mark.parametrize("q", [1, 2, 5, 10])
def test_quarter_pi_collapses_to_hadamard_walk(q):
    # the scattering coin equals Hadamard at theta = pi/4, so the period
    # cannot matter; check against a dict-based reference walk
    n = 60
    state = evolve(initial_state(), PotentialProfile(q, math.pi / 4), n)
    assert max_amp_diff(state, hadamard_reference(n)) < 1e-12


def test_check_norm_passes_fresh_state():
    check_norm(initial_state())


def test_check_norm_raises_on_drift():
    state = initial_state()
    broken = WalkState(state.amplitudes * 2.0)
    with pytest.raises(NormDriftError):
        check_norm(broken)


def test_coin_direction_values():
    assert CoinDirection.DOWN == 0
    assert CoinDirection.UP == 1
    assert DOWN is CoinDirection.DOWN
    assert UP is CoinDirection.UP


def test_public_surface():
    # A name joins or leaves the package surface only by editing this list.
    assert sorted(periodicwalk.__all__) == sorted([
        "__version__",
        "NORM_DRIFT_TOL",
        "CoinDirection",
        "DOWN",
        "NormDriftError",
        "PotentialProfile",
        "UP",
        "WalkState",
        "check_norm",
        "evolve",
        "initial_state",
        "point_state",
        "step",
        "Moments",
        "distribution",
        "moments",
        "q1_law",
        "q2_law",
        "symmetry_residual",
        "MAX_ORACLE_STEPS",
        "path_sum_evolve",
    ])
    for name in periodicwalk.__all__:
        assert hasattr(periodicwalk, name), name
