"""Kernel invariants over random periods, angles and walk lengths."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from periodicwalk import (
    DOWN,
    UP,
    PotentialProfile,
    distribution,
    evolve,
    initial_state,
    path_sum_evolve,
    point_state,
    step,
    symmetry_residual,
)
from periodicwalk.experiments import sweep_sigma_vs_theta
from walkref import full_table_evolve, random_walk_state, strided_parity_evolve

profiles = st.builds(
    PotentialProfile,
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=-4 * math.pi, max_value=4 * math.pi),
)
#: (a, N) with 0 <= a <= N <= 300: a walk of N steps split after step a.
splits = st.integers(min_value=0, max_value=300).flatmap(
    lambda n: st.tuples(st.integers(min_value=0, max_value=n), st.just(n))
)
walks = settings(max_examples=50, deadline=None)


@walks
@given(profiles, splits)
def test_evolve_composes_and_equals_repeated_step(profile, split):
    a, n = split
    start = initial_state()
    whole = evolve(start, profile, n)
    halves = evolve(evolve(start, profile, a), profile, n - a)
    assert np.array_equal(whole.amplitudes, halves.amplitudes)
    stepped = start
    for _ in range(n):
        stepped = step(stepped, profile)
    assert np.array_equal(whole.amplitudes, stepped.amplitudes)
    assert whole.steps_taken == halves.steps_taken == stepped.steps_taken == n


@walks
@given(
    profiles,
    splits,
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([DOWN, UP]),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_windowed_evolve_equals_full_table_kernel(profile, split, position, direction, support, seed):
    # A random start fills every live row of its parity, for odd and even
    # steps_taken, so the stride-2 reads must start on the right row.
    a, n = split
    starts = (
        initial_state(),
        point_state(position, direction),
        random_walk_state(np.random.default_rng(seed), support),
    )
    for start in starts:
        full = full_table_evolve(start, profile, n)
        whole = evolve(start, profile, n)
        halves = evolve(evolve(start, profile, a), profile, n - a)
        assert np.array_equal(whole.amplitudes, full.amplitudes)
        assert np.array_equal(halves.amplitudes, full.amplitudes)
        assert whole.steps_taken == halves.steps_taken == full.steps_taken
        # The contiguous buffers change where the live sites are kept, not
        # what is computed, so against the strided parity kernel even the
        # signs of zeros agree.
        strided = strided_parity_evolve(start, profile, n).amplitudes.tobytes()
        assert whole.amplitudes.tobytes() == halves.amplitudes.tobytes() == strided


@walks
@given(
    profiles,
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([DOWN, UP]),
)
def test_evolve_equals_branch_expansion_oracle(profile, n, position, direction):
    # The oracle adds the same two products per cell in a different order;
    # two-term sums commute exactly, so the amplitudes are equal, not close.
    starts = (initial_state(), point_state(position, direction))
    for start in starts:
        walked = evolve(start, profile, n)
        expanded = path_sum_evolve(start, profile, n)
        assert np.array_equal(walked.amplitudes, expanded.amplitudes)
        assert walked.steps_taken == expanded.steps_taken


#: Largest |P(x) at theta - P(x) at theta + 2 pi| allowed.  sin and cos of the
#: two angles differ in their last bits; the largest gap measured over 300
#: random (q, theta, N <= 300) cases drawn as ``profiles`` draws them was 1.3e-14.
FULL_TURN_CEILING = 1e-12


@walks
@given(profiles, st.integers(min_value=1, max_value=300))
def test_full_turn_of_theta_keeps_the_distribution(profile, n):
    turned = PotentialProfile(profile.period_q, profile.theta + 2 * math.pi)
    p = distribution(evolve(initial_state(), profile, n))
    p_turned = distribution(evolve(initial_state(), turned, n))
    assert np.max(np.abs(p - p_turned)) <= FULL_TURN_CEILING


#: Criterion 10's frozen bound on |sigma(theta) - sigma(2 pi - theta)| and, at
#: q = 1, on |sigma(theta) - sigma(theta + pi)|.  The largest gaps measured
#: over 300 random (q, theta, N <= 300) cases were 3.4e-12 and 4.7e-12.
SIGMA_SYMMETRY_CEILING = 1e-9


@walks
@given(profiles, st.integers(min_value=1, max_value=300))
def test_sigma_angle_symmetries(profile, n):
    q, theta = profile.period_q, profile.theta
    mirrored = sweep_sigma_vs_theta(q, [theta, 2 * math.pi - theta], n)
    assert abs(mirrored[0] - mirrored[1]) <= SIGMA_SYMMETRY_CEILING
    shifted = sweep_sigma_vs_theta(1, [theta, theta + math.pi], n)
    assert abs(shifted[0] - shifted[1]) <= SIGMA_SYMMETRY_CEILING


@walks
@given(profiles, st.integers(min_value=1, max_value=300))
def test_norm_and_symmetry_hold(profile, n):
    state = evolve(initial_state(), profile, n)
    assert abs(state.norm() - 1.0) <= 1e-12
    assert symmetry_residual(distribution(state)) <= 1e-12


@walks
@given(profiles, st.integers(min_value=1, max_value=300))
def test_cells_outside_light_cone_or_of_wrong_parity_are_exact_zeros(profile, n):
    state = evolve(initial_state(), profile, n)
    assert state.amplitudes.shape == (2 * n + 1, 2)
    xs = np.arange(state.amplitudes.shape[0]) - state.steps_taken
    dead = state.amplitudes[(np.abs(xs) > n) | ((xs - n) % 2 != 0)]
    assert np.all(dead.real == 0.0)
    assert np.all(dead.imag == 0.0)
