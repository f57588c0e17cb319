"""Kernel invariants over random periods, angles and walk lengths."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import from_dtype

from periodicwalk import (
    DOWN,
    UP,
    PotentialProfile,
    WalkState,
    distribution,
    evolve,
    initial_state,
    moments,
    path_sum_evolve,
    point_state,
    step,
    symmetry_residual,
)
from periodicwalk.core import _BLOCK_STEPS, _RING_ROWS, _SPAN_COLUMNS, _distributions, _walk
from periodicwalk.experiments import sweep_sigma_vs_steps, sweep_sigma_vs_theta
from walkref import (
    full_table_evolve,
    random_walk_state,
    strided_distribution,
    strided_parity_evolve,
)

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

#: Every bool, integer and float dtype numpy has: the dtype kinds b, i, u and f.
REAL_DTYPES = sorted({np.dtype(c) for c in "?" + np.typecodes["AllInteger"] + np.typecodes["Float"]}, key=str)


def real_scalars(**kwargs):
    """Numpy scalars of every real dtype; ``kwargs`` go to ``from_dtype``."""
    return st.sampled_from(REAL_DTYPES).flatmap(lambda d: from_dtype(d, **kwargs).map(d.type))


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
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_evolve_equals_branch_expansion_oracle(profile, n, position, direction, support, seed):
    # The oracle adds the same two products per cell in a different order;
    # two-term sums commute exactly, so the amplitudes are equal, not close.
    # A random start fills every live row, half the time at odd steps_taken.
    rng = np.random.default_rng(seed)
    starts = (initial_state(), point_state(position, direction), random_walk_state(rng, support))
    if n:
        # Every row filled: both walks read only the even rows, so they agree
        # from the first step on.  At n = 0 evolve returns its input as it is.
        rows = 2 * support + 1
        starts += (WalkState(rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))),)
    for start in starts:
        walked = evolve(start, profile, n)
        expanded = path_sum_evolve(start, profile, n)
        assert np.array_equal(walked.amplitudes, expanded.amplitudes)
        assert walked.steps_taken == expanded.steps_taken


#: Periods and angles for the walks from the symmetric start: q = 1..12 and
#: some beyond any walk's reach, theta exactly 0 and anywhere in [-50, 50].
symmetric_periods = st.one_of(st.integers(min_value=1, max_value=12), st.sampled_from([50, 10**6, 2**62]))
symmetric_angles = st.one_of(st.just(0.0), st.floats(min_value=-50, max_value=50))


@walks
@given(symmetric_periods, symmetric_angles, st.integers(min_value=0, max_value=300))
# One request holds a ring row alone at n = 1 and beside two spares past it.
@example(1, math.pi / 2, 1)
@example(4, math.pi / 6, 5)
@example(2, math.pi / 3, 6)
@example(3, 0.0, 7)
@example(1, 0.5, 12)
@example(10**6, 2.1, 13)
# The walk runs blocks of _BLOCK_STEPS steps after its first: one short of a
# block's edge, on it, one past it and one past the second.
@example(4, math.pi / 6, _BLOCK_STEPS - 1)
@example(1, 7 * math.pi / 6, _BLOCK_STEPS)
@example(3, -2.5, _BLOCK_STEPS + 1)
@example(2, math.pi / 3, 2 * _BLOCK_STEPS + 1)
# Row pairs of n // 2 + 2 columns just under, on and just over the widest
# whose Hadamard and all-scattering steps take the span form.
@example(1, 7 * math.pi / 6, 2 * (_SPAN_COLUMNS - 3) + 1)
@example(2, math.pi / 3, 2 * (_SPAN_COLUMNS - 2))
@example(1, -2.5, 2 * (_SPAN_COLUMNS - 2) + 1)
@example(4, math.pi / 6, 2 * (_SPAN_COLUMNS - 1))
# At theta = 0, U(0) has a zero real or imaginary part after most even
# steps, so the origin's D, set as -i U(0), holds zeros of either sign, which
# P must square to +0.  Row pairs of 256 and 257 columns, on and just over
# the span form's limit.
@example(2, 0.0, 2 * (_SPAN_COLUMNS - 2))
@example(1, 0.0, 2 * (_SPAN_COLUMNS - 2) + 1)
@example(2, 0.0, 2 * (_SPAN_COLUMNS - 1))
@example(3, 0.0, 2 * (_SPAN_COLUMNS - 1) + 1)
def test_distributions_equal_evolve_from_the_symmetric_start(q, theta, n):
    profile = PotentialProfile(q, theta)
    ((k, live),) = _distributions(profile, [n])
    p = distribution(evolve(initial_state(), profile, n))
    assert k == n
    assert live.tobytes() == p[: n + 1 : 2].tobytes()
    assert p.tobytes() == p[::-1].tobytes()


def ring_walks(rows: int):
    """Walk lengths below, at and between multiples of a ring of ``rows`` rows."""
    return st.one_of(
        st.integers(min_value=1, max_value=rows - 1),
        st.integers(min_value=1, max_value=8).map(lambda blocks: blocks * rows),
        st.integers(min_value=1, max_value=300),
    )


#: Sorted, distinct requested steps for the half-cone walk: every step to a
#: walk length from ``ring_walks``, with or without the start, and random
#: requests up to 300 steps, where the steps between them take spare rows.
requests = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=1), ring_walks(_RING_ROWS)).map(
        lambda walk: list(range(walk[0], walk[1] + 1))
    ),
    st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=40, unique=True).map(sorted),
)


@walks
@given(symmetric_periods, symmetric_angles, requests)
# The benchmark's step-sweep, every step to 1000, and one request at 1000.
@example(2, math.pi / 3, list(range(1, 1001)))
@example(4, math.pi / 6, [1000])
# One request and every step to it, at the block edges of the distributions
# test above.
@example(4, math.pi / 6, [_BLOCK_STEPS - 1])
@example(4, math.pi / 6, list(range(1, _BLOCK_STEPS)))
@example(1, 7 * math.pi / 6, [_BLOCK_STEPS])
@example(1, 7 * math.pi / 6, list(range(1, _BLOCK_STEPS + 1)))
@example(3, -2.5, [_BLOCK_STEPS + 1])
@example(3, -2.5, list(range(_BLOCK_STEPS + 2)))
@example(2, math.pi / 3, [2 * _BLOCK_STEPS + 1])
@example(2, math.pi / 3, list(range(2 * _BLOCK_STEPS + 2)))
# One request and every step to it, on either side of the span form's limit,
# as in the distributions test above.
@example(1, 7 * math.pi / 6, [2 * (_SPAN_COLUMNS - 3) + 1])
@example(2, math.pi / 3, list(range(1, 2 * (_SPAN_COLUMNS - 2) + 1)))
@example(1, -2.5, [2 * (_SPAN_COLUMNS - 2) + 1])
@example(4, math.pi / 6, list(range(2 * (_SPAN_COLUMNS - 1) + 1)))
def test_half_cone_yields_the_live_sites_of_evolve_at_and_left_of_the_origin(q, theta, ks):
    # Compared by value: the origin's D is set from U there, so an exact
    # zero may carry the other sign than evolve's.  UP's column 0 (x = -k)
    # must be exactly zero in every ring row: a start kept in a row would
    # leave i/sqrt 2 there once the row is reused.  The spare rows are
    # arrays of their own, which the walk never yields.  A requested step 0
    # is the start, which _distributions hands over itself; the walk takes
    # the steps from 1.
    profile = PotentialProfile(q, theta)
    ks = [k for k in ks if k]
    state, walked = initial_state(), []
    for steps, ring in _walk(state, profile, ks, 1) if ks else ():
        assert ring.shape == (min(_RING_ROWS, len(ks)), 2, ks[-1] // 2 + 2)
        assert len(steps) == _RING_ROWS or steps[-1] == ks[-1], steps
        assert ring[:, UP, 0].tobytes() == bytes(16 * len(ring))
        for k, (down, up) in zip(steps, ring):
            state = evolve(state, profile, k - state.steps_taken)
            live = state.amplitudes[: k + 1 : 2]
            assert np.array_equal(down[: k // 2 + 1], live[:, DOWN]) and np.array_equal(up[: k // 2 + 1], live[:, UP]), k
            # Past the live sites only zeros, but for U(+1) after an odd k.
            past = k // 2 + 1 + k % 2
            assert not down[k // 2 + 1 :].any() and not up[past:].any(), k
            if k % 2:
                assert up[k // 2 + 1] == state.amplitudes[k + 1, UP], k
        walked += steps
    assert walked == ks


@walks
@given(
    symmetric_periods,
    symmetric_angles,
    # Unsorted, and with duplicates when a value is drawn twice or doubled.
    st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=8).flatmap(
        lambda ns: st.sampled_from([ns, ns + ns[:1]])
    ),
)
def test_sweep_steps_has_the_bytes_of_a_fresh_walk_per_step_count(q, theta, ns):
    profile = PotentialProfile(q, theta)
    fresh = [moments(distribution(evolve(initial_state(), profile, n))).sigma for n in ns]
    assert sweep_sigma_vs_steps(q, theta, ns).tobytes() == np.array(fresh).tobytes()


@given(real_scalars(allow_nan=False, allow_infinity=False))
def test_a_finite_real_of_any_dtype_is_an_angle(x):
    assert PotentialProfile(2, x).theta == float(x)


@given(real_scalars())
def test_a_real_of_any_dtype_is_a_period_exactly_when_it_is_whole_and_positive(x):
    if np.isfinite(x) and x >= 1 and x == int(x):
        assert PotentialProfile(x, 0.3).period_q == int(x)
    else:
        with pytest.raises(ValueError, match="period_q must be an integer >= 1"):
            PotentialProfile(x, 0.3)


@given(st.one_of(st.text(), st.binary(), st.complex_numbers(), st.floats().map(complex), real_scalars().map(np.complex128)))
def test_text_bytes_and_complex_numbers_are_never_angles(x):
    with pytest.raises(ValueError, match="theta must be a finite real number"):
        PotentialProfile(2, x)


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


#: The same table in the memory layouts a ``WalkState`` accepts.
TABLE_LAYOUTS = {
    "C": lambda table: table,
    "Fortran": np.asfortranarray,
    "reversed": lambda table: table[::-1],
    "row-strided": lambda table: np.repeat(table, 2, axis=0)[::2],
}


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(sorted(TABLE_LAYOUTS)),
)
def test_distribution_keeps_the_bytes_of_the_strided_formula(k, zeros, seed, layout):
    # Real and imaginary parts up to 1 in magnitude, each at unit scale, at
    # 1e-160, whose squares are subnormal, or at 1e150, whose squares come
    # within a factor 1e8 of overflow; a share ``zeros`` of them are zeros
    # of either sign.
    rng = np.random.default_rng(seed)
    shape = (2 * k + 1, 4)
    parts = rng.uniform(-1, 1, shape) * rng.choice([1.0, 1e-160, 1e150], shape)
    parts[rng.random(shape) < zeros] = 0.0
    parts = np.copysign(parts, rng.choice([-1.0, 1.0], shape))
    state = WalkState(TABLE_LAYOUTS[layout](parts.view(np.complex128)))
    assert distribution(state).tobytes() == strided_distribution(state).tobytes()


@pytest.mark.parametrize("layout", sorted(TABLE_LAYOUTS))
@pytest.mark.parametrize("q", [1, 3])
@pytest.mark.parametrize("n", [1, _BLOCK_STEPS - 1, _BLOCK_STEPS + 1])
def test_evolve_reads_every_table_layout_as_its_c_contiguous_copy(layout, q, n):
    # The walk's first step reads the caller's live rows through stride-2
    # views of the table, whatever its memory layout; a start of odd and of
    # even steps_taken begins on the right row either way.
    profile = PotentialProfile(q, 7 * math.pi / 6)
    rng = np.random.default_rng(n * 4 + q)
    for support in range(4):
        table = TABLE_LAYOUTS[layout](random_walk_state(rng, support).amplitudes)
        expected = evolve(WalkState(np.ascontiguousarray(table)), profile, n).amplitudes.tobytes()
        assert evolve(WalkState(table), profile, n).amplitudes.tobytes() == expected, support
