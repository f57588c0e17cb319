"""Kernel-level behavior: coins, profiles, states, stepping, invariants."""

import hashlib
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import periodicwalk
import periodicwalk.core as core
from periodicwalk import (
    DOWN,
    UP,
    CoinDirection,
    NormDriftError,
    PotentialProfile,
    WalkState,
    check_norm,
    distribution,
    evolve,
    initial_state,
    path_sum_evolve,
    point_state,
    q1_law,
    q2_law,
    step,
)
from periodicwalk.core import _RING_ROWS, _distributions
from periodicwalk.experiments import (
    check_q1_closed_form,
    sweep_sigma_vs_inverse_period,
    sweep_sigma_vs_steps,
    sweep_sigma_vs_theta,
)
from walkref import (
    SQRT_HALF,
    full_table_evolve,
    hadamard_reference,
    max_amp_diff,
    random_walk_state,
    strided_parity_evolve,
)


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


#: Not a bool, an integer or a float from Python or numpy, so no entry point
#: takes them: strings, bytes, complex numbers even with no imaginary part,
#: Fraction, Decimal and 0-d arrays.
NOT_REAL = ["3", b"3", "abc", None, 3 + 0j, 1j, np.complex128(3), np.complex128(1j), Fraction(3), Decimal(3), np.array(3)]
INF, NAN, H, C = math.inf, math.nan, SQRT_HALF + 0j, np.complex128(0.5 + 1j)
START, PROFILE = initial_state(), PotentialProfile(2, 0.5)
PERIOD = "period_q must be an integer >= 1, got {got}"
ANGLE = "theta must be a finite real number, got {got}"
STEPS = "n_steps must be an integer >= {}, got {{got}}"
DIRECTION = r"direction must be 0 \(DOWN\) or 1 \(UP\), got {got}"

#: entry point: (a call on one value, the whole message of its ValueError with
#: {got} for the value's repr, the values it refuses, the (value, result) pairs
#: it accepts).  A list grid puts the value after a good one, so the message
#: must name the value itself; an array grid puts it first, since a complex
#: entry makes every entry complex.  The direction is checked before the site.
RULE = {
    "PotentialProfile.period_q": (
        lambda v: PotentialProfile(v, 0.3).period_q, PERIOD, [0, -1, -7, False, 1.5, INF, NAN, *NOT_REAL],
        [(np.int64(4), 4), (4.0, 4), (np.float32(4), 4), (True, 1), (np.uint64(2**63), 2**63), (10**23, 10**23)]),
    "PotentialProfile.theta": (
        lambda v: PotentialProfile(2, v).theta, ANGLE, [INF, -INF, NAN, 10**400, 0.5 + 0j, [0.5], "0.5", b"0.5", *NOT_REAL],
        [(np.float64(0.3), 0.3), (np.float16(0.5), 0.5), (np.longdouble(0.25), 0.25), (np.int8(-3), -3.0), (np.True_, 1.0)]),
    "point_state.position": (
        lambda v: point_state(v, UP).steps_taken, "position must be an integer, got {got}",
        [2.5, INF, NAN, *NOT_REAL], [(np.int64(-3), 3), (2.0, 2), (False, 0)]),
    "point_state.direction": (
        lambda v: point_state(0, v).amplitude(0, UP), DIRECTION, [-1, 2, 0.5, *NOT_REAL],
        [(UP, 1 + 0j), (np.int64(1), 1 + 0j), (1.0, 1 + 0j), (True, 1 + 0j), (np.uint8(0), 0j)]),
    "WalkState.amplitude.x": (
        lambda v: (START.amplitude(v, DOWN), START.amplitude(v, UP)), "x must be an integer, got {got}",
        [0.5, "0", *NOT_REAL], [(np.int64(0), (H, 1j * H)), (0.0, (H, 1j * H))]),
    "WalkState.amplitude.direction": (
        lambda v: (START.amplitude(99, v), START.amplitude(0, v)), DIRECTION,
        [-1, 2, *NOT_REAL], [(np.int64(1), (0j, 1j * H)), (0.0, (0j, H))]),
    "evolve.n_steps": (
        lambda v: evolve(START, PROFILE, v).steps_taken, STEPS.format(0),
        [-1, 1.5, INF, *NOT_REAL], [(np.int64(3), 3), (3.0, 3), (True, 1)]),
    "path_sum_evolve.n_steps": (
        lambda v: path_sum_evolve(START, PROFILE, v).steps_taken, STEPS.format(0),
        [-1, INF, *NOT_REAL], [(np.uint8(2), 2), (2.0, 2)]),
    "sweep_sigma_vs_inverse_period.q_values": (
        lambda v: len(sweep_sigma_vs_inverse_period(0.5, [3, v, 10], 10)), PERIOD,
        [2.5, "4", *NOT_REAL], [(np.int64(4), 3), (4.0, 3), (2**70, 3)]),
    "sweep_sigma_vs_steps.n_values": (
        lambda v: len(sweep_sigma_vs_steps(1, 0.5, [5, v, 10])), "n_values must be an integer >= 1, got {got}",
        [5.7, 2.5, "5", 0, *NOT_REAL], [(np.int64(7), 3), (7.0, 3)]),
    "sweep_sigma_vs_theta.theta_grid": (
        lambda v: len(sweep_sigma_vs_theta(2, [0.5, v], 10)), ANGLE, [0.5 + 1j, INF, *NOT_REAL], [(np.float32(0.25), 2)]),
    "sweep_sigma_vs_theta.theta_grid_array": (lambda v: sweep_sigma_vs_theta(2, np.array([v, 0.5]), 10), ANGLE, [C], []),
    "sweep_sigma_vs_theta.n_steps": (
        lambda v: len(sweep_sigma_vs_theta(2, [0.5], v)), STEPS.format(1), [20.9, 0, *NOT_REAL], [(10.0, 1)]),
    "check_q1_closed_form.theta_grid": (
        lambda v: len(check_q1_closed_form([0.5, v], 100).law), ANGLE, [0.5 + 1j, *NOT_REAL], [(np.float64(1.0), 2)]),
    "check_q1_closed_form.theta_grid_array": (lambda v: check_q1_closed_form(np.array([v, 0.5]), 100), ANGLE, [C], []),
    "check_q1_closed_form.n_steps": (
        lambda v: len(check_q1_closed_form([0.5], v).law), STEPS.format(100), [100.9, 99, *NOT_REAL], [(np.int64(100), 1)]),
    "q1_law.theta": (lambda v: q1_law(v, 100), ANGLE, [INF, NAN, *NOT_REAL], [(np.float64(0.0), 0.0), (np.int8(0), 0.0)]),
    "q1_law.n_steps": (
        lambda v: q1_law(math.pi / 2, v), STEPS.format(0), [-3, 2.5, INF, NAN, *NOT_REAL],
        [(np.int64(100), q1_law(math.pi / 2, 100)), (100.0, q1_law(math.pi / 2, 100)), (0, 0.0)]),
    "q2_law.theta": (lambda v: q2_law(v, 100), ANGLE, [INF, NAN, *NOT_REAL], [(np.float64(0.0), 0.0), (np.int8(0), 0.0)]),
    "q2_law.n_steps": (
        lambda v: q2_law(math.pi / 2, v), STEPS.format(0), [-3, 2.5, INF, NAN, *NOT_REAL],
        [(np.int64(100), q2_law(math.pi / 2, 100)), (100.0, q2_law(math.pi / 2, 100)), (0, 0.0)]),
}
REFUSED = object()


@pytest.mark.parametrize(
    "entry,value,expected",
    [
        pytest.param(entry, value, expected, id=f"{entry}-{repr(value) if len(repr(value)) < 30 else type(value).__name__}")
        for entry, (_, _, refused, accepted) in RULE.items()
        for value, expected in [*((v, REFUSED) for v in refused), *accepted]
    ],
)
def test_every_argument_meets_the_one_real_number_rule(entry, value, expected):
    call, message, _, _ = RULE[entry]
    if expected is REFUSED:
        with pytest.raises(ValueError, match=f"^(?:{message.format(got=re.escape(repr(value)))})$"):
            call(value)
    else:
        result = call(value)
        assert result == expected
        assert type(result) is type(expected)


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


def test_walk_state_rejects_a_table_that_is_not_a_numpy_array():
    # Rejected, not converted: the table a state holds is the one it was given.
    with pytest.raises(ValueError, match="numpy array"):
        WalkState([[1 + 0j, 0j]])


@pytest.mark.parametrize("subclass", ["matrix", "MaskedArray"])
def test_walk_state_rejects_a_table_of_an_ndarray_subclass(subclass):
    # A matrix stops evolve and step with a broadcast error and norm with a
    # TypeError; evolve would ignore a masked array's mask.
    table = evolve(initial_state(), PotentialProfile(2, 0.3), 3).amplitudes
    if subclass == "matrix":
        with pytest.warns(PendingDeprecationWarning):
            table = np.asmatrix(table)
    else:
        table = np.ma.masked_array(table)
    assert type(table).__name__ == subclass
    with pytest.raises(ValueError, match=f"numpy array, got {subclass}"):
        WalkState(table)


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


@pytest.mark.parametrize("q", [1, 2, 4])
def test_a_profile_reused_over_1000_steps_gives_the_bytes_of_a_fresh_one(q):
    # q = 1 scatters on every step, q = 2 alternates all-scattering and
    # Hadamard steps, and q = 4 mixes both on one parity.  A profile keeps no
    # state between walks, so its equality, hash and repr stay those of its
    # fields.
    theta = math.pi / 3
    reused = PotentialProfile(q, theta)
    walked = fresh = initial_state()
    for _ in range(1000):
        walked = step(walked, reused)
        fresh = step(fresh, PotentialProfile(q, theta))
    assert walked.amplitudes.tobytes() == fresh.amplitudes.tobytes()
    assert reused == PotentialProfile(q, theta)
    assert hash(reused) == hash(PotentialProfile(q, theta))
    assert repr(reused) == f"PotentialProfile(period_q={q}, theta={theta!r})"


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
    # evolve marks the scattering sites of each parity, x % q == 0, for odd
    # q, even q and either parity of the leftmost site, and gives each
    # parity its step class: Hadamard, all scattering or mixed.  Every
    # period up to 2N + 3 passes the reach + 1 cap on q; the starts have
    # even and odd steps_taken, and the splits put every step at the head
    # of a call.  The second angle has
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


@pytest.mark.parametrize("q", [*range(1, 21), 50, 10**6, 2**62, 10**30])
def test_step_classes_follow_the_scattering_sites(q):
    # Every form gives the same amplitudes, so no byte test sees a parity
    # that takes the wrong form; only its speed would show it.  The step
    # from k into k + 1 reads parity p = (n - 1 - k) % 2, the sites x = p -
    # reach, p - reach + 2, ..., reach, and takes form 2 (Hadamard) when
    # none of them scatters, 3 (all scattering) when every one does, and 4
    # (mixed) otherwise; a mixed parity's rows run on to x = reach +
    # _BLOCK_STEPS, for the steps of a block that run past their live
    # sites, whatever class those sites would give.  _step_forms works the
    # form out by arithmetic on q and reach - p, so every reach up to 140 is
    # held to the count of scattering sites, for periods past it and below
    # it.  A walk of more than one step whose row pairs hold at most
    # _SPAN_COLUMNS columns, with a parity of form 2 or 3, also gets the
    # span forms: 0 and 1 in place of 2 and 3, with the same coin entries.
    theta = 1.0
    coin = math.sin(theta), math.cos(theta)
    profile = PotentialProfile(q, theta)
    past = core._BLOCK_STEPS
    for reach in (*range(141), 199):
        for n in (1, 2, 3, 70):
            forms, span_forms = core._step_forms(profile, reach, n, core._SPAN_COLUMNS + 1)
            assert len(forms) == min(n, 2) and span_forms is None, (reach, n)
            for k, (form, t, r) in enumerate(forms):
                p = (n - 1 - k) % 2
                live = [x % q == 0 for x in range(p - reach, reach + 1, 2)]
                scatters = [x % q == 0 for x in range(p - reach, reach + past + 1, 2)]
                where = (reach, n, k)
                if not any(live):
                    assert (form, t, r) == (2, None, None), where
                elif all(live):
                    expected = [np.array(complex(c)) for c in coin]
                    assert form == 3, where
                    assert [(c.shape, c.tobytes()) for c in (t, r)] == [((), e.tobytes()) for e in expected], where
                else:
                    expected = [np.array([c if s else SQRT_HALF for s in scatters], dtype=np.complex128) for c in coin]
                    assert form == 4, where
                    assert [(c.ndim, c.dtype, c.tobytes()) for c in (t, r)] == [(1, e.dtype, e.tobytes()) for e in expected], where
            narrow_forms, span_forms = core._step_forms(profile, reach, n, core._SPAN_COLUMNS)
            assert [f[0] for f in narrow_forms] == [f[0] for f in forms], (reach, n)
            if n == 1 or all(f[0] == 4 for f in forms):
                assert span_forms is None, (reach, n)
            else:
                assert [f[0] for f in span_forms] == [{2: 0, 3: 1}.get(f[0], f[0]) for f in forms], (reach, n)
                assert all(s[1] is f[1] and s[2] is f[2] for s, f in zip(span_forms, narrow_forms)), (reach, n)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_evolve_at_every_step_class_edge(n, q):
    # n = 1 steps from the caller's table straight into the one requested
    # row, n = 2 goes through one spare row pair, n = 3 both and n = 4 wraps
    # back to the first; q = 1..4 give every pair of step classes on the two
    # parities.  Both coefficients are kept
    # non-negative: with a negative one the three kernels may differ in the
    # sign of an exact zero.
    rng = np.random.default_rng(n * 4 + q)
    starts = [point_state(x, c) for x in (-1, 0, 1, 2) for c in (DOWN, UP)]
    starts += [random_walk_state(rng, support) for support in range(4)]
    for theta in (0.0, math.pi / 6, 1.0):
        profile = PotentialProfile(q, theta)
        for start in starts:
            walked = evolve(start, profile, n).amplitudes.tobytes()
            assert walked == path_sum_evolve(start, profile, n).amplitudes.tobytes(), (theta, start.steps_taken)
            assert walked == full_table_evolve(start, profile, n).amplitudes.tobytes(), (theta, start.steps_taken)


@pytest.mark.parametrize("theta", [7 * math.pi / 6, -2.5], ids=["7pi/6", "-2.5"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_evolve_across_its_step_blocks_equals_both_references(q, theta):
    # Between its first and last step evolve runs blocks of _BLOCK_STEPS
    # steps on views as wide as each block's widest step, so the walks end
    # one step short of a block, on its edge, one past it and one past the
    # second.  Both angles make both coin entries negative, so an
    # all-scattering step (q = 1 and 2) leaves -0 in the columns past the
    # live sites, and evolve resets the one that a live site reads to +0.
    # The oracle expands only non-zero cells, so it may differ from both
    # kernels in the sign of a zero wherever a start has an exact zero on a
    # live site: the point states, the starts on which a missing reset
    # shows, are held to the strided kernel alone.
    rng = np.random.default_rng(q)
    dense = [initial_state(), random_walk_state(rng, 1), random_walk_state(rng, 2)]
    sparse = [point_state(-1, UP), point_state(-2, UP)]
    references = [(start, True) for start in dense] + [(start, False) for start in sparse]
    profile = PotentialProfile(q, theta)
    block = core._BLOCK_STEPS
    for n in (block - 1, block, block + 1, 2 * block + 1):
        for start, to_oracle in references:
            walked = evolve(start, profile, n).amplitudes.tobytes()
            assert walked == strided_parity_evolve(start, profile, n).amplitudes.tobytes(), (n, start.steps_taken)
            if to_oracle:
                assert walked == path_sum_evolve(start, profile, n).amplitudes.tobytes(), (n, start.steps_taken)


#: Angles in each sign quadrant of (sin theta, cos theta), and at +-0.0.
SIGN_QUADRANTS = [
    pytest.param(math.pi / 6, id="++"),
    pytest.param(5 * math.pi / 6, id="+-"),
    pytest.param(11 * math.pi / 6, id="-+"),
    pytest.param(7 * math.pi / 6, id="--"),
    pytest.param(0.0, id="+0"),
    pytest.param(-0.0, id="-0"),
]


@pytest.mark.parametrize("theta", SIGN_QUADRANTS)
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_evolve_in_every_sign_quadrant_equals_the_strided_kernel(q, theta):
    # evolve resets DOWN's column past the live sites to +0 only when sin
    # theta and cos theta both have their sign bit set.  The point states
    # have exact zeros on live sites, so a -0 left in that column, which a
    # live site then reads, would show in the sign of a zero.  The lengths
    # end on either side of a block's edge and of the span form's limit.
    profile = PotentialProfile(q, theta)
    for n in (63, 64, 65, 129, 255, 256, 257):
        for start in (point_state(-1, UP), point_state(-2, UP)):
            walked = evolve(start, profile, n).amplitudes.tobytes()
            assert walked == strided_parity_evolve(start, profile, n).amplitudes.tobytes(), (n, start.steps_taken)


@pytest.mark.parametrize("theta", [param for param in SIGN_QUADRANTS if param.id != "--"])
@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_walk_leaves_plus_zero_past_the_live_sites_where_it_skips_the_reset(q, theta):
    # Unless sin theta and cos theta both have their sign bit set, the full
    # cone never resets DOWN's column past the live sites: every DOWN column
    # past them holds +0 in both parts on its own, in every ring row, over
    # steps on both sides of a block's edge and of the span form's limit.
    profile = PotentialProfile(q, theta)
    ks = [1, 2, 3, 63, 64, 65, 129, 200, 254, 255]
    starts = (initial_state(), point_state(-1, UP), random_walk_state(np.random.default_rng(q), 2))
    for start in starts:
        w0 = start.steps_taken + 1
        seen = []
        for steps, ring in core._walk(start, profile, ks, 0):
            for row, k in zip(ring, steps):
                # The last step's row holds no column past its live sites.
                past = row[DOWN, w0 + k :].view(np.float64)
                assert past.size == 2 * (ks[-1] - k), (k, start.steps_taken)
                assert not past.any() and not np.signbit(past).any(), (k, start.steps_taken)
            seen += steps
        assert seen == ks


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_evolve_allocates_nothing_per_step(q):
    # A 1000-site temporary is 16 KiB, so one made per step, or kept per
    # step, would pass the 8 KiB left over for the coins and small objects.
    # The walk frees its spare row pairs, scratch row and coefficient rows
    # before the returned table is allocated, so the peak is the larger of
    # the two phases, not their sum.  At N = 1000 the row pairs are wider
    # than _SPAN_COLUMNS, so the walk holds no product rows.
    n, site = 1000, np.dtype(np.complex128).itemsize
    assert n + 1 > core._SPAN_COLUMNS
    start, profile = initial_state(), PotentialProfile(q, math.pi / 6)
    mixed_parities = {1: 0, 2: 0, 3: 2, 4: 1}[q]
    pair = 2 * (n + 1) * site
    walking = (
        3 * pair  # the requested row pair and its two spares
        + n * site  # the scratch row
        # (t, r) rows of each mixed parity, padded for the steps of a block
        + mixed_parities * 2 * (n + core._BLOCK_STEPS // 2) * site
    )
    copying = pair + (2 * n + 1) * 2 * site  # the requested row pair and the returned table
    allowed = max(walking, copying) + 8 * 1024
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        walked = evolve(start, profile, n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert walked.steps_taken == n
    assert peak <= allowed, (peak, allowed)


def _walk_digests(q: int, theta: float, n: int) -> list[bytes]:
    """The bytes of evolve from four starts, and digests of every P(x) and sigma of the half cone, over 1..n."""
    rng = np.random.default_rng(n * 8 + q)
    starts = [initial_state(), point_state(-1, UP), random_walk_state(rng, 1), random_walk_state(rng, 2)]
    profile = PotentialProfile(q, theta)
    tables = [evolve(start, profile, n).amplitudes.tobytes() for start in starts]
    digest = hashlib.sha256()
    for _, live in _distributions(profile, range(n + 1)):
        digest.update(live.tobytes())
    return tables + [digest.digest(), sweep_sigma_vs_steps(q, theta, range(1, n + 1)).tobytes()]


@pytest.mark.parametrize("theta", [math.pi / 6, 7 * math.pi / 6, -2.5, 1e-300], ids=["pi/6", "7pi/6", "-2.5", "1e-300"])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 7])
def test_both_step_forms_give_the_same_bytes_at_every_width(monkeypatch, q, theta):
    # With _SPAN_COLUMNS at 0 every Hadamard and all-scattering step takes
    # its products on d and u; above any walk's row pair, every one after
    # the first takes them over the row pair's flat span.  7 pi/6 and -2.5
    # make both coin entries negative, so the span form's products also run
    # over -0 past the live sites; at 1e-300, t = sin theta is 1e-300 itself,
    # so products of t fall through the subnormals to zero.
    block = core._BLOCK_STEPS
    for n in (block - 1, block, block + 1, 2 * block + 1, 1000):
        monkeypatch.setattr(core, "_SPAN_COLUMNS", 0)
        on_rows = _walk_digests(q, theta, n)
        monkeypatch.setattr(core, "_SPAN_COLUMNS", 1 << 40)
        assert _walk_digests(q, theta, n) == on_rows, n


#: Column counts of a row pair on either side of the span form's limit.
SPAN_EDGES = [core._SPAN_COLUMNS - 1, core._SPAN_COLUMNS, core._SPAN_COLUMNS + 1]


@pytest.mark.parametrize("columns", SPAN_EDGES)
@pytest.mark.parametrize("q", [1, 2, 4])
def test_evolve_at_the_span_limit_equals_the_strided_kernel(q, columns):
    # evolve's row pair holds the k0 + n + 1 live sites of its result, so
    # the walks below end just under, on and just over _SPAN_COLUMNS.
    rng = np.random.default_rng(columns * 4 + q)
    starts = [initial_state(), point_state(-1, UP), random_walk_state(rng, 2)]
    for theta in (math.pi / 6, 7 * math.pi / 6):
        profile = PotentialProfile(q, theta)
        for start in starts:
            n = columns - 1 - start.steps_taken
            walked = evolve(start, profile, n).amplitudes.tobytes()
            assert walked == strided_parity_evolve(start, profile, n).amplitudes.tobytes(), (theta, start.steps_taken)


@pytest.mark.parametrize("columns", SPAN_EDGES)
@pytest.mark.parametrize("q", [1, 2, 4])
def test_half_cone_at_the_span_limit_equals_evolve(q, columns):
    # The half cone's row pairs hold n // 2 + 2 columns: both n with that
    # many, the odd one past the even one.
    profile = PotentialProfile(q, 7 * math.pi / 6)
    for n in (2 * (columns - 2), 2 * (columns - 2) + 1):
        ((k, live),) = _distributions(profile, [n])
        p = distribution(evolve(initial_state(), profile, n))
        assert k == n
        assert live.tobytes() == p[: n + 1 : 2].tobytes(), n
        assert p.tobytes() == p[::-1].tobytes(), n


@pytest.mark.parametrize("theta_pi", [0.16666666666666666, 4.166666666666667])
def test_4000_step_walk_equals_strided_parity_kernel(theta_pi):
    # The second angle leaves a band of subnormal amplitudes at the front of
    # the walk (2168 subnormal components in the final table at q = 4), which
    # a walk of a few hundred steps never reaches.  Every step of q = 1 is all
    # scattering and every step of q = 2 all scattering or all Hadamard;
    # q = 4 alternates Hadamard and mixed steps, and q = 3, an odd period,
    # makes every step mixed.
    start = initial_state()
    for q in (1, 2, 3, 4):
        profile = PotentialProfile(q, theta_pi * math.pi)
        expected = strided_parity_evolve(start, profile, 4000).amplitudes.tobytes()
        assert evolve(start, profile, 4000).amplitudes.tobytes() == expected, q


@pytest.mark.parametrize(
    "q,theta_pi",
    [
        pytest.param(4, 0.16666666666666666, id="long-walk"),
        pytest.param(2, 0.3333333333333333, id="step-sweep"),
        # A heavier band of subnormal amplitudes at the walk's front.
        pytest.param(4, 13.833333333333334, id="subnormal-band"),
    ],
)
def test_4000_step_distributions_equal_evolve(q, theta_pi):
    profile = PotentialProfile(q, theta_pi * math.pi)
    ((k, live),) = _distributions(profile, [4000])
    p = distribution(evolve(initial_state(), profile, 4000))
    assert k == 4000
    assert live.tobytes() == p[:4001:2].tobytes()
    assert p.tobytes() == p[::-1].tobytes()


def test_distributions_of_one_request_allocates_one_block_row():
    # simulate asks for one snapshot, so the walk holds it in one ring row
    # and every other step in two spare row pairs, and the squares and the P
    # over x <= 0 that it reduces the snapshot into take one row each.  A
    # ufunc that ran numpy's buffered iterator on the batch, as on a window
    # narrower than the row it sits in, would add a 64 KiB temporary, and a
    # ring of more rows would add 64 KiB a row; either goes past the 12 KiB
    # left over for the coins and small objects.
    n, site, real = 4000, np.dtype(np.complex128).itemsize, np.dtype(np.float64).itemsize
    columns = n // 2 + 2
    allowed = (
        (1 + 2) * 2 * columns * site  # the half-cone walk's ring row and its two spare row pairs
        + (columns - 1) * site  # its scratch row
        + 2 * n * site  # (t, r) rows of the one mixed parity at q = 4
        + 2 * 2 * columns * real  # the squares of one row, as long as a ring row pair
        + columns * real  # one row of P over x <= 0
        + 12 * 1024
    )
    profile = PotentialProfile(4, math.pi / 6)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ((k, live),) = list(_distributions(profile, [n]))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert k == n and live.shape == (n // 2 + 1,)
    assert peak <= allowed, (peak, allowed)


def _dense_distributions_arrays(n: int) -> int:
    """Bytes of the arrays _distributions over 1..n at q = 2 holds: a ring of _RING_ROWS rows and its readers."""
    site, real = np.dtype(np.complex128).itemsize, np.dtype(np.float64).itemsize
    rows, columns = _RING_ROWS, n // 2 + 2
    return (
        rows * 2 * columns * site  # the half-cone walk's ring, with no spares as every step is requested
        + (columns - 1) * site  # its scratch row
        + rows * 2 * 2 * columns * real  # the squares, as long as the ring's rows
        + rows * columns * real  # P over x <= 0
    )


@pytest.mark.parametrize("n", [1000, 4000])
def test_distributions_of_a_dense_sweep_allocates_no_iterator_buffer(n):
    # Every batch of 1..n reduces _RING_ROWS rows.  Its squares, pair sums
    # and DOWN + UP run on compact blocks, so numpy's buffered iterator,
    # which reserves 64 KiB per operand of a ufunc it cannot flatten to one
    # stride, never runs: the peak is the arrays below and a slack well
    # under one such buffer.  set(ns) is freed before the arrays exist.
    allowed = (
        _dense_distributions_arrays(n)
        + n * 48  # per request: its int and its slot in the sorted list
        + 12 * 1024
    )
    profile = PotentialProfile(2, math.pi / 3)
    for _ in _distributions(profile, range(1, 11)):  # first-call caches
        pass
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        for k, live in _distributions(profile, range(1, n + 1)):
            pass
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert k == n and live.shape == (n // 2 + 1,)
    assert peak <= allowed, (peak, allowed)


def _dense_sweep_bound(n: int) -> int:
    """Traced bytes sweep-steps over 1..n at q = 2 may peak at: a ring of _RING_ROWS rows, and slack."""
    real = np.dtype(np.float64).itemsize
    return (
        _dense_distributions_arrays(n)
        + 2 * (2 * n + 1) * real  # its two parity planes of P over the full line
        + (2 * n + 1) * real  # the squared positions
        + n * 256  # per step: the grid's ints, its lists and set, and sigma's array, index and result
        + 16 * 1024
    )


def _dense_sweep_peak(n: int) -> int:
    sweep_sigma_vs_steps(2, math.pi / 3, [1])  # imports and first-call caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sigma = sweep_sigma_vs_steps(2, math.pi / 3, range(1, n + 1))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sigma.shape == (n,)
    return peak


def test_dense_sweep_holds_one_ring_of_fixed_rows():
    # The ring, and the squares and P of as many rows, hold _RING_ROWS rows,
    # not one per step of the walk.
    peak, allowed = _dense_sweep_peak(1000), _dense_sweep_bound(1000)
    assert peak <= allowed, (peak, allowed)


def test_dense_sweep_bound_refuses_a_ring_of_the_whole_walk(monkeypatch):
    allowed = _dense_sweep_bound(1000)
    monkeypatch.setattr(core, "_RING_ROWS", 1 << 40)
    peak = _dense_sweep_peak(1000)
    assert peak > allowed, (peak, allowed)


def test_distributions_of_zero_steps_is_the_initial_distribution():
    # Step 0 is no step of the walk: the start itself, whose P is squared
    # and summed as a ring row's.
    profile = PotentialProfile(4, 0.5)
    ((k, live),) = _distributions(profile, [0])
    assert k == 0
    assert live.tobytes() == distribution(evolve(initial_state(), profile, 0)).tobytes()


@pytest.mark.parametrize("q", [1, 2, 4], ids=["q1", "q2", "q4"])
def test_distributions_yields_each_requested_step_once_in_walk_order(q):
    # Each P holds the bytes of a fresh walk's, with the start beside later
    # batches: a mixed request; k = 0, two full batches of the ring, a batch
    # and one more step, and n after a long run of spare steps, requested in
    # reverse; and the odd steps of three batches, whose unrequested steps
    # between them all take one spare row pair, and then n.
    rows, n = _RING_ROWS, 1000
    dense = [*range(2 * rows + 2), n]
    odd = list(range(1, 6 * rows, 2))
    profile = PotentialProfile(q, 0.5)
    for ns, walked in (([13, 0, 6, n, 13, 1], [0, 1, 6, 13, n]), (dense[::-1], dense), ([n, *odd[::-1]], [*odd, n])):
        yielded = []
        for k, live in _distributions(profile, ns):
            p = distribution(evolve(initial_state(), profile, k))
            assert live.tobytes() == p[: k + 1 : 2].tobytes(), (q, k)
            assert p.tobytes() == p[::-1].tobytes(), (q, k)
            yielded.append(k)
        assert yielded == walked


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


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_check_norm_raises_on_a_non_finite_table(bad):
    # Either makes the norm NaN, and NaN compares false against any tolerance.
    nan_table = np.full((3, 2), complex(bad, 0))
    one_bad = initial_state().amplitudes.copy()
    one_bad[0, UP] = bad
    for table in (nan_table, one_bad):
        with pytest.raises(NormDriftError):
            check_norm(WalkState(table))


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
        "path_sum_evolve",
    ])
    for name in periodicwalk.__all__:
        assert hasattr(periodicwalk, name), name
