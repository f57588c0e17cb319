"""Sweeps, fits and the closed-form comparison harness."""

import functools
import math

import numpy as np
import pytest

import periodicwalk.core as core
from periodicwalk import NormDriftError, PotentialProfile, distribution, evolve, initial_state, moments, q2_law, step
from periodicwalk.experiments import (
    Q1_LAW_RESIDUAL_CEILING,
    Q2_LAW_RESIDUAL_CEILING,
    Q2_LAZY_SPREAD_CEILING,
    R_SQUARED_INVERSE_PERIOD_MIN,
    LinearFit,
    check_q1_closed_form,
    linear_fit,
    relative_spread,
    sweep_sigma_vs_inverse_period,
    sweep_sigma_vs_steps,
    sweep_sigma_vs_theta,
)


SWEEPS = {
    "theta_grid": lambda grid: sweep_sigma_vs_theta(2, grid, 10),
    "q_values": lambda grid: sweep_sigma_vs_inverse_period(0.5, grid, 10),
    "n_values": lambda grid: sweep_sigma_vs_steps(2, 0.5, grid),
    "check_q1_closed_form.theta_grid": lambda grid: check_q1_closed_form(grid, 100),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
@pytest.mark.parametrize(
    "grid",
    [[], (), np.array([]), 0.5, np.array(3), [[0.5]], np.zeros((2, 2)), [[0.5], [0.1, 0.2]], [1, [2, 3]]],
    ids=["empty", "empty tuple", "empty array", "scalar", "0-d", "2-D", "2-D array", "ragged", "ragged in place"],
)
def test_sweeps_refuse_a_grid_that_is_not_a_non_empty_1d_sequence(sweep, grid):
    name = sweep.rpartition(".")[2]
    with pytest.raises(ValueError, match=f"^{name} must be a non-empty 1-D sequence$"):
        SWEEPS[sweep](grid)


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


@pytest.mark.parametrize("ys", [[0.1] * 3, [0.7] * 3, [0.5] * 3, [1 / 3] * 4], ids=["0.1", "0.7", "0.5", "1/3"])
def test_linear_fit_of_equal_ys_is_the_flat_line_through_them(ys):
    # The mean of three 0.1s or three 0.7s rounds off them, which leaves the
    # slope, the intercept and SS_tot a few ulps off 0, the y and 0; the
    # means of three 0.5s and four 1/3s are exact.
    fit = linear_fit(range(1, len(ys) + 1), ys)
    assert fit == LinearFit(slope=0.0, intercept=ys[0], r_squared=1.0)


def test_linear_fit_rejects_degenerate_x():
    with pytest.raises(ValueError):
        linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_linear_fit_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linear_fit([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        linear_fit(np.zeros((2, 2)), np.zeros((2, 2)))
    for xs, ys in (([0.0, 1.0, math.nan], [1.0, 2.0, 3.0]), ([0.0, 1.0, 2.0], [1.0, math.inf, 3.0])):
        with pytest.raises(ValueError, match="finite"):
            linear_fit(xs, ys)


@pytest.mark.parametrize(
    "xs,ys,name",
    [
        (np.array([1, 2, 3 + 1j]), [1, 2, 3], "xs"),
        ([1, 2, 3], np.array([1, 2, 3 + 1j]), "ys"),
        (["1", "2", "3"], [1, 2, 3], "xs"),
        ([1, 2, 3], [1, None, 3], "ys"),
        ([2**70, 2, None], [1, 2, 3], "xs"),
        ([1, 2, 3], [2**70, 2, 3j], "ys"),
    ],
)
def test_linear_fit_rejects_samples_that_are_not_real(xs, ys, name):
    # The complex case used to report slope 1 and r^2 1 with only a warning.
    with pytest.raises(ValueError, match=f"{name} must be real numbers"):
        linear_fit(xs, ys)


def test_fit_samples_take_ints_beyond_int64_as_floats():
    # numpy holds 2**70 as an object; it is a real number, as the sweeps
    # count one, so it converts to float64 like every other entry.
    assert linear_fit([1, 2, 3], [2**70, 1, 2]) == linear_fit([1, 2, 3], [2.0**70, 1.0, 2.0])
    assert linear_fit([2**70, 1, True], [1, 2, 3]) == linear_fit([2.0**70, 1.0, 1.0], [1.0, 2.0, 3.0])
    assert relative_spread([2**70, 2**70]) == 0.0
    assert relative_spread([2**70, np.int8(1)]) == relative_spread([2.0**70, 1.0])


def test_fit_samples_refuse_an_int_beyond_the_float_range():
    with pytest.raises(ValueError, match="ys must be real numbers within the float range"):
        linear_fit([1, 2, 3], [2**1024, 1, 2])
    with pytest.raises(ValueError, match="sigma must be real numbers within the float range"):
        relative_spread([1, 2**1024])


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([0, 1e200, 2e200], [0, 1e200, 3e200]),
        ([0, 1, 2], [0, 1e200, 3e200]),
        ([0, 1e-200, 2e-200], [0, 1, 3]),
        ([0, 1, 2], [0, 1e-200, 3e-200]),
        ([0, 1e-160, 2e-160], [0, 1, 3]),
    ],
    ids=["sums-of-x-and-y-overflow", "sum-of-y-overflows", "sum-of-x-underflows", "sum-of-y-underflows", "subnormal"],
)
def test_linear_fit_refuses_finite_samples_whose_sums_leave_the_float_range(xs, ys):
    # each is the fit of (0, 1, 2) against (0, 1, 3), r^2 = 27/28, with x or
    # y scaled by 1e200, 1e-160 or 1e-200, so its sums of squares overflow to
    # inf, underflow to 0 or fall to a subnormal sum of lost digits in
    # float64, which gave NaN, an infinite slope, or a wrong slope or r^2
    with pytest.raises(ValueError, match="within the normal float range"):
        linear_fit(xs, ys)


def test_relative_spread_refuses_a_sample_whose_mean_overflows():
    # (1.7 - 1) / 1.35 = 0.519, but the mean overflows to inf, which gave 0
    with pytest.raises(ValueError, match="their mean must not overflow"):
        relative_spread([1e308, 1.7e308])


def test_linear_fit_r_squared_within_bounds():
    fit = linear_fit([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 0.0, 1.0])
    assert 0.0 <= fit.r_squared < 1.0


def test_sweep_steps_ballistic_sigma_equals_n():
    sigma = sweep_sigma_vs_steps(1, math.pi / 2, [30, 10, 20])
    assert np.allclose(sigma, [30.0, 10.0, 20.0], atol=1e-10)


def test_sweep_steps_at_the_step_sweep_input_has_the_bytes_of_a_loop_of_steps():
    # The benchmark's step-sweep input: q = 2, --theta-pi 0.3333333333333333, 1..1000.
    theta = 0.3333333333333333 * math.pi
    profile = PotentialProfile(2, theta)
    state, expected = initial_state(), []
    for _ in range(1000):
        state = step(state, profile)
        expected.append(moments(distribution(state)).sigma)
    assert sweep_sigma_vs_steps(2, theta, list(range(1, 1001))).tobytes() == np.array(expected).tobytes()


def test_sweep_steps_norm_gate_names_the_first_snapshot_walked(monkeypatch):
    monkeypatch.setattr(core, "NORM_DRIFT_TOL", -1.0)
    with pytest.raises(NormDriftError, match="after 3 steps"):
        sweep_sigma_vs_steps(1, 0.5, [7, 3, 5])


def test_sweep_steps_norm_gate_names_the_first_snapshot_walked_in_a_later_block(monkeypatch):
    # The sweep reduces _RING_ROWS requested steps to a batch, and 20 + rows
    # lies in a later batch than 20: the gate still names the first one walked.
    ns = list(range(20 + core._RING_ROWS, 19, -1))
    assert len(ns) > core._RING_ROWS
    monkeypatch.setattr(core, "NORM_DRIFT_TOL", -1.0)
    with pytest.raises(NormDriftError, match="after 20 steps"):
        sweep_sigma_vs_steps(1, 0.5, ns)


def test_sweep_steps_norm_gate_refuses_a_nan_tolerance(monkeypatch):
    monkeypatch.setattr(core, "NORM_DRIFT_TOL", math.nan)
    with pytest.raises(NormDriftError, match="after 5 steps"):
        sweep_sigma_vs_steps(2, 0.5, [5, 33])


_R = core._RING_ROWS


@pytest.mark.parametrize("q", [1, 2, 4], ids=["q1", "q2", "q4"])
@pytest.mark.parametrize(
    "ns, k",
    [
        *(
            pytest.param(list(range(1, 3 * _R + 1)), k, id=name)
            for name, k in (
                ("k=1", 1),
                ("k=r-1", _R - 1),
                ("k=r", _R),
                ("k=r+1", _R + 1),
                ("k=2r", 2 * _R),
                ("k=2r+1", 2 * _R + 1),
                ("k=3r", 3 * _R),
            )
        ),
        pytest.param([5, 2 * _R + 1, 3 * _R], 2 * _R + 1, id="after-spares"),
        pytest.param([5, 2 * _R + 2, 3 * _R], 2 * _R + 2, id="even-after-spares"),
        pytest.param([*range(1, _R + 1), 3 * _R + 5], 3 * _R + 5, id="alone-after-a-full-batch"),
    ],
)
def test_sweep_steps_norm_gate_sees_a_corrupted_row(monkeypatch, q, ns, k):
    # The gate reads each snapshot's norm off its row's sum over x <= 0.  One
    # live site of step k's ring row, the origin for an even k and x = -1 for
    # an odd one, scaled after its batch is walked and before it is reduced,
    # must fail the gate at k: at the first step and at each edge of the
    # three batches of a dense sweep, the last of which ends the walk, and in
    # sparse ones where an odd or an even k follows a run of spare steps, or
    # ends the walk alone in a batch after a full one and a run of spares.
    walk = core._walk

    def corrupted(state, profile, ks, half):
        for steps, ring in walk(state, profile, ks, half):
            if k in steps:
                ring[steps.index(k), :, k // 2] *= 1.01
            yield steps, ring

    monkeypatch.setattr(core, "_walk", corrupted)
    with pytest.raises(NormDriftError, match=f"after {k} steps"):
        sweep_sigma_vs_steps(q, math.pi / 3, ns)


def _batch_grids(rows: int) -> dict:
    """Step counts placed by the batches of a ring of ``rows`` rows.

    A batch is ``rows`` requested steps, whatever steps lie between them.
    Dense sweeps that fill less than one batch, exactly one, one and a step
    more, two and a step more (given in reverse) and exactly three; then
    grids whose unrequested steps take the spare rows: every third step and
    every tenth (spares of both parities), the odd steps and the even ones
    (spares of one parity), an unsorted grid with duplicates across a batch
    edge, and two batches and a step, then a last one after a long run of
    spares. Then grids that mix runs of requested and spare steps across
    batch edges: spares before two dense batches, one late step alone, runs
    of three requested and three spare steps (so each run of spares ends on
    the other parity), and the first and last steps of three batches of a
    dense sweep, requested alone and in reverse.
    """
    edges = [1, *(b * rows + d for b in (1, 2) for d in (-1, 0, 1)), 3 * rows]
    return {
        "below-one-batch": list(range(1, rows)),
        "one-batch": list(range(1, rows + 1)),
        "one-batch-and-one": list(range(1, rows + 2)),
        "two-batches-and-one-reversed": list(range(2 * rows + 1, 0, -1)),
        "three-batches": list(range(1, 3 * rows + 1)),
        "every-3rd": list(range(3, 3 * (2 * rows + 1) + 1, 3)),
        "every-10th": list(range(10, 10 * (rows + 1) + 1, 10)),
        "odd": list(range(1, 2 * rows + 3, 2)),
        "even": list(range(2, 2 * rows + 3, 2)),
        "unsorted-across-an-edge": [*range(2 * rows + 2, 0, -2), 2 * rows, 7, 2],
        "long-spare-run": [*range(1, 2 * rows + 2), 1000],
        "spares-then-two-batches": list(range(rows, 3 * rows)),
        "one-late-step": [3 * rows + 1],
        "runs-of-three": [k for k in range(1, 6 * rows + 1) if (k - 1) // 3 % 2 == 0],
        "dense-edges-reversed": edges[::-1],
    }


@functools.lru_cache(maxsize=None)
def _fresh_sigma(q: int, theta: float, n: int) -> float:
    return moments(distribution(evolve(initial_state(), PotentialProfile(q, theta), n))).sigma


@pytest.mark.parametrize(
    "q, theta",
    [(1, math.pi / 2), (1, 0.5), (2, math.pi / 3), (4, math.pi / 6)],
    ids=["q1-ballistic", "q1", "q2", "q4"],
)
@pytest.mark.parametrize("ns", [pytest.param(ns, id=name) for name, ns in _batch_grids(_R).items()])
def test_sweep_steps_at_the_ring_edges_has_the_bytes_of_a_fresh_walk(q, theta, ns):
    fresh = [_fresh_sigma(q, theta, n) for n in ns]
    assert sweep_sigma_vs_steps(q, theta, ns).tobytes() == np.array(fresh).tobytes()


def test_sweep_steps_validation():
    with pytest.raises(ValueError):
        sweep_sigma_vs_steps(1, 0.5, [])
    for bad in ([5, 0], [0]):
        with pytest.raises(ValueError, match="n_values"):
            sweep_sigma_vs_steps(1, 0.5, bad)


def test_sweep_period_takes_a_period_beyond_int64():
    # Any period above the walk's reach marks only the origin.
    assert sweep_sigma_vs_inverse_period(0.5, [2**70], 10).tolist() == sweep_sigma_vs_inverse_period(0.5, [11], 10).tolist()


def test_sweep_theta_shape_and_metadata():
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    sigma = sweep_sigma_vs_theta(2, grid, 50)
    assert sigma.dtype == np.float64
    assert sigma.shape == (5,)


def test_sweep_theta_validation():
    with pytest.raises(ValueError):
        sweep_sigma_vs_theta(2, [], 50)
    with pytest.raises(ValueError, match="n_steps"):
        sweep_sigma_vs_theta(2, [0.5], 0)


def test_sweep_inverse_period_rows():
    # one sigma per period, in the order of the periods given
    sigma = sweep_sigma_vs_inverse_period(math.pi / 6, [4, 1, 2], 50)
    assert sigma.tolist() == [sweep_sigma_vs_theta(q, [math.pi / 6], 50)[0] for q in (4, 1, 2)]


def test_sweep_inverse_period_validation():
    with pytest.raises(ValueError):
        sweep_sigma_vs_inverse_period(0.5, [], 50)
    with pytest.raises(ValueError):
        sweep_sigma_vs_inverse_period(0.5, [0, 2], 50)
    with pytest.raises(ValueError):
        sweep_sigma_vs_inverse_period(0.5, [1, 2], 0)


def test_sigma_ordering_flips_with_theta():
    # below pi/4 a denser potential speeds the walk up, above it slows it
    low = sweep_sigma_vs_inverse_period(math.pi / 6, [2, 5], 200)
    assert low[0] < low[1]
    high = sweep_sigma_vs_inverse_period(math.pi / 3, [2, 5], 200)
    assert high[0] > high[1]


def test_inverse_period_trend_fits():
    qs = range(2, 11)
    fit = linear_fit([1.0 / q for q in qs], sweep_sigma_vs_inverse_period(math.pi / 6, qs, 200))
    assert fit.slope < 0
    assert fit.r_squared >= R_SQUARED_INVERSE_PERIOD_MIN

    qs = range(1, 11)
    fit = linear_fit([1.0 / q for q in qs], sweep_sigma_vs_inverse_period(math.pi / 3, qs, 200))
    assert fit.slope > 0
    assert fit.r_squared >= R_SQUARED_INVERSE_PERIOD_MIN


def test_quarter_pi_sigma_flat_across_periods():
    # all coins coincide at theta = pi/4, so q cannot matter
    sigma = sweep_sigma_vs_inverse_period(math.pi / 4, list(range(1, 11)), 100)
    assert relative_spread(sigma) < 1e-9


def test_q1_and_q2_nearly_equal_below_quarter_pi():
    grid = [k * math.pi / 24 for k in range(1, 6)]
    sigma1 = sweep_sigma_vs_theta(1, grid, 200)
    sigma2 = sweep_sigma_vs_theta(2, grid, 200)
    rel = np.abs(sigma1 - sigma2) / np.maximum(sigma1, sigma2)
    # frozen: measured max 1.8e-3 at N = 200 on this grid
    assert rel.max() < 5e-3


def test_q2_law_residual_below_frozen_ceiling():
    grid = np.linspace(0.05, 2 * math.pi - 0.05, 61)
    n = 400
    sigma2_over_n2 = (sweep_sigma_vs_theta(2, grid, n) / n) ** 2
    law = np.array([(q2_law(theta, n) / n) ** 2 for theta in grid])
    assert np.abs(sigma2_over_n2 - law).max() < Q2_LAW_RESIDUAL_CEILING


def test_q2_lazy_spread_below_ceiling():
    grid = [math.pi / 4 + k * math.pi / 24 for k in range(13)]
    assert relative_spread(sweep_sigma_vs_theta(2, grid, 100)) < Q2_LAZY_SPREAD_CEILING


@pytest.mark.parametrize("k", [3, 7, 11])
def test_sigma_mirror_symmetry_in_theta(k):
    theta = k * math.pi / 24
    a, b = sweep_sigma_vs_theta(3, [theta, 2 * math.pi - theta], 100)
    assert abs(a - b) < 1e-9
    assert abs(a - b) / max(a, b) < 1e-9


@pytest.mark.parametrize("k", [2, 9])
def test_q1_sigma_pi_shift_symmetry(k):
    theta = k * math.pi / 24
    a, b = sweep_sigma_vs_theta(1, [theta, theta + math.pi], 100)
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
    assert table.residual.shape == table.sigma2_over_n2.shape == table.law.shape == (47,)


def test_check_q1_rejects_short_walks():
    with pytest.raises(ValueError, match="n_steps"):
        check_q1_closed_form([0.5], 99)
    with pytest.raises(ValueError):
        check_q1_closed_form([], 200)


@pytest.mark.parametrize(
    "sigma", [np.array([1, 2 + 1j]), ["1", "2"], [2**70, None]], ids=["complex", "str", "object"]
)
def test_relative_spread_rejects_samples_that_are_not_real(sigma):
    with pytest.raises(ValueError, match="sigma must be real numbers"):
        relative_spread(sigma)


def test_relative_spread_values():
    assert relative_spread([4.0, 4.0, 4.0]) == 0.0
    assert abs(relative_spread([1.0, 3.0]) - 1.0) < 1e-15
    for bad in ([], [0.0, 0.0], [-1.0, 1.0], [1.0, math.inf], [1.0, math.nan]):
        with pytest.raises(ValueError):
            relative_spread(bad)
