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
    # The sweep reduces a few steps to a block, and 40 lies in a later block
    # than 20: the gate still names the first one walked.
    rows = core._ring_rows(40)
    assert (40 - 1) // rows > (20 - 1) // rows
    monkeypatch.setattr(core, "NORM_DRIFT_TOL", -1.0)
    with pytest.raises(NormDriftError, match="after 20 steps"):
        sweep_sigma_vs_steps(1, 0.5, [40, 20])


def test_sweep_steps_norm_gate_refuses_a_nan_tolerance(monkeypatch):
    monkeypatch.setattr(core, "NORM_DRIFT_TOL", math.nan)
    with pytest.raises(NormDriftError, match="after 5 steps"):
        sweep_sigma_vs_steps(2, 0.5, [5, 33])


#: (byte budget, walk length) of each ring the block tests walk: at its
#: floor of _RING_ROWS rows, as a budget of 0 leaves it, and at the rows the
#: budget gives a walk of 1000 steps.
_RINGS = {"floor": (0, 19), "budget": (core._RING_BYTES, 1000)}


@pytest.mark.parametrize("ring", sorted(_RINGS))
@pytest.mark.parametrize("q", [1, 2, 4], ids=["q1", "q2", "q4"])
@pytest.mark.parametrize(
    "block, offset", [(1, -1), (1, 0), (1, 1), (2, 0), (2, 1)], ids=["k=r-1", "k=r", "k=r+1", "k=2r", "k=2r+1"]
)
def test_sweep_steps_norm_gate_sees_a_corrupted_row(monkeypatch, ring, q, block, offset):
    # The gate reads each snapshot's norm off its row's sum over x <= 0.  One
    # live site of step k's ring row, the origin for an even k and x = -1 for
    # an odd one, scaled after its block is walked and before it is reduced,
    # must fail the gate at k, at each edge of the first three blocks.
    budget, n = _RINGS[ring]
    monkeypatch.setattr(core, "_RING_BYTES", budget)
    k = block * core._ring_rows(n) + offset
    walk = core._half_cone

    def corrupted(profile, n):
        for first, last, ring in walk(profile, n):
            if first <= k <= last:
                ring[k - first, :, k // 2] *= 1.01
            yield first, last, ring

    monkeypatch.setattr(core, "_half_cone", corrupted)
    with pytest.raises(NormDriftError, match=f"after {k} steps"):
        sweep_sigma_vs_steps(q, math.pi / 3, list(range(1, n + 1)))


def _block_grids(rows: int) -> dict:
    """Step counts placed by the blocks of a ring of ``rows`` rows.

    The first and last steps of the first three blocks, the same reversed,
    a sweep that ends inside the first block, one that asks for inner rows
    of some blocks and skips the blocks between them, and three whose
    requested rows in a block are not consecutive: every third step, every
    tenth, and an unsorted grid with a duplicate across a block edge.
    """
    edges = [1, *(b * rows + d for b in (1, 2) for d in (-1, 0, 1)), 3 * rows]
    return {
        "ring-edges": edges,
        "ring-edges-reversed": edges[::-1],
        "below-one-block": [rows - 1, 1, rows // 2],
        "inner-rows": [4 * rows + 2, rows + 4, 2, rows + 2],
        "every-3rd": list(range(3, 4 * rows + 1, 3)),
        "every-10th": list(range(10, 10 * rows + 1, 10)),
        "unsorted-across-an-edge": [rows + 3, rows - 2, 2 * rows + 1, 1, rows - 2, rows + 1, rows],
    }


#: (byte budget, ring rows, grid): the grids on the ring at its floor and at
#: the cap a budget reaches below about 770 steps, and the ring edges of the
#: budget's rows at 1000 steps.
_BLOCK_CASES = [
    pytest.param(budget, rows, ns, id=f"{ring}-{name}")
    for ring, budget, rows in (("floor", 0, core._RING_ROWS), ("budget", core._RING_BYTES, core._RING_MAX_ROWS))
    for name, ns in _block_grids(rows).items()
]
_ROWS_AT_1000 = core._ring_rows(1000)
_BLOCK_CASES.append(
    pytest.param(core._RING_BYTES, _ROWS_AT_1000, [*_block_grids(_ROWS_AT_1000)["ring-edges"], 1000], id="budget-1000")
)


@functools.lru_cache(maxsize=None)
def _fresh_sigma(q: int, theta: float, n: int) -> float:
    return moments(distribution(evolve(initial_state(), PotentialProfile(q, theta), n))).sigma


@pytest.mark.parametrize(
    "q, theta",
    [(1, math.pi / 2), (1, 0.5), (2, math.pi / 3), (4, math.pi / 6)],
    ids=["q1-ballistic", "q1", "q2", "q4"],
)
@pytest.mark.parametrize("budget, rows, ns", _BLOCK_CASES)
def test_sweep_steps_at_the_ring_edges_has_the_bytes_of_a_fresh_walk(monkeypatch, q, theta, budget, rows, ns):
    monkeypatch.setattr(core, "_RING_BYTES", budget)
    assert core._ring_rows(max(ns)) == rows
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
