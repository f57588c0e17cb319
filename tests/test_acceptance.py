"""Release acceptance suite.

One test per criterion, each asserting the pinned tolerance and printing
a single PASS/FAIL line with the measured value (visible with -s, or in
the captured output on failure).  Golden thresholds that could not be
stated a priori were measured with the oracle-validated implementation
and frozen in periodicwalk.experiments.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from periodicwalk import (
    DOWN,
    UP,
    CoinDirection,
    PotentialProfile,
    distribution,
    evolve,
    initial_state,
    moments,
    step,
    symmetry_residual,
)
from periodicwalk.cli import EXIT_OK, main
from periodicwalk.experiments import (
    Q1_LAW_RESIDUAL_CEILING,
    Q2_LAZY_SPREAD_CEILING,
    R_SQUARED_INVERSE_PERIOD_MIN,
    R_SQUARED_STEPS_TREND_MIN,
    R_SQUARED_THETA_TREND_MIN,
    check_q1_closed_form,
    linear_fit,
    relative_spread,
    sweep_sigma_vs_inverse_period,
    sweep_sigma_vs_steps,
    sweep_sigma_vs_theta,
)
from periodicwalk.oracle import path_sum_evolve
from walkref import SQRT_HALF, hadamard_reference, max_amp_diff


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def n100_grid():
    """Symmetry residual and sigma for q in 1..10, theta = k*pi/24, N = 100."""
    residuals = {}
    sigmas = {}
    for q in range(1, 11):
        for k in range(0, 49):
            state = evolve(initial_state(), PotentialProfile(q, k * math.pi / 24), 100)
            p = distribution(state)
            residuals[(q, k)] = symmetry_residual(p)
            sigmas[(q, k)] = moments(p).sigma
    return residuals, sigmas


def test_criterion_01_unitarity_marathon():
    profile = PotentialProfile(3, math.pi / 5)
    state = initial_state()
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        state = step(state, profile)
        worst = max(worst, abs(state.norm() - 1.0))
    elapsed = time.perf_counter() - started
    final = abs(state.norm() - 1.0)
    ok = worst < 1e-12 and final < 1e-9 and elapsed < 1.0
    report(
        "criterion-01 unitarity-marathon",
        ok,
        f"max per-step drift {worst:.2e} (<1e-12), final {final:.2e} (<1e-9), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_oracle_equivalence():
    worst = 0.0
    for q in range(1, 6):
        for k in range(0, 25):
            profile = PotentialProfile(q, k * math.pi / 12)
            initial = initial_state()
            state = initial
            for n in range(1, 13):
                state = step(state, profile)
                reference = path_sum_evolve(initial, profile, n)
                worst = max(worst, np.abs(state.amplitudes - reference.amplitudes).max())
    report(
        "criterion-02 oracle-equivalence",
        worst < 1e-10,
        f"max amplitude diff {worst:.2e} over q 1..5, theta k*pi/12, N 1..12 (<1e-10)",
    )


def test_criterion_03_hadamard_collapse():
    n = 200
    reference = hadamard_reference(n)
    worst = 0.0
    for q in (1, 2, 5, 10):
        state = evolve(initial_state(), PotentialProfile(q, math.pi / 4), n)
        worst = max(worst, max_amp_diff(state, reference))
    report(
        "criterion-03 hadamard-collapse",
        worst < 1e-12,
        f"max diff to plain Hadamard walk {worst:.2e} at theta=pi/4, q in {{1,2,5,10}}, N=200 (<1e-12)",
    )


def test_criterion_04_free_propagation():
    n = 100
    state = evolve(initial_state(), PotentialProfile(1, math.pi / 2), n)
    p = distribution(state)
    p_left, p_right = p[0], p[-1]
    sigma = moments(p).sigma
    # N even: the UP branch phase factor (-1)^N is +1
    phase_err = max(
        abs(state.amplitude(-n, DOWN) - SQRT_HALF),
        abs(state.amplitude(n, UP) - 1j * SQRT_HALF),
    )
    ok = (
        abs(p_left - 0.5) < 1e-12
        and abs(p_right - 0.5) < 1e-12
        and abs(sigma - n) < 1e-10
        and phase_err < 1e-12
    )
    report(
        "criterion-04 free-propagation",
        ok,
        f"P(-100)={p_left:.15f}, P(+100)={p_right:.15f} (0.5 +- 1e-12), "
        f"sigma={sigma:.12f} (100 +- 1e-10), branch phase err {phase_err:.2e}",
    )


def test_criterion_05_symmetric_distributions(n100_grid):
    residuals, _ = n100_grid
    worst = max(residuals.values())
    report(
        "criterion-05 distribution-symmetry",
        worst < 1e-12,
        f"max |P(x)-P(-x)| {worst:.2e} over q 1..10, theta k*pi/24, N=100 (<1e-12)",
    )


def test_criterion_06_sigma_ordering_in_q():
    qs = (2, 3, 5, 10)
    slow = [
        moments(distribution(evolve(initial_state(), PotentialProfile(q, math.pi / 6), 200))).sigma
        for q in qs
    ]
    fast = [
        moments(distribution(evolve(initial_state(), PotentialProfile(q, math.pi / 3), 200))).sigma
        for q in qs
    ]
    increasing = all(a < b for a, b in zip(slow, slow[1:]))
    decreasing = all(a > b for a, b in zip(fast, fast[1:]))
    report(
        "criterion-06 sigma-ordering",
        increasing and decreasing,
        f"theta=pi/6 sigma={[round(s, 2) for s in slow]} strictly increasing; "
        f"theta=pi/3 sigma={[round(s, 2) for s in fast]} strictly decreasing",
    )


def test_criterion_07_linear_growth_fits():
    ns = list(range(50, 201))
    results = {}
    ok = True
    for q, theta, label in [
        (2, math.pi / 6, "q=2,pi/6"),
        (10, math.pi / 6, "q=10,pi/6"),
        (2, math.pi / 3, "q=2,pi/3"),
        (10, math.pi / 3, "q=10,pi/3"),
    ]:
        fit = linear_fit(ns, sweep_sigma_vs_steps(q, theta, ns))
        results[label] = fit.r_squared
        ok = ok and fit.r_squared >= R_SQUARED_STEPS_TREND_MIN
    report(
        "criterion-07 linear-sigma-growth",
        ok,
        "r^2 " + ", ".join(f"{k}: {v:.5f}" for k, v in results.items()) + f" (>={R_SQUARED_STEPS_TREND_MIN})",
    )


def test_criterion_08_inverse_period_trends():
    ok = True
    details = []
    for theta in (math.pi / 12, math.pi / 6, math.pi / 5):
        qs = range(2, 11)
        fit = linear_fit([1.0 / q for q in qs], sweep_sigma_vs_inverse_period(theta, qs, 200))
        ok = ok and fit.slope < 0 and fit.r_squared >= R_SQUARED_INVERSE_PERIOD_MIN
        details.append(f"theta={theta / math.pi:.3f}pi slope={fit.slope:.1f} r2={fit.r_squared:.3f}")
    for theta in (math.pi / 4 + math.pi / 24, math.pi / 3, 5 * math.pi / 12):
        qs = range(1, 11)
        fit = linear_fit([1.0 / q for q in qs], sweep_sigma_vs_inverse_period(theta, qs, 200))
        ok = ok and fit.slope > 0 and fit.r_squared >= R_SQUARED_INVERSE_PERIOD_MIN
        details.append(f"theta={theta / math.pi:.3f}pi slope={fit.slope:.1f} r2={fit.r_squared:.3f}")
    report(
        "criterion-08 inverse-period-trends",
        ok,
        "; ".join(details) + f" (sign as named, r^2>={R_SQUARED_INVERSE_PERIOD_MIN})",
    )


def test_criterion_09_q1_closed_form():
    grid = [k * math.pi / 24 for k in range(1, 48)]
    table = check_q1_closed_form(grid, 200)
    worst = float(table.residual.max())
    at_free = float(check_q1_closed_form([math.pi / 2], 200).residual[0])
    ok = worst < Q1_LAW_RESIDUAL_CEILING and at_free < 1e-12
    report(
        "criterion-09 q1-closed-form",
        ok,
        f"max residual {worst:.2e} (<{Q1_LAW_RESIDUAL_CEILING:.1e} frozen), at pi/2 {at_free:.2e} (<1e-12)",
    )


def test_criterion_10_sigma_angle_symmetries(n100_grid):
    _, sigmas = n100_grid
    worst_mirror = max(
        abs(sigmas[(q, k)] - sigmas[(q, 48 - k)]) for q in range(1, 11) for k in range(0, 49)
    )
    worst_shift = max(abs(sigmas[(1, k)] - sigmas[(1, k + 24)]) for k in range(0, 25))
    ok = worst_mirror < 1e-9 and worst_shift < 1e-9
    report(
        "criterion-10 sigma-angle-symmetries",
        ok,
        f"sigma(theta) vs sigma(2pi-theta) worst {worst_mirror:.2e}; "
        f"q=1 sigma(theta) vs sigma(theta+pi) worst {worst_shift:.2e} (<1e-9)",
    )


def test_criterion_11_q2_laziness():
    grid = [math.pi / 4 + k * math.pi / 24 for k in range(13)]
    spread_q2 = relative_spread(sweep_sigma_vs_theta(2, grid, 100))
    spread_q5 = relative_spread(sweep_sigma_vs_theta(5, grid, 100))
    ok = spread_q2 < Q2_LAZY_SPREAD_CEILING and spread_q2 * 5.0 <= spread_q5
    report(
        "criterion-11 q2-laziness",
        ok,
        f"q=2 spread {spread_q2:.2e} (<{Q2_LAZY_SPREAD_CEILING:.1e} frozen), "
        f"q=5 spread {spread_q5:.2e}, ratio {spread_q5 / spread_q2:.0f} (>=5)",
    )


def test_criterion_12_cli_determinism(tmp_path):
    args = ["simulate", "--q", "4", "--theta", "0.5236", "--steps", "100"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = main(args + ["--out", str(out_a)])
    code_b = main(args + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == EXIT_OK and code_b == EXIT_OK and identical
    report(
        "criterion-12 cli-determinism",
        ok,
        f"two identical runs, {out_a.stat().st_size} bytes each, byte-identical={identical}",
    )


def test_criterion_13_sigma_linear_in_theta_below_quarter_pi():
    # The abstract: sigma increases approximately linearly with theta for
    # theta in (0, pi/4).  Past pi/4 the trend splits by period, and the
    # split is pinned too: q = 1 keeps rising, q = 2 is lazy, q >= 3 falls.
    n = 200
    below = [i * math.pi / 52 for i in range(1, 13)]
    above = [i * math.pi / 52 for i in range(13, 26)]
    ok = True
    details = []
    for q in (1, 2, 3, 4, 10):
        fit = linear_fit(below, sweep_sigma_vs_theta(q, below, n) / n)
        ok = ok and fit.slope > 0 and fit.r_squared >= R_SQUARED_THETA_TREND_MIN
        details.append(f"q={q} slope/N={fit.slope:.3f} r2={fit.r_squared:.5f}")
    above_sigma = {q: sweep_sigma_vs_theta(q, above, n) for q in (1, 2, 3, 4, 10)}
    above_slope = {q: linear_fit(above, s / n).slope for q, s in above_sigma.items()}
    spread_q2 = relative_spread(above_sigma[2])
    ok = ok and above_slope[1] > 0 and spread_q2 < Q2_LAZY_SPREAD_CEILING
    ok = ok and all(above_slope[q] < 0 for q in (3, 4, 10))
    report(
        "criterion-13 sigma-linear-in-theta",
        ok,
        "on (0, pi/4): " + "; ".join(details) + f" (slope>0, r^2>={R_SQUARED_THETA_TREND_MIN}); "
        f"on [pi/4, pi/2): q=1 slope/N={above_slope[1]:.3f} (>0), q=2 spread {spread_q2:.1e} "
        f"(<{Q2_LAZY_SPREAD_CEILING:.1e}), "
        + ", ".join(f"q={q} slope/N={above_slope[q]:.3f}" for q in (3, 4, 10))
        + " (<0)",
    )
