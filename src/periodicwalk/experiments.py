"""Parameter sweeps over step count, coin angle and period, with fit helpers.

Sweeps return sigma as a float64 array in the order of the caller's grid;
the caller already holds that grid, so it pairs the two to fit, plot or
serialize them.  All evaluation is sequential and deterministic.

Trend thresholds live here as named configuration rather than inline
magic numbers; the measured ceilings were produced by this implementation
after it was validated against the branch-expansion oracle, then frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import _REAL_KINDS, PotentialProfile, WalkState, _check_drift, _half_cone, _whole, check_norm, evolve, initial_state
from .core import step  # not called here; bench/test_bench.py pins this binding until the bench change
from .observables import _moments, distribution, moments

__all__ = [
    "Q1_LAW_RESIDUAL_CEILING",
    "Q2_LAW_RESIDUAL_CEILING",
    "Q2_LAZY_SPREAD_CEILING",
    "R_SQUARED_INVERSE_PERIOD_MIN",
    "R_SQUARED_STEPS_TREND_MIN",
    "R_SQUARED_THETA_TREND_MIN",
    "LinearFit",
    "Q1LawCheck",
    "check_q1_closed_form",
    "linear_fit",
    "relative_spread",
    "sweep_sigma_vs_inverse_period",
    "sweep_sigma_vs_steps",
    "sweep_sigma_vs_theta",
]

#: Minimum r^2 for sigma-versus-steps linear growth.
R_SQUARED_STEPS_TREND_MIN = 0.99

#: Minimum r^2 for sigma-versus-theta linear growth on (0, pi/4), over
#: theta = i*pi/52, i = 1..12, at N = 200 for q in {1, 2, 3, 4, 10}.
#: Measured min 0.99061 at q = 10 (0.99992 at q = 1 and 2); headroom as
#: for the ceilings below.
R_SQUARED_THETA_TREND_MIN = 0.98

#: Minimum r^2 for sigma-versus-1/q trends, which are noisier.
R_SQUARED_INVERSE_PERIOD_MIN = 0.90

#: Ceiling on |sigma^2/N^2 - (1 - |cos theta|)| for period 1 at N = 200,
#: over theta in (0, 2*pi) at pi/24 spacing.  Measured max 5.9e-5; the
#: ceiling leaves headroom without masking regressions.
Q1_LAW_RESIDUAL_CEILING = 2.0e-4

#: Ceiling on |sigma^2/N^2 - (1 - max(|cos theta|, 1/sqrt 2))| for period 2
#: at N = 400, over 61 evenly spaced theta in [0.05, 2*pi - 0.05].  Measured
#: max 7.5e-5; the slowest convergence is next to the kinks at pi/4 + n*pi/2.
#: Headroom as above.
Q2_LAW_RESIDUAL_CEILING = 2.5e-4

#: Ceiling on the relative spread (max - min) / mean of sigma for period 2
#: over theta in [pi/4, 3*pi/4] at N = 100, where the walk is lazy and
#: sigma barely responds to theta.  Measured 3.1e-4; headroom as above.
Q2_LAZY_SPREAD_CEILING = 1.0e-3


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line y = slope * x + intercept with its r^2."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class Q1LawCheck:
    """Measured sigma^2/N^2 against 1 - |cos theta| for the period-1 walk, in grid order."""

    sigma2_over_n2: np.ndarray
    law: np.ndarray
    residual: np.ndarray


def _reals(values: Sequence[float], name: str) -> np.ndarray:
    """``values`` as a float64 array; ValueError unless they are real numbers."""
    array = np.asarray(values)
    if array.dtype.kind not in _REAL_KINDS:
        raise ValueError(f"{name} must be real numbers, got {array.dtype}")
    return array.astype(np.float64)


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares fit of a straight line.

    r^2 is 1 - SS_res / SS_tot, clamped into [0, 1].  A perfectly flat
    perfect fit (SS_tot = SS_res = 0) reports r^2 = 1 by convention.

    Raises
    ------
    ValueError
        If the inputs are not equal-length 1-D samples of finite real values,
        or the x values are all identical, which leaves the slope undefined.
    """
    x = _reals(xs, "xs")
    y = _reals(ys, "ys")
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and ys must be 1-D sequences of equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("xs and ys must be finite")
    if np.unique(x).size < 2:
        raise ValueError("need at least two distinct x values to fit a line")
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    dx = x - x_mean
    slope = float(np.dot(dx, y - y_mean) / np.dot(dx, dx))
    intercept = y_mean - slope * x_mean
    residuals = y - (intercept + slope * x)
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(y - y_mean, y - y_mean))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=min(1.0, max(0.0, r_squared)))


def _grid(values: Sequence, name: str) -> list:
    """``values`` as a list, each value as given for its own check; ValueError unless it is a non-empty 1-D sequence."""
    try:
        flat = np.ndim(values) == 1 and len(values) > 0
    except ValueError:  # a ragged sequence, which numpy (>= 1.24) cannot shape
        flat = False
    if not flat:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    return list(values)


def _sigma(state: WalkState) -> float:
    check_norm(state)
    return moments(distribution(state)).sigma


def _sigmas_after(profiles: Iterable[PotentialProfile], n_steps: int) -> np.ndarray:
    """sigma after n_steps from the origin, one per profile."""
    n = _whole(n_steps, "n_steps", 1)
    return np.array([_sigma(evolve(initial_state(), p, n)) for p in profiles])


def sweep_sigma_vs_steps(q: int, theta: float, n_values: Sequence[int]) -> np.ndarray:
    """sigma after each requested step count, all snapshots of one evolution.

    Reusing a single trajectory keeps the rows mutually consistent and
    costs one walk of max(n_values) steps over the sites x <= 0
    (``core._half_cone``), with no table and no position grid per snapshot.
    """
    ns = [_whole(n, "n_values", 1) for n in _grid(n_values, "n_values")]
    profile = PotentialProfile(q, theta)
    last = max(ns)
    x = np.arange(-last, last + 1, dtype=np.float64)
    xx = x * x
    wanted = set(ns)
    sigma_at: dict[int, float] = {}
    for k, (down, up) in enumerate(_half_cone(profile, last), 1):
        if k in wanted:
            # P(x) summed as distribution sums it, and mirrored: P(-x) takes
            # the same terms in another order, and IEEE addition commutes.
            d, u = np.square(down.view(np.float64)), np.square(up.view(np.float64))
            left = (d[::2] + d[1::2]) + (u[::2] + u[1::2])
            p = np.zeros(2 * k + 1)
            p[: k + 1 : 2], p[2 * k : k - 1 : -2] = left, left
            _check_drift(np.sqrt(p.sum()), k)
            window = slice(last - k, last + k + 1)
            sigma_at[k] = _moments(p, x[window], xx[window]).sigma
    return np.array([sigma_at[n] for n in ns])


def sweep_sigma_vs_theta(q: int, theta_grid: Sequence[float], n_steps: int) -> np.ndarray:
    """sigma after n_steps for each angle in theta_grid, at fixed period q."""
    return _sigmas_after([PotentialProfile(q, t) for t in _grid(theta_grid, "theta_grid")], n_steps)


def sweep_sigma_vs_inverse_period(theta: float, q_values: Sequence[int], n_steps: int) -> np.ndarray:
    """sigma after n_steps for each period in q_values, in the order of q_values.

    The paper plots it against 1/q, so that denser potentials sit at
    larger x and trends against scatterer density read left to right.
    """
    return _sigmas_after([PotentialProfile(q, theta) for q in _grid(q_values, "q_values")], n_steps)


def check_q1_closed_form(theta_grid: Sequence[float], n_steps: int) -> Q1LawCheck:
    """Residuals |sigma^2 / N^2 - (1 - |cos theta|)| for the period-1 walk.

    The closed form is asymptotic, so short walks would report large
    residuals that say nothing about correctness; n_steps below 100 is
    rejected outright.
    """
    n_steps = _whole(n_steps, "n_steps", 100)
    profiles = [PotentialProfile(1, t) for t in _grid(theta_grid, "theta_grid")]
    # The walks run here, not through sweep_sigma_vs_theta, so that a trace
    # shows this check as the direct caller of every evolve.
    sigma = _sigmas_after(profiles, n_steps)
    sigma2_over_n2 = (sigma / n_steps) ** 2
    law = 1.0 - np.abs(np.cos([p.theta for p in profiles]))
    return Q1LawCheck(sigma2_over_n2=sigma2_over_n2, law=law, residual=np.abs(sigma2_over_n2 - law))


def relative_spread(sigma: Sequence[float]) -> float:
    """(max - min) / mean of a finite positive sample; the laziness figure of merit."""
    s = _reals(sigma, "sigma")
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sigma must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(s) & (s > 0)):
        raise ValueError("every entry of sigma must be finite and > 0")
    return float((s.max() - s.min()) / s.mean())
