"""Parameter sweeps over step count, coin angle and period, with fit helpers.

Sweeps return plain tables (independent variable, sigma) so callers can
fit, plot or serialize them without reaching back into walk states.  All
evaluation is sequential and deterministic.

Trend thresholds live here as named configuration rather than inline
magic numbers; the measured ceilings were produced by this implementation
after it was validated against the branch-expansion oracle, then frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import PotentialProfile, WalkState, check_norm, evolve, initial_state, step
from .observables import distribution, moments

__all__ = [
    "DEFAULT_STEPS",
    "Q1_LAW_RESIDUAL_CEILING",
    "Q2_LAZY_SPREAD_CEILING",
    "R_SQUARED_INVERSE_PERIOD_MIN",
    "R_SQUARED_STEPS_TREND_MIN",
    "LinearFit",
    "Q1LawCheck",
    "SweepResult",
    "check_q1_closed_form",
    "linear_fit",
    "relative_spread",
    "sweep_sigma_vs_inverse_period",
    "sweep_sigma_vs_steps",
    "sweep_sigma_vs_theta",
]

#: Default walk length for sweeps; long enough for asymptotic trends.
DEFAULT_STEPS = 200

#: Minimum r^2 for sigma-versus-steps linear growth.
R_SQUARED_STEPS_TREND_MIN = 0.99

#: Minimum r^2 for sigma-versus-1/q trends, which are noisier.
R_SQUARED_INVERSE_PERIOD_MIN = 0.90

#: Ceiling on |sigma^2/N^2 - (1 - |cos theta|)| for period 1 at N = 200,
#: over theta in (0, 2*pi) at pi/24 spacing.  Measured max 5.9e-5; the
#: ceiling leaves headroom without masking regressions.
Q1_LAW_RESIDUAL_CEILING = 2.0e-4

#: Ceiling on the relative spread (max - min) / mean of sigma for period 2
#: over theta in [pi/4, 3*pi/4] at N = 100, where the walk is lazy and
#: sigma barely responds to theta.  Measured 3.1e-4; headroom as above.
Q2_LAZY_SPREAD_CEILING = 1.0e-3


@dataclass(frozen=True)
class SweepResult:
    """One sweep table: sigma against a single independent variable.

    Both columns are fresh float64 arrays that share no memory with the
    caller's grid.  The inputs that produced the table are not kept here;
    the CLI records them once, in its manifest's ``config``.
    """

    independent: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line y = slope * x + intercept with its r^2."""

    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class Q1LawCheck:
    """Measured sigma^2/N^2 against 1 - |cos theta| for the period-1 walk."""

    theta: np.ndarray
    sigma2_over_n2: np.ndarray
    law: np.ndarray
    residual: np.ndarray
    n_steps: int


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares fit of a straight line.

    r^2 is 1 - SS_res / SS_tot, clamped into [0, 1].  A perfectly flat
    perfect fit (SS_tot = SS_res = 0) reports r^2 = 1 by convention.

    Raises
    ------
    ValueError
        If the inputs are not equal-length 1-D samples or the x values
        are all identical, which leaves the slope undefined.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("xs and ys must be 1-D sequences of equal length")
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


def _grid(values: Sequence[float], name: str) -> np.ndarray:
    """A fresh float64 copy of a non-empty 1-D grid, so no result aliases the caller's array."""
    grid = np.array(values, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    return grid


def _sigma(state: WalkState) -> float:
    check_norm(state)
    return moments(distribution(state)).sigma


def _sigmas_after(profiles: Iterable[PotentialProfile], n_steps: int) -> np.ndarray:
    """sigma after n_steps from the origin, one per profile; ``initial_state`` validates n_steps."""
    return np.array([_sigma(evolve(initial_state(n_steps), p, n_steps)) for p in profiles])


def sweep_sigma_vs_steps(q: int, theta: float, n_values: Sequence[int]) -> SweepResult:
    """sigma after each requested step count, all snapshots of one evolution.

    Reusing a single trajectory keeps the rows mutually consistent and
    costs one walk of max(n_values) steps.
    """
    grid = _grid(n_values, "n_values")
    ns = grid.tolist()
    profile = PotentialProfile(q, theta)
    state = initial_state(max(ns))
    wanted = set(ns)
    if not wanted <= set(range(1, state.capacity + 1)):
        raise ValueError("every entry of n_values must be an integer >= 1")
    sigma_at: dict[int, float] = {}
    for k in range(1, state.capacity + 1):
        state = step(state, profile)
        if k in wanted:
            sigma_at[k] = _sigma(state)
    return SweepResult(independent=grid, sigma=np.array([sigma_at[n] for n in ns]))


def sweep_sigma_vs_theta(q: int, theta_grid: Sequence[float], n_steps: int) -> SweepResult:
    """sigma after n_steps for each angle in theta_grid, at fixed period q."""
    thetas = _grid(theta_grid, "theta_grid")
    profiles = [PotentialProfile(q, t) for t in thetas]
    return SweepResult(independent=thetas, sigma=_sigmas_after(profiles, n_steps))


def sweep_sigma_vs_inverse_period(
    theta: float, q_values: Sequence[int], n_steps: int
) -> SweepResult:
    """sigma after n_steps for each period in q_values, keyed by 1/q.

    Rows follow the order of q_values; the independent column is 1/q so
    that denser potentials sit at larger x and trends against scatterer
    density read left to right.
    """
    qs = _grid(q_values, "q_values")
    profiles = [PotentialProfile(q, theta) for q in qs.tolist()]
    return SweepResult(independent=1.0 / qs, sigma=_sigmas_after(profiles, n_steps))


def check_q1_closed_form(theta_grid: Sequence[float], n_steps: int) -> Q1LawCheck:
    """Residuals |sigma^2 / N^2 - (1 - |cos theta|)| for the period-1 walk.

    The closed form is asymptotic, so short walks would report large
    residuals that say nothing about correctness; n_steps below 100 is
    rejected outright.
    """
    if n_steps < 100:
        raise ValueError(f"closed-form comparison needs n_steps >= 100, got {n_steps!r}")
    thetas = _grid(theta_grid, "theta_grid")
    # The walks run here, not through sweep_sigma_vs_theta, so that a trace
    # shows this check as the direct caller of every evolve.
    sigma = _sigmas_after([PotentialProfile(1, t) for t in thetas], n_steps)
    sigma2_over_n2 = (sigma / n_steps) ** 2
    law = 1.0 - np.abs(np.cos(thetas))
    return Q1LawCheck(
        theta=thetas,
        sigma2_over_n2=sigma2_over_n2,
        law=law,
        residual=np.abs(sigma2_over_n2 - law),
        n_steps=n_steps,
    )


def relative_spread(sigma: Sequence[float]) -> float:
    """(max - min) / mean of a positive sample; the laziness figure of merit."""
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sigma must be a non-empty 1-D sequence")
    return float((s.max() - s.min()) / s.mean())
