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
from typing import Mapping, Sequence

import numpy as np

from .core import PotentialProfile, check_norm, evolve, initial_state, step
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

    ``metadata`` records the fixed parameters and the grid that produced
    the table, keyed by plain strings so it can go straight into a JSON
    manifest.
    """

    independent: np.ndarray
    sigma: np.ndarray
    metadata: Mapping[str, object]


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


def _sigma_after(profile: PotentialProfile, n_steps: int) -> float:
    state = evolve(initial_state(n_steps), profile, n_steps)
    check_norm(state)
    return moments(distribution(state)).sigma


def sweep_sigma_vs_steps(q: int, theta: float, n_values: Sequence[int]) -> SweepResult:
    """sigma after each requested step count, all snapshots of one evolution.

    Reusing a single trajectory keeps the rows mutually consistent and
    costs one walk of max(n_values) steps.
    """
    ns = [int(n) for n in n_values]
    if not ns:
        raise ValueError("n_values must not be empty")
    if any(n < 1 for n in ns):
        raise ValueError("every entry of n_values must be >= 1")
    profile = PotentialProfile(q, theta)
    wanted = set(ns)
    sigma_at: dict[int, float] = {}
    state = initial_state(max(ns))
    for k in range(1, max(ns) + 1):
        state = step(state, profile)
        if k in wanted:
            check_norm(state)
            sigma_at[k] = moments(distribution(state)).sigma
    metadata = {"kind": "sigma_vs_steps", "q": int(q), "theta": float(theta), "n_values": ns}
    return SweepResult(
        independent=np.array(ns, dtype=np.float64),
        sigma=np.array([sigma_at[n] for n in ns], dtype=np.float64),
        metadata=metadata,
    )


def sweep_sigma_vs_theta(q: int, theta_grid: Sequence[float], n_steps: int) -> SweepResult:
    """sigma after n_steps for each angle in theta_grid, at fixed period q."""
    thetas = np.asarray(theta_grid, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError("theta_grid must be a non-empty 1-D sequence")
    n = int(n_steps)
    if n < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    sigma = np.array([_sigma_after(PotentialProfile(q, t), n) for t in thetas])
    metadata = {
        "kind": "sigma_vs_theta",
        "q": int(q),
        "theta_grid": [float(t) for t in thetas],
        "n_steps": n,
    }
    return SweepResult(independent=thetas.copy(), sigma=sigma, metadata=metadata)


def sweep_sigma_vs_inverse_period(
    theta: float, q_values: Sequence[int], n_steps: int
) -> SweepResult:
    """sigma after n_steps for each period in q_values, keyed by 1/q.

    Rows follow the order of q_values; the independent column is 1/q so
    that denser potentials sit at larger x and trends against scatterer
    density read left to right.
    """
    qs = [int(q) for q in q_values]
    if not qs:
        raise ValueError("q_values must not be empty")
    if any(q < 1 for q in qs):
        raise ValueError("every period in q_values must be >= 1")
    n = int(n_steps)
    if n < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps!r}")
    sigma = np.array([_sigma_after(PotentialProfile(q, theta), n) for q in qs])
    metadata = {
        "kind": "sigma_vs_inverse_period",
        "theta": float(theta),
        "q_values": qs,
        "n_steps": n,
    }
    return SweepResult(
        independent=np.array([1.0 / q for q in qs], dtype=np.float64),
        sigma=sigma,
        metadata=metadata,
    )


def check_q1_closed_form(theta_grid: Sequence[float], n_steps: int) -> Q1LawCheck:
    """Residuals |sigma^2 / N^2 - (1 - |cos theta|)| for the period-1 walk.

    The closed form is asymptotic, so short walks would report large
    residuals that say nothing about correctness; n_steps below 100 is
    rejected outright.
    """
    n = int(n_steps)
    if n < 100:
        raise ValueError(f"closed-form comparison needs n_steps >= 100, got {n_steps!r}")
    thetas = np.asarray(theta_grid, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError("theta_grid must be a non-empty 1-D sequence")
    sigma = np.array([_sigma_after(PotentialProfile(1, t), n) for t in thetas])
    sigma2_over_n2 = (sigma / n) ** 2
    law = 1.0 - np.abs(np.cos(thetas))
    return Q1LawCheck(
        theta=thetas.copy(),
        sigma2_over_n2=sigma2_over_n2,
        law=law,
        residual=np.abs(sigma2_over_n2 - law),
        n_steps=n,
    )


def relative_spread(sigma: Sequence[float]) -> float:
    """(max - min) / mean of a positive sample; the laziness figure of merit."""
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("sigma must be a non-empty 1-D sequence")
    return float((s.max() - s.min()) / s.mean())
