"""Position-space statistics derived from a walk state."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _SQRT_HALF, DOWN, UP, WalkState

__all__ = [
    "Distribution",
    "Moments",
    "distribution",
    "moments",
    "q1_law",
    "q2_law",
    "symmetry_residual",
]


@dataclass(frozen=True)
class Distribution:
    """Probability by position after ``n_steps`` steps.

    Positions run over the full reachable window -n_steps .. +n_steps in
    strictly increasing order.  Zero entries are kept on purpose, parity
    zeros included, so consumers always see the same window shape for the
    same step count.
    """

    positions: np.ndarray
    probabilities: np.ndarray
    n_steps: int


@dataclass(frozen=True)
class Moments:
    """First and second position moments plus the standard deviation."""

    mean: float
    second_moment: float
    sigma: float


def distribution(state: WalkState) -> Distribution:
    """Trace out the coin: P(x) = |a(x, DOWN)|^2 + |a(x, UP)|^2 over [-N, N]."""
    n = state.steps_taken
    lo = state.origin_offset - n
    hi = state.origin_offset + n + 1
    window = state.amplitudes[lo:hi]
    sq = window.real * window.real + window.imag * window.imag
    probs = sq[:, DOWN] + sq[:, UP]
    return Distribution(
        positions=np.arange(-n, n + 1, dtype=np.int64),
        probabilities=probs,
        n_steps=n,
    )


def moments(dist: Distribution) -> Moments:
    """Weighted sums over the distribution; sigma = sqrt(<x^2> - <x>^2).

    The variance is clamped at zero before the square root so that
    rounding on a point mass cannot produce a NaN.
    """
    x = dist.positions.astype(np.float64)
    p = dist.probabilities
    mean = float(p @ x)
    second = float(p @ (x * x))
    variance = second - mean * mean
    return Moments(mean=mean, second_moment=second, sigma=math.sqrt(max(variance, 0.0)))


def q1_law(theta: float, n_steps: int) -> float:
    """Closed-form spread prediction sqrt(1 - |cos theta|) * n_steps.

    Valid for the all-scattering profile (period 1) in the large-step
    regime; exact in the free case theta = pi/2 and degenerate (zero) at
    theta = 0 or pi where the walker is trapped near the origin.
    """
    return math.sqrt(1.0 - abs(math.cos(theta))) * n_steps


def q2_law(theta: float, n_steps: int) -> float:
    """Closed-form spread prediction sqrt(1 - max(|cos theta|, 1/sqrt 2)) * n_steps.

    Valid for period 2 in the large-step regime.  Where |cos theta| >=
    1/sqrt 2 it is ``q1_law``; on [pi/4, 3 pi/4] and its shifts by pi the
    walk is lazy: it spreads like the Hadamard walk whatever theta is.
    """
    return math.sqrt(1.0 - max(abs(math.cos(theta)), _SQRT_HALF)) * n_steps


def symmetry_residual(dist: Distribution) -> float:
    """Largest |P(x) - P(-x)| over the distribution's window.

    Positions whose mirror is absent count as mirrored onto probability
    zero, so the residual is well defined for hand-built distributions
    with one-sided windows too.
    """
    lookup = {int(x): float(p) for x, p in zip(dist.positions, dist.probabilities)}
    return max(abs(p - lookup.get(-x, 0.0)) for x, p in lookup.items())
