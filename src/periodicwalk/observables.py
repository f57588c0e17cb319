"""Position-space statistics derived from a walk state."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _SQRT_HALF, DOWN, UP, WalkState

__all__ = [
    "Moments",
    "distribution",
    "moments",
    "q1_law",
    "q2_law",
    "symmetry_residual",
]


@dataclass(frozen=True)
class Moments:
    """First and second position moments plus the standard deviation."""

    mean: float
    second_moment: float
    sigma: float


def _half_width(p: np.ndarray) -> int:
    """N for a window of 2N + 1 entries; ValueError unless ``p`` is 1-D of odd length."""
    shape = p.shape
    if len(shape) != 1 or not shape[0] % 2:
        raise ValueError(f"p must be a 1-D window of 2N + 1 entries, got shape {shape}")
    return shape[0] // 2


def distribution(state: WalkState) -> np.ndarray:
    """Trace out the coin: P(x) = |a(x, DOWN)|^2 + |a(x, UP)|^2 for x = -N .. N.

    N is ``state.steps_taken``, so entry i is P(i - N), one per row of the
    table.  Zero entries are kept on purpose, parity zeros included, so the
    same step count always gives the same window.
    """
    a = state.amplitudes
    sq = a.real * a.real + a.imag * a.imag
    return sq[:, DOWN] + sq[:, UP]


def moments(p: np.ndarray) -> Moments:
    """Weighted sums over P(x) for x = -N .. N; sigma = sqrt(<x^2> - <x>^2).

    ``p`` is a window as ``distribution`` returns it, 2N + 1 entries long;
    ValueError unless it is 1-D of odd length.  The variance is clamped at
    zero before the square root so that rounding on a point mass cannot
    produce a NaN.
    """
    n = _half_width(p)
    x = np.arange(-n, n + 1, dtype=np.float64)
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


def symmetry_residual(p: np.ndarray) -> float:
    """Largest |P(x) - P(-x)| over a window x = -N .. N.

    ValueError unless ``p`` is 1-D of odd length, as ``moments``.
    """
    _half_width(p)
    return float(np.max(np.abs(p - p[::-1])))
