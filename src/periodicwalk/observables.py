"""Position-space statistics derived from a walk state."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _REAL_KINDS, _SQRT_HALF, WalkState, _finite, _real_array, _whole

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


def _window(p) -> tuple[np.ndarray, int]:
    """``p`` as an array and N for its 2N + 1 entries; ValueError unless it is 1-D of odd length and real."""
    p = _real_array(p, "p")
    shape = p.shape
    if len(shape) != 1 or not shape[0] % 2 or p.dtype.kind not in _REAL_KINDS:
        raise ValueError(f"p must be a 1-D window of 2N + 1 real entries, got shape {shape} and dtype {p.dtype}")
    return p, shape[0] // 2


def distribution(state: WalkState) -> np.ndarray:
    """Trace out the coin: P(x) = |a(x, DOWN)|^2 + |a(x, UP)|^2 for x = -N .. N.

    N is ``state.steps_taken``, so entry i is P(i - N), one per row of the
    table.  Zero entries are kept on purpose, parity zeros included, so the
    same step count always gives the same window.
    """
    # One square over the table's float64 view, whose columns are re and im
    # of DOWN, then of UP, summed as |DOWN|^2 + |UP|^2.  A C-contiguous
    # table is viewed as it is; any other order is copied, as .view needs.
    sq = np.square(np.ascontiguousarray(state.amplitudes).view(np.float64))
    return (sq[:, 0] + sq[:, 1]) + (sq[:, 2] + sq[:, 3])


def moments(p) -> Moments:
    """Weighted sums over P(x) for x = -N .. N; sigma = sqrt(<x^2> - <x>^2).

    ``p`` is a window as ``distribution`` returns it, 2N + 1 entries long,
    or any array-like that converts to one; ValueError unless it is 1-D of
    odd length and real.  The variance is clamped at zero before the square
    root so that rounding on a point mass cannot produce a NaN.
    """
    p, n = _window(p)
    x = np.arange(-n, n + 1, dtype=np.float64)
    mean = float(p @ x)
    second = float(p @ (x * x))
    variance = second - mean * mean
    return Moments(mean, second, math.sqrt(max(variance, 0.0)))


def q1_law(theta: float, n_steps: int) -> float:
    """Closed-form spread prediction sqrt(1 - |cos theta|) * n_steps.

    Valid for the all-scattering profile (period 1) in the large-step
    regime; exact in the free case theta = pi/2 and degenerate (zero) at
    theta = 0 or pi where the walker is trapped near the origin.
    ValueError unless theta is a finite real number and n_steps a whole
    number >= 0.
    """
    return math.sqrt(1.0 - abs(math.cos(_finite(theta, "theta")))) * _whole(n_steps, "n_steps", 0)


def q2_law(theta: float, n_steps: int) -> float:
    """Closed-form spread prediction sqrt(1 - max(|cos theta|, 1/sqrt 2)) * n_steps.

    Valid for period 2 in the large-step regime.  Where |cos theta| >=
    1/sqrt 2 it is ``q1_law``; on [pi/4, 3 pi/4] and its shifts by pi the
    walk is lazy: it spreads like the Hadamard walk whatever theta is.
    ValueError unless its arguments are as ``q1_law`` takes them.
    """
    return math.sqrt(1.0 - max(abs(math.cos(_finite(theta, "theta"))), _SQRT_HALF)) * _whole(n_steps, "n_steps", 0)


def symmetry_residual(p) -> float:
    """Largest |P(x) - P(-x)| over a window x = -N .. N.

    Takes ``p`` as ``moments`` does; ValueError unless it is 1-D of odd length and real.
    """
    p, _ = _window(p)
    # Subtracted as float64: numpy has no boolean subtract, and unsigned ones wrap.
    return float(np.max(np.abs(np.subtract(p, p[::-1], dtype=np.float64))))
