"""State-vector kernel for discrete-time coined walks on the integer line.

The walker carries a two-level coin.  Each step applies a site-dependent
coin matrix and then shifts: the DOWN component moves one site to the
left, the UP component one site to the right.  Sites at integer multiples
of a period ``q`` apply the scattering coin ``C(theta)``, every other
site the Hadamard coin.  ``q = 1`` makes every site a scatterer, and
``theta = pi/4`` makes the scattering coin coincide with Hadamard, so
both limits reduce to familiar walks.

Amplitudes live in a dense complex table, one (DOWN, UP) row per site.
A walk of k steps never leaves its light cone [-k, k], so the table is
exactly that: 2k + 1 rows, row i holding position i - k, the origin in
the middle row.  Amplitude sits only on the live sites x = -k, -k + 2,
..., k, the even rows, and ``evolve`` touches nothing else.  Both coins
are real matrices [[t, r], [r, -t]].  Each step reads the live sites of
one parity of x, and ``evolve`` gives every parity one of three step
classes.  On a Hadamard parity no live site scatters (even q, odd x):
t = r = 1/sqrt 2, so a step takes two products instead of four.  On an
all-scattering parity every site does (q = 1, or q = 2 on even x): t and
r are the scalars sin and cos theta.  Only a mixed parity holds per-site
coefficients t(x) and r(x), built once per call as one contiguous array.
Between its first and last step ``evolve`` keeps the k + 1 live sites
packed, site j (x = -k + 2j) in column j of a contiguous DOWN row and UP
row, alternating between two such buffers of its own.  ``step`` is
``evolve`` for one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
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
]

#: Largest |norm - 1| tolerated at the end of an evolution before results
#: are considered corrupt.  Per-step drift is far smaller in practice.
NORM_DRIFT_TOL = 1e-9

_SQRT_HALF = math.sqrt(0.5)


def _whole(value, name: str, minimum: int) -> int:
    """``value`` as an int; ValueError unless it is a whole number >= ``minimum``."""
    try:
        whole = int(value)
    except (OverflowError, TypeError, ValueError):
        whole = None
    if whole is None or whole != value or whole < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return whole


def _finite(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is finite."""
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


class NormDriftError(RuntimeError):
    """A state's norm has drifted from 1 by more than NORM_DRIFT_TOL."""


class CoinDirection(IntEnum):
    """Coin basis labels.  DOWN shifts to x - 1, UP shifts to x + 1."""

    DOWN = 0
    UP = 1


DOWN = CoinDirection.DOWN
UP = CoinDirection.UP


@dataclass(frozen=True)
class PotentialProfile:
    """Periodic arrangement of coins: C(theta) wherever x % q == 0, Hadamard elsewhere.

    C(theta) = [[sin theta, cos theta], [cos theta, -sin theta]] in (DOWN,
    UP) order; theta is used as given, with no range reduction, and must be
    finite.  The origin is always a scattering site.  Negative positions
    follow mathematical modulo, so x = -q, -2q, ... are scattering sites too.
    """

    period_q: int
    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "period_q", _whole(self.period_q, "period_q", 1))
        object.__setattr__(self, "theta", _finite(self.theta, "theta"))

    @property
    def transmission(self) -> float:
        """Amplitude for passing straight through a scattering site, sin(theta)."""
        return math.sin(self.theta)

    @property
    def reflection(self) -> float:
        """Amplitude for bouncing back at a scattering site, cos(theta)."""
        return math.cos(self.theta)


@dataclass(frozen=True)
class WalkState:
    """Dense amplitude table over (position, coin direction): a walk's light cone.

    A table of 2k + 1 rows holds a walk of k = ``steps_taken`` steps: row
    ``i`` holds the (DOWN, UP) amplitudes of position ``i - k``, so it
    spans |x| <= k, every site such a walk can reach.  ValueError unless
    the table is a complex128 array of shape (2k + 1, 2).

    ``evolve`` reads only the even rows, the sites of the parity of k, so
    a hand-built state must keep its amplitude there: amplitude in an odd
    row is ignored.  States from ``initial_state``, ``point_state`` and
    ``evolve`` keep it.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        table = self.amplitudes
        shape = table.shape
        if len(shape) != 2 or shape[1] != 2 or not shape[0] % 2:
            raise ValueError(f"amplitudes must have shape (2k + 1, 2), got {shape}")
        if table.dtype != np.complex128:
            raise ValueError(f"amplitudes must be complex128, got {table.dtype}")

    @property
    def steps_taken(self) -> int:
        """Steps the walk has taken, k, read off the table's 2k + 1 rows."""
        return (self.amplitudes.shape[0] - 1) // 2

    def amplitude(self, x: int, direction: CoinDirection) -> complex:
        """Amplitude of the (x, direction) basis state; zero outside the table."""
        i = x + self.steps_taken
        if 0 <= i < self.amplitudes.shape[0]:
            return complex(self.amplitudes[i, direction])
        return 0j

    def norm(self) -> float:
        """l2 norm of the full amplitude table."""
        a = self.amplitudes
        return math.sqrt(np.vdot(a, a).real)


def initial_state() -> WalkState:
    """Walker at the origin with coin state (|DOWN> + i|UP>) / sqrt 2.

    This coin choice gives a position distribution symmetric about the
    origin for every profile, because both coins are real matrices of the
    form [[a, b], [b, -a]].
    """
    amps = np.zeros((1, 2), dtype=np.complex128)
    amps[0, DOWN] = _SQRT_HALF
    amps[0, UP] = 1j * _SQRT_HALF
    return WalkState(amps)


def point_state(position: int, direction: CoinDirection) -> WalkState:
    """Unit amplitude on a single (position, direction) cell.

    The table is the light cone of a walker that reached ``position`` from
    the origin, 2|position| + 1 rows, so steps_taken is |position|.
    ValueError unless ``position`` is a whole number.
    """
    k = _whole(abs(position), "|position|", 0)
    amps = np.zeros((2 * k + 1, 2), dtype=np.complex128)
    amps[k + int(position), CoinDirection(direction)] = 1.0
    return WalkState(amps)


def step(state: WalkState, profile: PotentialProfile) -> WalkState:
    """Advance the walk by one step; the same as ``evolve(state, profile, 1)``."""
    return evolve(state, profile, 1)


def evolve(state: WalkState, profile: PotentialProfile, n_steps: int) -> WalkState:
    """Apply ``n_steps`` steps and return the final state.

    Reads only the live rows of ``state.amplitudes``, the even ones (see
    ``WalkState``), and writes only a fresh zeroed table, which it returns:
    the light cone of steps_taken + n_steps steps, 2 * n_steps rows longer
    than the input.  The input table is never written, and the returned
    table is never shared with the input or with another call's result;
    only ``n_steps == 0`` returns ``state`` itself.

    Identical inputs give bit-identical outputs: the kernel is pure numpy
    with a fixed operation order and no randomness.

    Raises
    ------
    ValueError
        If n_steps is not a whole number >= 0.
    """
    n = _whole(n_steps, "n_steps", 0)
    if n == 0:
        return state
    amps = state.amplitudes
    k0 = k = state.steps_taken
    # Row x's coin is [[t, r], [r, -t]]: (sin, cos) theta at scattering sites,
    # 1/sqrt 2 elsewhere.  Only the rows |x| <= reach are ever read, and step
    # i reads only those of parity p = (n - 1 - i) % 2, over x = x0 + 2m,
    # x0 = p - reach.  x % q == 0 holds at every stride-th m from m = first:
    # stride q and first -x0 (q + 1) / 2 mod q for odd q (as (q + 1) / 2
    # inverts 2 mod q), stride q / 2 and first -x0 / 2 mod q / 2 for even q
    # and even x0, and nowhere for even q and odd x0.  That gives each parity
    # one of three step classes: Hadamard when none of its rows scatters, all
    # scattering when stride is 1 (q = 1, or q = 2 on even x0), and mixed
    # otherwise.  Only a mixed parity needs per-site coefficients, built as
    # 1/sqrt 2 with the scattering rows overwritten through one strided
    # slice.  The other two hold their coin as 0-d arrays: numpy would
    # convert a Python complex on every call, about 0.2 us each.  Every
    # class forms the same products and sums in the same order, so the
    # amplitudes do not depend on the class.  Coefficients are complex so
    # that no multiply casts them to the amplitudes' type; the values, and
    # so the products, are the same.  Any period above reach marks only
    # x = 0, so capping it there loses nothing and keeps the stride within
    # the indices numpy takes.
    reach = k + n - 1
    q = min(profile.period_q, reach + 1)
    hadamard = np.array(complex(_SQRT_HALF))
    coins = []
    for p in range(min(n, 2)):
        x0, size = p - reach, reach + 1 - p
        first, stride = size, 1
        if q % 2 or x0 % 2 == 0:
            stride = q if q % 2 else q // 2
            first = (-x0 * ((q + 1) // 2) if q % 2 else -x0 // 2) % stride
        if first >= size:
            coins.append(None)
        elif stride == 1:
            coins.append((np.array(complex(profile.transmission)), np.array(complex(profile.reflection))))
        else:
            coefficients = np.full((2, size), complex(_SQRT_HALF))
            coefficients[0, first::stride] = complex(profile.transmission)
            coefficients[1, first::stride] = complex(profile.reflection)
            coins.append((coefficients[0], coefficients[1]))
    # The buffers start zeroed: the step from k writes DOWN to columns 0..k
    # and UP to 1..k + 1, and the next step reads columns 0..k + 1 of both.
    # Each row is prebuilt as a 1-d array, because slicing those costs less
    # per step than slicing a 2-d block or unpacking pairs[i % 2] (which won
    # 0 and 2 of 14 alternating pairs at N = 200 and 4000).  The products
    # land in the output rows and one scratch row, so a step allocates
    # nothing; a one-step call needs no buffers at all.
    if n > 1:
        pairs = np.zeros((min(n - 1, 2), 2, k + n), dtype=amps.dtype)
        buffers = [tuple(pair) for pair in pairs]
    # np.zeros, not zeros_like: about 1.3 us less per call at 2001 rows.
    out = np.zeros((2 * (k + n) + 1, 2), amps.dtype)
    scratch = np.empty(reach + 1, dtype=amps.dtype)
    src = amps[::2, DOWN], amps[::2, UP]
    for i in range(n):
        # The coin acts at the pre-shift position; then DOWN slides one site
        # toward -x and UP one site toward +x.
        k = k0 + i
        m0, p = divmod(n - 1 - i, 2)
        d, u = src
        b = scratch[: k + 1]
        if i < n - 1:
            down_row, up_row = buffers[i % 2]
            down, up = down_row[: k + 1], up_row[1 : k + 2]
            src = down_row[: k + 2], up_row[: k + 2]
        else:
            # Straight into the stride-2 columns of the returned table: a
            # step into a buffer and a copy-out nearly doubled a one-step call.
            down, up = out[:-2:2, DOWN], out[2::2, UP]
        if coins[p] is None:
            # down = h d + h u and up = h d - h u with each product taken
            # once: h d lands in down, and up is taken before down is summed.
            np.multiply(hadamard, d, down)
            np.multiply(hadamard, u, b)
            np.subtract(down, b, up)
            np.add(down, b, down)
            continue
        tk, rk = coins[p]
        if tk.ndim:
            tk, rk = tk[m0 : m0 + k + 1], rk[m0 : m0 + k + 1]
        # down = tk * d + rk * u and up = rk * d - tk * u.
        np.multiply(tk, d, down)
        np.multiply(rk, u, b)
        np.add(down, b, down)
        np.multiply(rk, d, up)
        np.multiply(tk, u, b)
        np.subtract(up, b, up)
    return WalkState(out)


def check_norm(state: WalkState) -> None:
    """Raise NormDriftError if the state's norm has drifted beyond NORM_DRIFT_TOL."""
    drift = abs(state.norm() - 1.0)
    if drift > NORM_DRIFT_TOL:
        raise NormDriftError(f"norm drifted from 1 by {drift:.3e} after {state.steps_taken} steps")
