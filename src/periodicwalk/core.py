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
``evolve`` for one step; no sweep calls it.

From ``initial_state()`` the sites x > 0 mirror the sites x < 0, so
``_half_cone`` steps only the columns x <= 0, with ``evolve``'s step
classes and operation order, for about half the work.  ``simulate``
takes its table from ``_mirror_walk``, which writes the other half at
the end, and ``sweep-steps`` reads every snapshot's P(x) off the one
half-cone walk.  The mirrored table equals ``evolve``'s in value, not
byte for byte (a mirrored zero may carry the other sign), so ``evolve``
keeps the full light cone and its byte contract with the oracle, and
the other sweeps keep ``evolve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

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


def _coin_scalar(value: float) -> np.ndarray:
    """``value`` as a read-only complex 0-d array, a coin entry ``evolve`` multiplies by."""
    scalar = np.array(complex(value))
    scalar.flags.writeable = False
    return scalar


#: 1/sqrt 2, the magnitude of every Hadamard coin entry, as ``evolve`` multiplies by it.
_HADAMARD = _coin_scalar(_SQRT_HALF)

#: What counts as a real number, for a scalar and for an array's dtype kind:
#: the same set, a bool, an integer or a float, from Python or numpy.
_REAL_TYPES = (int, float, np.bool_, np.integer, np.floating)
_REAL_KINDS = "biuf"


def _whole(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; ValueError unless it is a whole real number, and >= ``minimum`` if one is given."""
    try:
        whole = int(value) if isinstance(value, _REAL_TYPES) else None
    except (OverflowError, ValueError):  # an infinite or NaN float
        whole = None
    if whole is None or whole != value or (minimum is not None and whole < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return whole


def _finite(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is a finite real number."""
    try:
        number = float(value) if isinstance(value, _REAL_TYPES) else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return number


class NormDriftError(RuntimeError):
    """A state's norm has drifted from 1 by more than NORM_DRIFT_TOL."""


class CoinDirection(IntEnum):
    """Coin basis labels.  DOWN shifts to x - 1, UP shifts to x + 1."""

    DOWN = 0
    UP = 1


DOWN = CoinDirection.DOWN
UP = CoinDirection.UP


def _direction(value) -> CoinDirection:
    """``value`` as a CoinDirection; ValueError unless it is a real number equal to 0 or 1."""
    if isinstance(value, _REAL_TYPES) and value in (0, 1):
        return CoinDirection(int(value))
    raise ValueError(f"direction must be 0 (DOWN) or 1 (UP), got {value!r}")


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

    @cached_property
    def _coin(self) -> tuple[np.ndarray, np.ndarray]:
        """(sin, cos) theta as read-only complex 0-d arrays, built on first use by ``evolve``.

        Kept in the instance dict, outside the dataclass fields, so equality,
        hash and repr do not see it.
        """
        return _coin_scalar(self.transmission), _coin_scalar(self.reflection)


@dataclass(frozen=True)
class WalkState:
    """Dense amplitude table over (position, coin direction): a walk's light cone.

    A table of 2k + 1 rows holds a walk of k = ``steps_taken`` steps: row
    ``i`` holds the (DOWN, UP) amplitudes of position ``i - k``, so it
    spans |x| <= k, every site such a walk can reach.  ValueError unless
    the table is a complex128 numpy array of shape (2k + 1, 2).

    ``evolve`` and the oracle read only the even rows, the sites of the
    parity of k, so a hand-built state must keep its amplitude there:
    both ignore amplitude in an odd row.  States from ``initial_state``,
    ``point_state`` and ``evolve`` keep it.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        table = self.amplitudes
        if not isinstance(table, np.ndarray):
            raise ValueError(f"amplitudes must be a numpy array, got {type(table).__name__}")
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
        """Amplitude of (x, direction), zero outside the table.

        ValueError unless x is a whole number and direction is DOWN or UP.
        """
        i = _whole(x, "x") + self.steps_taken
        direction = _direction(direction)
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
    ValueError unless ``position`` is a whole number and ``direction`` is
    DOWN or UP.
    """
    x = _whole(position, "position")
    k = abs(x)
    amps = np.zeros((2 * k + 1, 2), dtype=np.complex128)
    amps[k + x, _direction(direction)] = 1.0
    return WalkState(amps)


def step(state: WalkState, profile: PotentialProfile) -> WalkState:
    """Advance the walk by one step; the same as ``evolve(state, profile, 1)``."""
    return evolve(state, profile, 1)


def _step_classes(profile: PotentialProfile, reach: int, n: int) -> list:
    """The coins of a walk of ``n`` steps that reads only the sites |x| <= ``reach``.

    Step i reads the sites of parity p = (n - 1 - i) % 2 and takes entry p:
    None for a Hadamard step, (t, r) as 0-d arrays for an all-scattering
    one, and (t, r) as rows over x = p - reach + 2m for a mixed one.
    """
    # Row x's coin is [[t, r], [r, -t]]: (sin, cos) theta at scattering sites,
    # 1/sqrt 2 elsewhere.  Parity p covers x = x0 + 2m, x0 = p - reach, and
    # x % q == 0 holds at every stride-th m from m = first: stride q and
    # first -x0 (q + 1) / 2 mod q for odd q (as (q + 1) / 2 inverts 2 mod
    # q), stride q / 2 and first -x0 / 2 mod q / 2 for even q
    # and even x0, and nowhere for even q and odd x0.  That gives each parity
    # one of three step classes: Hadamard when none of its rows scatters, all
    # scattering when stride is 1 (q = 1, or q = 2 on even x0), and mixed
    # otherwise.  Only a mixed parity needs per-site coefficients, built as
    # 1/sqrt 2 with the scattering rows overwritten through one strided
    # slice.  The other two multiply by read-only 0-d arrays, since numpy
    # would convert a Python complex on every multiply, about 0.2 us each.
    # Those are built once, not per call: the Hadamard entry at import and
    # (sin, cos) theta on a profile's first walk, so a walk advanced one
    # step at a time builds them once, not once per step.  Every class
    # forms the same products and sums in the same order, so the amplitudes
    # do not depend on the class.  Coefficients are complex so that no
    # multiply casts them to the amplitudes' type; the values, and so the
    # products, are the same.  Any period above reach marks only x = 0, so
    # capping it there loses nothing and keeps the stride within the
    # indices numpy takes.
    q = min(profile.period_q, reach + 1)
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
            coins.append(profile._coin)
        else:
            coefficients = np.full((2, size), complex(_SQRT_HALF))
            coefficients[0, first::stride], coefficients[1, first::stride] = profile._coin
            coins.append((coefficients[0], coefficients[1]))
    return coins


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
    reach = k + n - 1
    coins = _step_classes(profile, reach, n)
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
            np.multiply(_HADAMARD, d, down)
            np.multiply(_HADAMARD, u, b)
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


def _half_cone(profile: PotentialProfile, n: int):
    """After each step k = 1..n >= 1 from ``initial_state()``, yield the (DOWN, UP) rows of the sites x <= 0.

    Column j holds x = -k + 2j; the rows are views that the step after next
    overwrites.  Both coins are real and symmetric, x % q == 0 exactly when
    -x % q == 0, and the start is (|DOWN> + i|UP>) / sqrt 2, so after k
    steps D(-x) = c U(x) and U(x) = -c D(-x), with c = -i for even k and +i
    for odd k.  The sites x <= 0 therefore advance alone, with ``evolve``'s
    step classes, products and sums in its order, and get ``evolve``'s
    values.  Into an even k the origin is live, and its D, which would need
    x = 1, is set to -i U(0) instead.
    """
    start = initial_state()
    coins = _step_classes(profile, n - 1, n)
    # The step from k writes DOWN to columns 0..k // 2, UP to 1..k // 2 + 1
    # (one site past the origin into an odd k + 1, which nothing reads) and,
    # into an even k + 1, D(0) to column (k + 1) // 2.  UP's column 0 stays
    # zero.
    pairs = np.zeros((min(n, 2), 2, n // 2 + 2), dtype=np.complex128)
    buffers = [tuple(pair) for pair in pairs]
    origin_down, origin_up = pairs[-1].view(np.float64)  # (re, im) pairs
    scratch = np.empty(n // 2 + 1, dtype=np.complex128)
    src = start.amplitudes[:, DOWN], start.amplitudes[:, UP]
    for k in range(n):
        m = k // 2 + 1
        m0, p = divmod(n - 1 - k, 2)
        d, u = src
        b = scratch[:m]
        down_row, up_row = buffers[k % 2]
        down, up = down_row[:m], up_row[1 : m + 1]
        if coins[p] is None:
            np.multiply(_HADAMARD, d, down)
            np.multiply(_HADAMARD, u, b)
            np.subtract(down, b, up)
            np.add(down, b, down)
        else:
            tk, rk = coins[p]
            if tk.ndim:
                tk, rk = tk[m0 : m0 + m], rk[m0 : m0 + m]
            np.multiply(tk, d, down)
            np.multiply(rk, u, b)
            np.add(down, b, down)
            np.multiply(rk, d, up)
            np.multiply(tk, u, b)
            np.subtract(up, b, up)
        if k % 2:
            # Into an even k + 1, column m is the origin: D(0) = -i U(0),
            # that is (U.im, -U.re).
            origin_down[2 * m] = origin_up[2 * m + 1]
            origin_down[2 * m + 1] = -origin_up[2 * m]
        src = down_row[: (k + 1) // 2 + 1], up_row[: (k + 1) // 2 + 1]
        yield src


def _mirror_walk(profile: PotentialProfile, n_steps: int) -> WalkState:
    """``evolve(initial_state(), profile, n_steps)`` in value, from the half of the work ``_half_cone`` does.

    The sites x > 0 are written from their mirror at the end, by swapping
    real and imaginary parts and negating.  The values equal ``evolve``'s
    (``np.array_equal``), but a zero on x > 0 may carry the other sign, so
    the table's bytes can differ; P(x) keeps its bytes.  ValueError unless
    n_steps is a whole number >= 0.
    """
    n = _whole(n_steps, "n_steps", 0)
    if n == 0:
        return initial_state()
    for down_row, up_row in _half_cone(profile, n):
        pass
    # The table is allocated only now: allocated before the buffers, as
    # evolve does, it raised the benchmark's peak RSS on long-walk by about
    # 0.65 MiB against 0.1 MiB.
    out = np.zeros((2 * n + 1, 2), dtype=np.complex128)
    out[: 2 * len(down_row) : 2, DOWN] = down_row
    out[: 2 * len(up_row) : 2, UP] = up_row
    # Columns (D.re, D.im, U.re, U.im).  Site x > 0 is row 2n - 2j for the
    # site -x in row 2j, j < (n + 1) // 2.  Its (D, U) is (c U(-x), -c D(-x)):
    # (U.im, -U.re, -D.im, D.re) for c = -i, the negation of both ends of
    # the reversed row for c = +i.
    parts = out.view(np.float64)
    right = parts[2 * n : n : -2]
    right[:] = parts[: 2 * len(right) : 2, ::-1]
    negated = right[:, 1:3] if n % 2 == 0 else right[:, ::3]
    np.negative(negated, out=negated)
    return WalkState(out)


def _check_drift(norm: float, steps: int) -> None:
    """Raise NormDriftError unless ``norm`` is within NORM_DRIFT_TOL of 1, as a NaN norm never is."""
    drift = abs(norm - 1.0)
    if not drift <= NORM_DRIFT_TOL:
        raise NormDriftError(f"norm drifted from 1 by {drift:.3e} after {steps} steps")


def check_norm(state: WalkState) -> None:
    """Raise NormDriftError unless the norm is within NORM_DRIFT_TOL of 1, as a NaN norm never is."""
    _check_drift(state.norm(), state.steps_taken)
