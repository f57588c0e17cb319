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
classes, from which of its sites satisfy x % q == 0.  On a Hadamard
parity none does (even q, odd x): t = r = 1/sqrt 2, so a step takes two
products instead of four.  On an all-scattering parity every site does
(q = 1, or q = 2 on even x): t and r are the scalars sin and cos theta.
Only a mixed parity holds per-site coefficients, a row t(x) and a row
r(x), built once per call.
Both walkers run through one loop, ``_walk``.  It keeps the live sites
packed, site j (x = -k + 2j after k steps from the origin) in column j of a
contiguous DOWN row and UP row.  Each requested step goes into the next row
of a ring of at most ``_RING_ROWS`` row pairs, and every other step into
one of two spare row pairs, by its parity; it hands the ring over whenever
its rows fill and after the last step.  It takes its first step alone, at
the start's width, then blocks of ``_BLOCK_STEPS`` steps, each on one set
of views as wide as its widest step, so a step slices no state row and may
run past its live sites; a mixed step's coefficient rows run on past the
light cone to meet it.  The columns past the live sites hold only zeros,
of either sign, but for the columns each walker fixes after a step.
``evolve`` is one request on the full light cone.  Its first step reads
the caller's stride-2 columns.  After each step DOWN's first column past
the live sites, which the next step reads as its last site, is reset to
+0, so the bytes are those of a walk of exact widths.  The requested row
pair is copied into the returned table.  ``step`` is ``evolve`` for one
step; no sweep calls it.

From ``initial_state()`` the sites x > 0 mirror the sites x < 0, so
``_half_cone`` has ``_walk`` step only the columns x <= 0, with
``evolve``'s step classes and operation order, for about half the work.
Into an even k it sets the origin's D from U there, and from an odd k it
resets UP's column at x = 2 to +0.  A requested step 0 it hands over
alone, as the start.
``_distributions``, beside it, is its one reader: it squares and sums P
over x <= 0 for a batch's rows at once and mirrors each requested P(x)
from them, with the bytes of ``distribution``.  ``simulate`` and
``sweep-steps`` both take P(x) from there; no amplitude table of the right
half is ever written, and no other module reads the ring.  The half-cone
values equal ``evolve``'s, but not byte for byte (the origin's D, set from
U there, may carry the other sign of zero), so ``evolve`` keeps the full
light cone and its byte contract with the oracle, and the other sweeps
keep ``evolve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

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


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a numpy array, with an object array of real numbers as float64.

    numpy holds an int beyond the int64 and uint64 ranges as an object, so
    an array with one has dtype object.  When every entry is a real number,
    as ``_REAL_TYPES`` counts them, it converts to float64, and ValueError if
    an int lies beyond the float range.  Any other array is returned as it
    is, for the caller to check its dtype's kind against ``_REAL_KINDS``.
    """
    array = np.asarray(values)
    if array.dtype.kind == "O" and all(isinstance(value, _REAL_TYPES) for value in array.flat):
        try:
            return array.astype(np.float64)
        except OverflowError:
            raise ValueError(f"{name} must be real numbers within the float range") from None
    return array


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


#: Steps of ``_walk`` that share one set of views, so a step runs at most
#: _BLOCK_STEPS - 1 columns of zeros past its live sites on the full cone,
#: and at most _BLOCK_STEPS // 2 on the half cone.  At check-q1's defaults
#: (q = 1, 47 angles, N = 200) 32, 64 and 128 tie within the noise, each
#: about 18% faster than slicing per step; 64 won the most alternating calls
#: of ``evolve`` at N = 4000 (7 of 8 at q = 1 and at q = 4).  One block as
#: wide as the whole walk lost at large N: 1 of 20 calls at q = 4, N = 1000,
#: and 0 of 8 at q = 1, N = 4000.
_BLOCK_STEPS = 64


def _step_classes(profile: PotentialProfile, reach: int, n: int) -> list:
    """The coins of a walk of ``n`` steps whose live sites lie in |x| <= ``reach``.

    Step i reads the sites of parity p = (n - 1 - i) % 2 and takes entry p:
    None for a Hadamard step, (t, r) as 0-d arrays for an all-scattering
    one, and (t, r) as rows over x = p - reach + 2m for a mixed one, up to
    x = reach + ``_BLOCK_STEPS``, for the steps of a block that run past
    their live sites.  The class is read off the sites |x| <= reach alone.
    """
    # Row x's coin is [[t, r], [r, -t]]: (sin, cos) theta where x % q == 0,
    # 1/sqrt 2 elsewhere.  Each parity takes one of three step classes from
    # how many of its sites scatter: Hadamard for none, all scattering for
    # all (q = 1, or q = 2 on even x), and mixed otherwise, the only class
    # that needs per-site coefficients.  The other two multiply by 0-d
    # arrays, since numpy would convert a Python complex on every multiply,
    # about 0.2 us each: the Hadamard entry, built at import, and (sin, cos)
    # theta, built once per call for both parities.  Every class forms the
    # same products and sums in the same order, so the amplitudes do not
    # depend on the class.  Coefficients are complex so that no multiply
    # casts them to the amplitudes' type; the values, and so the products,
    # are the same.  Any period above the rows' last site marks only x = 0,
    # so capping it there loses nothing and keeps x % q within int64.
    last = reach + _BLOCK_STEPS
    q = min(profile.period_q, last + 1)
    coin = _coin_scalar(profile.transmission), _coin_scalar(profile.reflection)
    coins = []
    for p in range(min(n, 2)):
        scatters = np.arange(p - reach, last + 1, 2) % q == 0
        count = np.count_nonzero(scatters[: reach + 1 - p])
        if count == 0:
            coins.append(None)
        elif count == reach + 1 - p:
            coins.append(coin)
        else:
            coins.append(tuple(np.where(scatters, c, _HADAMARD) for c in coin))
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
    k0 = state.steps_taken
    # One request, step n, on the full cone from the caller's stride-2
    # columns: its row pair holds the k0 + n + 1 live sites of the result.
    # The coins and the scratch row go with the walk, before the table.
    ((_, ring),) = _walk(amps[::2, DOWN], amps[::2, UP], _step_classes(profile, k0 + n - 1, n), [n], k0 + n + 1, 0)
    # np.zeros, not zeros_like: about 1.3 us less per call at 2001 rows.
    out = np.zeros((2 * (k0 + n) + 1, 2), amps.dtype)
    out[::2] = ring[0].T
    return WalkState(out)


#: Requested steps per batch of ``_walk``: ``_distributions`` squares and
#: sums P once per batch, at about 10 us of fixed numpy calls a batch.
#: 12 is the row count the benchmark's step-sweep, 1..1000, had under the
#: byte budget (192 KiB, 6 to 16 rows) that this constant replaced, so that
#: sweep keeps its ring.  Two kinds of walk that no workload runs pay for
#: one size (q = 2, theta = pi/3, fastest / median of alternating calls).
#: A dense sweep below about 770 steps, which the budget gave up to 16
#: rows, takes more batches: 1..100 tied at 0.80/0.84 ms, and 1..300 went
#: 2.45/2.49 -> 2.49/2.53 ms.  A dense sweep past about 1750 steps, which
#: it gave 6 rows, holds 12: 1..4000 peaks at 2.44 MB of traced memory
#: against 1.57, and took 87.3/93.2 ms against 82.2/88.8 on 6 rows and
#: 85.5/92.6 on 3.  A single request, as ``evolve`` and ``simulate`` make,
#: holds one ring row and two spares.
_RING_ROWS = 12


def _walk(d: np.ndarray, u: np.ndarray, coins: list, ks: list[int], columns: int, half: int):
    """Walk from the live sites ``d``, ``u`` to the last of ``ks``, sorted distinct steps >= 1.

    ``half`` = 0 walks the full light cone: a start of k0 steps has w0 =
    k0 + 1 live sites, and column j of step k's row holds x = -(k0 + k) +
    2j.  ``half`` = 1 walks the sites x <= 0 from ``initial_state()``: w0 =
    1, and column j of step k's row holds x = -k + 2j.  ``coins`` are
    ``_step_classes``' for the walk's n = ks[-1] steps.  The ring is a
    complex array of shape (min(_RING_ROWS, count) + 2 * (count < n), 2,
    ``columns``), with count = len(ks).  Each requested k writes the next of
    its first min(_RING_ROWS, count) row pairs, and every other step one of
    the two spare row pairs after them, chosen by the parity of k; the
    spares exist only when some step in 1..n is not requested.  Whenever the
    ring rows fill, and after step n, it yields ``(steps, ring)``: the
    requested steps of the batch, step steps[i] in ring row i.  The next
    batch overwrites the ring.  A row holds zeros, of either sign, past its
    live columns, but on the full cone DOWN's first column past them is +0,
    and on the half cone UP's column k // 2 + 1 holds U(+1) for an odd k.
    The start sits in no ring or spare row, so UP's column 0 is +0 in every
    row.

    On the half cone, both coins are real and symmetric, x % q == 0
    exactly when -x % q == 0, and the start is (|DOWN> + i|UP>) / sqrt 2,
    so after k steps D(-x) = c U(x) and U(x) = -c D(-x), with c = -i for
    even k and +i for odd k.  The sites x <= 0 therefore advance alone,
    with the full cone's step classes, products and sums in its order, and
    get its values.  Into an even k the origin is live, and its D, which
    would need x = 1, is set to -i U(0) instead.
    """
    n, w0 = ks[-1], len(d)
    rows = min(_RING_ROWS, len(ks))
    # Step k reads the sites of parity (n - 1 - k) % 2 of _step_classes, so
    # coins[k & 1] is its coin once the list is reversed for an even n.
    coins = coins if n & 1 else coins[::-1]
    # The step into k never writes the row it reads, the row of k - 1: two
    # consecutive requested steps sit in two ring rows, since only a ring
    # of one row holds a single request, n, and spares alternate by parity.
    ring = np.zeros((rows + 2 * (len(ks) < n), 2, columns), dtype=np.complex128)
    # Each row pair, its DOWN row for the full cone's reset and its float64
    # views, (re, im) pairs, for the half cone's origin and UP's reset.
    pairs = [(down, up, down.view(np.float64), up.view(np.float64)) for down, up in ring]
    scratch = np.empty(w0 + ((n - 1) >> half), dtype=np.complex128)
    # A step runs only its ufuncs, so they are bound once per call.
    multiply, add, subtract = np.multiply, np.add, np.subtract
    requested, steps, full = iter(ks), [], False
    want = next(requested)
    # The steps run in blocks: the first step alone, at the start's width,
    # then blocks of _BLOCK_STEPS steps.  A block builds the views of every
    # row pair once, as wide as its widest step, w0 + ((stop - 1) >> half)
    # columns: DOWN, which a step writes and the next one reads, UP from
    # column 1 to write and UP from column 0 to read.  It takes the read
    # views of the row the last step wrote again at that width; its steps
    # slice no state row: five slices were about a fifth of a step at N =
    # 200.  A row's steps come in increasing order and the block widths
    # never shrink, so each step writes every column an earlier step wrote
    # in its row.  Step k reads m live sites in columns 0..m - 1, m = w0 + k
    # on the full cone, and writes DOWN to columns 0..m - 1 and UP to 1..m;
    # the wider view computes zeros of either sign from the zeros past them.
    # A mixed step slices its coefficient rows at the block's width from
    # column m0, the coefficients of its first live site, so a step reads
    # them at most _BLOCK_STEPS - 1 sites past the walk's reach, which the
    # rows cover.
    stop = 0
    while stop < n:
        first, stop = stop, min(stop + _BLOCK_STEPS, n) if stop else 1
        width = w0 + ((stop - 1) >> half)
        b = scratch[:width]
        views = [(down[:width], up[1 : width + 1], up[:width], down, float_down, float_up) for down, up, float_down, float_up in pairs]
        if first:
            d, _, u = views[row][:3]
        for k in range(first, stop):  # the step from k into k + 1
            if k + 1 == want:
                row = len(steps)
                steps.append(want)
                want = next(requested, None)
                full = len(steps) == rows or want is None
            else:
                # The spares follow the ring rows, one for each parity of k + 1.
                row = rows + (k & 1)
            down, up, next_u, down_row, float_down, float_up = views[row]
            # The coin acts at the pre-shift position; then DOWN slides one
            # site toward -x and UP one site toward +x.
            coin = coins[k & 1]
            if coin is None:
                # down = h d + h u and up = h d - h u with each product taken
                # once: h d lands in down, and up is taken before down is summed.
                multiply(_HADAMARD, d, down)
                multiply(_HADAMARD, u, b)
                subtract(down, b, up)
                add(down, b, down)
            else:
                tk, rk = coin
                if tk.ndim:
                    m0 = (n - 1 - k) >> 1
                    tk, rk = tk[m0 : m0 + width], rk[m0 : m0 + width]
                # down = tk * d + rk * u and up = rk * d - tk * u.
                multiply(tk, d, down)
                multiply(rk, u, b)
                add(down, b, down)
                multiply(rk, d, up)
                multiply(tk, u, b)
                subtract(up, b, up)
            if not half:
                # The zeros past the live sites reach a live one only through
                # DOWN's column m, the next step's last site, where a negative
                # coin entry leaves -0; a walk of exact widths leaves +0.
                down_row[w0 + k] = 0j
            elif k & 1:
                # Into an even k + 1, column (k + 1) // 2 is the origin: D(0)
                # = -i U(0), that is (U.im, -U.re); the (re, im) pair of
                # column c starts at 2c.  From an odd k, the column past the
                # origin holds U(+1) with D(+1) = 0, so a wide step writes r
                # U(+1) into DOWN's column at the origin, which D(0) then
                # overwrites, and -t U(+1) into UP's next column, x = 2,
                # which is reset to +0.
                float_down[k + 1] = float_up[k + 2]
                float_down[k + 2] = -float_up[k + 1]
                float_up[k + 3] = float_up[k + 4] = 0.0
            d, u = down, next_u
            if full:
                yield steps, ring
                steps, full = [], False


def _half_cone(profile: PotentialProfile, ks: list[int]):
    """Walk from ``initial_state()`` over the sites x <= 0 to the last of ``ks``, sorted distinct steps >= 0.

    A requested step 0 is yielded alone first, as ``([0], start)`` with
    ``initial_state()``'s table as the one row pair of shape (1, 2, 1).
    The requested steps k >= 1 come from ``_walk`` on the half cone, in
    batches of ring rows n // 2 + 2 columns wide, with n = ``ks[-1]``.
    """
    n, start = ks[-1], initial_state().amplitudes.reshape(1, 2, 1)
    if ks[0] == 0:
        yield [0], start
        ks = ks[1:]
    if ks:
        yield from _walk(*start[0], _step_classes(profile, n - 1, n), ks, n // 2 + 2, 1)


def _distributions(profile: PotentialProfile, ns: Iterable[int]):
    """Yield ``(k, p)`` for each step count k >= 0 in ``ns``, once each and in walk order.

    p is P(x) over x = -k..k after k steps from ``initial_state()``, with
    the bytes of ``distribution``, and its norm has passed ``_check_drift``.
    One walk of max(ns) steps over the sites x <= 0 (``_half_cone``) serves
    every k, 0 included: P over those sites is squared and summed a batch
    at a time, over the batch's leading ring rows, which hold exactly its
    requested steps.  The norm is read off each row's sum over the half
    line, and each p is mirrored from its row into a plane kept per parity
    of k, so it is a view that the next requested k of its parity
    overwrites.
    """
    ks = sorted(set(ns))
    last = ks[-1]
    # Flat buffers for the most requested steps a batch can hold, one row
    # for a single request or the start: the squares of both coin states'
    # (re, im) pairs, then P over x <= 0 per row.  Each batch views a
    # prefix of them as a compact block exactly as wide as its columns and
    # copies its live columns in, which allocates nothing.  numpy runs a
    # ufunc on an operand it cannot flatten to one stride, such as a window
    # narrower than the row it sits in, through its buffered iterator, a
    # 64 KiB temporary per operand; on the compact block the square and the
    # pair sums flatten, and DOWN + UP is a reduce over the coin axis, so
    # none of them buffers.  P(x) over x = -last..last is kept as one plane
    # per parity of k; a plane's sites of the other parity are never
    # written, so they stay the zeros distribution keeps.
    rows, columns = min(_RING_ROWS, len(ks)), last // 2 + 2
    squares = np.empty(rows * 2 * 2 * columns)
    left_buffer = np.empty(rows * columns)
    planes = np.zeros((2, 2 * last + 1))
    for steps, ring in _half_cone(profile, ks):
        # P summed as distribution sums it, (D.re² + D.im²) + (U.re² + U.im²),
        # over the batch's rows and one column past the last one's live
        # sites, which for an odd k holds |U(+1)|² (its D there is zero).
        count, width = len(steps), (steps[-1] + 1) // 2 + 1
        sq = squares[: count * 4 * width].reshape(count, 2, 2 * width)
        left = left_buffer[: count * width].reshape(count, width)
        sq[...] = ring[:count, :, :width].view(np.float64)
        np.square(sq, out=sq)
        pair = sq[..., ::2]
        np.add(pair, sq[..., 1::2], out=pair)
        np.add.reduce(pair, axis=1, out=left)
        # A row holds zeros of either sign past its step's columns, whose
        # squares are +0, so its sum is P over x <= 0, plus |U(+1)|² for an
        # odd k, with the bytes of a row of +0 there.  The norm over the
        # whole line counts P(0) once for an even k, k = 0 included, and
        # leaves U(+1) out for an odd one.
        sums = left.sum(axis=1).tolist()
        for i, k in enumerate(steps):
            j = k // 2
            row = left[i]
            live = row[: j + 1]
            p = planes[k % 2, last - k : last + k + 1]
            # The stop -k - 2 is index k - 1 of p, counted from its end, and
            # at k = 0 it lies past index 0, where a stop of k - 1 would wrap
            # to the end and leave the slice empty.
            p[: k + 1 : 2], p[2 * k : -k - 2 : -2] = live, live
            norm2 = 2.0 * (sums[i] - row[j + 1]) if k % 2 else 2.0 * sums[i] - row[j]
            _check_drift(math.sqrt(norm2), k)
            yield k, p


def _check_drift(norm: float, steps: int) -> None:
    """Raise NormDriftError unless ``norm`` is within NORM_DRIFT_TOL of 1, as a NaN norm never is."""
    drift = abs(norm - 1.0)
    if not drift <= NORM_DRIFT_TOL:
        raise NormDriftError(f"norm drifted from 1 by {drift:.3e} after {steps} steps")


def check_norm(state: WalkState) -> None:
    """Raise NormDriftError unless the norm is within NORM_DRIFT_TOL of 1, as a NaN norm never is."""
    _check_drift(state.norm(), state.steps_taken)
