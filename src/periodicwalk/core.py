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
..., k, the even rows, and ``evolve`` touches nothing else.  ``evolve``
returns a fresh table and never writes its input; ``step`` is ``evolve``
for one step.

Every walk runs through ``_walk``, whose docstring describes the walk:
``evolve`` on the full light cone, with its byte contract with the
oracle, and ``_distributions``, behind ``simulate`` and ``sweep-steps``,
on the sites x <= 0 of a walk from ``initial_state()``, which the sites
x > 0 mirror.
"""

from __future__ import annotations

import itertools
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
    the table is a complex128 numpy array of shape (2k + 1, 2), and a plain
    one: a subclass such as ``np.matrix`` or a masked array is refused.

    ``evolve`` and the oracle read only the even rows, the sites of the
    parity of k, so a hand-built state must keep its amplitude there:
    both ignore amplitude in an odd row.  States from ``initial_state``,
    ``point_state`` and ``evolve`` keep it.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        table = self.amplitudes
        if type(table) is not np.ndarray:
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


def _step_forms(profile: PotentialProfile, reach: int, n: int, columns: int) -> tuple[list, list | None]:
    """Each parity's step form for a walk of ``n`` steps whose live sites lie in |x| <= ``reach``.

    Returns ``(forms, span_forms)``.  ``forms[k & 1]`` is the form of the
    step from k into k + 1 on DOWN and UP: ``(2, None, None)`` for Hadamard,
    ``(3, t, r)`` for all scattering, with (t, r) as 0-d arrays, and ``(4,
    t, r)`` for mixed, with (t, r) as rows over x = -a + 2m, up to x = reach
    + ``_BLOCK_STEPS``, for the steps of a block that run past their live
    sites.  ``span_forms`` is the same list with 0 and 1 in place of 2 and 3
    when the walk takes its Hadamard and all-scattering steps after the first
    over one flat span of the row pair it reads (see ``_walk``): when n > 1,
    its row pairs hold at most ``_SPAN_COLUMNS`` columns and some parity is
    Hadamard or all scattering.  Otherwise it is None.

    Step k reads the sites of parity p = (n - 1 - k) % 2, and its form is
    read off the sites |x| <= reach alone, by integer arithmetic on q and a
    = reach - p, the parity's largest |x|: its sites are x = -a, -a + 2,
    ..., a, all of a's parity.  All of them scatter when a = 0 (the origin
    alone), when q = 1, or when q = 2 and a is even.  None does when a < 0
    (no site), or when a is odd and q is even (every site odd) or above a
    (no site is 0 or reaches +-q).  Any other parity holds a scattering
    site, x = 0 for an even a and x = q for an odd one, and a site that does
    not scatter, x = 2 or x = 1, so it is mixed, and only a mixed parity
    builds its x % q == 0 rows.
    """
    # Row x's coin is [[t, r], [r, -t]]: (sin, cos) theta where x % q == 0,
    # 1/sqrt 2 elsewhere.  Hadamard and all-scattering steps multiply by 0-d
    # arrays, since numpy would convert a Python complex on every multiply,
    # about 0.2 us each: the Hadamard entry, built at import, and (sin, cos)
    # theta, built once per call for both parities.  Every form takes the
    # same products and sums in the same order, so the amplitudes do not
    # depend on the form.  Coefficients are complex so that no multiply
    # casts them to the amplitudes' type; the values, and so the products,
    # are the same.  Any period above the rows' last site marks only x = 0,
    # so capping it there loses nothing and keeps x % q within int64.
    q, last = profile.period_q, reach + _BLOCK_STEPS
    coin = _coin_scalar(profile.transmission), _coin_scalar(profile.reflection)
    forms = []
    for k in range(min(n, 2)):
        a = reach - ((n - 1 - k) & 1)
        if a < 0 or a & 1 and (q % 2 == 0 or q > a):
            forms.append((2, None, None))
        elif a == 0 or q <= 2:
            forms.append((3, *coin))
        else:
            scatters = np.arange(-a, last + 1, 2) % min(q, last + 1) == 0
            forms.append((4, *(np.where(scatters, c, _HADAMARD) for c in coin)))
    if n > 1 and columns <= _SPAN_COLUMNS and any(form < 4 for form, _, _ in forms):
        return forms, [(form - 2 if form < 4 else form, t, r) for form, t, r in forms]
    return forms, None


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
    # One request, step n, on the full cone: its row pair holds the live
    # sites of the result.  The coins and the scratch row go with the walk,
    # before the table.
    ((_, ring),) = _walk(state, profile, [n], 0)
    # np.zeros, not zeros_like: about 1.3 us less per call at 2001 rows.
    out = np.zeros((2 * ring.shape[2] - 1, 2), np.complex128)
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

#: Widest row pair, in columns, whose walk takes its Hadamard and
#: all-scattering steps after the first over one flat span of the row pair
#: it reads (see ``_walk``).  The span runs over DOWN's columns past the live
#: sites too, so it pays only on narrow walks.  Against products on d and u
#: (in-process, alternating calls, ratio of medians): q = 1 and 2, where
#: every step is Hadamard or all scattering, 0.80-0.85 up to about 200
#: columns and 0.83-0.91 at 250, a tie at about 400 and 1.08-1.10 at 500;
#: q = 4, Hadamard steps between mixed ones, within 3% either way up to 300
#: columns and up to 3% slower from about 320.  check-q1's walks have 201
#: columns, sweep-steps' over 1..1000 502 and simulate's of 4000 steps 2002.
_SPAN_COLUMNS = 256


def _walk(state: WalkState, profile: PotentialProfile, ks: list[int], half: int):
    """Walk ``state`` under ``profile`` to the last of ``ks``, sorted distinct steps >= 1.

    The walk keeps its live sites packed: a start of k0 steps has w0 = k0 +
    1 live sites, its even rows, and after step k column j of a DOWN row
    and of an UP row holds x = -(k0 + k) + 2j.  ``half`` = 0 walks the full
    light cone, in row pairs of w0 + n columns, with n = ks[-1].
    ``half`` = 1 walks the sites x <= 0 of a start of ``initial_state()``
    (w0 = 1), in row pairs of n // 2 + 2 columns.  Its step forms are
    ``_step_forms``' for n steps over |x| <= w0 + n - 2, the reach of the
    last step's read.

    The ring is a complex array of shape (min(_RING_ROWS, count), 2,
    columns), with count = len(ks).  Each requested k writes the next of its
    row pairs, and every other step one of two spare row pairs, allocated
    apart from the ring and chosen by the parity of k; the spares exist only
    when some step in 1..n is not requested.  Whenever the ring rows fill,
    and after step n, it yields ``(steps, ring)``: the requested steps of the
    batch, step steps[i] in ring row i.  The next batch overwrites the ring.
    A row holds zeros, of either sign, past its live columns, but on the
    full cone DOWN's first column past them is +0, and on the half cone UP's
    column k // 2 + 1 holds U(+1) for an odd k.  The start sits in no ring
    or spare row, so UP's column 0 is +0 in every row.  Once the walk is
    done only the ring is left: the spares, the coins, the scratch row and,
    for a walk of at most ``_SPAN_COLUMNS`` columns, two product rows go
    with it.

    The first step reads the start's stride-2 columns alone, at its width;
    then blocks of ``_BLOCK_STEPS`` steps each run on one set of views as
    wide as the block's widest step, so a step slices no state row and may
    run past its live sites, and a mixed step's coefficient rows run on past
    the light cone to meet it.  On a walk of at most ``_SPAN_COLUMNS``
    columns, a Hadamard or all-scattering step after the first takes its
    products over one flat span of the row pair it reads, DOWN's columns
    and UP's together, in 3 or 4 ufunc calls where a wider walk takes 4 or
    6, with the same bytes; mixed steps keep their 6.  ``_step_forms`` picks
    each parity's form, Hadamard or all scattering on the span or on the
    rows, or mixed, before the loop, so a step tests one code.

    On the full cone, DOWN's first column past the live sites is the next
    step's last site, which a walk of exact widths leaves +0.  Past the
    live sites the rows start as +0, and every coefficient is a coin entry,
    t = sin theta, r = cos theta or the positive Hadamard entry, as a
    complex with imaginary part +0.  When t's sign bit is clear, t times a
    (+0, +0) DOWN zero is (+0, +0), and adding r times UP's zero, of either
    sign, leaves +0, so DOWN past the live sites holds +0 after every step.
    When t's sign bit is set and r's is clear, a step maps columns of (+0,
    +0) to (+0, +0): DOWN is (-0, +0) + (+0, +0) and UP (+0, +0) - (-0, +0).
    Only a coin with both sign bits set leaves -0 there, as -0 + -0, so
    only its walk resets that column to +0 after each step, and every walk
    has the bytes of one of exact widths.

    On the half cone, both coins are real and symmetric, x % q == 0
    exactly when -x % q == 0, and the start is (|DOWN> + i|UP>) / sqrt 2,
    so after k steps D(-x) = c U(x) and U(x) = -c D(-x), with c = -i for
    even k and +i for odd k.  The sites x <= 0 therefore advance alone,
    with the full cone's step classes, products and sums in its order, and
    get its values for about half the work.  Into an even k the origin is
    live, and its D, which would need x = 1, is set to -i U(0) instead;
    from an odd k UP's column at x = 2 is reset to +0.  The values equal
    the full cone's, but not byte for byte: the origin's D, set from U, may
    carry the other sign of zero.  So ``evolve`` keeps the full cone and
    its byte contract with the oracle.
    """
    # The first step reads the start's live sites, its even rows, in place.
    d, u = state.amplitudes[::2, DOWN], state.amplitudes[::2, UP]
    n, w0 = ks[-1], len(d)
    # Step n's live sites on the full cone; on the half cone its n // 2 + 1
    # sites x <= 0 and the column past them, which holds U(+1) after an odd
    # step.  No step reads more than columns - 1 of them.
    columns = n // 2 + 2 if half else w0 + n
    rows = min(_RING_ROWS, len(ks))
    forms, span_forms = _step_forms(profile, w0 + n - 2, n, columns)
    # The step into k never writes the row it reads, the row of k - 1: two
    # consecutive requested steps sit in two ring rows, since only a ring
    # of one row holds a single request, n, and spares alternate by parity.
    # The spares and the products below are arrays of their own, so a
    # caller that keeps the ring once the walk is done holds no more.
    ring = np.zeros((rows, 2, columns), dtype=np.complex128)
    spares = np.zeros((2 * (len(ks) < n), 2, columns), dtype=np.complex128)
    scratch = np.empty(columns - 1, dtype=np.complex128)
    # A row pair is contiguous, so DOWN's columns 0..w - 1 and UP's lie in
    # one flat span of columns + w entries, UP at the offset ``columns``.
    # On a walk with span_forms, each Hadamard or all-scattering step after
    # the first multiplies each coin entry into the span it reads once, into
    # a product row, and sums the two halves: 3 and 4 ufunc calls in place
    # of 4 and 6, each output the same operation on the same operands, so
    # the same bytes.  The span also runs over DOWN's columns past w, which
    # costs more than the calls save on a wide walk, so only a narrow one
    # has span_forms; any other keeps the products on d and u, and holds no
    # product rows and no spans.
    if span_forms:
        products = np.empty((2, 2 * columns - 1), dtype=np.complex128)
    # Each row pair flat, DOWN's columns then UP's, from which every block
    # cuts its views, and its rows' float64 views, fd and fu, (re, im)
    # pairs, for the half cone's origin and UP's reset.
    pairs = [(pair.reshape(-1), pair[0].view(np.float64), pair[1].view(np.float64)) for pair in (*ring, *spares)]
    # A step runs only its ufuncs, so they are bound once per call, with
    # the full cone's +0 as a numpy scalar, which numpy stores about 15 ns
    # faster than a Python complex.  Only a full-cone walk whose sin theta
    # and cos theta both have their sign bit set resets DOWN's column past
    # the live sites, as the docstring argues.
    multiply, add, subtract, zero = np.multiply, np.add, np.subtract, np.complex128(0)
    reset = not half and math.copysign(1, profile.transmission) < 0 and math.copysign(1, profile.reflection) < 0
    requested, steps, full = iter(ks), [], False
    want = next(requested)
    # The steps run in blocks: the first step alone, at the start's width,
    # then blocks of _BLOCK_STEPS steps.  A block cuts the views of every
    # row pair once from its flat row, as wide as its widest step, w0 +
    # ((stop - 1) >> half) columns: DOWN, which a step writes and the next
    # one reads, UP from column 1 to write, UP from column 0 to read, and
    # the span on a walk with span_forms, else the whole flat row.  It takes
    # the read views of the row the last step wrote again at that width; its
    # steps slice no state row: five slices were about a fifth of a step at
    # N = 200.  A row's steps come in increasing order and the block widths
    # never shrink, so each step writes every column an earlier step wrote
    # in its row.  Step k reads m live sites in columns 0..m - 1, m = w0 + k
    # on the full cone, and writes DOWN to columns 0..m - 1 and UP to 1..m;
    # the wider view computes zeros of either sign from the zeros past
    # them.  A mixed step slices its coefficient rows at the block's width
    # from column m0, the coefficients of its first live site, so a step
    # reads them at most _BLOCK_STEPS - 1 sites past the walk's reach, which
    # the rows cover.
    stop = 0
    while stop < n:
        first, stop = stop, min(stop + _BLOCK_STEPS, n) if stop else 1
        width = w0 + ((stop - 1) >> half)
        b, span = scratch[:width], columns + width
        if first and span_forms:
            # The first step reads the caller's table or the start, not a row
            # pair, so the span form starts with the second block.  Each
            # product row's halves line up with the span's.
            forms = span_forms
            t_span, r_span = products[:, :span]
            t_down, r_down = t_span[:width], r_span[:width]
            t_up, r_up = t_span[columns:], r_span[columns:]
        views = [
            (flat[:width], flat[columns + 1 : span + 1], flat[columns:span], flat[:span] if span_forms else flat, fd, fu)
            for flat, fd, fu in pairs
        ]
        if first:
            d, _, u, s = views[row][:4]
        for k in range(first, stop):  # the step from k into k + 1
            if k + 1 == want:
                row = len(steps)
                steps.append(want)
                want = next(requested, None)
                full = len(steps) == rows or want is None
            else:
                # The spares follow the ring rows, one for each parity of k + 1.
                row = rows + (k & 1)
            down, up, next_u, lead, float_down, float_up = views[row]
            # The coin acts at the pre-shift position; then DOWN slides one
            # site toward -x and UP one site toward +x.
            form, tk, rk = forms[k & 1]
            if form < 2:
                if form:
                    # down = tk * d + rk * u and up = rk * d - tk * u, from
                    # product rows of tk and rk times the span.
                    multiply(tk, s, t_span)
                    multiply(rk, s, r_span)
                    add(t_down, r_up, down)
                    subtract(r_down, t_up, up)
                else:
                    # down = h d + h u and up = h d - h u, from one product
                    # row of h times the span.
                    multiply(_HADAMARD, s, t_span)
                    add(t_down, t_up, down)
                    subtract(t_down, t_up, up)
            elif form == 2:
                # The same with each product taken once: h d lands in
                # down, and up is taken before down is summed.
                multiply(_HADAMARD, d, down)
                multiply(_HADAMARD, u, b)
                subtract(down, b, up)
                add(down, b, down)
            else:
                if form == 4:
                    m0 = (n - 1 - k) >> 1
                    tk, rk = tk[m0 : m0 + width], rk[m0 : m0 + width]
                # down = tk * d + rk * u and up = rk * d - tk * u.
                multiply(tk, d, down)
                multiply(rk, u, b)
                add(down, b, down)
                multiply(rk, d, up)
                multiply(tk, u, b)
                subtract(up, b, up)
            if reset:
                # The span and the DOWN row both start with DOWN's columns.
                lead[w0 + k] = zero
            elif k & half:
                # The half cone, from an odd k.  Into an even k + 1, column
                # (k + 1) // 2 is the origin: D(0) = -i U(0), that is
                # (U.im, -U.re); the (re, im) pair of column c starts at 2c.
                # From an odd k, the column past the origin holds U(+1) with
                # D(+1) = 0, so a wide step writes r U(+1) into DOWN's
                # column at the origin, which D(0) then overwrites, and -t
                # U(+1) into UP's next column, x = 2, which is reset to +0.
                float_down[k + 1] = float_up[k + 2]
                float_down[k + 2] = -float_up[k + 1]
                float_up[k + 3] = float_up[k + 4] = 0.0
            d, u, s = down, next_u, lead
            if full:
                yield steps, ring
                steps, full = [], False


def _distributions(profile: PotentialProfile, ns: Iterable[int]):
    """Yield ``(k, live)`` for each step count k >= 0 in ``ns``, once each and in walk order.

    live is P(x) at x = -k, -k + 2, ..., <= 0, the live sites x <= 0, after
    k steps from ``initial_state()``, with the bytes of those entries of
    ``distribution``; the sites x > 0 mirror them.  The norm over the whole
    line has passed ``_check_drift``.  One walk of max(ns) steps over the
    sites x <= 0, ``_walk``'s half cone, serves every k >= 1, and a
    requested k = 0 is the start itself, handed over first as its (1, 2, 1)
    table.  P over those sites is squared and summed a batch at a time, over
    the batch's leading ring rows, which hold exactly its requested steps.
    live is a view of its row of the batch's P, which the next batch
    overwrites, and the norm is read off that row's sum.
    """
    ks = sorted(set(ns))
    # Flat buffers as long as the rows of the ring a batch comes in: the
    # squares of both coin states' (re, im) pairs, two floats per ring
    # entry, then P over x <= 0, one float per column of a row.  The walk's
    # first batch sizes them from its ring, and no later one resizes them;
    # a step-0 head before it, the start's (1, 2, 1) table, takes buffers
    # of its own size.  Each batch views a prefix of them as a compact
    # block exactly as wide as its columns and copies its live columns in,
    # which allocates nothing.  numpy runs a ufunc on an operand it cannot
    # flatten to one stride, such as a window narrower than the row it sits
    # in, through its buffered iterator, a 64 KiB temporary per operand; on
    # the compact block the square and the pair sums flatten, and DOWN + UP
    # is a reduce over the coin axis, so none of them buffers.
    squares = left_buffer = np.empty(0)
    # A requested step 0 is the start itself, handed over ahead of the walk
    # as its (1, 2, 1) table; the walk takes the steps from 1.
    start = initial_state()
    head = [([0], start.amplitudes.reshape(1, 2, 1))] if ks[0] == 0 else []
    walked = ks[len(head) :]
    for steps, ring in itertools.chain(head, _walk(start, profile, walked, 1) if walked else ()):
        if squares.size < 2 * ring.size:
            squares, left_buffer = np.empty(2 * ring.size), np.empty(ring.size // 2)
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
            norm2 = 2.0 * (sums[i] - row[j + 1]) if k % 2 else 2.0 * sums[i] - row[j]
            _check_drift(math.sqrt(norm2), k)
            yield k, row[: j + 1]


def _check_drift(norm: float, steps: int) -> None:
    """Raise NormDriftError unless ``norm`` is within NORM_DRIFT_TOL of 1, as a NaN norm never is."""
    drift = abs(norm - 1.0)
    if not drift <= NORM_DRIFT_TOL:
        raise NormDriftError(f"norm drifted from 1 by {drift:.3e} after {steps} steps")


def check_norm(state: WalkState) -> None:
    """Raise NormDriftError unless the norm is within NORM_DRIFT_TOL of 1, as a NaN norm never is."""
    _check_drift(state.norm(), state.steps_taken)
