"""Shared reference implementations for the test suite.

The walk references are written against plain dicts and scalars, without
the package's array kernel, so agreement between the two is meaningful.
``full_table_evolve`` and ``strided_parity_evolve`` are the exceptions:
earlier forms of that kernel, the full-table and the strided
parity-compacted one, kept to pin their successors.  So is
``strided_distribution``, the earlier form of ``distribution``.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from periodicwalk import DOWN, UP, CoinDirection, PotentialProfile, WalkState

SQRT_HALF = math.sqrt(0.5)


def hadamard_reference(n_steps: int) -> dict[tuple[int, int], complex]:
    """Plain Hadamard walk from (|DOWN> + i|UP>)/sqrt 2 at the origin.

    Dict bookkeeping only: each step sends amplitude a at (x, c) to
    (x - 1, DOWN) with weight a*h and to (x + 1, UP) with weight +-a*h,
    the sign following the Hadamard column for c.
    """
    h = SQRT_HALF
    amps: dict[tuple[int, int], complex] = {(0, 0): h + 0j, (0, 1): h * 1j}
    for _ in range(n_steps):
        nxt: defaultdict[tuple[int, int], complex] = defaultdict(complex)
        for (x, c), a in amps.items():
            nxt[(x - 1, 0)] += a * h
            nxt[(x + 1, 1)] += a * (h if c == 0 else -h)
        amps = dict(nxt)
    return amps


def max_amp_diff(state: WalkState, amplitude_map) -> float:
    """Largest |dense - reference| amplitude over the union of supports."""
    keys = {(int(x), int(c)) for (x, c) in amplitude_map}
    nz = np.argwhere((state.amplitudes.real != 0) | (state.amplitudes.imag != 0))
    keys.update((int(i) - state.steps_taken, int(c)) for i, c in nz)
    return max(
        abs(state.amplitude(x, CoinDirection(c)) - complex(amplitude_map.get((x, c), 0j)))
        for x, c in keys
    )


def random_walk_state(rng: np.random.Generator, support_steps: int) -> WalkState:
    """Normalized state with random amplitudes on the reachable sites.

    The table is the light cone of support_steps steps, with amplitude on
    the sites of matching parity only, so the result satisfies the same
    envelope a real walk of support_steps steps would.
    """
    size = 2 * support_steps + 1
    amps = rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2))
    amps[1::2] = 0.0
    amps /= np.linalg.norm(amps)
    return WalkState(amps)


def full_table_evolve(state: WalkState, profile: PotentialProfile, n_steps: int) -> WalkState:
    """``evolve`` as a stencil over every row of the table, in a fresh table per step.

    The same expressions in the same order as the windowed kernel, so the
    two agree under ``np.array_equal``; only the signs of zero amplitudes
    may differ.  The input is padded with n_steps zero rows on each side,
    so the table is already the light cone of the result.
    """
    amps = np.pad(state.amplitudes, ((n_steps, n_steps), (0, 0)))
    xs = np.arange(amps.shape[0]) - (state.steps_taken + n_steps)
    scattering = xs % profile.period_q == 0
    t = np.where(scattering, profile.transmission, SQRT_HALF)
    r = np.where(scattering, profile.reflection, SQRT_HALF)
    for _ in range(n_steps):
        d, u = amps[:, DOWN], amps[:, UP]
        out = np.zeros_like(amps)
        out[:-1, DOWN] = t[1:] * d[1:] + r[1:] * u[1:]
        out[1:, UP] = r[:-1] * d[:-1] - t[:-1] * u[:-1]
        amps = out
    return WalkState(amps)


def strided_parity_evolve(state: WalkState, profile: PotentialProfile, n_steps: int) -> WalkState:
    """``evolve`` on stride-2 slices of two alternating full-size tables.

    The parity-compacted kernel that preceded the contiguous per-parity
    buffers, step loop unchanged: each step reads the live rows x = -k,
    -k + 2, ..., k of the table and writes the other parity.  It performs
    the same multiplies and adds on the same values, so its amplitudes
    equal ``evolve``'s byte for byte.  The tables are the input padded with
    n_steps zero rows on each side, the light cone of the result.
    """
    n = n_steps
    if n == 0:
        return state
    amps = np.pad(state.amplitudes, ((n, n), (0, 0)))
    origin = state.steps_taken + n
    reach = state.steps_taken + n - 1
    xs = np.arange(-reach, reach + 1)
    scattering = xs % profile.period_q == 0
    t = np.where(scattering, complex(profile.transmission), complex(SQRT_HALF))
    r = np.where(scattering, complex(profile.reflection), complex(SQRT_HALF))
    tables = [np.zeros_like(amps) for _ in range(min(n, 2))]
    scratch = np.empty((2, reach + 1), dtype=amps.dtype)
    for i in range(n):
        k = state.steps_taken + i
        lo, hi = origin - k, origin + k + 1
        tk, rk = t[reach - k : reach + k + 1 : 2], r[reach - k : reach + k + 1 : 2]
        d, u = amps[lo:hi:2, DOWN], amps[lo:hi:2, UP]
        a, b = scratch[:, : k + 1]
        out = tables[i % 2]
        np.add(np.multiply(tk, d, out=a), np.multiply(rk, u, out=b), out=out[lo - 1 : hi - 1 : 2, DOWN])
        np.subtract(np.multiply(rk, d, out=a), np.multiply(tk, u, out=b), out=out[lo + 1 : hi + 1 : 2, UP])
        amps = out
    return WalkState(amps)


def strided_distribution(state: WalkState) -> np.ndarray:
    """P(x) squared through the strided ``.real`` and ``.imag`` views: re^2 + im^2 per cell, then DOWN + UP."""
    a = state.amplitudes
    sq = a.real * a.real + a.imag * a.imag
    return sq[:, DOWN] + sq[:, UP]
