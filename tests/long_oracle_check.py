"""Hold the kernel, the half-cone P(x) and the step sweep to the branch-expansion oracle over n steps.

Tier-1 compares ``evolve`` with the oracle up to 1000 steps; CI runs this
script at its default of 4000 steps, about 25-30 s of oracle per input:

    python tests/long_oracle_check.py [n]

It exits 0 when every check holds on every input and 1 otherwise.  The
inputs are the benchmark's long-walk input (q = 4, theta/pi =
0.16666666666666666), its step-sweep input (q = 2, theta/pi =
0.3333333333333333), check-q1's step class, all scattering on both
parities (q = 1, theta/pi = 0.16666666666666666), and an odd period, mixed
on both parities (q = 3, theta/pi = 0.16666666666666666).  On each:

- ``evolve``'s table after n steps equals the oracle's byte for byte;
- simulate's P(x), read off the half-cone walk by ``core._distributions``,
  equals the distribution of the oracle's table byte for byte;
- the last entry of sweep-steps over 1..n, the snapshot at n steps, gives
  the oracle's sigma byte for byte.  At n = 4000 the sweep walks four times
  the 1000 steps of the benchmark's step-sweep, on the same ring of twelve
  rows;
- every (n // 10)-th sweep entry equals ``moments``' sigma, mean included,
  of a fresh ``evolve`` to that step count byte for byte.  The sweep takes
  sigma as the square root of one dot, the second moment, with the mean
  left out as too small to change it, so this holds that past tier-1's
  1000 steps;
- a sweep of every third step to n equals the dense sweep at those steps
  byte for byte.  The two steps between requested ones go to the walk's
  spare rows, one per parity, and never to a ring row;
- ``core._distributions`` over the steps 0, n // 2 + 1 and n equals the
  distributions of fresh ``evolve`` walks to those steps byte for byte: the
  start, yielded alone, then one batch of two ring rows, each after a long
  run of spare steps, the first at an odd step when n is a multiple of 4.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from periodicwalk import PotentialProfile, distribution, evolve, initial_state, moments, path_sum_evolve
from periodicwalk.core import _distributions
from periodicwalk.experiments import sweep_sigma_vs_steps

#: (q, theta / pi) of the long-walk, step-sweep, check-q1-class and odd-period inputs.
INPUTS = ((4, 0.16666666666666666), (2, 0.3333333333333333), (1, 0.16666666666666666), (3, 0.16666666666666666))


def _verdict(equal: bool) -> str:
    return "equal" if equal else "DIFFERENT"


def main(n: int = 4000) -> bool:
    """Run every check at n >= 10 steps on every input, print one line per input, and return whether all held."""
    every = n // 10
    passed = True
    for q, theta_pi in INPUTS:
        profile = PotentialProfile(q, theta_pi * math.pi)
        expanded = path_sum_evolve(initial_state(), profile, n)
        walked = evolve(initial_state(), profile, n)
        equal = walked.amplitudes.tobytes() == expanded.amplitudes.tobytes()
        ((_, p),) = _distributions(profile, [n])
        half_cone_equal = p.tobytes() == distribution(expanded).tobytes()
        swept = sweep_sigma_vs_steps(q, profile.theta, range(1, n + 1))
        sweep_equal = swept[-1:].tobytes() == np.array([moments(distribution(expanded)).sigma]).tobytes()
        fresh = [moments(distribution(evolve(initial_state(), profile, k))).sigma for k in range(every, n + 1, every)]
        every_equal = swept[every - 1 :: every].tobytes() == np.array(fresh).tobytes()
        sparse_equal = sweep_sigma_vs_steps(q, profile.theta, range(3, n + 1, 3)).tobytes() == swept[2::3].tobytes()
        ks = [0, n // 2 + 1, n]
        fresh_p = [distribution(evolve(initial_state(), profile, k)).tobytes() for k in ks[:-1]]
        fresh_p.append(distribution(walked).tobytes())
        spare_equal = [p.tobytes() for _, p in _distributions(profile, ks)] == fresh_p
        print(
            f"q={q} theta/pi={theta_pi}: evolve {_verdict(equal)}, "
            f"half-cone P(x) {_verdict(half_cone_equal)}, "
            f"sweep {_verdict(sweep_equal)}, "
            f"every {every}th step {_verdict(every_equal)}, "
            f"every 3rd step {_verdict(sparse_equal)}, "
            f"steps {ks} {_verdict(spare_equal)}"
        )
        passed &= equal and half_cone_equal and sweep_equal and every_equal and sparse_equal and spare_equal
    return passed


if __name__ == "__main__":
    sys.exit(0 if main(*map(int, sys.argv[1:2])) else 1)
