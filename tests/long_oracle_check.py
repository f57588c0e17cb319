"""Hold the kernel, the half-cone P(x) and the step sweep to the branch-expansion oracle over n steps.

Tier-1 compares ``evolve`` with the oracle up to 1000 steps and runs this
script at 300; CI runs it at its default of 4000 steps, about 25-30 s of
oracle per input, and at 255 steps, the widest full cone whose Hadamard and
all-scattering steps take their products over one flat span of each row
pair, as ``core._step_forms`` decides (256 columns, ``core._SPAN_COLUMNS``;
129 on the half cone):

    python tests/long_oracle_check.py [n]

It exits 0 when every check holds on every input and 1 otherwise.  The
inputs are the benchmark's long-walk input (q = 4, theta/pi =
0.16666666666666666), its step-sweep input (q = 2, theta/pi =
0.3333333333333333), check-q1's step class, all scattering on both
parities (q = 1, theta/pi = 0.16666666666666666), an odd period, mixed on
both parities (q = 3, theta/pi = 0.16666666666666666), and an angle of
check-q1's default grid where both coin entries are negative (q = 1,
theta/pi = 1.1666666666666667).  There each of ``evolve``'s steps leaves
-0 in columns past the live sites, so the walk runs through the reset to +0
of the one its next step reads.  On each:

- ``evolve``'s table after n steps equals the oracle's byte for byte;
- simulate's P(x) on x <= 0, read off the half-cone walk by
  ``core._distributions``, equals the distribution of the oracle's table
  there byte for byte, and that distribution is its own mirror image bit
  for bit, so simulate's P(x > 0), the same values mirrored, equals it too;
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
  distributions of fresh ``evolve`` walks to those steps on x <= 0 byte for
  byte, each read as it is yielded, and each of those is its own mirror
  image bit for bit: the start, yielded alone, then one batch of two ring
  rows, each after a long run of spare steps, the first at an odd step when
  n is a multiple of 4.

From ``initial_state()`` no live site holds an exact zero, so a missing
reset does not show there: the -0 it leaves is added to a non-zero live
value.  ``evolve`` resets that column only when sin theta and cos theta
both have their sign bit set, and leaves it alone in the other three sign
quadrants, where no -0 reaches it.  So ``evolve`` also walks n steps from
``point_state(-1, UP)``, whose start has exact zeros on live sites, at one
angle per sign quadrant of (sin theta, cos theta), theta/pi =
0.16666666666666666 (+, +), 0.8333333333333334 (+, -), 1.1666666666666667
(-, -) and 1.8333333333333333 (-, +), each with q = 1 (all scattering)
and q = 3 (mixed on both parities, wide steps like the rest since the
coefficient rows reach past the light cone), and its table must equal
``walkref.strided_parity_evolve``'s byte for byte (a fraction of a second
each at 4000 steps).  The oracle is no reference there: it expands only
non-zero cells, so it may differ from both kernels in the sign of a zero.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from periodicwalk import UP, PotentialProfile, distribution, evolve, initial_state, moments, path_sum_evolve, point_state
from periodicwalk.core import _distributions
from periodicwalk.experiments import sweep_sigma_vs_steps
from walkref import strided_parity_evolve

#: (q, theta / pi) of the long-walk, step-sweep, check-q1-class, odd-period and
#: negative-coin inputs.
INPUTS = (
    (4, 0.16666666666666666),
    (2, 0.3333333333333333),
    (1, 0.16666666666666666),
    (3, 0.16666666666666666),
    (1, 1.1666666666666667),
)

#: (q, theta / pi) of the walks from point_state(-1, UP), held to the strided
#: kernel: one angle per sign quadrant of (sin theta, cos theta).
POINT_INPUTS = tuple(
    (q, theta_pi)
    for q in (1, 3)
    for theta_pi in (0.16666666666666666, 0.8333333333333334, 1.1666666666666667, 1.8333333333333333)
)


def _verdict(equal: bool) -> str:
    return "equal" if equal else "DIFFERENT"


def main(n: int = 4000) -> bool:
    """Run every check at n >= 10 steps on every input and point start, print one line each, and return whether all held."""
    every = n // 10
    passed = True
    for q, theta_pi in INPUTS:
        profile = PotentialProfile(q, theta_pi * math.pi)
        expanded = path_sum_evolve(initial_state(), profile, n)
        walked = evolve(initial_state(), profile, n)
        equal = walked.amplitudes.tobytes() == expanded.amplitudes.tobytes()
        ((_, live),) = _distributions(profile, [n])
        p = distribution(expanded)
        half_cone_equal = live.tobytes() == p[: n + 1 : 2].tobytes() and p.tobytes() == p[::-1].tobytes()
        swept = sweep_sigma_vs_steps(q, profile.theta, range(1, n + 1))
        sweep_equal = swept[-1:].tobytes() == np.array([moments(distribution(expanded)).sigma]).tobytes()
        fresh = [moments(distribution(evolve(initial_state(), profile, k))).sigma for k in range(every, n + 1, every)]
        every_equal = swept[every - 1 :: every].tobytes() == np.array(fresh).tobytes()
        sparse_equal = sweep_sigma_vs_steps(q, profile.theta, range(3, n + 1, 3)).tobytes() == swept[2::3].tobytes()
        ks = [0, n // 2 + 1, n]
        fresh_p = [distribution(evolve(initial_state(), profile, k)) for k in ks[:-1]]
        fresh_p.append(distribution(walked))
        spare_equal = [live.tobytes() for _, live in _distributions(profile, ks)] == [
            p[: k + 1 : 2].tobytes() for k, p in zip(ks, fresh_p)
        ] and all(p.tobytes() == p[::-1].tobytes() for p in fresh_p)
        print(
            f"q={q} theta/pi={theta_pi}: evolve {_verdict(equal)}, "
            f"half-cone P(x) {_verdict(half_cone_equal)}, "
            f"sweep {_verdict(sweep_equal)}, "
            f"every {every}th step {_verdict(every_equal)}, "
            f"every 3rd step {_verdict(sparse_equal)}, "
            f"steps {ks} {_verdict(spare_equal)}"
        )
        passed &= equal and half_cone_equal and sweep_equal and every_equal and sparse_equal and spare_equal
    start = point_state(-1, UP)
    for q, theta_pi in POINT_INPUTS:
        profile = PotentialProfile(q, theta_pi * math.pi)
        walked = evolve(start, profile, n).amplitudes.tobytes()
        equal = walked == strided_parity_evolve(start, profile, n).amplitudes.tobytes()
        print(f"point_state(-1, UP) q={q} theta/pi={theta_pi}: evolve {_verdict(equal)} to the strided kernel")
        passed &= equal
    return passed


if __name__ == "__main__":
    sys.exit(0 if main(*map(int, sys.argv[1:2])) else 1)
