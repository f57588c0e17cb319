"""The benchmark's workloads: one CLI command each, its inputs per seed, and its checks.

Each workload is a fixed closed loop with one caller: the next call of
``periodicwalk.cli.main`` starts when the previous one has returned.

Seed 0 runs the canonical command, whose CSV must match the golden digest
stored here.  Any other seed picks the coin angle from the seed but keeps the
period, the step count and the number of walks, so the work per call is the
same on every seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

CANONICAL_SEED = 0

#: Largest |P(x) - P(-x)| accepted in a ``simulate`` distribution.
SYMMETRY_TOL = 1e-12

#: Period and angle (in multiples of pi) of the canonical inputs.
CANONICAL_Q_THETA = {
    "long-walk": (4, "0.16666666666666666"),
    "step-sweep": (2, "0.3333333333333333"),
}

#: Angles (in multiples of pi) that seeds other than 0 give ``long-walk``.
#: After 4000 steps the walk's front carries a band of subnormal amplitudes,
#: and subnormal arithmetic is slow.  The band's width depends on the last
#: bits of sin(theta) and cos(theta): at q = 4, theta = pi/6 + 2*pi*k gives
#: about 0.2M subnormal entry-steps for some k and 2.3M for others, and the
#: call takes about 25% longer.  These are the whole-turn shifts of +-pi/6
#: with the canonical band, so the work per call stays that of seed 0.
LONG_WALK_THETA_PI = (
    "-0.16666666666666666",
    "2.1666666666666665",
    "3.8333333333333335",
    "6.166666666666667",
    "8.166666666666666",
    "10.166666666666666",
    "11.833333333333334",
    "12.166666666666666",
    "13.833333333333334",
    "14.166666666666666",
)


@dataclass(frozen=True)
class Workload:
    """One CLI command and the work it does, computed from its inputs.

    ``live_row_steps`` counts N^2 per walk of N steps: step k touches the
    2k - 1 sites of its light cone.  ``distribution_rows`` counts the
    2n + 1 rows of every distribution the command builds.  Neither is a
    measurement of memory traffic.
    """

    name: str
    why: str
    command: str
    n_steps: int
    walks: int
    distribution_rows: int
    csv_rows: int
    golden_sha256: str

    @property
    def live_row_steps(self) -> int:
        return self.walks * self.n_steps * self.n_steps

    def cli_args(self, seed: int) -> list[str]:
        """Arguments of the command for ``seed``; the canonical ones for seed 0."""
        rng = None if seed == CANONICAL_SEED else random.Random(f"{self.name}:{seed}")
        if self.command == "check-q1":
            if rng is None:
                return ["check-q1"]
            # The default grid shifted by less than half its spacing, so no
            # angle reaches the trapping endpoints 0 and 2*pi.
            shift = rng.uniform(-1.0 / 48.0, 1.0 / 48.0)
            grid = f"{1.0 / 24.0 + shift!r}:{47.0 / 24.0 + shift!r}:{self.walks}"
            return ["check-q1", "--theta-pi", grid, "--steps", str(self.n_steps)]
        if rng is None:
            q, theta_pi = CANONICAL_Q_THETA[self.name]
        elif self.command == "simulate":
            q, theta_pi = CANONICAL_Q_THETA[self.name][0], rng.choice(LONG_WALK_THETA_PI)
        else:
            # The period stays: step rebuilds the coin table every step and
            # writes the scattering coin into one row in q, so q = 1 costs
            # about 20% more than q >= 4.  No walk of 1000 steps at an angle
            # in this range reaches subnormal amplitudes.
            q, theta_pi = CANONICAL_Q_THETA[self.name][0], repr(rng.uniform(0.2, 0.8))
        steps = str(self.n_steps) if self.command == "simulate" else f"1:{self.n_steps}"
        return [self.command, "--q", str(q), "--theta-pi", theta_pi, "--steps", steps]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="q1-angle-sweep",
            why="47 short walks (check-q1, N=200): per-call overhead of evolve and batching across profiles",
            command="check-q1",
            n_steps=200,
            walks=47,
            distribution_rows=47 * 401,
            csv_rows=47,
            golden_sha256="069044f9e5b16bbc78e194689fa2cc399e28a856f8b2c89b957008755b14de54",
        ),
        Workload(
            name="long-walk",
            why="one 4000-step walk (simulate): per-row-step cost of evolve and the 8001-row CSV write",
            command="simulate",
            n_steps=4000,
            walks=1,
            distribution_rows=8001,
            csv_rows=8001,
            golden_sha256="fb24e27f7e99060ff1317773acf33d88c53d702fb6237b5a33f85c26fe9bab4e",
        ),
        Workload(
            name="step-sweep",
            why="1000 snapshots of one walk (sweep-steps): the step entry point and observables per step",
            command="sweep-steps",
            n_steps=1000,
            walks=1,
            distribution_rows=sum(2 * n + 1 for n in range(1, 1001)),
            csv_rows=1000,
            golden_sha256="332d0169dd88d5c533b239bc766ead5628c1178fda5151e879532682704e8bd1",
        ),
    )
}


def csv_digest(path: Path) -> str | None:
    """sha256 of the file's bytes, or None when the file is missing."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def check_output(workload: Workload, seed: int, path: Path) -> str | None:
    """Check a first output in full; return None when it passes, else the reason.

    The canonical seed must reproduce the golden digest.  Other seeds must
    have the expected number of rows and, for ``simulate``, a distribution
    symmetric about the origin.  The norm gate is checked by the caller
    through the exit status.
    """
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return f"cannot read {path.name}: {exc}"
    if seed == CANONICAL_SEED:
        digest = csv_digest(path)
        if digest != workload.golden_sha256:
            return f"sha256 {digest} differs from the golden {workload.golden_sha256}"
        return None
    if len(lines) != workload.csv_rows + 1:
        return f"{len(lines) - 1} rows, expected {workload.csv_rows}"
    if workload.command == "simulate":
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        residual = max(abs(p - m) for p, m in zip(probs, reversed(probs)))
        if residual > SYMMETRY_TOL:
            return f"distribution asymmetric by {residual:.3e}"
    return None
