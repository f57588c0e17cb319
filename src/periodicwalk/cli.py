"""Command-line front end: deterministic CSV tables plus a JSON manifest.

Every command writes one CSV file (LF newlines, 17 significant digits,
fixed column order, no timestamps) and a sidecar ``<out>.manifest.json``
recording the resolved configuration, thresholds, wall-clock time, the
numpy version and the sha256 of the CSV bytes.
Identical invocations produce byte-identical CSV files.

Exit status: 0 success, 1 usage error, 2 i/o failure, 3 numerical
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, experiments
from .core import (
    NORM_DRIFT_TOL,
    NormDriftError,
    PotentialProfile,
    check_norm,
    evolve,
    initial_state,
)
from .experiments import (
    check_q1_closed_form,
    sweep_sigma_vs_inverse_period,
    sweep_sigma_vs_steps,
    sweep_sigma_vs_theta,
)
from .observables import distribution

__all__ = [
    "EXIT_INVARIANT",
    "EXIT_IO",
    "EXIT_OK",
    "EXIT_USAGE",
    "RunConfig",
    "UsageError",
    "main",
    "parse_args",
    "run",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INVARIANT = 3

_COMMANDS = ("simulate", "sweep-steps", "sweep-theta", "sweep-period", "check-q1")

#: Largest step count, longest LO:HI range, largest theta-grid COUNT and
#: largest period any command accepts.  A walk of N steps allocates a
#: (2N + 1, 2) complex table (6.4 MB here) and does O(N^2) work; every grid
#: angle or range value is a walk.  Any period q >= N gives the same N-step
#: walk, so the period cap loses none.
MAX_STEPS = 100_000


class UsageError(Exception):
    """Bad command line; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # i/o failures, so parse errors are converted to exceptions instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command, parameters and output path.

    Scalar-parameter commands hold plain ints and floats; sweep commands
    hold tuples for the swept axis.
    """

    command: str
    q: int | tuple[int, ...]
    theta: float | tuple[float, ...]
    steps: int | tuple[int, ...]
    out: Path


def _parse_int(text: str, flag: str, minimum: int, maximum: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{flag}: expected an integer, got {text!r}") from None
    if value < minimum:
        raise UsageError(f"{flag}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise UsageError(f"{flag}: must be <= {maximum}, got {value}")
    return value


def _parse_float(text: str, flag: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{flag}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{flag}: must be finite, got {text!r}")
    return value


def _parse_int_list(text: str, flag: str, minimum: int, maximum: int | None = None) -> tuple[int, ...]:
    """Accept N, N1,N2,..., or LO:HI (inclusive integer range of at most MAX_STEPS values)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise UsageError(f"{flag}: ranges take the form LO:HI, got {text!r}")
        lo = _parse_int(parts[0], flag, minimum, maximum)
        hi = _parse_int(parts[1], flag, minimum, maximum)
        if hi < lo:
            raise UsageError(f"{flag}: range end {hi} is below start {lo}")
        if hi - lo + 1 > MAX_STEPS:
            raise UsageError(f"{flag}: range {lo}:{hi} holds more than {MAX_STEPS} values")
        return tuple(range(lo, hi + 1))
    if "," in text:
        return tuple(_parse_int(part, flag, minimum, maximum) for part in text.split(","))
    return (_parse_int(text, flag, minimum, maximum),)


def _parse_theta_grid(text: str, flag: str, scale: float) -> tuple[float, ...]:
    """START:STOP:COUNT, expanded to COUNT (at most MAX_STEPS) evenly spaced angles."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag}: grids take the form START:STOP:COUNT, got {text!r}")
    start = _parse_float(parts[0], flag)
    stop = _parse_float(parts[1], flag)
    count = _parse_int(parts[2], flag, 2, MAX_STEPS)
    if not math.isfinite(stop - start):
        raise UsageError(f"{flag}: grid {start!r}:{stop!r} spans more than a float can hold")
    return tuple(_scaled_angle(float(v), scale, flag) for v in np.linspace(start, stop, count))


def _scaled_angle(value: float, scale: float, flag: str) -> float:
    # A finite value can overflow once scaled by pi; the coin needs a finite angle.
    angle = value * scale
    if not math.isfinite(angle):
        raise UsageError(f"{flag}: angle {value!r} is not finite in radians")
    return angle


def _theta_text(ns: argparse.Namespace) -> tuple[str, float, str] | None:
    if ns.theta is not None:
        return ns.theta, 1.0, "--theta"
    if ns.theta_pi is not None:
        return ns.theta_pi, math.pi, "--theta-pi"
    return None


def _resolve_theta_scalar(ns: argparse.Namespace) -> float:
    source = _theta_text(ns)
    if source is None:
        raise UsageError("one of --theta or --theta-pi is required")
    text, scale, flag = source
    if ":" in text:
        raise UsageError(f"{flag}: this command takes a single angle, not a grid")
    return _scaled_angle(_parse_float(text, flag), scale, flag)


def _resolve_theta_values(
    ns: argparse.Namespace, default: tuple[float, ...]
) -> tuple[float, ...]:
    source = _theta_text(ns)
    if source is None:
        return default
    text, scale, flag = source
    if ":" in text:
        return _parse_theta_grid(text, flag, scale)
    return (_scaled_angle(_parse_float(text, flag), scale, flag),)


def _full_circle_grid() -> tuple[float, ...]:
    # 0 .. 2*pi inclusive at pi/24 spacing.
    return tuple(float(t) for t in np.linspace(0.0, 2.0 * math.pi, 49))


def _open_circle_grid() -> tuple[float, ...]:
    # pi/24 .. 47*pi/24: the same spacing with both trapping endpoints
    # (theta = 0 and 2*pi) excluded, as the closed form degenerates there.
    return tuple(float(t) for t in np.linspace(math.pi / 24, 47 * math.pi / 24, 47))


def _add_theta_flags(sp: argparse.ArgumentParser) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--theta", metavar="T", help="coin angle in radians; grids as START:STOP:COUNT")
    group.add_argument(
        "--theta-pi",
        dest="theta_pi",
        metavar="T",
        help="coin angle in multiples of pi; grids as START:STOP:COUNT",
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="periodicwalk",
        description="Simulate coined walks with periodically placed scattering sites.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND", parser_class=_Parser)

    sp = sub.add_parser("simulate", help="one walk; write position,probability")
    sp.add_argument("--q", required=True, metavar="Q", help="scattering period, integer >= 1")
    _add_theta_flags(sp)
    sp.add_argument("--steps", default="200", metavar="N", help="number of steps (default 200)")
    sp.add_argument("--out", metavar="PATH", help="output CSV path (default simulate.csv)")

    sp = sub.add_parser("sweep-steps", help="sigma vs step count; write n,sigma")
    sp.add_argument("--q", required=True, metavar="Q", help="scattering period, integer >= 1")
    _add_theta_flags(sp)
    sp.add_argument(
        "--steps",
        required=True,
        metavar="SPEC",
        help="step counts to record: N, N1,N2,... or LO:HI",
    )
    sp.add_argument("--out", metavar="PATH", help="output CSV path (default sweep-steps.csv)")

    sp = sub.add_parser("sweep-theta", help="sigma vs coin angle; write theta,sigma")
    sp.add_argument("--q", required=True, metavar="Q", help="scattering period, integer >= 1")
    _add_theta_flags(sp)
    sp.add_argument("--steps", default="200", metavar="N", help="number of steps (default 200)")
    sp.add_argument("--out", metavar="PATH", help="output CSV path (default sweep-theta.csv)")

    sp = sub.add_parser("sweep-period", help="sigma vs period; write q,inv_q,sigma")
    sp.add_argument(
        "--q",
        default="1:10",
        metavar="SPEC",
        help="periods to sweep: Q, Q1,Q2,... or LO:HI (default 1:10)",
    )
    _add_theta_flags(sp)
    sp.add_argument("--steps", default="200", metavar="N", help="number of steps (default 200)")
    sp.add_argument("--out", metavar="PATH", help="output CSV path (default sweep-period.csv)")

    sp = sub.add_parser(
        "check-q1",
        help="compare sigma^2/N^2 against 1 - |cos theta| for period 1",
    )
    _add_theta_flags(sp)
    sp.add_argument("--steps", default="200", metavar="N", help="number of steps, >= 100 (default 200)")
    sp.add_argument("--out", metavar="PATH", help="output CSV path (default check-q1.csv)")

    return parser


def parse_args(argv: Sequence[str]) -> RunConfig:
    """Turn raw arguments into a RunConfig.  Raises UsageError on bad input."""
    ns = _build_parser().parse_args(list(argv))
    command = ns.command
    out = Path(ns.out) if ns.out else Path(f"{command}.csv")

    if command == "simulate":
        return RunConfig(
            command=command,
            q=_parse_int(ns.q, "--q", 1, MAX_STEPS),
            theta=_resolve_theta_scalar(ns),
            steps=_parse_int(ns.steps, "--steps", 0, MAX_STEPS),
            out=out,
        )
    if command == "sweep-steps":
        return RunConfig(
            command=command,
            q=_parse_int(ns.q, "--q", 1, MAX_STEPS),
            theta=_resolve_theta_scalar(ns),
            steps=_parse_int_list(ns.steps, "--steps", 1, MAX_STEPS),
            out=out,
        )
    if command == "sweep-theta":
        return RunConfig(
            command=command,
            q=_parse_int(ns.q, "--q", 1, MAX_STEPS),
            theta=_resolve_theta_values(ns, default=_full_circle_grid()),
            steps=_parse_int(ns.steps, "--steps", 1, MAX_STEPS),
            out=out,
        )
    if command == "sweep-period":
        return RunConfig(
            command=command,
            q=_parse_int_list(ns.q, "--q", 1, MAX_STEPS),
            theta=_resolve_theta_scalar(ns),
            steps=_parse_int(ns.steps, "--steps", 1, MAX_STEPS),
            out=out,
        )
    # check-q1
    return RunConfig(
        command=command,
        q=1,
        theta=_resolve_theta_values(ns, default=_open_circle_grid()),
        steps=_parse_int(ns.steps, "--steps", 100, MAX_STEPS),
        out=out,
    )


def _execute(config: RunConfig) -> tuple[list[str], list[tuple], dict]:
    if config.command == "simulate":
        profile = PotentialProfile(config.q, config.theta)
        state = evolve(initial_state(max(config.steps, 1)), profile, config.steps)
        check_norm(state)
        dist = distribution(state)
        rows = list(zip(dist.positions.tolist(), dist.probabilities.tolist()))
        details = {"kind": "simulate", "q": config.q, "theta": config.theta, "n_steps": config.steps}
        return ["position", "probability"], rows, details

    if config.command == "sweep-steps":
        result = sweep_sigma_vs_steps(config.q, config.theta, list(config.steps))
        rows = [(int(n), float(s)) for n, s in zip(config.steps, result.sigma)]
        return ["n", "sigma"], rows, dict(result.metadata)

    if config.command == "sweep-theta":
        grid = config.theta if isinstance(config.theta, tuple) else (config.theta,)
        result = sweep_sigma_vs_theta(config.q, grid, config.steps)
        rows = [(float(t), float(s)) for t, s in zip(result.independent, result.sigma)]
        return ["theta", "sigma"], rows, dict(result.metadata)

    if config.command == "sweep-period":
        result = sweep_sigma_vs_inverse_period(config.theta, list(config.q), config.steps)
        rows = [
            (int(q), float(iq), float(s))
            for q, iq, s in zip(config.q, result.independent, result.sigma)
        ]
        return ["q", "inv_q", "sigma"], rows, dict(result.metadata)

    # check-q1
    grid = config.theta if isinstance(config.theta, tuple) else (config.theta,)
    table = check_q1_closed_form(grid, config.steps)
    rows = [
        (float(t), float(m), float(l), float(r))
        for t, m, l, r in zip(table.theta, table.sigma2_over_n2, table.law, table.residual)
    ]
    details = {"kind": "q1_closed_form", "theta_grid": [float(t) for t in grid], "n_steps": table.n_steps}
    return ["theta", "sigma2_over_N2", "law", "residual"], rows, details


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> str:
    """Write the table as CSV and return the sha256 hex digest of the bytes written.

    One %-format serves every row.  It is built from the first row's types:
    integers print whole, and any other value with 17 significant digits,
    which reproduce a double exactly.
    """
    # Imported here: hashlib's OpenSSL binding takes about 4 ms to load, and
    # a plain ``import periodicwalk`` has no use for it.
    import hashlib

    lines = [",".join(header)]
    if rows:
        fmt = ",".join("%d" if isinstance(v, (int, np.integer)) else "%.17g" for v in rows[0])
        lines.extend(fmt % row for row in rows)
    data = ("\n".join(lines) + "\n").encode("ascii")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _write_manifest(config: RunConfig, details: dict, elapsed: float, n_rows: int, csv_sha256: str) -> None:
    manifest = {
        "tool": {"name": "periodicwalk", "version": __version__},
        "command": config.command,
        "config": {
            "q": _jsonable(config.q),
            "theta": _jsonable(config.theta),
            "steps": _jsonable(config.steps),
            "out": str(config.out),
        },
        "details": {k: _jsonable(v) for k, v in details.items()},
        "thresholds": {
            "norm_drift_tol": NORM_DRIFT_TOL,
            "r_squared_steps_trend_min": experiments.R_SQUARED_STEPS_TREND_MIN,
            "r_squared_inverse_period_min": experiments.R_SQUARED_INVERSE_PERIOD_MIN,
            "q1_law_residual_ceiling": experiments.Q1_LAW_RESIDUAL_CEILING,
            "q2_lazy_spread_ceiling": experiments.Q2_LAZY_SPREAD_CEILING,
        },
        "rows": n_rows,
        "csv_sha256": csv_sha256,
        "numpy_version": np.__version__,
        "elapsed_seconds": elapsed,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    Path(str(config.out) + ".manifest.json").write_text(text, encoding="ascii")


def run(config: RunConfig) -> int:
    """Execute one command, write its CSV and manifest, return the exit status."""
    started = time.perf_counter()
    try:
        header, rows, details = _execute(config)
    except NormDriftError as exc:
        print(f"periodicwalk: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    elapsed = time.perf_counter() - started
    try:
        csv_sha256 = _write_csv(config.out, header, rows)
        _write_manifest(config, details, elapsed, n_rows=len(rows), csv_sha256=csv_sha256)
    except OSError as exc:
        print(f"periodicwalk: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    args = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = parse_args(args)
    except UsageError as exc:
        print(f"periodicwalk: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)
