"""Command-line front end: deterministic CSV tables plus a JSON manifest.

Every command writes one CSV file (LF newlines, 17 significant digits,
fixed column order, no timestamps) and a sidecar ``<out>.manifest.json``
recording the resolved configuration, thresholds, wall-clock time, the
numpy version and the sha256 of the CSV bytes.
Identical invocations produce byte-identical CSV files.  The CSV is
written a chunk of rows at a time and its sha256 taken as it is written;
simulate formats each probability once, over x <= 0, and writes x > 0
from the same strings.

Exit status: 0 success, 1 usage error, 2 i/o failure, 3 numerical
invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__, experiments
from .core import (
    NORM_DRIFT_TOL,
    NormDriftError,
    PotentialProfile,
    _distributions,
    evolve,  # not called here; bench/test_bench.py pins this binding until the bench change
)
from .experiments import (
    check_q1_closed_form,
    sweep_sigma_vs_inverse_period,
    sweep_sigma_vs_steps,
    sweep_sigma_vs_theta,
)

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

#: Largest step count, longest LO:HI range, largest theta-grid COUNT and
#: largest period any command accepts.  A walk of N steps does O(N^2) work;
#: every grid angle or range value is a walk.  Through ``evolve``
#: (sweep-theta, sweep-period, check-q1) it walks on three row pairs of
#: N + 1 complex entries, 9.6 MB here, and returns a (2N + 1, 2) complex
#: table, 6.4 MB, beside them (3.20 MB of traced memory in all at N =
#: 20000, q = 1).  simulate and sweep-steps allocate no table.  Their ring
#: holds row pairs of N/2 + 2 complex entries.  A simulate of this many
#: steps holds three, 4.8 MB, and peaks at 14.0 MB of traced memory, its
#: 2.95 MB CSV written a chunk at a time.  A sweep-steps over 1..N holds
#: twelve, 19.2 MB, and as much again of squares, and peaks at 56.0 MB.
#: Any period q >= N gives the same N-step walk, so the period cap loses
#: none.
MAX_STEPS = 100_000

#: Rows per chunk of ``_write_csv``: formatted, encoded, hashed and written
#: together.  From 128 to 2048 rows, simulate's traced peak at 4000 and 20000
#: steps stayed the walk's and the write time stayed within noise; 4096 rows
#: raised the peak at 4000 steps by 216 KB.
_CSV_CHUNK_ROWS = 1024

#: Default walk length, long enough for asymptotic trends.
DEFAULT_STEPS = 200


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


def _parse_int(text: str, flag: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{flag}: expected an integer, got {text!r}") from None
    if value < minimum:
        raise UsageError(f"{flag}: must be >= {minimum}, got {value}")
    if value > MAX_STEPS:
        raise UsageError(f"{flag}: must be <= {MAX_STEPS}, got {value}")
    return value


def _parse_float(text: str, flag: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{flag}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{flag}: must be finite, got {text!r}")
    return value


def _parse_int_list(text: str, flag: str, minimum: int) -> tuple[int, ...]:
    """Accept N, N1,N2,..., or LO:HI, an inclusive integer range.

    A range holds at most MAX_STEPS values with no check of its own: both
    ends lie in [minimum, MAX_STEPS], and every list flag has minimum >= 1.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise UsageError(f"{flag}: ranges take the form LO:HI, got {text!r}")
        lo = _parse_int(parts[0], flag, minimum)
        hi = _parse_int(parts[1], flag, minimum)
        if hi < lo:
            raise UsageError(f"{flag}: range end {hi} is below start {lo}")
        return tuple(range(lo, hi + 1))
    return tuple(_parse_int(part, flag, minimum) for part in text.split(","))


def _parse_angles(text: str, flag: str, scale: float, grid: bool) -> float | tuple[float, ...]:
    """A scaled angle; with ``grid``, a tuple: one angle, or COUNT <= MAX_STEPS from START:STOP:COUNT."""
    if ":" not in text:
        angle = _scaled_angle(_parse_float(text, flag), scale, flag)
        return (angle,) if grid else angle
    if not grid:
        raise UsageError(f"{flag}: this command takes a single angle, not a grid")
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag}: grids take the form START:STOP:COUNT, got {text!r}")
    start = _parse_float(parts[0], flag)
    stop = _parse_float(parts[1], flag)
    count = _parse_int(parts[2], flag, 2)
    if not math.isfinite(stop - start):
        raise UsageError(f"{flag}: grid {start!r}:{stop!r} spans more than a float can hold")
    return tuple(_scaled_angle(float(v), scale, flag) for v in np.linspace(start, stop, count))


def _scaled_angle(value: float, scale: float, flag: str) -> float:
    # A finite value can overflow once scaled by pi; the coin needs a finite angle.
    angle = value * scale
    if not math.isfinite(angle):
        raise UsageError(f"{flag}: angle {value!r} is not finite in radians")
    return angle


@dataclass(frozen=True)
class _IntFlag:
    """An integer flag: one value, or a list when ``many``; required if ``default`` is None."""

    metavar: str
    help: str
    minimum: int
    default: str | None = None
    many: bool = False

    def add_to(self, parser: argparse.ArgumentParser, flag: str) -> None:
        # argparse converts a string default through ``type`` as well.
        required = self.default is None
        help = self.help if required else f"{self.help} (default {self.default})"
        parse = functools.partial(_parse_int_list if self.many else _parse_int, flag=flag, minimum=self.minimum)
        parser.add_argument(
            flag, required=required, default=self.default, type=parse, metavar=self.metavar, help=help
        )


@dataclass(frozen=True)
class _Command:
    """One command: its flags, the runner that makes its rows, its CSV header."""

    help: str
    q: _IntFlag | None  # None: no --q, the period is 1
    steps: _IntFlag
    theta_grid: tuple[float, ...] | None  # None: one required angle; else the default sweep
    runner: Callable[[RunConfig], Iterable[tuple]]
    header: tuple[str, ...]


def _simulate(config: RunConfig) -> Iterable[tuple]:
    n = config.steps
    ((_, p),) = _distributions(PotentialProfile(config.q, config.theta), [n])
    # Each probability is formatted once: _distributions writes P(x) for x > 0
    # from the same ``live`` values as P(-x), and a site of the other parity
    # is a zero in both halves, so the right half is the left half's strings
    # in reverse, less the origin's.
    left = list(map("%.17g".__mod__, p[: n + 1].tolist()))
    return zip(range(-n, n + 1), chain(left, islice(reversed(left), 1, None)))


def _sweep_steps(config: RunConfig) -> Iterable[tuple]:
    sigma = sweep_sigma_vs_steps(config.q, config.theta, config.steps)
    return zip(config.steps, sigma.tolist())


def _sweep_theta(config: RunConfig) -> Iterable[tuple]:
    sigma = sweep_sigma_vs_theta(config.q, config.theta, config.steps)
    return zip(config.theta, sigma.tolist())


def _sweep_period(config: RunConfig) -> Iterable[tuple]:
    sigma = sweep_sigma_vs_inverse_period(config.theta, config.q, config.steps)
    return zip(config.q, [1.0 / q for q in config.q], sigma.tolist())


def _check_q1(config: RunConfig) -> Iterable[tuple]:
    table = check_q1_closed_form(config.theta, config.steps)
    columns = (table.sigma2_over_n2, table.law, table.residual)
    return zip(config.theta, *(column.tolist() for column in columns))


_PERIOD = _IntFlag("Q", "scattering period, integer >= 1", minimum=1)
_STEPS = _IntFlag("N", "number of steps", minimum=1, default=str(DEFAULT_STEPS))


#: One entry per command; the parser and ``run`` read from here.
_COMMANDS = {
    "simulate": _Command(
        help="one walk; write position,probability",
        q=_PERIOD,
        steps=replace(_STEPS, minimum=0),
        theta_grid=None,
        runner=_simulate,
        header=("position", "probability"),
    ),
    "sweep-steps": _Command(
        help="sigma vs step count; write n,sigma",
        q=_PERIOD,
        steps=_IntFlag("SPEC", "step counts to record: N, N1,N2,... or LO:HI", minimum=1, many=True),
        theta_grid=None,
        runner=_sweep_steps,
        header=("n", "sigma"),
    ),
    "sweep-theta": _Command(
        help="sigma vs coin angle; write theta,sigma",
        q=_PERIOD,
        steps=_STEPS,
        # 0 .. 2*pi inclusive at pi/24 spacing.
        theta_grid=tuple(float(t) for t in np.linspace(0.0, 2.0 * math.pi, 49)),
        runner=_sweep_theta,
        header=("theta", "sigma"),
    ),
    "sweep-period": _Command(
        help="sigma vs period; write q,inv_q,sigma",
        q=_IntFlag("SPEC", "periods to sweep: Q, Q1,Q2,... or LO:HI", minimum=1, default="1:10", many=True),
        steps=_STEPS,
        theta_grid=None,
        runner=_sweep_period,
        header=("q", "inv_q", "sigma"),
    ),
    "check-q1": _Command(
        help="compare sigma^2/N^2 against 1 - |cos theta| for period 1",
        q=None,
        steps=replace(_STEPS, minimum=100, help="number of steps, >= 100"),
        # pi/24 .. 47*pi/24: the same spacing with both trapping endpoints
        # (theta = 0 and 2*pi) excluded, as the closed form degenerates there.
        theta_grid=tuple(float(t) for t in np.linspace(math.pi / 24, 47 * math.pi / 24, 47)),
        runner=_check_q1,
        header=("theta", "sigma2_over_N2", "law", "residual"),
    ),
}


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: the tree costs about a millisecond, and a parse
    # leaves no state in it, so every parse_args call can share it.  argparse
    # lets the converters' UsageError through, so their messages stay exact.
    parser = _Parser(
        prog="periodicwalk",
        description="Simulate coined walks with periodically placed scattering sites.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND", parser_class=_Parser)
    for name, entry in _COMMANDS.items():
        sp = sub.add_parser(name, help=entry.help)
        if entry.q is not None:
            entry.q.add_to(sp, "--q")
        else:
            sp.set_defaults(q=1)
        grid = entry.theta_grid is not None
        group = sp.add_mutually_exclusive_group(required=not grid)
        for flag, unit, scale in (("--theta", "radians", 1.0), ("--theta-pi", "multiples of pi", math.pi)):
            parse = functools.partial(_parse_angles, flag=flag, scale=scale, grid=grid)
            help = f"coin angle in {unit}" + ("; grids as START:STOP:COUNT" if grid else "")
            group.add_argument(flag, dest="theta", default=entry.theta_grid, type=parse, metavar="T", help=help)
        entry.steps.add_to(sp, "--steps")
        sp.add_argument("--out", metavar="PATH", help=f"output CSV path (default {name}.csv)")
    return parser


def parse_args(argv: Sequence[str]) -> RunConfig:
    """Turn raw arguments into a RunConfig.  Raises UsageError on bad input."""
    ns = _build_parser().parse_args(list(argv))
    out = Path(ns.out or f"{ns.command}.csv")
    return RunConfig(command=ns.command, q=ns.q, theta=ns.theta, steps=ns.steps, out=out)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[tuple]) -> tuple[str, int]:
    """Write the table as CSV; return the sha256 hex digest of the bytes written and the row count.

    The rows are formatted, encoded, hashed and written ``_CSV_CHUNK_ROWS``
    at a time.  One %-format serves every row.  It is built from the first
    row's types: integers print whole, a ``str`` cell as it is given, and any
    other value with 17 significant digits, which reproduce a double exactly.
    """
    # Imported here: hashlib's OpenSSL binding takes about 4 ms to load, and
    # a plain ``import periodicwalk`` has no use for it.  Its libcrypto adds
    # about 3.5 MB of RSS, but the builtin sha256 that spares it took 1.04 ms
    # against OpenSSL's 0.19 on a 225 KB CSV, and the benchmark's worker
    # (bench/workloads.py) hashes every output with hashlib anyway.
    import hashlib

    digest = hashlib.sha256()
    rows = iter(rows)
    count = 0
    with open(path, "wb") as file:

        def write(text: str) -> None:
            data = text.encode("ascii")
            digest.update(data)
            file.write(data)

        write(",".join(header) + "\n")
        chunk = list(islice(rows, _CSV_CHUNK_ROWS))
        if chunk:
            line = ",".join(_cell_format(v) for v in chunk[0]) + "\n"
        while chunk:
            write("".join(map(line.__mod__, chunk)))
            count += len(chunk)
            chunk = list(islice(rows, _CSV_CHUNK_ROWS))
    return digest.hexdigest(), count


def _cell_format(value) -> str:
    if isinstance(value, (int, np.integer)):
        return "%d"
    return "%s" if isinstance(value, str) else "%.17g"


def _write_manifest(path: Path, config: RunConfig, elapsed: float, n_rows: int, csv_sha256: str) -> None:
    manifest = {
        "tool": {"name": "periodicwalk", "version": __version__},
        "command": config.command,
        "config": {
            "q": config.q,
            "theta": config.theta,
            "steps": config.steps,
            "out": str(config.out),
        },
        "thresholds": {
            "norm_drift_tol": NORM_DRIFT_TOL,
            **{
                name.lower(): getattr(experiments, name)
                for name in experiments.__all__
                if name.endswith(("_CEILING", "_MIN"))
            },
        },
        "rows": n_rows,
        "csv_sha256": csv_sha256,
        "numpy_version": np.__version__,
        "elapsed_seconds": elapsed,
    }
    # json writes tuples as lists; numpy scalars, which a hand-made RunConfig
    # may hold, go through their .item().
    text = json.dumps(manifest, indent=2, sort_keys=True, default=np.generic.item) + "\n"
    path.write_text(text, encoding="ascii")


def run(config: RunConfig) -> int:
    """Execute one command, write its CSV and manifest, return the exit status."""
    started = time.perf_counter()
    entry = _COMMANDS[config.command]
    try:
        rows = entry.runner(config)
    except NormDriftError as exc:
        print(f"periodicwalk: invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    elapsed = time.perf_counter() - started
    # Both files are written to temporaries beside their targets and moved
    # into place only once both writes succeed, the manifest first and the
    # CSV last.  Whatever a write or move raises, the temporaries and the
    # targets already moved are removed, so a failed run leaves neither file
    # without the other; anything but an OSError is then raised again.
    manifest = Path(f"{config.out}.manifest.json")
    temporaries = {target: Path(f"{target}.{os.getpid()}.tmp") for target in (manifest, config.out)}
    moved = []
    try:
        csv_sha256, n_rows = _write_csv(temporaries[config.out], entry.header, rows)
        _write_manifest(temporaries[manifest], config, elapsed, n_rows=n_rows, csv_sha256=csv_sha256)
        for target, temporary in temporaries.items():
            os.replace(temporary, target)
            moved.append(target)
    except BaseException as exc:
        for path in [*temporaries.values(), *moved]:
            with contextlib.suppress(OSError):
                path.unlink()
        if not isinstance(exc, OSError):
            raise
        print(f"periodicwalk: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"periodicwalk: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)
