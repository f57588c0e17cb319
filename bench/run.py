"""Run one benchmark workload of the periodicwalk CLI and print its metrics.

Usage, from the root of the repository:

    python3 bench/run.py --workload long-walk --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each workload runs in a fresh, single-threaded worker process (``worker.py``),
one workload at a time.  ``setup_s`` is the median wall time of
``import periodicwalk, periodicwalk.cli`` over several fresh interpreters.
The report lists every metric by name with its unit, and the run record
(host, versions, package digest, steal time).  The last line of standard
output is a JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

The package is imported from ``src/`` of the repository and nowhere else;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import CANONICAL_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "periodicwalk"
WORK = ROOT / ".bench_work"

#: Fresh interpreters timed for ``setup_s`` before and again after the workload
#: process, so the median spans the run rather than one moment of it.
SETUP_PROBES = 5

#: A workload process that runs longer than this is killed.
WORKER_TIMEOUT_S = 160.0

_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import periodicwalk, periodicwalk.cli\n"
    "print(time.perf_counter() - start, periodicwalk.__file__)\n"
)

#: Metrics of the JSON result with ``--trace 0``.  ``wall_ref_*`` is a call's
#: wall time over the reference kernel's (see ``worker.make_reference``).  The
#: report also prints the raw ``wall_s_p50``, ``wall_s_tail``,
#: ``row_steps_per_s`` and ``fail_ratio``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref_p50": "ref",
    "wall_ref_tail": "ref",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "core.evolve.self_s": "s",
    "core.evolve.calls": "count",
    "core.step.self_s": "s",
    "core.step.calls": "count",
    "core.check_norm.self_s": "s",
    "core.initial_state.self_s": "s",
    "core.ns_per_live_row_step": "ns",
    "core.table_bytes": "bytes",
    "observables.distribution.self_s": "s",
    "observables.distribution.calls": "count",
    "observables.moments.self_s": "s",
    "observables.moments.calls": "count",
    "observables.ns_per_row": "ns",
    "experiments.self_s": "s",
    "experiments.walks": "count",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.csv_bytes": "bytes",
    "trace.overhead_ratio": "1",
}


class BenchError(Exception):
    """The benchmark cannot produce a result; exit status 2, no result printed."""


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as (value, percentile).

    With n sorted samples that is the (n - 10)-th smallest one, the
    100 * (n - 10) / n percentile.  Fewer than 11 samples give the largest
    one, the 100 * (n - 1) / n percentile, with fewer than ten beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0 * (n - 1) / n
    return ordered[n - 11], 100.0 * (n - 10) / n


def worker_env() -> dict[str, str]:
    """The environment of every child: one thread per numeric library, ``src/`` first on the path."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def measure_setup(env: dict[str, str], probes: int) -> list[float]:
    """Import time of the package in ``probes`` fresh interpreters."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import periodicwalk from {SRC}: {proc.stderr.strip()}")
        seconds, location = proc.stdout.split(maxsplit=1)
        if Path(location.strip()).resolve().parent != PACKAGE:
            raise BenchError(f"periodicwalk was imported from {location.strip()}, not {PACKAGE}")
        times.append(float(seconds))
    return times


def steal_seconds() -> float | None:
    """Host steal time of all CPUs so far, from /proc/stat (read only); None where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def package_identity() -> dict[str, str | None]:
    """The checked-out git commit, where the checkout has one, and a sha256 over the package sources."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "sources_sha256": digest.hexdigest()}


def run_worker(name: str, seed: int, seconds: float, trace: int, env: dict[str, str]) -> dict:
    """Run one workload process and return its result object."""
    WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    command = [
        sys.executable,
        str(Path(__file__).with_name("worker.py")),
        f"--workload={name}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={trace}",
        f"--out-dir={out_dir}",
    ]
    if trace:
        command.append(f"--spans={WORK / f'spans-{name}.json'}")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: the workload process ran longer than {WORKER_TIMEOUT_S:.0f} s") from None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: the workload process failed with exit status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload, print its report, and return the result object."""
    workload = WORKLOADS[name]
    env = worker_env()
    measure_setup(env, 1)  # fills the bytecode and file caches; not timed
    setup = measure_setup(env, SETUP_PROBES)
    steal_before = steal_seconds()
    started = time.perf_counter()
    worker = run_worker(name, seed, seconds, trace, env)
    elapsed = time.perf_counter() - started
    steal_after = steal_seconds()
    setup += measure_setup(env, SETUP_PROBES)

    record = {
        "workload": name,
        "seed": seed,
        "canonical": seed == CANONICAL_SEED,
        "args": workload.cli_args(seed),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "package": package_identity(),
        "threads": {var: env[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "worker_s": elapsed,
        "steal_s_before": steal_before,
        "steal_s_after": steal_after,
        "steal_s_during": None if steal_before is None or steal_after is None else steal_after - steal_before,
    }
    print(f"# workload {name}: {workload.why}")
    print(f"# record {json.dumps(record)}")

    attempted, failed = worker["attempted"], worker["failed"]
    walls = [wall for wall, _ref in worker["calls"]]
    ratios = [wall / ref for wall, ref in worker["calls"]]
    # (name, value, unit, note) of every printed metric; the JSON result keeps
    # the ones BENCHMARK.json lists for this mode.
    if trace:
        traced_ratios = [wall / ref for wall, ref in worker["traced_calls"]]
        layers = worker["layers"]
        notes = {
            "core.ns_per_live_row_step": f"computed: {workload.live_row_steps} live row-steps per call",
            "observables.ns_per_row": f"computed: {workload.distribution_rows} distribution rows per call",
            "core.table_bytes": "computed: largest amplitudes.nbytes of a returned state",
            "experiments.walks": "computed from the command's inputs",
        }
        rows = [(k, layers[k], PER_LAYER_UNITS[k], notes.get(k, "median per cli.main call")) for k in layers]
        rows += [
            ("cli.rows", worker["csv_rows"], "count", "from the CSV file"),
            ("cli.csv_bytes", worker["csv_bytes"], "bytes", "from the CSV file"),
            (
                "trace.overhead_ratio",
                statistics.median(traced_ratios) / statistics.median(ratios) - 1,
                "1",
                f"median wall_ref of {len(traced_ratios)} traced / {len(ratios)} untraced calls, alternating",
            ),
        ]
        reported = PER_LAYER_UNITS
    else:
        tail_ratio, tail_pct = tail(ratios)
        rows = [
            ("setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
            ("wall_ref_p50", statistics.median(ratios), "ref", f"median of {len(ratios)} calls"),
            ("wall_ref_tail", tail_ratio, "ref", f"p{tail_pct:.1f} of {len(ratios)} calls"),
            ("peak_rss_mb", worker["peak_rss_mb"], "MiB", "ru_maxrss of the workload process"),
            ("wall_s_p50", statistics.median(walls), "s", f"median of {len(walls)} calls"),
            ("wall_s_tail", tail(walls)[0], "s", f"p{tail_pct:.1f} of {len(walls)} calls"),
            (
                "row_steps_per_s",
                workload.live_row_steps * len(walls) / sum(walls),
                "1/s",
                f"computed: {workload.live_row_steps} live row-steps per call",
            ),
            ("ref_s_p50", statistics.median(ref for _wall, ref in worker["calls"]), "s", "median reference time"),
        ]
        reported = END_TO_END_UNITS
    rows.append(("fail_ratio", failed / attempted, "1", f"{failed} of {attempted} calls failed"))
    for metric, value, unit, note in rows:
        print(f"{metric:34s} {value:>16.6g} {unit:6s} {note}")
    return {
        "correct": worker["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, value, unit, _ in rows if metric in reported},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=CANONICAL_SEED, help="0 runs the canonical inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed loop length per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    try:
        results = [run_workload(name, ns.seed, ns.seconds, ns.trace) for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "metrics": {
                        f"{name}/{metric}": entry
                        for name, r in zip(names, results)
                        for metric, entry in r["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
