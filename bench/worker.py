"""Workload process: time repeated ``periodicwalk.cli.main`` calls and check every output.

Started by ``run.py`` in a fresh, single-threaded interpreter, one workload at
a time.  After one warm-up call, whose output is checked in full, it calls the
command until ``--seconds`` have passed (and at least ``MIN_CALLS`` times) and
checks each call's exit status and CSV digest: against the golden digest for
the canonical seed, against the warm-up's for any other.

With ``--trace 1`` it alternates untraced and traced calls.  The untraced ones
give the base of ``trace.overhead_ratio``; the traced ones give the per-layer
numbers, derived from spans that are written to ``--spans`` at the end.

The last line of standard output is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import Tracer, package_modules, totals_per_call
from workloads import CANONICAL_SEED, WORKLOADS, check_output, csv_digest

#: Enough timed calls for a tail percentile with ten samples beyond it.
MIN_CALLS = 11

#: Stop starting calls after this long even if MIN_CALLS is not reached.
MAX_LOOP_SECONDS = 120.0

#: Steps of the reference kernel on a 401-row table: about 8-12 ms.
REFERENCE_STEPS = 500


def make_reference(np):
    """A fixed numpy kernel, timed between calls as the unit of the ``*_ref`` metrics.

    On a shared 2-vCPU VM, numpy code ran up to 1.7 times slower in phases
    lasting seconds to minutes.  A call's wall time divided by the mean of the
    reference times just before and just after it cancels most of that,
    because the reference does the same kind of work as the kernel: a complex
    coin applied by ``einsum`` and a shift.  The Hadamard coin keeps every
    value a normal float, never a subnormal one.  The reference lives here and
    never changes with the package.
    """
    rows = 401
    h = 0.5**0.5
    table = np.empty((rows, 2, 2), dtype=np.complex128)
    table[:] = [[h, h], [h, -h]]
    start = np.zeros((rows, 2), dtype=np.complex128)
    start[rows // 2] = (h, 1j * h)

    def reference_seconds() -> float:
        begin = time.perf_counter()
        amps = start
        for _ in range(REFERENCE_STEPS):
            coined = np.einsum("xij,xj->xi", table, amps)
            amps = np.zeros_like(amps)
            amps[:-1, 0] = coined[1:, 0]
            amps[1:, 1] = coined[:-1, 1]
        return time.perf_counter() - begin

    return reference_seconds


def layer_metrics(tracer: Tracer, workload) -> dict[str, float]:
    """Per-layer numbers of one ``cli.main`` call: the median over the traced calls."""
    per_call = []
    for names in totals_per_call(tracer.spans).values():
        own = defaultdict(float, {name: v[0] for name, v in names.items()})
        calls = defaultdict(int, {name: v[1] for name, v in names.items()})
        kernel = own["core.evolve"] + own["core.step"]
        observe = own["observables.distribution"] + own["observables.moments"]
        per_call.append(
            {
                "core.evolve.self_s": own["core.evolve"],
                "core.evolve.calls": calls["core.evolve"],
                "core.step.self_s": own["core.step"],
                "core.step.calls": calls["core.step"],
                "core.check_norm.self_s": own["core.check_norm"],
                "core.initial_state.self_s": own["core.initial_state"],
                "core.ns_per_live_row_step": kernel * 1e9 / workload.live_row_steps,
                "core.table_bytes": max(v[2] for v in names.values()),
                "observables.distribution.self_s": own["observables.distribution"],
                "observables.distribution.calls": calls["observables.distribution"],
                "observables.moments.self_s": own["observables.moments"],
                "observables.moments.calls": calls["observables.moments"],
                "observables.ns_per_row": observe * 1e9 / workload.distribution_rows,
                "experiments.self_s": sum(v for name, v in own.items() if name.startswith("experiments.")),
                "experiments.walks": workload.walks,
                "cli.self_s": own["cli.main"],
            }
        )
    return {name: statistics.median(c[name] for c in per_call) for name in per_call[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    ns = parser.parse_args()

    import numpy
    import periodicwalk
    import periodicwalk.cli as cli

    workload = WORKLOADS[ns.workload]
    out = ns.out_dir / f"{workload.name}.csv"
    args = workload.cli_args(ns.seed) + ["--out", str(out)]
    tracer = Tracer(package_modules()) if ns.trace else None

    def call() -> tuple[float, int | None]:
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            status = cli.main(args)
        except Exception:
            status = None
            traceback.print_exc()
        return time.perf_counter() - start, status

    _, status = call()
    problem = f"exit status {status}" if status != 0 else check_output(workload, ns.seed, out)
    if problem:
        print(f"warm-up call failed: {problem}", file=sys.stderr)
    expected = workload.golden_sha256 if ns.seed == CANONICAL_SEED else csv_digest(out)

    reference_seconds = make_reference(numpy)
    # (wall seconds, reference seconds) per call.
    untraced: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    failed = 0 if problem is None else 1
    loop_start = time.perf_counter()
    ref_before = reference_seconds()
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= MAX_LOOP_SECONDS or (elapsed >= ns.seconds and len(untraced) >= MIN_CALLS):
            break
        is_traced = tracer is not None and len(traced) < len(untraced)
        if is_traced:
            tracer.call += 1
            with tracer.active():
                wall, status = call()
        else:
            wall, status = call()
        ref_after = reference_seconds()
        (traced if is_traced else untraced).append((wall, (ref_before + ref_after) / 2))
        ref_before = ref_after
        if status != 0 or csv_digest(out) != expected:
            failed += 1

    result = {
        "correct": failed == 0,
        "attempted": 1 + len(untraced) + len(traced),
        "failed": failed,
        "calls": untraced,
        "csv_bytes": out.stat().st_size if out.exists() else 0,
        "csv_rows": len(out.read_bytes().splitlines()) - 1 if out.exists() else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "package_file": periodicwalk.__file__,
    }
    if tracer is not None:
        result["traced_calls"] = traced
        result["layers"] = layer_metrics(tracer, workload)
        if ns.spans is not None:
            tracer.write(ns.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
