"""Self-tests of the benchmark's own arithmetic and tracing.

Run from the root of the repository:

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import periodicwalk  # noqa: E402
import periodicwalk.cli  # noqa: E402
from run import END_TO_END_UNITS, PER_LAYER_UNITS, tail  # noqa: E402
from spans import LAYER_FUNCTIONS, Span, Tracer, package_modules, self_times, totals_per_call  # noqa: E402
from workloads import CANONICAL_SEED, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("n", [11, 25, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]
    value, percentile = tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_few_samples_is_the_largest():
    assert tail([3.0, 1.0, 2.0]) == (3.0, pytest.approx(200.0 / 3.0))


def test_self_time_subtracts_children_only_within_the_parent():
    spans = [
        Span("cli.main", 0.0, 10.0, -1, 1, 0),
        Span("experiments.sweep", 1.0, 7.0, 0, 1, 0),
        Span("core.evolve", 2.0, 4.0, 1, 1, 100),
        Span("core.evolve", 4.5, 5.0, 1, 1, 300),
        Span("observables.moments", 8.0, 9.0, 0, 1, 0),
        # A child reaching past its parent's end covers only the overlap.
        Span("core.check_norm", 9.5, 11.0, 0, 1, 0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 6.0 - 1.0 - 0.5, 6.0 - 2.5, 2.0, 0.5, 1.0, 1.5])
    totals = totals_per_call(spans)[1]
    assert totals["core.evolve"] == pytest.approx((2.5, 2, 300))
    assert totals["cli.main"][1] == 1


def test_overlapping_children_are_covered_once():
    spans = [Span("a", 0.0, 10.0, -1, 0, 0), Span("b", 1.0, 5.0, 0, 0, 0), Span("c", 3.0, 6.0, 0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def _bindings(functions):
    return {
        (module.__name__, attr)
        for module in package_modules()
        for attr, value in vars(module).items()
        if any(value is fn for fn in functions)
    }


def test_rebinding_reaches_every_module_binding_and_is_undone(tmp_path):
    originals = [
        getattr(sys.modules[f"periodicwalk.{layer}"], name)
        for layer, names in LAYER_FUNCTIONS.items()
        for name in names
    ]
    before = _bindings(originals)
    # Names imported into other modules must be among the bindings.
    assert {
        ("periodicwalk", "evolve"),
        ("periodicwalk.core", "evolve"),
        ("periodicwalk.experiments", "evolve"),
        ("periodicwalk.cli", "evolve"),
        ("periodicwalk.experiments", "step"),
        ("periodicwalk.cli", "check_q1_closed_form"),
        ("periodicwalk.cli", "main"),
    } <= before

    tracer = Tracer(package_modules())
    with tracer.active():
        assert _bindings(originals) == set()
        tracer.call = 7
        status = periodicwalk.cli.main(["check-q1", "--theta-pi", "0.25:0.5:3", "--steps", "100", "--out", str(tmp_path / "q1.csv")])
    assert status == 0
    assert _bindings(originals) == before

    names = [span.name for span in tracer.spans]
    assert names.count("cli.main") == 1
    assert names.count("experiments.check_q1_closed_form") == 1
    assert names.count("core.evolve") == 3
    assert names.count("observables.moments") == 3
    by_index = dict(enumerate(tracer.spans))
    for span in tracer.spans:
        assert span.call == 7
        if span.name == "core.evolve":
            assert by_index[span.parent].name == "experiments.check_q1_closed_form"
            assert span.nbytes == 201 * 2 * 16


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeded_inputs_are_reproducible_and_keep_the_work(name):
    workload = WORKLOADS[name]
    assert workload.cli_args(5) == workload.cli_args(5)
    assert len({tuple(workload.cli_args(seed)) for seed in range(1, 6)}) > 1
    for seed in (CANONICAL_SEED, 5):
        config = periodicwalk.cli.parse_args(workload.cli_args(seed))
        assert config.command == workload.command
        steps = config.steps if isinstance(config.steps, int) else max(config.steps)
        assert steps == workload.n_steps
        if workload.command == "check-q1":
            assert len(config.theta) == workload.walks


def test_result_metrics_are_the_ones_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
