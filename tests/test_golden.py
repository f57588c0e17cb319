"""Every command's CSV bytes and ``--help`` text against committed golden files.

The golden CSVs were written by the seed's einsum kernel.  Any change to
the kernel, the sweeps or the CSV writer that moves a single output byte
fails here.  The help texts pin what the command table generates: flags,
metavars, defaults and help lines, at an 80-column terminal.  They hold
byte for byte under Python 3.10.13, 3.11.7 and 3.12.1.  From 3.13 argparse
lays out two of them differently, so ``golden/py313/`` keeps their 3.13.0
bytes, and the other four hold there unchanged.  The 3.10, 3.12 and 3.13
texts were rendered by running ``python -m periodicwalk <command> --help``
under each interpreter with a stand-in ``numpy`` module that provides only
``linspace``, all the parser needs to print its help; the same stand-in
reproduces the earlier goldens byte for byte.

Every step form gives the same bytes, so no byte test sees a walk that
takes the wrong one; only its speed would show it.  So the step forms that
``core._step_forms`` gives each walk are held here too, for every golden
command and for the seed-0 arguments of the benchmark's three workloads.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import periodicwalk.core as core
from periodicwalk.cli import EXIT_OK, main, parse_args

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "simulate": ["simulate", "--q", "4", "--theta-pi", "0.16666666666666666", "--steps", "100"],
    "sweep-steps": ["sweep-steps", "--q", "2", "--theta-pi", "0.3333333333333333", "--steps", "1:100"],
    "sweep-theta": ["sweep-theta", "--q", "3", "--theta-pi=-2:2:33", "--steps", "100"],
    "sweep-period": ["sweep-period", "--theta", "1.0472", "--q", "1:10", "--steps", "100"],
    "check-q1": ["check-q1", "--steps", "100"],
}


@pytest.mark.parametrize("command", sorted(CASES))
def test_csv_bytes_match_golden(command, tmp_path):
    out = tmp_path / f"{command}.csv"
    assert main(CASES[command] + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / f"{command}.csv").read_bytes()


@pytest.mark.parametrize("name", ["periodicwalk", *sorted(CASES)])
def test_help_text_matches_golden(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if name == "periodicwalk" else [name, "--help"]
    with pytest.raises(SystemExit) as exit_info:
        parse_args(argv)
    assert exit_info.value.code == 0
    golden = GOLDEN / f"{name}.help.txt"
    if sys.version_info >= (3, 13) and (GOLDEN / "py313" / golden.name).exists():
        golden = GOLDEN / "py313" / golden.name
    assert capsys.readouterr().out.encode("ascii") == golden.read_bytes()


#: The step forms of each command's walks, as a count per plan: the codes of
#: ``core._step_forms``' forms, one per parity (2 Hadamard, 3 all
#: scattering, 4 mixed), and of its span forms (0 and 1 for 2 and 3), or
#: None where the walk takes none.
PLANS = {
    "simulate": {((4, 2), (4, 0)): 1},
    "sweep-steps": {((3, 2), (1, 0)): 1},
    "sweep-theta": {((4, 4), None): 33},
    "sweep-period": {((3, 3), (1, 1)): 1, ((3, 2), (1, 0)): 1, ((4, 2), (4, 0)): 4, ((4, 4), None): 4},
    "check-q1": {((3, 3), (1, 1)): 47},
}
BENCH_PLANS = {
    "q1-angle-sweep": {((3, 3), (1, 1)): 47},
    "long-walk": {((4, 2), None): 1},
    "step-sweep": {((3, 2), None): 1},
}


def _plans(argv, monkeypatch, tmp_path) -> Counter:
    """The plans of the walks ``main(argv)`` takes, counted."""
    step_forms, plans = core._step_forms, []

    def record(*args):
        forms, span_forms = step_forms(*args)
        codes = None if span_forms is None else tuple(form for form, _, _ in span_forms)
        plans.append((tuple(form for form, _, _ in forms), codes))
        return forms, span_forms

    monkeypatch.setattr(core, "_step_forms", record)
    assert main([*argv, "--out", str(tmp_path / "plan.csv")]) == EXIT_OK
    return Counter(plans)


@pytest.mark.parametrize("command", sorted(CASES))
def test_golden_commands_take_their_step_forms(command, monkeypatch, tmp_path):
    assert _plans(CASES[command], monkeypatch, tmp_path) == PLANS[command]


@pytest.mark.parametrize("name", sorted(BENCH_PLANS))
def test_bench_workloads_take_their_step_forms(name, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import CANONICAL_SEED, WORKLOADS

    argv = WORKLOADS[name].cli_args(CANONICAL_SEED)
    assert _plans(argv, monkeypatch, tmp_path) == BENCH_PLANS[name]
