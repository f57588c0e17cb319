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
"""

import sys
from pathlib import Path

import pytest

from periodicwalk.cli import EXIT_OK, main, parse_args

GOLDEN = Path(__file__).parent / "golden"

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
