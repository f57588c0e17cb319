"""Command line: parsing, file outputs, manifests, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import periodicwalk.cli as cli
import periodicwalk.core as core
import periodicwalk.experiments as experiments
from periodicwalk import PotentialProfile, distribution, evolve, initial_state
from periodicwalk.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_STEPS,
    RunConfig,
    UsageError,
    _COMMANDS,
    _write_csv,
    main,
    parse_args,
    run,
)


def read_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().strip().split("\n")]


def test_parse_simulate():
    config = parse_args(["simulate", "--q", "4", "--theta", "0.5236", "--steps", "100", "--out", "dist.csv"])
    assert config.command == "simulate"
    assert config.q == 4
    assert config.theta == 0.5236
    assert config.steps == 100
    assert config.out == Path("dist.csv")


def test_parse_sweep_period_range_and_default_out():
    config = parse_args(["sweep-period", "--theta", "1.0472", "--q", "1:10", "--steps", "200"])
    assert config.command == "sweep-period"
    assert config.q == tuple(range(1, 11))
    assert config.theta == 1.0472
    assert config.steps == 200
    assert config.out == Path("sweep-period.csv")


def test_parse_defaults():
    config = parse_args(["simulate", "--q", "3", "--theta", "1.0"])
    assert config.steps == 200
    assert config.out == Path("simulate.csv")
    assert parse_args(["simulate", "--q", "3", "--theta", "1.0", "--out="]).out == Path("simulate.csv")
    assert parse_args(["check-q1", "--out", ""]).out == Path("check-q1.csv")
    config = parse_args(["sweep-period", "--theta", "1.0"])
    assert config.q == tuple(range(1, 11))


def test_parse_theta_pi_scaling():
    config = parse_args(["simulate", "--q", "1", "--theta-pi", "0.25"])
    assert abs(config.theta - math.pi / 4) < 1e-15


def test_parse_theta_grid():
    config = parse_args(["sweep-theta", "--q", "2", "--theta", "0:1:5"])
    assert config.theta == (0.0, 0.25, 0.5, 0.75, 1.0)
    config = parse_args(["sweep-theta", "--q", "2", "--theta-pi", "0:2:49"])
    assert len(config.theta) == 49
    assert abs(config.theta[-1] - 2 * math.pi) < 1e-12


def test_parse_theta_default_grids():
    config = parse_args(["sweep-theta", "--q", "2"])
    assert len(config.theta) == 49
    assert config.theta[0] == 0.0
    config = parse_args(["check-q1"])
    assert len(config.theta) == 47
    assert abs(config.theta[0] - math.pi / 24) < 1e-12


def test_parse_steps_list_forms():
    assert parse_args(["sweep-steps", "--q", "1", "--theta", "1", "--steps", "10"]).steps == (10,)
    assert parse_args(["sweep-steps", "--q", "1", "--theta", "1", "--steps", "10,20,30"]).steps == (10, 20, 30)
    assert parse_args(["sweep-steps", "--q", "1", "--theta", "1", "--steps", "50:54"]).steps == (50, 51, 52, 53, 54)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--q", "0", "--theta", "1"],
        ["simulate", "--theta", "1"],
        ["simulate", "--q", "4"],
        ["simulate", "--q", "4", "--theta", "1", "--theta-pi", "1"],
        ["simulate", "--q", "4", "--theta", "abc"],
        ["simulate", "--q", "4", "--theta", "1", "--steps", "-3"],
        ["simulate", "--q", "4", "--theta", "1:2"],
        ["simulate", "--q", "4", "--theta", "1", "--frobnicate"],
        ["sweep-steps", "--q", "1", "--theta", "1"],
        ["sweep-steps", "--q", "1", "--theta", "1", "--steps", "0"],
        ["sweep-steps", "--q", "1", "--theta", "1", "--steps", "9:5"],
        ["sweep-theta", "--q", "2", "--theta", "0:1:1"],
        ["sweep-theta", "--q", "2", "--theta", "0:1:2:3"],
        ["check-q1", "--steps", "50"],
        ["frobnicate"],
        [],
    ],
)
def test_parse_usage_errors(argv):
    with pytest.raises(UsageError):
        parse_args(argv)
    assert main(argv) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--q", "1", "--theta", "1", "--steps", "1000000000000"],
        ["simulate", "--q", "1", "--theta", "1", "--steps", str(MAX_STEPS + 1)],
        ["sweep-steps", "--q", "1", "--theta", "1", "--steps", "1:1000000000000"],
        ["sweep-steps", "--q", "1", "--theta", "1", "--steps", f"5,{MAX_STEPS + 1}"],
        ["sweep-theta", "--q", "2", "--steps", str(MAX_STEPS + 1)],
        ["sweep-theta", "--q", "2", "--theta", "0:1:1000000000000"],
        ["sweep-theta", "--q", "2", "--theta-pi", f"0:1:{MAX_STEPS + 1}"],
        ["sweep-period", "--theta", "1", "--q", "1:1000000000000"],
        ["sweep-period", "--theta", "1", "--steps", str(MAX_STEPS + 1)],
        ["check-q1", "--steps", str(MAX_STEPS + 1)],
        ["simulate", "--q", "100000000000000000000000", "--theta-pi", "0.25", "--steps", "10"],
        ["simulate", "--q", str(MAX_STEPS + 1), "--theta", "1"],
        ["sweep-steps", "--q", str(MAX_STEPS + 1), "--theta", "1", "--steps", "5"],
        ["sweep-theta", "--q", str(MAX_STEPS + 1), "--theta", "1"],
        ["sweep-period", "--theta", "1", "--q", f"1,{MAX_STEPS + 1}"],
        ["simulate", "--q", "2", "--theta-pi", "1e308"],
        ["sweep-steps", "--q", "2", "--theta-pi", "1e308", "--steps", "5"],
        ["sweep-theta", "--q", "2", "--theta-pi", "1e308"],
        ["sweep-theta", "--q", "2", "--theta-pi", "0:1e308:3"],
        ["sweep-theta", "--q", "2", "--theta=-1e308:1e308:3"],
        ["sweep-period", "--theta-pi", "1e308", "--q", "1:3"],
        ["check-q1", "--theta-pi", "1e308"],
    ],
)
def test_oversized_inputs_are_usage_errors(argv, tmp_path, capsys):
    # rejected while parsing: nothing is allocated and no file is written
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("periodicwalk: usage error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["simulate", "--q", "x", "--theta", "1"], "--q: expected an integer, got 'x'"),
        (["simulate", "--q", "0", "--theta", "1"], "--q: must be >= 1, got 0"),
        (["simulate", "--q", str(MAX_STEPS + 1), "--theta", "1"], f"--q: must be <= {MAX_STEPS}, got {MAX_STEPS + 1}"),
        (["sweep-period", "--theta", "1", "--q", "1:2:3"], "--q: ranges take the form LO:HI, got '1:2:3'"),
        (["sweep-period", "--theta", "1", "--q", "1,,3"], "--q: expected an integer, got ''"),
        (["simulate", "--q", "1", "--theta", "1", "--steps", "-3"], "--steps: must be >= 0, got -3"),
        (["check-q1", "--steps", "50"], "--steps: must be >= 100, got 50"),
        (["sweep-steps", "--q", "1", "--theta", "1", "--steps", "9:5"], "--steps: range end 5 is below start 9"),
        (
            ["sweep-steps", "--q", "1", "--theta", "1", "--steps", "1:1000000000000"],
            f"--steps: must be <= {MAX_STEPS}, got 1000000000000",
        ),
        (["simulate", "--q", "4", "--theta", "abc"], "--theta: expected a number, got 'abc'"),
        (["simulate", "--q", "4", "--theta", ""], "--theta: expected a number, got ''"),
        (["simulate", "--q", "4", "--theta", "inf"], "--theta: must be finite, got 'inf'"),
        (["simulate", "--q", "4", "--theta-pi", "nan"], "--theta-pi: must be finite, got 'nan'"),
        (["simulate", "--q", "4", "--theta-pi", "1e308"], "--theta-pi: angle 1e+308 is not finite in radians"),
        (["simulate", "--q", "4", "--theta", "1:2"], "--theta: this command takes a single angle, not a grid"),
        (["sweep-theta", "--q", "2", "--theta", "0:1:2:3"], "--theta: grids take the form START:STOP:COUNT, got '0:1:2:3'"),
        (["sweep-theta", "--q", "2", "--theta", "0:x:3"], "--theta: expected a number, got 'x'"),
        (["sweep-theta", "--q", "2", "--theta", "0:1:1"], "--theta: must be >= 2, got 1"),
        (
            ["sweep-theta", "--q", "2", "--theta-pi", f"0:1:{MAX_STEPS + 1}"],
            f"--theta-pi: must be <= {MAX_STEPS}, got {MAX_STEPS + 1}",
        ),
        (
            ["sweep-theta", "--q", "2", "--theta=-1e308:1e308:3"],
            "--theta: grid -1e+308:1e+308 spans more than a float can hold",
        ),
        (["sweep-theta", "--q", "2", "--theta-pi", "0:1e308:3"], "--theta-pi: angle 1e+308 is not finite in radians"),
        (["simulate", "--q", "4"], "one of the arguments --theta --theta-pi is required"),
        (["sweep-period", "--steps", "10"], "one of the arguments --theta --theta-pi is required"),
        # Two errors: each flag is converted as argparse reads it, so the
        # first bad value in argv order is reported, before the exclusion.
        (["simulate", "--q", "0", "--theta", "1", "--theta-pi", "1"], "--q: must be >= 1, got 0"),
        # A repeated flag is checked every time it appears, even where a
        # later value would replace it.
        (["simulate", "--q", "0", "--q", "3", "--theta", "1"], "--q: must be >= 1, got 0"),
    ],
)
def test_usage_error_messages(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"periodicwalk: usage error: {message}\n"


def _parses(argv) -> bool:
    try:
        parse_args(argv)
    except UsageError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_help_states_the_angle_rules_the_parser_applies(name, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        parse_args([name, "--help"])
    help = capsys.readouterr().out
    argv = [name, *(["--q", "5"] if _COMMANDS[name].q else []), "--steps", "100"]
    assert ("START:STOP:COUNT" in help) == _parses(argv + ["--theta", "0:1:3"])
    assert ("(--theta T | --theta-pi T)" in help) == (not _parses(argv))
    assert _parses(argv + ["--theta-pi", "0.25"])


def test_parser_is_reused_across_calls_and_after_a_usage_error():
    # The parser tree is built once per process; a parse that fails midway
    # must leave nothing behind for the next one.
    with pytest.raises(UsageError):
        parse_args(["simulate", "--q", "4", "--theta", "1", "--theta-pi", "1"])
    config = parse_args(["simulate", "--q", "4", "--theta-pi", "0.25"])
    assert (config.q, config.steps, config.out) == (4, 200, Path("simulate.csv"))
    assert abs(config.theta - math.pi / 4) < 1e-15
    config = parse_args(["sweep-period", "--theta", "1.0"])
    assert (config.q, config.theta, config.steps) == (tuple(range(1, 11)), 1.0, 200)


def test_run_simulate_outputs(tmp_path):
    out = tmp_path / "dist.csv"
    code = main(["simulate", "--q", "4", "--theta-pi", "0.16666666666666666", "--steps", "100", "--out", str(out)])
    assert code == EXIT_OK

    rows = read_rows(out)
    assert rows[0] == ["position", "probability"]
    assert len(rows) == 1 + 201
    positions = [int(r[0]) for r in rows[1:]]
    assert positions == list(range(-100, 101))
    probs = [float(r[1]) for r in rows[1:]]
    assert abs(sum(probs) - 1.0) < 1e-12

    manifest = json.loads((tmp_path / "dist.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["q"] == 4
    assert manifest["config"]["steps"] == 100
    assert manifest["rows"] == 201
    assert manifest["elapsed_seconds"] >= 0.0
    assert "norm_drift_tol" in manifest["thresholds"]
    assert "q1_law_residual_ceiling" in manifest["thresholds"]
    assert manifest["tool"]["name"] == "periodicwalk"
    assert manifest["numpy_version"] == np.__version__
    assert manifest["csv_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_run_sweep_steps_ballistic_row(tmp_path):
    out = tmp_path / "s.csv"
    code = main(["sweep-steps", "--q", "1", "--theta-pi", "0.5", "--steps", "10", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert rows[0] == ["n", "sigma"]
    assert len(rows) == 2
    assert rows[1][0] == "10"
    assert abs(float(rows[1][1]) - 10.0) < 1e-10


def test_run_sweep_theta_outputs(tmp_path):
    out = tmp_path / "t.csv"
    code = main(["sweep-theta", "--q", "2", "--theta", "0.4:1.2:3", "--steps", "50", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert rows[0] == ["theta", "sigma"]
    assert [float(r[0]) for r in rows[1:]] == [0.4, 0.8, 1.2]


def test_run_sweep_period_outputs(tmp_path):
    out = tmp_path / "p.csv"
    code = main(["sweep-period", "--q", "2:5", "--theta", "1.0472", "--steps", "50", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert rows[0] == ["q", "inv_q", "sigma"]
    assert [int(r[0]) for r in rows[1:]] == [2, 3, 4, 5]
    for r in rows[1:]:
        assert abs(float(r[1]) - 1.0 / int(r[0])) < 1e-15


def test_run_check_q1_outputs(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["check-q1", "--theta-pi", "0.5", "--steps", "100", "--out", str(out)])
    assert code == EXIT_OK
    rows = read_rows(out)
    assert rows[0] == ["theta", "sigma2_over_N2", "law", "residual"]
    assert len(rows) == 2
    assert float(rows[1][3]) < 1e-12

    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["config"]["q"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--q", "3", "--theta", "0.9", "--steps", "20"],
        ["sweep-steps", "--q", "2", "--theta", "0.9", "--steps", "1:5"],
        ["sweep-theta", "--q", "2", "--theta", "0.4:1.2:3", "--steps", "20"],
        ["sweep-period", "--q", "1:3", "--theta", "0.9", "--steps", "20"],
        ["check-q1", "--theta", "0.9", "--steps", "100"],
    ],
)
def test_manifest_records_the_inputs_once(argv, tmp_path):
    out = tmp_path / "m.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert set(manifest) == {
        "tool", "command", "config", "thresholds", "rows", "csv_sha256", "numpy_version", "elapsed_seconds"
    }
    assert manifest["command"] == argv[0]
    assert set(manifest["config"]) == {"q", "theta", "steps", "out"}
    assert manifest["csv_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_manifest_records_every_frozen_threshold(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--q", "2", "--theta", "0.9", "--steps", "4", "--out", str(out)]) == EXIT_OK
    thresholds = json.loads((tmp_path / "t.csv.manifest.json").read_text())["thresholds"]
    frozen = [name for name in experiments.__all__ if name.endswith(("_CEILING", "_MIN"))]
    assert frozen
    for name in frozen:
        assert thresholds[name.lower()] == getattr(experiments, name)
    assert thresholds["norm_drift_tol"] == core.NORM_DRIFT_TOL


def _cell_text(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _csv_text(header, rows) -> bytes:
    return ("\n".join([",".join(header)] + [",".join(_cell_text(v) for v in row) for row in rows]) + "\n").encode("ascii")


@pytest.mark.parametrize(
    "rows",
    [
        [(0, -0.0), (1, 5e-324), (-2, 2.2250738585072014e-308), (3, 0.1), (4, 1 / 3), (5, 1e300)],
        [(np.int64(-7), np.float64(1 / 3)), (np.int64(8), np.float64(-0.0))],
        [(12345678901234567890, 0.5)],
        [(2, 0.5, 0.25), (3, 1 / 3, 1e-300)],
        [(0.25, 1e300, -0.0, 5e-324)],
        [(-1, "0.33333333333333331", 0.5), (0, "1e-300", -0.0)],
    ],
)
def test_csv_text_matches_per_cell_formatting(rows, tmp_path):
    # one %-format per row writes what str(int(v)) and format(v, ".17g")
    # write per cell, and a str cell as it is given
    header = [f"c{i}" for i in range(len(rows[0]))]
    path = tmp_path / "t.csv"
    digest, count = _write_csv(path, header, rows)
    expected = _csv_text(header, rows)
    assert path.read_bytes() == expected
    assert (digest, count) == (hashlib.sha256(expected).hexdigest(), len(rows))


_C = cli._CSV_CHUNK_ROWS


@pytest.mark.parametrize("n", [0, 1, _C - 1, _C, _C + 1, 2 * _C + 1], ids=["0", "1", "C-1", "C", "C+1", "2C+1"])
def test_csv_chunks_write_the_text_of_one_format_per_row(n, tmp_path):
    # rows from a generator, on each side of the chunk edges: the bytes,
    # digest and count of the text written in one piece
    rows = [(i - n // 2, math.sqrt(i) / 7) for i in range(n)]
    path = tmp_path / "t.csv"
    digest, count = _write_csv(path, ("k", "v"), (row for row in rows))
    expected = _csv_text(("k", "v"), rows)
    assert path.read_bytes() == expected
    assert (digest, count) == (hashlib.sha256(expected).hexdigest(), n)


def test_csv_without_rows_is_the_header_alone(tmp_path):
    path = tmp_path / "t.csv"
    assert _write_csv(path, ["a", "b"], []) == (hashlib.sha256(b"a,b\n").hexdigest(), 0)
    assert path.read_bytes() == b"a,b\n"


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 6, -2.5], ids=["0", "pi/4", "pi/6", "-2.5"])
@pytest.mark.parametrize("q", [1, 2, 4, 7])
def test_simulate_writes_the_rows_of_the_full_walk(q, theta, tmp_path):
    # the right half, written from the left half's strings, has the bytes of
    # P(x) read off the full light cone
    out = tmp_path / "s.csv"
    for n in (0, 1, 2, 3, 7, 100):
        assert main(["simulate", "--q", str(q), "--theta", repr(theta), "--steps", str(n), "--out", str(out)]) == EXIT_OK
        p = distribution(evolve(initial_state(), PotentialProfile(q, theta), n))
        expected = "".join("%d,%.17g\n" % row for row in zip(range(-n, n + 1), p.tolist()))
        assert out.read_bytes() == ("position,probability\n" + expected).encode("ascii"), n


def test_simulate_holds_one_chunk_of_text_at_a_time(tmp_path):
    # The arrays _distributions allocates, the strings of the half line and
    # one chunk of rows, formatted and encoded.  Holding the whole table as
    # tuples, lines and text peaks near 1.7 MB, over the bound.
    n, site, real = 4000, 16, 8
    columns = n // 2 + 2
    walk = (
        (1 + 2) * 2 * columns * site  # one ring row and two spare row pairs
        + (n // 2 + 1) * site  # its scratch row
        + 2 * 2 * columns * real  # one row of squares
        + columns * real  # one row of P over x <= 0
        + 2 * (2 * n + 1) * real  # the two parity planes of P
    )
    half_line = (n + 1) * (80 + 8)  # a 24-character str and its list slot
    chunk = _C * (64 + 32 + 8 + 96 + 8 + 2 * 32)  # row tuple, position, slot, line, its slot, text and bytes
    allowed = walk + half_line + chunk + 64 * 1024
    args = ["simulate", "--q", "4", "--theta-pi", "0.16666666666666666", "--out", str(tmp_path / "s.csv")]
    assert main(args + ["--steps", "0"]) == EXIT_OK  # the parser and hashlib, once per process
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        status = main(args + ["--steps", str(n)])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert status == EXIT_OK
    assert peak <= allowed, (peak, allowed)


def test_cli_runs_are_byte_identical(tmp_path):
    args = ["simulate", "--q", "3", "--theta", "0.9", "--steps", "60"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().endswith(b"\n")
    assert b"\r" not in out_a.read_bytes()


def test_exit_code_io_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["simulate", "--q", "1", "--theta", "1", "--steps", "5", "--out", str(out)])
    assert code == EXIT_IO


@pytest.mark.parametrize("blocked", ["x.csv.manifest.json", "x.csv"])
def test_failed_manifest_write_leaves_no_csv(tmp_path, capsys, blocked):
    # a directory stands at one target, so that file cannot be moved into
    # place; the other file must not be left behind either
    out = tmp_path / "x.csv"
    (tmp_path / blocked).mkdir()
    code = main(["simulate", "--q", "1", "--theta", "1", "--steps", "5", "--out", str(out)])
    assert code == EXIT_IO
    assert capsys.readouterr().err.startswith("periodicwalk: i/o error: ")
    assert [path.name for path in tmp_path.iterdir()] == [blocked]


def test_a_csv_write_that_fails_after_its_first_chunk_leaves_no_file(tmp_path, monkeypatch, capsys):
    # The header and the first chunk are in the temporary when the next
    # write fails, as on a full disk: the temporary goes, and no file is made.
    writes = []

    class FullAfterFirstChunk:
        def __init__(self, path, mode):
            self.file = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def write(self, data):
            if len(writes) == 2:
                raise OSError(28, "No space left on device")
            writes.append(len(data))
            return self.file.write(data)

    monkeypatch.setattr(cli, "open", FullAfterFirstChunk, raising=False)
    steps = _C  # 2C + 1 rows: two chunks and one row
    code = main(["simulate", "--q", "1", "--theta", "1", "--steps", str(steps), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_IO
    assert capsys.readouterr().err == "periodicwalk: i/o error: [Errno 28] No space left on device\n"
    assert writes[0] == len(b"position,probability\n") and writes[1] > _C
    assert list(tmp_path.iterdir()) == []


def test_a_write_that_raises_anything_else_leaves_no_file(tmp_path, monkeypatch):
    # The CSV temporary is already written when the manifest write raises;
    # it goes too, and the error is raised as it came, not as exit status 2.
    def fail(*args, **kwargs):
        raise TypeError("not JSON serializable")

    monkeypatch.setattr(cli, "_write_manifest", fail)
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(["simulate", "--q", "1", "--theta", "1", "--steps", "5", "--out", str(tmp_path / "x.csv")])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--q", "1", "--theta", "1", "--steps", "5"],
        pytest.param(["simulate", "--q", "1", "--theta", "1", "--steps", "0"], id="simulate-zero-steps"),
        ["sweep-steps", "--q", "1", "--theta", "1", "--steps", "1:5"],
        ["sweep-theta", "--q", "2", "--theta", "0.5:1:3", "--steps", "5"],
        ["sweep-period", "--theta", "1", "--q", "1:3", "--steps", "5"],
        ["check-q1", "--theta-pi", "0.25:0.5:3", "--steps", "100"],
    ],
    ids=lambda args: args[0],
)
def test_exit_code_invariant_violation(tmp_path, monkeypatch, args):
    # force the norm gate shut so any evolution trips it
    monkeypatch.setattr(core, "NORM_DRIFT_TOL", -1.0)
    out = tmp_path / "x.csv"
    code = main([*args, "--out", str(out)])
    assert code == EXIT_INVARIANT
    assert not out.exists()


def test_simulate_of_zero_steps_writes_the_initial_distribution(tmp_path):
    out = tmp_path / "zero.csv"
    assert main(["simulate", "--q", "4", "--theta", "0.5", "--steps", "0", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == "position,probability\n0,%.17g\n" % distribution(initial_state())[0]


def test_run_accepts_handmade_config(tmp_path):
    config = RunConfig(
        command="simulate",
        q=2,
        theta=math.pi / 3,
        steps=20,
        out=tmp_path / "hand.csv",
    )
    assert run(config) == EXIT_OK
    assert (tmp_path / "hand.csv").exists()


def test_module_entry_point(tmp_path):
    # the child interpreter imports the same package as this one, installed or not
    src = str(Path(core.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "periodicwalk", "simulate", "--q", "2", "--theta", "1.0", "--steps", "10", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()

    proc = subprocess.run(
        [sys.executable, "-m", "periodicwalk", "simulate", "--q", "0", "--theta", "1.0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "usage error" in proc.stderr
