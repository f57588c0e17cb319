"""The README's Python example and command-line examples run as documented."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from periodicwalk.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_example_prints_sigma():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # the example's one line of output: the standard deviation of a 100-step walk
    assert 0.0 < float(out.getvalue()) < 100.0


def test_readme_command_line_examples_exit_zero(tmp_path, monkeypatch):
    # The block after "Examples:"; commands without --out write to the
    # working directory, so they run in a fresh one.
    block = re.search(r"^Examples:\n\n```\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    commands = [shlex.split(line) for line in block.group(1).splitlines()]
    assert len(commands) == 4
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "periodicwalk"
        assert main(argv[1:]) == 0, argv
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == ["check-q1.csv", "dist.csv", "growth.csv", "sweep-period.csv"]
