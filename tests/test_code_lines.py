"""The source-size script's counts, held to a synthetic module of known size."""

import subprocess
import sys
from pathlib import Path

import code_lines

#: 25 lines, of which 11 hold code: 4, 9, 12, 14, 16-19, 22, 24 and 25.
#: The module, class and function docstrings, one of them on two lines and
#: one in single quotes, are left out; the string on lines 16-17 is not a
#: docstring, so both its lines count, as do both lines of the bracketed
#: expression on 18-19 and the line with code before its comment.
MODULE = '''"""Module docstring,
over two lines."""

import math  # a comment after code

# a comment line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return (self.size
                * math.pi)


async def wait():
    "One-line docstring."
    x = "not a docstring"
    return x
'''


def test_count_leaves_out_blank_lines_comments_and_docstrings():
    assert code_lines.count(MODULE) == (25, 11)


def test_a_module_of_only_a_docstring_has_no_code_lines():
    assert code_lines.count('"""Only a docstring."""\n') == (1, 0)


def test_main_prints_each_module_then_the_totals(tmp_path, capsys):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main(tmp_path) == (28, 12)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["lines", "code", "module"],
        ["3", "1", "a.py"],
        ["25", "11", "b.py"],
        ["28", "12", "total"],
    ]


def test_the_script_counts_the_package_sources():
    proc = subprocess.run(
        [sys.executable, str(Path(code_lines.__file__))], capture_output=True, text=True, check=True
    )
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    names = [row[2] for row in rows]
    assert names[-1] == "total" and "core.py" in names and "cli.py" in names
    assert [sum(int(row[i]) for row in rows[:-1]) for i in (0, 1)] == [int(rows[-1][0]), int(rows[-1][1])]
