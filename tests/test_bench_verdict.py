"""The CI step's reading of the benchmark verdict from ``bench/run.py``'s last line."""

import subprocess
import sys
from pathlib import Path

import pytest

import bench_verdict

REPORT = "# record {}\nlong-walk wall_ref_p50 4.6 ref\n"


@pytest.mark.parametrize(
    ("last_line", "status"),
    [
        ('{"correct": true, "attempted": 12, "failed": 0}', 0),
        ('{"correct": false, "attempted": 12, "failed": 1}', 1),
        ('{"correct": "true"}', 1),
        ('{"attempted": 12}', 1),
        ('[{"correct": true}]', 1),
        ('{"correct": true', 1),
        ("Traceback (most recent call last):", 1),
    ],
    ids=["passing", "failing", "string-true", "no-verdict", "not-an-object", "truncated", "not-json"],
)
def test_the_verdict_is_the_last_lines_correct_field(last_line, status):
    text = REPORT + last_line + "\n"
    assert bench_verdict.passed(text) == (status == 0)
    proc = subprocess.run(
        [sys.executable, str(Path(bench_verdict.__file__))], input=text, capture_output=True, text=True
    )
    assert proc.returncode == status, proc.stderr


def test_a_passing_line_before_the_last_does_not_count():
    assert not bench_verdict.passed('{"correct": true}\nbench: workload crashed\n')
    assert not bench_verdict.passed("")
