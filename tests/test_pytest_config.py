"""The suite's own pytest settings let a failing property report its example."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

FAILING_PROPERTY = textwrap.dedent(
    """
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None)
    @given(st.integers(min_value=0, max_value=10))
    def test_fails(x):
        assert x < 5
    """
)


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # filterwarnings = ["error"] made the DeprecationWarning that hypothesis
    # sets off while it writes the report (from mypy_extensions.TypedDict)
    # an error, so pytest stopped with INTERNALERROR instead of the example.
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "INTERNALERROR" not in output, output
