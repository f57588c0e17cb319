"""The README's Python example runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_example_prints_sigma():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # the example's one line of output: the standard deviation of a 100-step walk
    assert 0.0 < float(out.getvalue()) < 100.0
