"""Read ``bench/run.py``'s output on stdin; exit 0 only if its last line reports correct outputs.

``run.py`` exits 0 whether or not the outputs matched their digests, so the
verdict is read from the JSON object on its last line:

    python3 bench/run.py --workload all --seconds 1 | python3 tests/bench_verdict.py

It exits 0 when that line is a JSON object whose ``correct`` is ``true``,
and 1 otherwise: a false or missing ``correct``, a last line that is not a
JSON object, or no output at all.
"""

from __future__ import annotations

import json
import sys


def passed(text: str) -> bool:
    """Whether the last line of ``text`` is a JSON object with ``"correct": true``."""
    lines = text.splitlines()
    if not lines:
        return False
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return False
    return isinstance(result, dict) and result.get("correct") is True


if __name__ == "__main__":
    sys.exit(0 if passed(sys.stdin.read()) else 1)
