"""Spans around the package's public layer functions, and self times derived from them.

The tracer wraps each layer function once, from outside the package.  While
it is active, every attribute of a loaded ``periodicwalk`` module that holds
an original function holds its wrapper instead, so call sites that imported
the function by name (``from .core import evolve``) are traced as well.
Leaving the ``active()`` block puts the originals back.

Spans are kept in memory as ``Span`` tuples and written out once, at the end
of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

#: Public functions wrapped per layer.  ``oracle`` is left out: no command or
#: sweep calls it.
LAYER_FUNCTIONS = {
    "core": ("initial_state", "evolve", "step", "check_norm"),
    "observables": ("distribution", "moments"),
    "experiments": (
        "sweep_sigma_vs_steps",
        "sweep_sigma_vs_theta",
        "sweep_sigma_vs_inverse_period",
        "check_q1_closed_form",
    ),
    "cli": ("main",),
}


class Span(NamedTuple):
    """One call of a wrapped function.

    ``parent`` is the index of the enclosing span in the same list, or -1.
    ``call`` identifies the ``cli.main`` call the span belongs to.
    ``nbytes`` is ``amplitudes.nbytes`` of a returned walk state, else 0.
    """

    name: str
    start: float
    end: float
    parent: int
    call: int
    nbytes: int


def package_modules() -> list:
    """Every loaded module of the ``periodicwalk`` package, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "periodicwalk" or name.startswith("periodicwalk.")
    ]


class Tracer:
    """Records a span for each call of a wrapped layer function while active."""

    def __init__(self, modules: list) -> None:
        self.spans: list[Span | None] = []
        self.call = 0
        self._stack: list[int] = []
        by_name = {module.__name__.rpartition(".")[2]: module for module in modules}
        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fn_name in names:
                original = getattr(by_name[layer], fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn_name}", original))
        #: (module, attribute, original, wrapper) for every binding of an original.
        self.bindings = [
            (module, attr, *wrappers[id(value)])
            for module in modules
            for attr, value in vars(module).items()
            if id(value) in wrappers and value is wrappers[id(value)][0]
        ]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.call, 0)
            amplitudes = getattr(result, "amplitudes", None)
            if amplitudes is not None:
                spans[index] = spans[index]._replace(nbytes=amplitudes.nbytes)
            return result

        return traced

    @contextmanager
    def active(self) -> Iterator[None]:
        """Rebind every binding of an original to its wrapper, and restore on exit."""
        for module, attr, _original, wrapper in self.bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _wrapper in self.bindings:
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as a row of integers nanoseconds from the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name, round((s.start - t0) * 1e9), round((s.end - t0) * 1e9), s.parent, s.call, s.nbytes]
            for s in self.spans
        ]
        text = json.dumps({"fields": list(Span._fields), "spans": rows}, separators=(",", ":"))
        path.write_text(text + "\n", encoding="ascii")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def totals_per_call(spans: list[Span]) -> dict[int, dict[str, tuple[float, int, int]]]:
    """Per call id and span name: (self seconds, span count, largest nbytes)."""
    totals: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.call][span.name]
        entry[0] += own
        entry[1] += 1
        entry[2] = max(entry[2], span.nbytes)
    return {call: {name: tuple(v) for name, v in names.items()} for call, names in totals.items()}
