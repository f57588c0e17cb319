"""Discrete-time coined walks on a line with periodically placed scattering sites.

The package splits into a dense state-vector kernel (`core`), an
independent branch-expansion reference (`oracle`), position statistics
(`observables`), parameter sweeps with fit helpers (`experiments`) and a
deterministic CSV-producing command line (`cli`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import core, observables, oracle
from .core import *  # noqa: F403
from .observables import *  # noqa: F403
from .oracle import *  # noqa: F403

__all__ = ["__version__", *core.__all__, *observables.__all__, *oracle.__all__]
