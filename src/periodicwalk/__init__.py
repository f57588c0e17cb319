"""Discrete-time coined walks on a line with periodically placed scattering sites.

The package splits into a dense state-vector kernel (`core`), an
independent branch-expansion reference (`oracle`), position statistics
(`observables`), parameter sweeps with fit helpers (`experiments`) and a
deterministic CSV-producing command line (`cli`).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    NORM_DRIFT_TOL,
    CapacityError,
    CoinDirection,
    DOWN,
    NormDriftError,
    PotentialProfile,
    UP,
    WalkState,
    check_norm,
    evolve,
    hadamard_coin,
    initial_state,
    is_scattering_site,
    point_state,
    scattering_coin,
    step,
)
from .observables import Distribution, Moments, distribution, moments, q1_law, q2_law, symmetry_residual
from .oracle import MAX_ORACLE_STEPS, path_sum_evolve

__all__ = [
    "__version__",
    "NORM_DRIFT_TOL",
    "MAX_ORACLE_STEPS",
    "CapacityError",
    "CoinDirection",
    "DOWN",
    "Distribution",
    "Moments",
    "NormDriftError",
    "PotentialProfile",
    "UP",
    "WalkState",
    "check_norm",
    "distribution",
    "evolve",
    "hadamard_coin",
    "initial_state",
    "is_scattering_site",
    "moments",
    "path_sum_evolve",
    "point_state",
    "q1_law",
    "q2_law",
    "scattering_coin",
    "step",
    "symmetry_residual",
]
