"""Branch-expansion oracle: self-consistency and agreement with the kernel."""

import math

import numpy as np
import pytest

from periodicwalk import (
    DOWN,
    UP,
    MAX_ORACLE_STEPS,
    PotentialProfile,
    evolve,
    initial_state,
    point_state,
)
from periodicwalk.oracle import path_sum_evolve
from walkref import hadamard_reference, max_amp_diff


def test_zero_steps_returns_the_seed():
    state = initial_state(3)
    result = path_sum_evolve(state, PotentialProfile(2, 0.5), 0)
    assert result.n_steps == 0
    assert len(result.amplitudes) == 2
    assert result.amplitude(0, DOWN) == state.amplitude(0, DOWN)
    assert result.amplitude(0, UP) == state.amplitude(0, UP)


def test_absent_cells_read_as_zero():
    result = path_sum_evolve(initial_state(3), PotentialProfile(2, 0.5), 0)
    assert result.amplitude(17, DOWN) == 0j


def test_single_step_from_scattering_origin():
    result = path_sum_evolve(point_state(0, DOWN, 2), PotentialProfile(1, math.pi / 6), 1)
    assert set(result.amplitudes) == {(-1, DOWN), (1, UP)}
    assert abs(result.amplitude(-1, DOWN) - math.sin(math.pi / 6)) < 1e-15
    assert abs(result.amplitude(1, UP) - math.cos(math.pi / 6)) < 1e-15


def test_step_count_guard():
    state = initial_state(MAX_ORACLE_STEPS + 1)
    profile = PotentialProfile(2, 0.5)
    with pytest.raises(ValueError):
        path_sum_evolve(state, profile, MAX_ORACLE_STEPS + 1)
    with pytest.raises(ValueError):
        path_sum_evolve(state, profile, -1)
    # the cap itself is allowed
    result = path_sum_evolve(state, profile, MAX_ORACLE_STEPS)
    assert result.n_steps == MAX_ORACLE_STEPS


@pytest.mark.parametrize("q,theta", [(1, 0.3), (4, math.pi / 4), (3, 2.0)])
def test_norm_stays_unity(q, theta):
    result = path_sum_evolve(initial_state(10), PotentialProfile(q, theta), 10)
    assert abs(result.norm() - 1.0) < 1e-10


@pytest.mark.parametrize("q", [1, 3, 4])
@pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 7 * math.pi / 6])
@pytest.mark.parametrize("n", [1, 6, 12])
def test_agreement_with_dense_kernel(q, theta, n):
    profile = PotentialProfile(q, theta)
    initial = initial_state(n)
    dense = evolve(initial, profile, n)
    reference = path_sum_evolve(initial, profile, n)
    assert max_amp_diff(dense, reference.amplitudes) < 1e-10


@pytest.mark.parametrize("position,direction", [(3, UP), (-2, DOWN)])
def test_agreement_from_offset_seeds(position, direction):
    profile = PotentialProfile(3, 0.7)
    initial = point_state(position, direction, 12)
    dense = evolve(initial, profile, 8)
    reference = path_sum_evolve(initial, profile, 8)
    assert max_amp_diff(dense, reference.amplitudes) < 1e-10


def test_agreement_with_second_independent_reference():
    # q = 1 at theta = pi/4 is the plain Hadamard walk, for which the
    # test suite carries its own dict-based implementation; all three
    # codepaths must land on the same amplitudes
    n = 10
    reference = path_sum_evolve(initial_state(n), PotentialProfile(1, math.pi / 4), n)
    hadamard = hadamard_reference(n)
    keys = set(reference.amplitudes) | set(hadamard)
    worst = max(abs(reference.amplitude(x, c) - hadamard.get((x, c), 0j)) for x, c in keys)
    assert worst < 1e-12


@pytest.mark.parametrize("q", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("theta", [math.pi / 6, 2.0])
def test_evolve_equals_oracle_at_its_cap(q, theta):
    # The hypothesis property stops at 100 steps; this runs the longest walk
    # the oracle allows.  Both add the same two products per cell, so the
    # amplitudes are equal, not close.
    profile = PotentialProfile(q, theta)
    start = initial_state(MAX_ORACLE_STEPS)
    walked = evolve(start, profile, MAX_ORACLE_STEPS)
    expanded = np.zeros_like(walked.amplitudes)
    for (x, c), amplitude in path_sum_evolve(start, profile, MAX_ORACLE_STEPS).amplitudes.items():
        expanded[x + walked.origin_offset, c] = amplitude
    assert np.array_equal(walked.amplitudes, expanded)
