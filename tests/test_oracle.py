"""Branch-expansion oracle: self-consistency and agreement with the kernel."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import periodicwalk.core as core
from periodicwalk import (
    DOWN,
    UP,
    PotentialProfile,
    WalkState,
    evolve,
    initial_state,
    point_state,
)
from periodicwalk.oracle import path_sum_evolve
import long_oracle_check
from walkref import SQRT_HALF, hadamard_reference, max_amp_diff


def test_zero_steps_returns_the_seed():
    state = initial_state()
    result = path_sum_evolve(state, PotentialProfile(2, 0.5), 0)
    assert result.steps_taken == 0
    assert np.array_equal(result.amplitudes, state.amplitudes)
    assert not np.shares_memory(result.amplitudes, state.amplitudes)


def test_absent_cells_read_as_zero():
    result = path_sum_evolve(initial_state(), PotentialProfile(2, 0.5), 0)
    assert result.amplitude(17, DOWN) == 0j


def test_single_step_from_scattering_origin():
    result = path_sum_evolve(point_state(0, DOWN), PotentialProfile(1, math.pi / 6), 1)
    assert result.steps_taken == 1
    assert np.count_nonzero(result.amplitudes) == 2
    assert abs(result.amplitude(-1, DOWN) - math.sin(math.pi / 6)) < 1e-15
    assert abs(result.amplitude(1, UP) - math.cos(math.pi / 6)) < 1e-15


def test_edge_rows_land_in_the_edge_rows_of_the_result():
    # x = -3 and x = 3 fill the first and last rows of a 7-row table.  One
    # step sends the DOWN branch of x = -3 to x = -4 and the UP branch of
    # x = 3 to x = 4, the first and last rows of the 9-row result; a wrong
    # origin offset would send one of them off the table or wrap it round.
    amps = np.zeros((7, 2), dtype=np.complex128)
    amps[0, DOWN] = 0.6
    amps[-1, UP] = 0.8
    result = path_sum_evolve(WalkState(amps), PotentialProfile(2, 0.5), 1)
    assert result.amplitudes.shape == (9, 2)
    assert result.amplitudes[0, DOWN] == 0.6 * SQRT_HALF
    assert result.amplitudes[-1, UP] == -0.8 * SQRT_HALF
    assert abs(result.norm() - 1.0) < 1e-15


@pytest.mark.parametrize("q,theta", [(1, 0.3), (4, math.pi / 4), (3, 2.0)])
def test_norm_stays_unity(q, theta):
    result = path_sum_evolve(initial_state(), PotentialProfile(q, theta), 10)
    assert abs(result.norm() - 1.0) < 1e-10


@pytest.mark.parametrize("q", [1, 3, 4])
@pytest.mark.parametrize("theta", [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2, 7 * math.pi / 6])
@pytest.mark.parametrize("n", [1, 6, 12])
def test_agreement_with_dense_kernel(q, theta, n):
    profile = PotentialProfile(q, theta)
    initial = initial_state()
    dense = evolve(initial, profile, n)
    reference = path_sum_evolve(initial, profile, n)
    assert np.array_equal(dense.amplitudes, reference.amplitudes)


@pytest.mark.parametrize("position,direction", [(3, UP), (-2, DOWN)])
def test_agreement_from_offset_seeds(position, direction):
    profile = PotentialProfile(3, 0.7)
    initial = point_state(position, direction)
    dense = evolve(initial, profile, 8)
    reference = path_sum_evolve(initial, profile, 8)
    assert np.array_equal(dense.amplitudes, reference.amplitudes)
    assert dense.steps_taken == reference.steps_taken


def test_agreement_with_second_independent_reference():
    # q = 1 at theta = pi/4 is the plain Hadamard walk, for which the
    # test suite carries its own dict-based implementation; all three
    # codepaths must land on the same amplitudes
    n = 10
    reference = path_sum_evolve(initial_state(), PotentialProfile(1, math.pi / 4), n)
    assert max_amp_diff(reference, hadamard_reference(n)) < 1e-12


@pytest.mark.parametrize(
    "theta,q,n",
    [(theta, q, 200) for theta in (math.pi / 6, 2.0) for q in (1, 2, 3, 4, 7)]
    + [(math.pi / 6, q, 1000) for q in (1, 2, 4)],
)
def test_evolve_equals_oracle_on_long_walks(theta, q, n):
    # The hypothesis property stops at 100 steps; these walks go further, up
    # to about a second each for the oracle at 1000 steps.  Both add the same
    # two products per cell, so the amplitudes are equal, not close.
    profile = PotentialProfile(q, theta)
    start = initial_state()
    walked = evolve(start, profile, n)
    expanded = path_sum_evolve(start, profile, n)
    assert np.array_equal(walked.amplitudes, expanded.amplitudes)


def test_the_long_oracle_check_passes_at_300_steps(capsys):
    # CI runs the script at 4000 steps; 300 keeps its imports and checks alive
    # here, with every 30th sweep entry held to a fresh walk, every third one
    # to a sparse sweep, and the steps 0, 151 and 300 to fresh walks, and
    # the walks from a point start to the strided kernel.
    assert long_oracle_check.main(300)
    lines = capsys.readouterr().out.splitlines()
    inputs = len(long_oracle_check.INPUTS)
    assert len(lines) == inputs + len(long_oracle_check.POINT_INPUTS)
    assert all(line.count("equal") == 6 and "DIFFERENT" not in line for line in lines[:inputs]), lines
    assert all(line.count("equal") == 1 and "DIFFERENT" not in line for line in lines[inputs:]), lines


def test_ci_runs_the_long_oracle_check_on_the_widest_span_form_walk(monkeypatch):
    # A 4000-step walk's row pairs are too wide for the span form, so CI also
    # runs the script at the widest full cone that takes it, as _step_forms
    # decides: a walk of that many steps from initial_state() takes the span,
    # and one of a step more does not.
    workflow = (Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml").read_text()
    runs = {int(n) for n in re.findall(r"python3 tests/long_oracle_check\.py (\d+)", workflow)}
    assert len(runs) == 2 and 4000 in runs, runs
    (edge,) = runs - {4000}
    step_forms, spans = core._step_forms, []

    def record(*args):
        forms, span_forms = step_forms(*args)
        spans.append(span_forms is not None)
        return forms, span_forms

    monkeypatch.setattr(core, "_step_forms", record)
    for n in (edge, edge + 1, 4000):
        evolve(initial_state(), PotentialProfile(1, math.pi / 6), n)
    assert spans == [True, False, False]
