"""The closed-form schedule of ``solve_intervals`` on forests.

On a forest every bond sign vector is some frame, so no schedule beats
T* = max_w dist(phi_w, pi Z) / |Delta_w| and the solver reaches it without
an offset search.  The oracles are the formula itself (``least_total``),
the box search at fixed ``choose_assignments`` frames, and a mixed-integer
program over all 2^(N-1) frames and every offset in the bound.
"""

import time

import numpy as np
import pytest
import scipy.optimize

from dotgates import Dot, DotArray
from dotgates.basis import circular_distance
from dotgates.calibrate import (
    CalibrationTarget,
    InfeasibleSchedule,
    PauliAssignment,
    PulseSchedule,
    Stage,
    accumulated_bond_phases,
    bond_signs,
    choose_assignments,
    solve_intervals,
    weave_dd,
)

from conftest import least_total, make_bond
from test_offset_search import array_with_velocities, instance

KINDS = ("star", "chain", "tree")


def lattice_miss(array, target, schedule):
    """Largest distance of an active bond's phase from its target lattice."""
    active = np.abs(np.array(target.velocities)) > 1e-15
    achieved = accumulated_bond_phases(array, schedule)[active]
    return float(np.max(circular_distance(achieved, np.array(target.phases)[active], np.pi)))


def milp_total(array, target, bound):
    """Least total over every frame with dot 0's bit clear (a frame and its
    all-dot complement give the same signs) and every offset in the bound."""
    velocities = np.array(target.velocities)
    active = np.abs(velocities) > 1e-15
    signs = bond_signs(array, np.arange(1 << (array.n_dots - 1))).T[active]
    n_bonds, n_frames = signs.shape
    # Delta_w sum_f s_wf tau_f - pi m_w = phi_w, durations in units of T*
    scale = least_total(np.array(target.phases)[active], velocities[active])
    rows = np.hstack([velocities[active, None] * scale * signs, -np.pi * np.eye(n_bonds)])
    phases = np.array(target.phases)[active]
    res = scipy.optimize.milp(
        np.append(np.ones(n_frames), np.zeros(n_bonds)),
        constraints=scipy.optimize.LinearConstraint(rows, phases, phases),
        integrality=np.append(np.zeros(n_frames), np.ones(n_bonds)),
        bounds=scipy.optimize.Bounds(
            np.append(np.zeros(n_frames), np.full(n_bonds, -bound)),
            np.append(np.full(n_frames, np.inf), np.full(n_bonds, bound)),
        ),
    )
    assert res.success, res.message
    return res.fun * scale


@pytest.mark.parametrize("kind", KINDS)
def test_total_is_the_least_over_all_frames(kind):
    rng = np.random.default_rng(230 + KINDS.index(kind))
    beaten = 0
    for n_bonds in range(1, 9):
        for bound in (0, 1, 2, 4, 8):
            for flavour in ("random", "zero"):
                array, target = instance(kind, n_bonds, flavour, rng)
                schedule = solve_intervals(array, target, offset_bound=bound)
                active = np.abs(np.array(target.velocities)) > 1e-15
                least = least_total(np.array(target.phases)[active],
                                    np.array(target.velocities)[active])
                assert schedule.total_time == pytest.approx(least, rel=1e-12)
                assert lattice_miss(array, target, schedule) <= 1e-12
                assert len(schedule.stages) <= int(active.sum()) + 1
                try:
                    box = solve_intervals(array, target, choose_assignments(array), bound)
                except (InfeasibleSchedule, ValueError):
                    continue
                assert schedule.total_time <= box.total_time * (1.0 + 1e-12)
                beaten += schedule.total_time < 0.99 * box.total_time
    # the fixed frames are much slower on most instances
    assert beaten >= 15


@pytest.mark.parametrize("kind", KINDS)
def test_total_matches_a_mixed_integer_program(kind):
    rng = np.random.default_rng(240 + KINDS.index(kind))
    for n_bonds in range(1, 9):
        array, target = instance(kind, n_bonds, "random", rng)
        schedule = solve_intervals(array, target)
        assert schedule.total_time == pytest.approx(milp_total(array, target, 8), rel=1e-7)


@pytest.mark.parametrize("kind", KINDS)
def test_answer_does_not_depend_on_the_offset_bound(kind):
    rng = np.random.default_rng(250 + KINDS.index(kind))
    for n_bonds in (2, 4, 6, 8):
        array, target = instance(kind, n_bonds, "random", rng)
        want = solve_intervals(array, target, offset_bound=8)
        for bound in (0, 1, 3):
            assert solve_intervals(array, target, offset_bound=bound) == want


@pytest.mark.parametrize("kind", KINDS)
def test_sixteen_bonds_solve_fast_and_weave_within_budget(kind):
    rng = np.random.default_rng(260 + KINDS.index(kind))
    for _ in range(10):
        array, target = instance(kind, 16, "random", rng)
        started = time.perf_counter()
        schedule = solve_intervals(array, target)
        assert time.perf_counter() - started < 0.5
        assert lattice_miss(array, target, schedule) <= 1e-12
        woven = weave_dd(schedule, budget=16)
        assert lattice_miss(array, target, woven) <= 1e-12


def test_a_longest_bond_running_backwards_starts_with_a_pulse():
    # bond (0, 1) needs -0.3 / 1e-4 = -3000, bond (1, 2) only +1000: the
    # first frame flips bond (0, 1) alone, entered before any evolution
    rng = np.random.default_rng(7)
    array = array_with_velocities([(0, 1), (1, 2)], [1e-4, 2e-4], rng)
    target = CalibrationTarget.for_array(array, [np.pi - 0.3, 0.2])
    schedule = solve_intervals(array, target)
    assert schedule.stages[0] == Stage(0.0, PauliAssignment.x_on([0], 3))
    assert schedule.total_time == pytest.approx(3000.0, rel=1e-12)
    assert lattice_miss(array, target, schedule) <= 1e-12


def test_a_homogeneous_controlled_z_is_one_stage_either_way():
    # every bond sits at distance pi/2 from its lattice, a tie that the
    # solver breaks forwards, whatever the sign of the velocity
    for t_sq in (0.8, 0.2):
        bonds = [make_bond(0, k, 1e-3, t_sq) for k in (1, 2, 3)]
        array = DotArray([Dot(j, 1.0 + 0.3 * j) for j in range(4)], bonds)
        target = CalibrationTarget.for_array(array, [np.pi / 2] * 3)
        schedule = solve_intervals(array, target, offset_bound=0)
        assert schedule == PulseSchedule(4, [Stage(np.pi / 2 / abs(bonds[0].velocity))])
