"""``solve_intervals`` at fixed frames, against a linear program.

For fixed offsets the least total time with nonnegative durations is a
linear program.  The oracle below solves one with HiGHS for every offset
tuple inside the bound and keeps the least total; the solver under test
searches the offsets of its one square sign matrix in closed form instead.
"""

import numpy as np
import pytest
import scipy.optimize

from dotgates import Dot, DotArray, calibrate
from dotgates.basis import circular_distance
from dotgates.calibrate import (
    CalibrationTarget,
    InfeasibleSchedule,
    accumulated_bond_phases,
    choose_assignments,
    solve_intervals,
    subset_signs,
)

from conftest import least_total, make_bond, stellar_array
from test_offset_search import instance, square_assignments


def lp_durations(array, target, assignments, bound):
    """Least-total durations over every offset tuple, one HiGHS solve each;
    None when no tuple admits nonnegative durations."""
    velocities = np.array(target.velocities)
    active = np.abs(velocities) > 1e-15
    amat = np.array([subset_signs(array, s) for s in assignments], dtype=float).T[active]
    vel = velocities[active]
    phi = np.asarray(target.phases, dtype=float)[active]
    n_bonds, n_stages = amat.shape
    offsets = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*([offsets] * n_bonds), indexing="ij")
    mcombo = np.stack([g.ravel() for g in grids], axis=1)
    rhs = (phi[None, :] + np.pi * mcombo) / vel[None, :]
    best_sol, best_total = None, np.inf
    for row in range(rhs.shape[0]):
        res = scipy.optimize.linprog(
            np.ones(n_stages),
            A_eq=amat,
            b_eq=rhs[row],
            bounds=[(0, None)] * n_stages,
            method="highs",
        )
        if res.success and res.fun < best_total - 1e-12:
            best_total, best_sol = res.fun, res.x
    return None if best_sol is None else np.clip(best_sol, 0.0, None)


def assert_matches_lp(array, target, assignments, bound):
    """Same verdict and total as the oracle, phases on target, no more stages.
    Returns whether a schedule was found."""
    want = lp_durations(array, target, assignments, bound)
    try:
        got = solve_intervals(array, target, assignments, bound)
    except InfeasibleSchedule as exc:
        assert want is None, f"{exc}; the oracle found total {want.sum()}"
        assert np.isfinite(exc.best_residual) and exc.best_residual >= 0
        return False
    assert want is not None, f"found total {got.total_time}; the oracle found none"
    assert got.total_time == pytest.approx(want.sum(), rel=1e-9)
    active = np.abs(np.array(target.velocities)) > 1e-15
    achieved = accumulated_bond_phases(array, got)[active]
    err = circular_distance(achieved, np.array(target.phases)[active], np.pi)
    assert np.max(err) <= 1e-9
    assert len(got.stages) <= 1 + int(np.sum(want[1:] > 1e-12))
    return True


# (bonds, offset bound) pairs with at most 5^3 offset tuples, so that the
# oracle's one linear program per tuple stays affordable
SIZES = [(b, m) for b in range(1, 5) for m in range(4) if (2 * m + 1) ** b <= 125]


@pytest.mark.parametrize("kind", ["star", "chain", "tree"])
def test_matches_linear_program(kind):
    rng = np.random.default_rng(40 + ["star", "chain", "tree"].index(kind))
    found = infeasible = 0
    for flavour in ("random", "homogeneous", "zero"):
        for n_bonds, bound in SIZES:
            for _ in range(2):
                array, target = instance(kind, n_bonds, flavour, rng)
                if assert_matches_lp(array, target, square_assignments(array, target), bound):
                    found += 1
                else:
                    infeasible += 1
    # 78 instances per family, and both verdicts occur in each
    assert found + infeasible == 78
    assert found >= 20 and infeasible >= 5


def zero_velocity_star():
    """The default 5-target star of the tests with |t|^2 = 1/2 on bond (0, 3),
    which takes that bond's velocity to zero, and the gate theta = pi/2 on
    the other four targets."""
    base = stellar_array(5)
    array = base.with_bonds(
        make_bond(b.j, b.k, b.exchange, 0.5) if (b.j, b.k) == (0, 3) else b
        for b in base.bonds
    )
    phases = [0.0 if (b.j, b.k) == (0, 3) else 0.75 * np.pi for b in array.bonds]
    return array, CalibrationTarget.for_array(array, phases)


def test_zero_velocity_star_needs_no_linear_program(monkeypatch):
    # a star is a forest, so its default schedule is the closed form at the
    # least total T*, below the 12204.373556743029 that the oracle finds at
    # the five frames of choose_assignments, at bounds 1 to 3
    array, target = zero_velocity_star()
    assert target.velocities[2] == 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("solve_intervals called linprog")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    schedule = solve_intervals(array, target)
    active = np.array(target.velocities) != 0.0
    least = least_total(np.array(target.phases)[active], np.array(target.velocities)[active])
    assert len(schedule.stages) <= 5
    assert schedule.total_time == pytest.approx(least, rel=1e-12)
    assert schedule.total_time < 12204.373556743029


def test_zero_velocity_star_matches_linear_program():
    array, target = zero_velocity_star()
    assert assert_matches_lp(array, target, square_assignments(array, target), 1)


def test_square_case_makes_one_closed_form_call(monkeypatch):
    calls = []
    inner = calibrate._square_durations

    def counted(amat, *args):
        calls.append(amat.shape)
        return inner(amat, *args)

    monkeypatch.setattr(calibrate, "_square_durations", counted)
    rng = np.random.default_rng(2)
    array, target = instance("tree", 4, "random", rng)
    solve_intervals(array, target, choose_assignments(array), 2)
    assert calls == [(4, 4)]


def test_default_frames_skip_a_zero_velocity_bond(monkeypatch):
    # the triangle 0-1-2 is a cycle; bond (2, 3) at |t|^2 = 1/2 has no
    # velocity, so the three active bonds get three frames, not four
    calls = []
    inner = calibrate._square_durations

    def counted(amat, *args):
        calls.append(amat.shape)
        return inner(amat, *args)

    monkeypatch.setattr(calibrate, "_square_durations", counted)
    bonds = [make_bond(0, 1, 1e-3, 0.8), make_bond(0, 2, 1.2e-3, 0.75),
             make_bond(1, 2, 0.9e-3, 0.85), make_bond(2, 3, 1e-3, 0.5)]
    array = DotArray([Dot(j, 1.0 + 0.3 * j) for j in range(4)], bonds)
    target = CalibrationTarget.for_array(array, [0.4, 1.1, 2.0, 0.0])
    schedule = solve_intervals(array, target, offset_bound=3)
    assert calls == [(3, 3)]
    achieved = accumulated_bond_phases(array, schedule)
    assert np.max(circular_distance(achieved, np.array(target.phases), np.pi)) <= 1e-9


def choose_assignments_by_sort(array):
    """Parent implementation of ``choose_assignments``: all 2^N subsets, sorted."""
    n, b = array.n_dots, array.n_bonds
    chosen, rows = [frozenset()], [np.ones(b)]
    subsets = sorted(
        (frozenset(j for j in range(n) if (mask >> j) & 1) for mask in range(1, 1 << n)),
        key=lambda s: (len(s), sorted(s)),
    )
    for subset in subsets:
        if len(chosen) == b:
            break
        vec = subset_signs(array, subset).astype(float)
        if np.linalg.matrix_rank(np.array(rows + [vec])) > len(rows):
            chosen.append(subset)
            rows.append(vec)
    return chosen


def test_lazy_assignments_match_the_sorted_oracle():
    # random bond sets on up to 8 dots, from none to the complete graph
    rng = np.random.default_rng(5)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        picked = rng.choice(len(pairs), size=int(rng.integers(0, len(pairs) + 1)), replace=False)
        bonds = [make_bond(*pairs[i], 1e-3, 0.8) for i in sorted(picked)]
        array = DotArray([Dot(j, 1.0 + 0.1 * j) for j in range(n)], bonds)
        assert choose_assignments(array) == choose_assignments_by_sort(array)
