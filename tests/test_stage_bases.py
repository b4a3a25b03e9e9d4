"""``solve_intervals`` with more stages than active bonds, against a linear program.

For fixed offsets the least total time with nonnegative durations is a
linear program.  The oracle below solves one with HiGHS for every offset
tuple inside the bound and keeps the least total; the solver under test
searches every invertible basis of b stages in closed form instead.
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

from conftest import make_bond, stellar_array
from test_offset_search import instance


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


def oracle_stage_count(durations):
    """Stages the schedule keeps: stage 0 and every later one of nonzero length."""
    return 1 + int(np.sum(durations[1:] > 1e-12))


def extra_assignments(array, assignments, n_extra, rng):
    """Random X-subsets, or the complement of a stage already listed, which
    flips every dot of it and so repeats that stage's sign column."""
    n = array.n_dots
    extra = []
    for _ in range(n_extra):
        if rng.random() < 0.5:
            pick = assignments[int(rng.integers(len(assignments)))]
            extra.append(frozenset(range(n)) - pick)
        else:
            mask = int(rng.integers(1, 1 << n))
            extra.append(frozenset(j for j in range(n) if (mask >> j) & 1))
    return extra


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
    assert len(got.stages) <= oracle_stage_count(want)
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
            for n_extra in (1, 2):
                array, target = instance(kind, n_bonds, flavour, rng)
                assignments = choose_assignments(array)
                assignments += extra_assignments(array, assignments, n_extra, rng)
                if assert_matches_lp(array, target, assignments, bound):
                    found += 1
                else:
                    infeasible += 1
    # 78 instances per family, and both verdicts occur in each
    assert found + infeasible == 78
    assert found >= 20 and infeasible >= 5


def test_duplicate_sign_column_keeps_the_earlier_stage():
    # the all-dot flip has stage 0's signs: both bases give the same total,
    # and the earlier one needs no extra stage or pulse
    rng = np.random.default_rng(9)
    array, target = instance("star", 3, "random", rng)
    base = solve_intervals(array, target, choose_assignments(array), 3)
    doubled = choose_assignments(array) + [frozenset(range(array.n_dots))]
    assert_matches_lp(array, target, doubled, 3)
    again = solve_intervals(array, target, doubled, 3)
    assert again.stages == base.stages


def test_infeasible_residual_is_the_least_over_bases():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(40):
        array, target = instance("chain", 2, "random", rng)
        assignments = choose_assignments(array)
        assignments += extra_assignments(array, assignments, 1, rng)
        try:
            solve_intervals(array, target, assignments, 0)
        except InfeasibleSchedule as exc:
            least = np.inf
            amat = np.array([subset_signs(array, s) for s in assignments], dtype=float).T
            rhs = np.array(target.phases) / np.array(target.velocities)
            for basis in ([0, 1], [0, 2], [1, 2]):
                sub = amat[:, basis]
                if np.linalg.matrix_rank(sub) == 2:
                    taus = np.linalg.solve(sub, rhs)
                    least = min(least, float(np.max(np.maximum(-taus, 0.0))))
            assert exc.best_residual == pytest.approx(least, rel=1e-12)
            found += 1
    assert found >= 5


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
    # one stage per bond is one more than the active bonds; the least total,
    # 12204.373556743029 from the oracle at bounds 1 to 3, is reached with
    # four of the five stages
    array, target = zero_velocity_star()
    assert target.velocities[2] == 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("solve_intervals called linprog")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    schedule = solve_intervals(array, target)
    assert len(choose_assignments(array)) == 5
    assert len(schedule.stages) == 4
    assert schedule.total_time == pytest.approx(12204.373556743029, rel=1e-12)


def test_zero_velocity_star_matches_linear_program():
    array, target = zero_velocity_star()
    assert assert_matches_lp(array, target, choose_assignments(array), 1)


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
