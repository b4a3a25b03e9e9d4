"""The offset search bounded by the total time, against the whole-box search.

``whole_box_durations`` below enumerates every offset prefix in
[-M, M]^(b-1) in one pass, as the search did before its box was bounded by a
cap on the total time.  The bounded search must pick the same offsets, the
bit-identical durations and the same infeasibility residual on every
instance, wherever its first cap lies.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dotgates import calibrate
from dotgates.basis import circular_distance
from dotgates.calibrate import (
    CalibrationTarget,
    InfeasibleSchedule,
    accumulated_bond_phases,
    choose_assignments,
    solve_intervals,
    subset_signs,
)

from test_offset_search import array_with_velocities, edges_of, instance, square_assignments

TOL = 1e-9


def _narrow(lo, hi, value, slope, floor):
    if slope == 0:
        hi[value < floor] = -np.inf
    elif slope > 0:
        np.maximum(lo, np.ceil((floor - value) / slope), out=lo)
    else:
        np.minimum(hi, np.floor((floor - value) / slope), out=hi)


def whole_box_durations(amat, phi, vel, modulus, bound, tol):
    """The closed-form search over every prefix of the whole box (the reference)."""
    n = amat.shape[0]
    ainv = np.linalg.inv(amat)

    def taus_of(mcombo):
        return ((phi[None, :] + modulus * mcombo) / vel[None, :]) @ ainv.T

    side = 2 * bound + 1
    prefixes = np.indices((side,) * (n - 1)).reshape(n - 1, side ** (n - 1)).T - bound
    base = taus_of(np.column_stack([prefixes, np.zeros(len(prefixes))]))
    beta = ainv[:, -1] * (modulus / vel[-1])
    totals, total_slope = base.sum(axis=1), beta.sum()
    reach = np.abs(ainv) @ ((np.abs(phi) + modulus * bound) / np.abs(vel))
    slack = 8 * (n + 4) * np.finfo(float).eps * reach
    total_slack = 2.0 * slack.sum()

    def last_offsets(floor, ceiling):
        lo, hi = np.full(len(base), -float(bound)), np.full(len(base), float(bound))
        for s in range(n):
            _narrow(lo, hi, base[:, s], beta[s], floor[s])
        _narrow(lo, hi, -totals, -total_slope, -ceiling)
        return lo, hi

    lo, hi = last_offsets(-tol + slack, np.inf)
    ok = lo <= hi
    window = np.inf
    if np.any(ok):
        best = np.minimum(totals[ok] + total_slope * lo[ok], totals[ok] + total_slope * hi[ok])
        window = (best.min() + total_slack) * (1.0 + 1e-12) + 1e-15 + total_slack
    lo, hi = last_offsets(-tol - slack, window)
    keep = np.flatnonzero(lo <= hi)
    counts = (hi[keep] - lo[keep]).astype(np.int64) + 1
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    last = np.repeat(lo[keep].astype(np.int64), counts) + np.arange(counts.sum()) - starts
    mcombo = np.column_stack([prefixes[np.repeat(keep, counts)], last])

    taus = taus_of(mcombo)
    feasible = np.all(taus >= -tol, axis=1)
    if not np.any(feasible):
        least = np.inf
        for m in range(-bound, bound + 1):
            taus = taus_of(np.column_stack([prefixes, np.full(len(prefixes), m)]))
            least = min(least, float(np.min(np.max(np.maximum(-taus, 0.0), axis=1))))
        raise InfeasibleSchedule("no nonnegative durations in offset bound", least)
    totals = np.where(feasible, taus.sum(axis=1), np.inf)
    best_total = totals.min()
    near = np.flatnonzero(totals <= best_total * (1.0 + 1e-12) + 1e-15)
    keys = np.vstack([mcombo[near].T[::-1], np.abs(mcombo[near]).sum(axis=1)])
    winner = near[np.lexsort(keys)][0]
    return np.clip(taus[winner], 0.0, None)


def square_problem(array, target):
    """(amat, phi, vel, modulus) of the square basis over the active bonds."""
    velocities = np.array(target.velocities)
    active = np.abs(velocities) > 1e-15
    assignments = square_assignments(array, target)
    amat = np.array([subset_signs(array, s) for s in assignments], dtype=float).T[active]
    return amat, np.asarray(target.phases, dtype=float)[active], velocities[active], np.pi


def run(search, problem, bound):
    try:
        return search(*problem, bound, TOL)
    except InfeasibleSchedule as exc:
        return exc


def offsets_of(taus, problem):
    amat, phi, vel, modulus = problem
    return np.rint((vel * (amat @ taus) - phi) / modulus).astype(np.int64)


def assert_same(got, want, problem):
    if isinstance(want, InfeasibleSchedule):
        assert isinstance(got, InfeasibleSchedule), "found durations where the reference has none"
        assert got.best_residual == want.best_residual
        return
    assert not isinstance(got, InfeasibleSchedule), f"{got}; the reference found durations"
    np.testing.assert_array_equal(offsets_of(got, problem), offsets_of(want, problem))
    np.testing.assert_array_equal(got, want)


class Rounds:
    """Counts the rounds of the search and the rows of every offset array it
    builds: each round makes its prefixes with ``np.indices`` and every other
    array of offset rows with ``np.column_stack``."""

    def __init__(self, monkeypatch):
        self.count, self.rows = 0, 0
        indices, column_stack = np.indices, np.column_stack

        def counted_indices(shape, *args, **kwargs):
            out = indices(shape, *args, **kwargs)
            self.count += 1
            self.rows = max(self.rows, int(np.prod(out.shape[1:])))
            return out

        def counted_stack(arrays, *args, **kwargs):
            out = column_stack(arrays, *args, **kwargs)
            self.rows = max(self.rows, out.shape[0])
            return out

        monkeypatch.setattr(np, "indices", counted_indices)
        monkeypatch.setattr(np, "column_stack", counted_stack)


def start_at(monkeypatch, least):
    """Start the search as if no total could be below ``least``."""
    monkeypatch.setattr(calibrate, "_least_total", lambda phi, vel, modulus: least)


def bounds_for(n_bonds):
    """Offset bounds whose whole box the reference can enumerate quickly."""
    return [m for m in (0, 1, 2, 4, 8) if (2 * m + 1) ** (n_bonds - 1) <= 10**5]


@pytest.mark.parametrize("kind", ["star", "chain", "tree"])
def test_matches_whole_box_search(kind, monkeypatch):
    rng = np.random.default_rng(70 + ["star", "chain", "tree"].index(kind))
    found = infeasible = most_rounds = 0
    for n_bonds in range(2, 7):
        for bound in bounds_for(n_bonds):
            for flavour in ("random", "homogeneous") * 2:
                problem = square_problem(*instance(kind, n_bonds, flavour, rng))
                want = run(whole_box_durations, problem, bound)
                with monkeypatch.context() as patch:
                    rounds = Rounds(patch)
                    got = run(calibrate._square_durations, problem, bound)
                assert_same(got, want, problem)
                most_rounds = max(most_rounds, rounds.count)
                if isinstance(want, InfeasibleSchedule):
                    infeasible += bound > 0
                else:
                    found += 1
    # both verdicts occur in every family, infeasible ones past bound 0 too
    assert found >= 60 and infeasible >= 4
    # the cap stops growing once the box is whole
    assert most_rounds <= 20


@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0 - 1e-13, 1.0, 3.0])
def test_answer_does_not_depend_on_the_first_cap(fraction, monkeypatch):
    # a first cap of fraction * (the winner's total) lies below the winner,
    # inside its tie window (1 - 1e-13), on it, or above it
    rng = np.random.default_rng(71)
    checked = 0
    for kind in ("star", "chain", "tree"):
        for n_bonds in (2, 3, 4, 5):
            for flavour in ("random", "homogeneous", "reversed"):
                problem = square_problem(*instance(kind, n_bonds, flavour, rng))
                want = run(whole_box_durations, problem, 8)
                if isinstance(want, InfeasibleSchedule):
                    continue
                amat, phi, vel, modulus = problem
                m = offsets_of(want, problem)
                total = float((((phi + modulus * m) / vel) @ np.linalg.inv(amat).T).sum())
                with monkeypatch.context() as patch:
                    start_at(patch, fraction * total)
                    rounds = Rounds(patch)
                    assert_same(run(calibrate._square_durations, problem, 8), want, problem)
                if fraction == 1.0 - 1e-13 and total > 0:
                    # the winner's tie window straddles the first cap
                    assert rounds.count >= 2
                checked += 1
    assert checked >= 20


def test_zero_targets_take_one_round(monkeypatch):
    rng = np.random.default_rng(72)
    for kind in ("star", "chain", "tree"):
        for flavour in ("random", "homogeneous"):
            array, target = instance(kind, 5, flavour, rng)
            target = CalibrationTarget.for_array(array, np.zeros(array.n_bonds))
            problem = square_problem(array, target)
            want = run(whole_box_durations, problem, 8)
            with monkeypatch.context() as patch:
                rounds = Rounds(patch)
                got = run(calibrate._square_durations, problem, 8)
            assert_same(got, want, problem)
            assert not np.any(got) and rounds.count == 1


def test_six_dot_tree_at_bound_8_builds_small_arrays(monkeypatch):
    problem = square_problem(*instance("tree", 5, "random", np.random.default_rng(6)))
    rounds = Rounds(monkeypatch)
    got = run(calibrate._square_durations, problem, 8)
    monkeypatch.undo()
    assert_same(got, run(whole_box_durations, problem, 8), problem)
    assert rounds.count >= 2
    assert rounds.rows <= 0.01 * 17**4


def planted_tree(n_bonds, reach, rng):
    """Random tree whose targets a short schedule reaches: stage durations in
    [0.2, 1] scaled so that the largest bond phase is ``reach`` * pi."""
    edges = edges_of("tree", n_bonds, rng)
    velocities = rng.uniform(0.1e-3, 0.45e-3, n_bonds) * rng.choice([-1.0, 1.0], n_bonds)
    array = array_with_velocities(edges, velocities, rng)
    signs = np.array([subset_signs(array, s) for s in choose_assignments(array)], dtype=float).T
    phase = velocities * (signs @ rng.uniform(0.2, 1.0, n_bonds))
    phase *= reach * np.pi / np.max(np.abs(phase))
    return array, CalibrationTarget.for_array(array, np.mod(phase, np.pi))


@pytest.mark.parametrize("seed", [2, 3, 6])
def test_thirteen_dot_tree_at_bound_8_solves(seed):
    # the whole box holds 17^12 tuples, far past the budget, but the boxes
    # that the total time bounds stay within it
    assert 17**12 > calibrate._OFFSET_BUDGET
    array, target = planted_tree(12, 1.5, np.random.default_rng(seed))
    schedule = solve_intervals(array, target, offset_bound=8)
    achieved = accumulated_bond_phases(array, schedule)
    assert np.max(circular_distance(achieved, np.array(target.phases), np.pi)) <= 1e-7


def test_prefix_cap_stops_a_round_within_the_tuple_budget(monkeypatch):
    # the 6-dot tree above, whose rounds store more than 50 prefixes
    monkeypatch.setattr(calibrate, "_PREFIX_BUDGET", 50)
    array, target = instance("tree", 5, "random", np.random.default_rng(6))
    with pytest.raises(ValueError, match="too large"):
        solve_intervals(array, target, square_assignments(array, target), offset_bound=8)


def test_growth_past_the_budget_raises():
    # random targets on 12 bonds need boxes of 10^8 tuples and more
    array, target = instance("tree", 12, "random", np.random.default_rng(0))
    with pytest.raises(ValueError, match="too large"):
        solve_intervals(array, target, square_assignments(array, target), offset_bound=8)


def test_negative_bound_raises_instead_of_looping():
    # the whole box [-M, M]^b is empty for M < 0; its round used to repeat
    # forever with an infinite cap, so run it where a hang becomes a failure
    script = (
        "import numpy as np\n"
        "from dotgates.calibrate import _square_durations\n"
        "try:\n"
        "    _square_durations(np.eye(2), np.array([0.3, 1.2]), np.array([1e-3, -2e-3]),"
        " np.pi, -1, 1e-9)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(calibrate.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "no offsets" in done.stdout


def test_solve_intervals_rejects_a_negative_bound():
    array, target = instance("star", 2, "random", np.random.default_rng(0))
    with pytest.raises(ValueError, match="nonnegative"):
        solve_intervals(array, target, offset_bound=-1)
