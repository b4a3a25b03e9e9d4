"""The offset search of ``solve_intervals`` against an exhaustive oracle.

The oracle below evaluates every offset tuple in the (2M+1)^b grid and
applies the selection rule directly; the search under test enumerates only
b - 1 offsets and solves the last one in closed form.  Both are plugged into
the same ``solve_intervals``, so the comparison covers the whole schedule.
"""

import tracemalloc

import numpy as np
import pytest

from dotgates import Bond, Dot, DotArray
from dotgates import calibrate
from dotgates.calibrate import (
    CalibrationTarget,
    InfeasibleSchedule,
    choose_assignments,
    solve_intervals,
)


def exhaustive_durations(amat, phi, vel, bound, tol, least):
    """Square-branch search over the full offset grid (the reference rule)."""
    n_bonds = amat.shape[0]
    offsets = np.arange(-bound, bound + 1)
    grids = np.meshgrid(*([offsets] * n_bonds), indexing="ij")
    mcombo = np.stack([g.ravel() for g in grids], axis=1)
    rhs = (phi[None, :] + np.pi * mcombo) / vel[None, :]
    taus = rhs @ np.linalg.inv(amat).T
    feasible = np.all(taus >= -tol, axis=1)
    if not np.any(feasible):
        best = float(np.min(np.max(np.maximum(-taus, 0.0), axis=1)))
        raise InfeasibleSchedule("no nonnegative durations in offset bound", best)
    totals = np.where(feasible, taus.sum(axis=1), np.inf)
    best_total = totals.min()
    near = np.flatnonzero(totals <= best_total * (1.0 + 1e-12) + 1e-15)
    keys = np.vstack([mcombo[near].T[::-1], np.abs(mcombo[near]).sum(axis=1)])
    winner = near[np.lexsort(keys)][0]
    return np.clip(taus[winner], 0.0, None)


def edges_of(kind, n_bonds, rng):
    n = n_bonds + 1
    if kind == "star":
        return [(0, k) for k in range(1, n)]
    if kind == "chain":
        return [(j, j + 1) for j in range(n_bonds)]
    return sorted((int(rng.integers(0, k)), k) for k in range(1, n))


def array_with_velocities(edges, velocities, rng):
    """Tree array whose bonds have the given velocities (J = 1e-3)."""
    n = max(k for _, k in edges) + 1
    dots = [Dot(j, float(1.0 + 0.4 * j + 0.05 * rng.random())) for j in range(n)]
    exchange = 1e-3
    bonds = []
    for (j, k), v in zip(edges, velocities):
        t_sq = 0.5 + v / exchange
        bonds.append(Bond(j, k, exchange, t=np.sqrt(t_sq), s=1j * np.sqrt(1.0 - t_sq)))
    return DotArray(dots, bonds)


def instance(kind, n_bonds, flavour, rng):
    """Random targets on a tree.  ``flavour`` picks the velocities: random
    signs and sizes, all equal, one zero, or all equal with the bond list
    reversed, which makes the total time independent of the last offset."""
    edges = edges_of(kind, n_bonds, rng)
    if flavour == "reversed":
        edges = edges[::-1]
    if flavour in ("homogeneous", "reversed"):
        velocities = np.full(n_bonds, 0.3e-3)
    else:
        velocities = rng.uniform(0.1e-3, 0.45e-3, n_bonds) * rng.choice([-1.0, 1.0], n_bonds)
    phases = rng.uniform(0.0, np.pi, n_bonds)
    if flavour == "zero" and n_bonds > 1:
        w = int(rng.integers(n_bonds))
        velocities[w], phases[w] = 0.0, 0.0
    array = array_with_velocities(edges, velocities, rng)
    return array, CalibrationTarget.for_array(array, phases)


def square_assignments(array, target):
    """One stage per active bond (the default has one per bond, which is not
    square when a bond has zero velocity)."""
    active = [b for b, v in zip(array.bonds, target.velocities) if v != 0.0]
    return choose_assignments(DotArray(array.dots, active))


def outcome(array, target, bound):
    try:
        return solve_intervals(array, target, square_assignments(array, target), bound)
    except InfeasibleSchedule as exc:
        return exc


def oracle_outcome(monkeypatch, array, target, bound):
    with monkeypatch.context() as m:
        m.setattr(calibrate, "_square_durations", exhaustive_durations)
        return outcome(array, target, bound)


def assert_same(got, want):
    if isinstance(want, InfeasibleSchedule):
        assert isinstance(got, InfeasibleSchedule), f"found {got} where the oracle has none"
        assert got.best_residual == pytest.approx(want.best_residual, rel=1e-12)
        return
    assert not isinstance(got, InfeasibleSchedule), f"{got}; oracle found a schedule"
    assert len(got.stages) == len(want.stages)
    for a, b in zip(got.stages, want.stages):
        assert a.pulse == b.pulse
        assert a.duration == pytest.approx(b.duration, rel=1e-12, abs=1e-12 * want.total_time)


FLAVOURS = ("random", "homogeneous", "zero", "reversed")


@pytest.mark.parametrize("kind", ["star", "chain", "tree"])
def test_matches_exhaustive_search(kind, monkeypatch):
    rng = np.random.default_rng(["star", "chain", "tree"].index(kind))
    found = infeasible = 0
    for n_bonds in range(1, 7):
        for bound in range(5):
            for flavour in FLAVOURS:
                array, target = instance(kind, n_bonds, flavour, rng)
                want = oracle_outcome(monkeypatch, array, target, bound)
                assert_same(outcome(array, target, bound), want)
                found += not isinstance(want, InfeasibleSchedule)
                infeasible += isinstance(want, InfeasibleSchedule)
    # both verdicts occur in every family
    assert found >= 20 and infeasible >= 5


@pytest.mark.parametrize("flavour", FLAVOURS)
def test_matches_exhaustive_search_at_bound_8(flavour, monkeypatch):
    rng = np.random.default_rng(8 + FLAVOURS.index(flavour))
    for kind in ("star", "chain", "tree"):
        array, target = instance(kind, 5, flavour, rng)
        want = oracle_outcome(monkeypatch, array, target, 8)
        assert_same(outcome(array, target, 8), want)


def test_ties_in_the_last_offset_pick_the_oracle_tuple(monkeypatch):
    # with the bond list reversed the total slope in the last offset is zero,
    # so every feasible last offset ties and the tie-break alone decides
    rng = np.random.default_rng(17)
    for kind in ("star", "chain"):
        for n_bonds in (2, 3, 4):
            array, target = instance(kind, n_bonds, "reversed", rng)
            amat = np.array(
                [calibrate.subset_signs(array, s) for s in choose_assignments(array)], dtype=float
            ).T
            assert np.linalg.inv(amat)[:, -1].sum() == 0.0
            for bound in (2, 3, 4):
                assert_same(outcome(array, target, bound),
                            oracle_outcome(monkeypatch, array, target, bound))


def test_single_bond_and_bound_zero(monkeypatch):
    rng = np.random.default_rng(3)
    for flavour in ("random", "homogeneous"):
        array, target = instance("chain", 1, flavour, rng)
        for bound in (0, 1, 8):
            assert_same(outcome(array, target, bound),
                        oracle_outcome(monkeypatch, array, target, bound))


def test_infeasible_residual_matches(monkeypatch):
    # on the chain 0-1-2 the stage durations are (r0 + r1) / 2 and
    # (r1 - r0) / 2 with r = phi / vel; bound 0 leaves r1 < -|r0|
    rng = np.random.default_rng(5)
    array = array_with_velocities([(0, 1), (1, 2)], [0.3e-3, -0.2e-3], rng)
    target = CalibrationTarget.for_array(array, [0.5, 2.0])
    want = oracle_outcome(monkeypatch, array, target, 0)
    assert isinstance(want, InfeasibleSchedule)
    got = outcome(array, target, 0)
    assert_same(got, want)
    assert got.best_residual > 0


def test_six_dot_tree_at_bound_8_stays_small():
    rng = np.random.default_rng(6)
    array, target = instance("tree", 5, "random", rng)
    tracemalloc.start()
    try:
        outcome(array, target, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
