"""Toggling frames against the per-label loops they replace.

Every bond and dot sign of a pulse schedule is read from
``PulseSchedule.frames`` (cumulative X-masks) through ``bond_signs``.  The
oracles below are the earlier readers: cumulative pulse products built with
``PauliAssignment.compose``, signs taken label by label, frozenset subsets,
the per-dot loop of the local phases, the per-dot pulse times of the echo
weave and the subset-to-pulse path of the stage solver.  Each must agree
bit for bit on seeded random schedules that hold Y and Z labels,
zero-duration stages, stacked same-time pulses and identity pulses.
"""

from itertools import combinations

import numpy as np
import pytest

from dotgates import Dot, DotArray, calibrate
from dotgates.basis import wrap_2pi
from dotgates.calibrate import (
    BudgetExceeded,
    CalibrationTarget,
    InfeasibleSchedule,
    PauliAssignment,
    PulseSchedule,
    Stage,
    assignment_vectors,
    bond_signs,
    choose_assignments,
    extra_local_phases,
    solve_intervals,
    stage_sign_matrix,
    subset_signs,
    weave_dd,
)
from dotgates.gates import FreePhase
from dotgates.model import grid_vector

from conftest import conjugated, make_bond, random_connected_array


# -- oracles: the label-by-label readers ------------------------------------------

def sig(q, dot):
    return -1 if q.labels[dot] in ("X", "Y") else 1


def flipped(q):
    return frozenset(j for j, lab in enumerate(q.labels) if lab in ("X", "Y"))


def oracle_subset_signs(array, dots):
    return np.array([(-1 if b.j in dots else 1) * (-1 if b.k in dots else 1) for b in array.bonds])


def oracle_cumulative(schedule):
    out = [PauliAssignment.identity(schedule.n_dots)]
    for st in schedule.stages[:-1]:
        current = out[-1]
        if st.pulse is not None:
            current, _ = st.pulse.compose(current)
        out.append(current)
    return out


def oracle_stage_signs(array, schedule):
    return np.array([oracle_subset_signs(array, flipped(q)) for q in oracle_cumulative(schedule)]).T


def oracle_dot_signs(schedule):
    return np.array([[sig(q, j) for j in range(schedule.n_dots)] for q in oracle_cumulative(schedule)])


def oracle_conjugated_grid(array, q):
    """Grid vector with S and T swapped on every bond with an odd number of
    X/Y labels on its ends: the first-order phase rates in the frame of q,
    the reference of the exact pulsed-propagator tests."""
    bonds = []
    for b in array.bonds:
        flips = (q.labels[b.j] in ("X", "Y")) + (q.labels[b.k] in ("X", "Y"))
        bonds.append(conjugated(b) if flips % 2 else b)
    return grid_vector(array.with_bonds(bonds))


def oracle_local_phases(schedule, array):
    eps = array.zeemans
    net = schedule.net_pulse()
    phi = np.zeros(schedule.n_dots)
    for q, st in zip(oracle_cumulative(schedule), schedule.stages):
        for j in range(schedule.n_dots):
            phi[j] += 0.5 * (sig(q, j) - sig(net, j)) * eps[j] * st.duration
    return phi


def oracle_toggle_times(schedule):
    times = [[] for _ in range(schedule.n_dots)]
    t = 0.0
    for st in schedule.stages:
        t += st.duration
        if st.pulse is not None:
            for j in flipped(st.pulse):
                times[j].append(t)
    return times


def oracle_weave(schedule, budget=16):
    n = schedule.n_dots
    total = schedule.total_time
    per_dot = oracle_toggle_times(schedule)
    events = [(t, j) for j, ts in enumerate(per_dot) for t in ts]
    counts = np.array([len(ts) for ts in per_dot])
    for j in np.flatnonzero(counts % 2 == 1):
        events.append((total, int(j)))
        counts[j] += 1
    deficits = (-counts) % 4
    if len(set(deficits.tolist())) != 1:
        for j in np.flatnonzero(deficits == 2):
            events += [(total, int(j)), (total, int(j))]
            counts[j] += 2
        deficits = (-counts) % 4
    n_globals = int(deficits[0]) if len(set(deficits.tolist())) == 1 else 0
    while np.min(counts) + n_globals < 4:
        n_globals += 4
    for t in [total * (i + 1) / n_globals for i in range(n_globals)]:
        events += [(t, j) for j in range(n)]
    counts += n_globals
    if int(np.max(counts)) > budget:
        raise BudgetExceeded("budget")
    state = [0] * n
    slots = []
    for i in sorted(range(len(events)), key=lambda i: (events[i][0], i)):
        t, j = events[i]
        lab = "X" if state[j] % 2 == 0 else "Y"
        state[j] += 1
        if slots and abs(slots[-1][0] - t) < 1e-15 and j not in slots[-1][1]:
            slots[-1][1][j] = lab
        else:
            slots.append((t, {j: lab}))
    stages, prev = [], 0.0
    for t, group in slots:
        stages.append(Stage(max(t - prev, 0.0), PauliAssignment(group.get(j, "I") for j in range(n))))
        prev = t
    stages.append(Stage(total - prev if prev < total - 1e-15 else 0.0, None))
    return PulseSchedule(n, stages)


def oracle_solve(array, target, assignments, bound, tol=1e-9):
    """The stage solver with frozenset signs and the subset-to-pulse path."""
    assignments = [frozenset(s) for s in assignments]
    velocities = np.array(target.velocities)
    active = np.abs(velocities) > 1e-15
    amat = np.array([oracle_subset_signs(array, s) for s in assignments], dtype=float).T[active]
    phi = np.asarray(target.phases, dtype=float)[active]
    n_bonds, n_stages = amat.shape
    durations, best_total, least = None, np.inf, np.inf
    for basis in combinations(range(n_stages), n_bonds):
        sub = amat[:, list(basis)]
        if np.linalg.matrix_rank(sub) < n_bonds:
            continue
        try:
            taus = calibrate._square_durations(sub, phi, velocities[active], np.pi, bound, tol)
        except InfeasibleSchedule as exc:
            least = min(least, exc.best_residual)
            continue
        if taus.sum() * (1.0 + 1e-12) + 1e-15 < best_total:
            durations = np.zeros(n_stages)
            durations[list(basis)] = taus
            best_total = taus.sum()
    if durations is None:
        raise InfeasibleSchedule("no nonnegative durations in offset bound", least)
    kept = [0] + [i for i in range(1, n_stages) if durations[i] > 1e-12]
    stages = []
    for a, b in zip(kept, kept[1:] + [None]):
        diff = None if b is None else assignments[a] ^ assignments[b]
        pulse = PauliAssignment.x_on(diff, array.n_dots) if diff else None
        stages.append(Stage(float(durations[a]), pulse))
    return PulseSchedule(array.n_dots, stages)


# -- seeded instances ---------------------------------------------------------------

def random_array(rng, n_dots):
    """Random simple graph, possibly disconnected or bondless."""
    dots = [Dot(j, float(1.0 + 0.9 * rng.random())) for j in range(n_dots)]
    pairs = [(j, k) for j in range(n_dots) for k in range(j + 1, n_dots)]
    keep = [p for p in pairs if rng.random() < 0.5]
    bonds = [make_bond(j, k, 1e-3 * (0.6 + rng.random()), 0.7 + 0.25 * rng.random()) for j, k in keep]
    return DotArray(dots, bonds)


def random_schedule(rng, n_dots):
    """Stages of random length, a third of them zero (so pulses stack at one
    time), with no pulse, an identity pulse or random I/X/Y/Z labels."""
    stages = []
    for _ in range(int(rng.integers(1, 21))):
        duration = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 50.0))
        kind = rng.random()
        if kind < 0.15:
            pulse = None
        elif kind < 0.3:
            pulse = PauliAssignment.identity(n_dots)
        else:
            pulse = PauliAssignment(rng.choice(list("IXYZ"), size=n_dots).tolist())
        stages.append(Stage(duration, pulse))
    return PulseSchedule(n_dots, stages)


def instances(seed, count=120):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 7))
        yield random_array(rng, n), random_schedule(rng, n)


# every property the random schedules are meant to cover, on one schedule
HAND = PulseSchedule(4, [
    Stage(0.0, PauliAssignment("YIZX")),
    Stage(3.0, PauliAssignment("IIII")),
    Stage(2.5, PauliAssignment("XYII")),
    Stage(0.0, PauliAssignment("XZYI")),
    Stage(0.0, PauliAssignment("IIXY")),
    Stage(4.0, None),
    Stage(1.0, PauliAssignment("ZZZZ")),
])


def test_instances_cover_the_awkward_cases():
    seen = set()
    for _, schedule in instances(0):
        for a, b in zip(schedule.stages, schedule.stages[1:]):
            if a.pulse is not None and b.pulse is not None and b.duration == 0.0:
                seen.add("stacked")
        for st in schedule.stages:
            if st.duration == 0.0:
                seen.add("zero")
            if st.pulse is not None:
                seen.update({"identity"} if st.pulse.is_identity() else set(st.pulse.labels))
    assert {"stacked", "zero", "identity", "X", "Y", "Z"} <= seen


# -- frames ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_frames_are_the_cumulative_products(seed):
    for _, schedule in list(instances(seed)) + [(None, HAND)]:
        frames = schedule.frames()
        products = oracle_cumulative(schedule)
        assert frames.shape == (len(schedule.stages) + 1,)
        assert frames[:-1].tolist() == [q.x_mask for q in products]
        assert int(frames[-1]) == schedule.net_pulse().x_mask


@pytest.mark.parametrize("seed", [0, 1])
def test_stage_and_dot_signs_match_compose(seed):
    for array, schedule in instances(seed):
        got = stage_sign_matrix(array, schedule)
        want = oracle_stage_signs(array, schedule)
        assert got.shape == (array.n_bonds, len(schedule.stages))
        assert np.array_equal(got, want.reshape(got.shape))
        dot_signs = calibrate._dot_signs(schedule.frames()[:-1], schedule.n_dots)
        assert np.array_equal(dot_signs, oracle_dot_signs(schedule))


def test_bond_signs_read_dot_zero_as_the_most_significant_bit():
    array = DotArray([Dot(j, 1.0) for j in range(3)],
                     [make_bond(0, 1, 1e-3, 0.8), make_bond(1, 2, 1e-3, 0.8)])
    assert bond_signs(array, 0b100).tolist() == [-1, 1]
    assert bond_signs(array, 0b001).tolist() == [1, -1]
    assert bond_signs(array, [[0b000, 0b111], [0b010, 0b110]]).tolist() == [
        [[1, 1], [1, 1]], [[-1, -1], [1, -1]]
    ]


def test_subset_reader_matches_the_labels():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        array = random_array(rng, n)
        q = PauliAssignment(rng.choice(list("IXYZ"), size=n).tolist())
        assert np.array_equal(subset_signs(array, flipped(q)), oracle_subset_signs(array, flipped(q)))


# -- readers built on the frames --------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_local_phases_match_the_per_dot_loop(seed):
    for array, schedule in instances(seed):
        phi = oracle_local_phases(schedule, array)
        # exact equality pins the stage-by-stage accumulation order
        assert extra_local_phases(schedule, array) == FreePhase(
            wrap_2pi(-np.sum(phi)), wrap_2pi(2.0 * phi))


@pytest.mark.parametrize("seed", [0, 1])
def test_weave_matches_the_per_dot_pulse_times(seed):
    woven = 0
    for _, schedule in list(instances(seed)) + [(None, HAND)]:
        if schedule.total_time <= 0:
            continue
        for budget in (16, 64):
            try:
                want = oracle_weave(schedule, budget)
            except BudgetExceeded:
                with pytest.raises(BudgetExceeded):
                    weave_dd(schedule, budget)
                continue
            assert weave_dd(schedule, budget) == want
            woven += 1
    assert woven > 100


def test_solver_pulses_match_the_subset_path():
    rng = np.random.default_rng(3)
    solved = 0
    for _ in range(40):
        array = random_connected_array(rng, int(rng.integers(3, 6)))
        assignments = choose_assignments(array)
        for _ in range(int(rng.integers(1, 3))):  # extra stages, some repeated
            size = int(rng.integers(1, array.n_dots + 1))
            assignments.append(frozenset(rng.choice(array.n_dots, size=size, replace=False).tolist()))
        phases = rng.uniform(0.1, np.pi - 0.1, size=array.n_bonds)
        target = CalibrationTarget.for_array(array, phases)
        bound = int(rng.integers(0, 3))
        try:
            want = oracle_solve(array, target, assignments, bound)
        except InfeasibleSchedule as exc:
            with pytest.raises(InfeasibleSchedule) as info:
                solve_intervals(array, target, assignments, offset_bound=bound)
            assert info.value.best_residual == exc.best_residual
            continue
        assert solve_intervals(array, target, assignments, offset_bound=bound) == want
        solved += 1
    assert solved >= 20


@pytest.mark.parametrize("dot", [-1, 3])
def test_solver_rejects_a_dot_outside_the_array(dot):
    # a negative dot would otherwise index the last dot's bit
    array = random_connected_array(np.random.default_rng(5), 3)
    target = CalibrationTarget.for_array(array, [1.0] * array.n_bonds)
    with pytest.raises(ValueError, match="is not in"):
        solve_intervals(array, target, [frozenset(), frozenset({dot}), frozenset({1})])


# -- enumeration --------------------------------------------------------------------

def oracle_assignment_vectors(array):
    n = array.n_dots
    seen = {}
    for mask in range(1 << n):
        subset = frozenset(j for j in range(n) if (mask >> j) & 1)
        vec = tuple(int(v) for v in oracle_subset_signs(array, subset))
        if vec not in seen:
            seen[vec] = subset
    vectors = tuple(sorted(seen, reverse=True))
    return vectors, tuple(seen[v] for v in vectors)


def test_enumeration_matches_the_subset_loop():
    rng = np.random.default_rng(4)
    for _ in range(40):
        array = random_array(rng, int(rng.integers(2, 8)))
        enum = assignment_vectors(array)
        vectors, reps = oracle_assignment_vectors(array)
        assert enum.vectors == vectors
        assert enum.representatives == reps
        assert enum.n_distinct == len(vectors)


def test_enumeration_refuses_too_many_dots():
    n = calibrate.ENUMERATION_MAX_DOTS + 1
    array = DotArray([Dot(j, 1.0) for j in range(n)], [make_bond(0, 1, 1e-3, 0.8)])
    with pytest.raises(ValueError, match="exceeds the limit"):
        assignment_vectors(array)
