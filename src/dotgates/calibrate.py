"""Dynamical calibration of inhomogeneous bonds with instantaneous pulses.

An X or Y pulse on a dot swaps the spin-conserved and spin-flipped rates of
every bond at that dot, reversing those bonds' effective velocities; Z and
identity leave them alone.  A pulse schedule therefore steers the per-bond
accumulated phase along a piecewise-linear path in "k-space" (phase in
units of pi per bond), and the per-stage durations can be solved so every
bond lands on its target lattice point regardless of velocity mismatch.

The stage bookkeeping uses cumulative pulse products: stage n evolves
under the grid vector conjugated by the product of all pulses applied so
far, whose action on bond (j, k) is the sign ``sig_j * sig_k`` with
``sig = -1`` for X or Y and ``+1`` for I or Z.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from math import gamma as gamma_function
from typing import Iterable, Sequence

import numpy as np

from .basis import TWO_PI, circular_distance, wrap_2pi
from .gates import FreePhase
from .model import Bond, DotArray, grid_vector

# (x, z) bits of each single-qubit Pauli, with Y = i X Z
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PAULI_LABEL = {bits: lab for lab, bits in _PAULI_BITS.items()}
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


class InfeasibleSchedule(RuntimeError):
    """No nonnegative stage durations found within the offset search bound."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


class BudgetExceeded(RuntimeError):
    """Weaving would need more pulses per qubit than the configured budget."""


@dataclass(frozen=True)
class SignedPermutation:
    """Operator ``|b> -> phase[b] |b ^ flip>`` on the computational basis.

    Pauli strings are signed permutations with phases in {1, i, -1, -i};
    products with diagonal unitaries keep the form, so any unit-modulus
    phases are allowed.  Applying one to a 2^N x 2^N matrix costs O(4^N).
    """

    flip: int
    phase: np.ndarray

    @classmethod
    def diagonal(cls, phase) -> "SignedPermutation":
        return cls(0, np.asarray(phase, dtype=complex))

    def _shifted(self) -> np.ndarray:
        return np.arange(self.phase.shape[0]) ^ self.flip

    def after(self, other: "SignedPermutation") -> "SignedPermutation":
        """``self`` applied after ``other``."""
        return SignedPermutation(
            self.flip ^ other.flip, other.phase * self.phase[other._shifted()]
        )

    def inverse(self) -> "SignedPermutation":
        return SignedPermutation(self.flip, np.conj(self.phase[self._shifted()]))

    def apply_rows(self, matrix: np.ndarray) -> np.ndarray:
        """``self @ matrix``."""
        return (self.phase[:, None] * matrix)[self._shifted()]

    def apply_columns(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix @ self``."""
        return matrix[:, self._shifted()] * self.phase[None, :]

    def matrix(self) -> np.ndarray:
        idx = np.arange(self.phase.shape[0])
        out = np.zeros((idx.shape[0], idx.shape[0]), dtype=complex)
        out[idx ^ self.flip, idx] = self.phase
        return out


@dataclass(frozen=True)
class PauliAssignment:
    """One Pauli label per dot, applied simultaneously.

    On bits the assignment is ``i^|x & z| X^x Z^z``: ``x_mask`` and
    ``z_mask`` are indexed like basis states (dot 0 the most significant
    bit), so it maps ``|b>`` to ``i^|x & z| (-1)^|b & z| |b ^ x>``.
    """

    labels: tuple[str, ...]
    x_mask: int = field(init=False, repr=False, compare=False)
    z_mask: int = field(init=False, repr=False, compare=False)

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        x = z = 0
        for lab in labels:
            if lab not in _PAULI_BITS:
                raise ValueError(f"unknown Pauli label {lab!r}")
            bx, bz = _PAULI_BITS[lab]
            x, z = (x << 1) | bx, (z << 1) | bz
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "x_mask", x)
        object.__setattr__(self, "z_mask", z)

    @classmethod
    def identity(cls, n_dots: int) -> "PauliAssignment":
        return cls(("I",) * n_dots)

    @classmethod
    def x_on(cls, dots: Iterable[int], n_dots: int) -> "PauliAssignment":
        labels = ["I"] * n_dots
        for d in dots:
            labels[d] = "X"
        return cls(labels)

    @classmethod
    def _from_masks(cls, x: int, z: int, n_dots: int) -> "PauliAssignment":
        shifts = range(n_dots - 1, -1, -1)
        return cls(_PAULI_LABEL[(x >> s) & 1, (z >> s) & 1] for s in shifts)

    @property
    def n_dots(self) -> int:
        return len(self.labels)

    def sig(self, dot: int) -> int:
        """-1 where the label flips the bit (X or Y), +1 for I and Z."""
        return 1 - 2 * _PAULI_BITS[self.labels[dot]][0]

    def flipped_dots(self) -> frozenset[int]:
        return frozenset(j for j, lab in enumerate(self.labels) if lab in ("X", "Y"))

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def compose(self, other: "PauliAssignment") -> tuple["PauliAssignment", complex]:
        """``self`` applied after ``other``; returns labels and global phase.

        Moving ``Z^z1`` past ``X^x2`` costs ``(-1)^|z1 & x2|``, and the
        ``i^|x & z|`` prefactors of both factors and of the product balance
        the rest.
        """
        x = self.x_mask ^ other.x_mask
        z = self.z_mask ^ other.z_mask
        power = (
            (self.x_mask & self.z_mask).bit_count()
            + (other.x_mask & other.z_mask).bit_count()
            - (x & z).bit_count()
            + 2 * (self.z_mask & other.x_mask).bit_count()
        )
        return PauliAssignment._from_masks(x, z, self.n_dots), _I_POWERS[power % 4]

    def signed_permutation(self) -> SignedPermutation:
        idx = np.arange(1 << self.n_dots)
        odd = np.zeros(idx.shape, dtype=np.int64)  # parity of |b & z|
        for shift in range(self.n_dots):
            if (self.z_mask >> shift) & 1:
                odd ^= (idx >> shift) & 1
        prefactor = _I_POWERS[(self.x_mask & self.z_mask).bit_count() % 4]
        return SignedPermutation(self.x_mask, prefactor * (1 - 2 * odd))

    def matrix(self) -> np.ndarray:
        return self.signed_permutation().matrix()


@dataclass(frozen=True)
class Stage:
    """Evolution period followed by an optional boundary pulse."""

    duration: float
    pulse: PauliAssignment | None = None

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("stage duration must be nonnegative")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered stages; the pulse of stage n fires after its evolution."""

    n_dots: int
    stages: tuple[Stage, ...]

    def __init__(self, n_dots: int, stages: Iterable[Stage]):
        stages = tuple(stages)
        for st in stages:
            if st.pulse is not None and st.pulse.n_dots != n_dots:
                raise ValueError("pulse width does not match dot count")
        object.__setattr__(self, "n_dots", int(n_dots))
        object.__setattr__(self, "stages", stages)

    @property
    def total_time(self) -> float:
        return float(sum(st.duration for st in self.stages))

    def cumulative_pulses(self) -> list[PauliAssignment]:
        """Q_n, the product of all pulses before stage n, for every stage."""
        out = [PauliAssignment.identity(self.n_dots)]
        for st in self.stages[:-1]:
            current = out[-1]
            if st.pulse is not None:
                current, _ = st.pulse.compose(current)
            out.append(current)
        return out

    def net_pulse(self) -> PauliAssignment:
        net = PauliAssignment.identity(self.n_dots)
        for st in self.stages:
            if st.pulse is not None:
                net, _ = st.pulse.compose(net)
        return net

    def dot_sign_matrix(self) -> np.ndarray:
        """(stages, dots) array of per-stage dot signs sig(Q_n at j)."""
        qs = self.cumulative_pulses()
        return np.array([[q.sig(j) for j in range(self.n_dots)] for q in qs])

    def pulse_count(self, dot: int) -> int:
        return sum(
            1
            for st in self.stages
            if st.pulse is not None and st.pulse.labels[dot] in ("X", "Y")
        )

    def to_json(self) -> str:
        doc = {
            "stages": [
                {
                    "tau": st.duration,
                    "pulse": [
                        {"dot": j, "pauli": lab}
                        for j, lab in enumerate(st.pulse.labels)
                        if lab != "I"
                    ]
                    if st.pulse is not None
                    else [],
                }
                for st in self.stages
            ]
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, source: str | dict, n_dots: int) -> "PulseSchedule":
        doc = json.loads(source) if isinstance(source, str) else source
        stages = []
        for rec in doc["stages"]:
            labels = ["I"] * n_dots
            for p in rec.get("pulse", []):
                labels[int(p["dot"])] = str(p["pauli"])
            pulse = PauliAssignment(labels)
            stages.append(Stage(float(rec["tau"]), None if pulse.is_identity() else pulse))
        return cls(n_dots, stages)


@dataclass(frozen=True)
class CalibrationTarget:
    """Per-bond phase targets and velocities, on a chosen phase lattice.

    ``modulus`` is pi for controlled-phase targets (the general lattice) or
    2pi for the coarser branch that realizes uncorrected end-to-end Z
    pairs; both are exposed, mirroring the two branches of the time solver.
    """

    phases: tuple[float, ...]
    velocities: tuple[float, ...]
    modulus: float = np.pi

    def __post_init__(self):
        if len(self.phases) != len(self.velocities):
            raise ValueError("phases and velocities must align with the bond list")
        for phi, delta in zip(self.phases, self.velocities):
            if abs(delta) < 1e-15 and circular_distance(phi, 0.0, self.modulus) > 1e-9:
                raise ValueError(
                    "a zero-velocity bond can only target a phase that is "
                    "zero on the lattice"
                )

    @classmethod
    def for_array(
        cls, array: DotArray, phases: Sequence[float], modulus: float = np.pi
    ) -> "CalibrationTarget":
        return cls(tuple(float(p) for p in phases), tuple(b.velocity for b in array.bonds), modulus)


# -- conjugated grid vectors and sign structure --------------------------------

def conjugated_bond(bond: Bond, q: PauliAssignment) -> Bond:
    flips = (q.labels[bond.j] in ("X", "Y")) + (q.labels[bond.k] in ("X", "Y"))
    return bond.conjugated() if flips % 2 else bond


def conjugated_grid_vector(array: DotArray, q: PauliAssignment) -> np.ndarray:
    """Grid vector with S and T swapped on every bond that has an odd number
    of X/Y labels on its endpoints; Z and I leave bonds unchanged."""
    return grid_vector(array.with_bonds(conjugated_bond(b, q) for b in array.bonds))


def subset_signs(array: DotArray, flipped: frozenset[int]) -> np.ndarray:
    """Per-bond velocity sign when the dots in ``flipped`` carry X or Y."""
    return np.array(
        [
            (-1 if b.j in flipped else 1) * (-1 if b.k in flipped else 1)
            for b in array.bonds
        ]
    )


def stage_sign_matrix(array: DotArray, schedule: PulseSchedule) -> np.ndarray:
    """(bonds, stages) matrix of per-stage bond signs."""
    qs = schedule.cumulative_pulses()
    return np.array([subset_signs(array, q.flipped_dots()) for q in qs]).T


def accumulated_bond_phases(array: DotArray, schedule: PulseSchedule) -> np.ndarray:
    """Per-bond phase integral sum_n tau_n * a_w^(n) * Delta_w."""
    signs = stage_sign_matrix(array, schedule)
    durations = np.array([st.duration for st in schedule.stages])
    velocities = np.array([b.velocity for b in array.bonds])
    return velocities * (signs @ durations)


# -- assignment enumeration -----------------------------------------------------

@dataclass(frozen=True)
class AssignmentEnumeration:
    """Distinct bond-sign vectors reachable by flipping dot subsets."""

    vectors: tuple[tuple[int, ...], ...]
    representatives: tuple[frozenset[int], ...]
    n_distinct: int
    n_bonds: int
    linear_span: bool
    positive_span: bool


def _positively_spans(mat: np.ndarray) -> bool:
    """Whether the columns of mat positively span R^rows."""
    from scipy.optimize import linprog

    rows = mat.shape[0]
    for i in range(rows):
        for sign in (1.0, -1.0):
            target = np.zeros(rows)
            target[i] = sign
            res = linprog(
                np.zeros(mat.shape[1]),
                A_eq=mat,
                b_eq=target,
                bounds=[(0, None)] * mat.shape[1],
                method="highs",
            )
            if not res.success:
                return False
    return True


def assignment_vectors(array: DotArray, max_dots: int = 20) -> AssignmentEnumeration:
    """Enumerate all X-subset assignments and their distinct sign vectors.

    Reports the distinct count, whether the vectors span the per-bond space
    linearly, and whether they span it positively (so nonnegative durations
    exist for any right-hand side).
    """
    n = array.n_dots
    if n > max_dots:
        raise ValueError(f"enumeration over 2^{n} subsets exceeds the limit")
    seen: dict[tuple[int, ...], frozenset[int]] = {}
    for mask in range(1 << n):
        subset = frozenset(j for j in range(n) if (mask >> j) & 1)
        vec = tuple(int(v) for v in subset_signs(array, subset))
        if vec not in seen:
            seen[vec] = subset
    vectors = tuple(sorted(seen, reverse=True))
    reps = tuple(seen[v] for v in vectors)
    mat = np.array(vectors, dtype=float).T
    linear = np.linalg.matrix_rank(mat) >= array.n_bonds if array.n_bonds else True
    positive = _positively_spans(mat) if array.n_bonds else True
    return AssignmentEnumeration(
        vectors=vectors,
        representatives=reps,
        n_distinct=len(vectors),
        n_bonds=array.n_bonds,
        linear_span=bool(linear),
        positive_span=bool(positive),
    )


def choose_assignments(array: DotArray) -> list[frozenset[int]]:
    """Default stage assignments: the trivial one plus a greedy linearly
    independent set of X-subsets, preferring small subsets."""
    n = array.n_dots
    b = array.n_bonds
    chosen: list[frozenset[int]] = [frozenset()]
    rows = [np.ones(b)]
    # by size, then lexicographically, generated only as far as needed
    subsets = (frozenset(c) for size in range(1, n + 1) for c in combinations(range(n), size))
    for subset in subsets:
        if len(chosen) >= b:
            break
        vec = subset_signs(array, subset).astype(float)
        trial = np.array(rows + [vec])
        if np.linalg.matrix_rank(trial) > len(rows):
            chosen.append(subset)
            rows.append(vec)
    return chosen


# -- interval solving -----------------------------------------------------------

def _pulses_from_subsets(subsets: Sequence[frozenset[int]], n_dots: int) -> list[PauliAssignment | None]:
    """Boundary pulses between consecutive stage assignments (X on every dot
    whose sign flips); the final stage has no boundary pulse."""
    pulses: list[PauliAssignment | None] = []
    for prev, cur in zip(subsets, list(subsets[1:]) + [None]):
        if cur is None:
            pulses.append(None)
            continue
        diff = prev ^ cur
        pulses.append(PauliAssignment.x_on(diff, n_dots) if diff else None)
    return pulses


def _narrow(lo: np.ndarray, hi: np.ndarray, value: np.ndarray, slope: float, floor: float):
    """Shrink the per-row ranges [lo, hi] to the m with value + slope * m >= floor."""
    if slope == 0:
        hi[value < floor] = -np.inf
    elif slope > 0:
        np.maximum(lo, np.ceil((floor - value) / slope), out=lo)
    else:
        np.minimum(hi, np.floor((floor - value) / slope), out=hi)


def _square_durations(
    amat: np.ndarray, phi: np.ndarray, vel: np.ndarray, modulus: float, bound: int, tol: float
) -> np.ndarray:
    """Durations of the best offset tuple for one invertible b x b sign matrix.

    ``tau(m) = A^-1 ((phi + modulus m) / vel)`` is affine in the offsets.  The
    first b - 1 offsets are enumerated; for each such prefix tau is affine in
    the last offset m_b, so the m_b that keep every tau >= -tol form an integer
    interval, and the total time, linear in m_b, is least at one of its ends.
    Ranges and totals are widened by a rounding bound, so the tuples kept are
    a superset of those the exact rule below can accept; only they are
    evaluated exactly.
    """
    n = amat.shape[0]
    ainv = np.linalg.inv(amat)

    def taus_of(mcombo):  # (rows, bonds) offsets -> (rows, stages) durations
        return ((phi[None, :] + modulus * mcombo) / vel[None, :]) @ ainv.T

    side = 2 * bound + 1
    prefixes = np.indices((side,) * (n - 1)).reshape(n - 1, side ** (n - 1)).T - bound
    base = taus_of(np.column_stack([prefixes, np.zeros(len(prefixes))]))  # at m_b = 0
    beta = ainv[:, -1] * (modulus / vel[-1])
    totals, total_slope = base.sum(axis=1), beta.sum()
    # twice a forward-error bound of either way of computing tau (a dot
    # product of length n over right-hand sides of at most reach)
    reach = np.abs(ainv) @ ((np.abs(phi) + modulus * bound) / np.abs(vel))
    slack = 8 * (n + 4) * np.finfo(float).eps * reach
    total_slack = 2.0 * slack.sum()

    def last_offsets(floor, ceiling):
        lo, hi = np.full(len(base), -float(bound)), np.full(len(base), float(bound))
        for s in range(n):
            _narrow(lo, hi, base[:, s], beta[s], floor[s])
        _narrow(lo, hi, -totals, -total_slope, -ceiling)
        return lo, hi

    # tuples that are feasible even after rounding bound the best total
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
    # deterministic tie-break among minimal-time solutions: smallest
    # offset magnitudes first, then the lexicographically smallest tuple
    keys = np.vstack([mcombo[near].T[::-1], np.abs(mcombo[near]).sum(axis=1)])
    winner = near[np.lexsort(keys)][0]
    return np.clip(taus[winner], 0.0, None)


def solve_intervals(
    array: DotArray,
    target: CalibrationTarget,
    assignments: Sequence[frozenset[int]] | None = None,
    offset_bound: int = 8,
    tol: float = 1e-9,
) -> PulseSchedule:
    """Solve stage durations so every bond accumulates its target phase.

    The system is ``sum_n a_w^(n) tau_n = (phi_w + m_w * modulus) / Delta_w``
    with free integer offsets ``|m_w| <= offset_bound`` (per-bond offsets are
    independent) and durations required nonnegative; among exact solutions
    the smallest total time wins, ties broken by the smallest offset
    magnitudes and then the lexicographically smallest tuple.  Stage 0 must
    carry the trivial assignment (no pulses yet).

    For fixed offsets, min sum(tau) subject to the system and tau >= 0 is a
    linear program, so it is attained at a basic solution: b of the stages
    (b active bonds) whose b x b sign matrix is invertible, the others held
    at zero.  Every such basis is searched in closed form: the first b - 1
    offsets are enumerated and the last one solved for, so the whole search
    costs C(stages, b) * (2M+1)^(b-1) * b for M = ``offset_bound``, and the
    result within a basis is the one an exhaustive search over all (2M+1)^b
    tuples picks by the rule above.  Across bases the least total wins; a
    later basis replaces an earlier one only when its total is lower by
    more than the tie window ``1e-12`` relative plus ``1e-15``, so among
    equal totals the earliest basis (the fewest pulses) is kept.  With as
    many stages as active bonds, the default, there is one basis.

    Raises
    ------
    InfeasibleSchedule
        If no basis and offset combination inside the bound admits tau >= 0;
        the reported residual is the least worst-case duration violation
        over all of them.
    """
    if assignments is None:
        assignments = choose_assignments(array)
    assignments = [frozenset(s) for s in assignments]
    if assignments[0]:
        raise ValueError("the first stage assignment must be the trivial one")
    velocities = np.array(target.velocities)
    phases = np.asarray(target.phases, dtype=float)
    active = np.abs(velocities) > 1e-15
    amat = np.array([subset_signs(array, s) for s in assignments], dtype=float).T
    amat = amat[active]
    vel = velocities[active]
    phi = phases[active]
    n_bonds, n_stages = amat.shape
    if n_bonds == 0:
        return PulseSchedule(array.n_dots, [Stage(0.0, None)])
    if n_stages < n_bonds or np.linalg.matrix_rank(amat) < n_bonds:
        raise ValueError("stage assignments do not span the active bonds")
    if (2 * offset_bound + 1) ** n_bonds > 4_000_000:
        raise ValueError(
            f"offset search over {(2 * offset_bound + 1)}^{n_bonds} combinations "
            "is too large; lower offset_bound or split the array"
        )

    durations, best_total, least = None, np.inf, np.inf
    for basis in combinations(range(n_stages), n_bonds):
        sub = amat[:, list(basis)]
        if np.linalg.matrix_rank(sub) < n_bonds:
            continue
        try:
            taus = _square_durations(sub, phi, vel, target.modulus, offset_bound, tol)
        except InfeasibleSchedule as exc:
            least = min(least, exc.best_residual)
            continue
        total = taus.sum()
        if total * (1.0 + 1e-12) + 1e-15 < best_total:
            durations = np.zeros(n_stages)
            durations[list(basis)] = taus
            best_total = total
    if durations is None:
        raise InfeasibleSchedule("no nonnegative durations in offset bound", least)

    # Drop zero-length stages, composing their boundary pulses.
    assignments_kept = [assignments[0]]
    durations_kept = [float(durations[0])]
    for idx in range(1, n_stages):
        if durations[idx] <= 1e-12:
            continue
        assignments_kept.append(assignments[idx])
        durations_kept.append(float(durations[idx]))
    pulses = _pulses_from_subsets(assignments_kept, array.n_dots)
    schedule = PulseSchedule(
        array.n_dots,
        [Stage(d, p) for d, p in zip(durations_kept, pulses)],
    )
    achieved = accumulated_bond_phases(array, schedule)
    err = circular_distance(achieved[active], phi, target.modulus)
    if np.max(err) > max(tol, 1e-7):
        raise InfeasibleSchedule("schedule verification failed", float(np.max(err)))
    return schedule


# -- pulse-induced local phases --------------------------------------------------

@dataclass(frozen=True)
class PulsePhases:
    """Extra per-qubit phases induced by the pulses, plus the net Pauli.

    ``per_qubit[j]`` is the half-angle phi'_j of the sigma^Z rotation picked
    up by qubit j; to first order the pulsed propagator factorizes as
    ``net * prod_j exp(-i phi'_j sigma_j^Z) * prod_n exp(i tau_n Lambda^(n))``.
    ``free`` is the same object expressed as a free-phase map on the
    diagonal (global part plus 2 phi'_j per excited bit).
    """

    per_qubit: tuple[float, ...]
    free: FreePhase
    net: PauliAssignment


def extra_local_phases(schedule: PulseSchedule, array: DotArray) -> PulsePhases:
    """Accumulate the pulse-induced single-qubit phases stage by stage.

    Each stage contributes ``(sig(Q_n at j) - sig(Q_N at j)) / 2 * eps_j *
    tau_n`` to qubit j, where Q_n is the cumulative pulse product during the
    stage and Q_N the net product.
    """
    eps = array.zeemans
    if len(eps) != schedule.n_dots:
        raise ValueError("schedule and array disagree on the dot count")
    qs = schedule.cumulative_pulses()
    net = schedule.net_pulse()
    phi = np.zeros(schedule.n_dots)
    for q, st in zip(qs, schedule.stages):
        for j in range(schedule.n_dots):
            phi[j] += 0.5 * (q.sig(j) - net.sig(j)) * eps[j] * st.duration
    free = FreePhase(wrap_2pi(-np.sum(phi)), wrap_2pi(2.0 * phi))
    return PulsePhases(tuple(float(x) for x in phi), free, net)


# -- dynamical-decoupling weave ---------------------------------------------------

def _toggle_times(schedule: PulseSchedule) -> tuple[list[list[float]], list[float]]:
    """Per-dot pulse times plus the stage boundary times."""
    times: list[list[float]] = [[] for _ in range(schedule.n_dots)]
    t = 0.0
    boundaries = []
    for st in schedule.stages:
        t += st.duration
        boundaries.append(t)
        if st.pulse is not None:
            for j in st.pulse.flipped_dots():
                times[j].append(t)
    return times, boundaries


def weave_dd(schedule: PulseSchedule, budget: int = 16) -> PulseSchedule:
    """Rewrite a schedule so every qubit sees an alternating X-Y echo train.

    Only two kinds of insertions are used, both of which leave every
    per-bond accumulated phase exactly unchanged: pulses at the final
    boundary (no evolution follows) and simultaneous all-dot pulses at
    interior times (flipping both endpoints of every bond preserves its
    velocity sign).  Per-dot pulse counts are padded to a multiple of four
    so the alternating X, Y, X, Y labels compose to the identity (up to a
    global phase) on every qubit; the inserted all-dot pulses are spaced
    evenly across the total time.  Existing X/Y pulses keep their times but
    may be relabeled (both conjugations act identically on every bond);
    Z labels, being free-phase equivalent, are dropped.

    Raises
    ------
    BudgetExceeded
        If some qubit would need more than ``budget`` pulses.
    """
    n = schedule.n_dots
    total = schedule.total_time
    if total <= 0:
        raise ValueError("cannot weave a schedule with zero total time")
    per_dot, _ = _toggle_times(schedule)

    # Event list: (time, dot) for existing pulses; end-of-schedule insertions
    # carry the timestamp `total`.
    events: list[tuple[float, int]] = [
        (t, j) for j, ts in enumerate(per_dot) for t in ts
    ]
    counts = np.array([len(ts) for ts in per_dot])

    # Make every count even with a final-boundary pulse (also cancels the
    # net bit-flip of the base schedule).
    for j in np.flatnonzero(counts % 2 == 1):
        events.append((total, int(j)))
        counts[j] += 1

    # Dots still short of a multiple of four get a same-instant pair at the
    # end; the zero elapsed time keeps phases untouched.
    deficits = (-counts) % 4
    uniform = len(set(deficits.tolist())) == 1
    if not uniform:
        for j in np.flatnonzero(deficits == 2):
            events.append((total, int(j)))
            events.append((total, int(j)))
            counts[j] += 2
        deficits = (-counts) % 4

    # Global insertions: every dot flips, no bond sign changes.  Choose the
    # smallest even count that fixes the residual deficit and guarantees at
    # least four pulses per dot.
    d = int(deficits[0]) if len(set(deficits.tolist())) == 1 else 0
    n_globals = d
    while np.min(counts) + n_globals < 4:
        n_globals += 4
    global_times = [total * (i + 1) / n_globals for i in range(n_globals)] if n_globals else []
    for t in global_times:
        for j in range(n):
            events.append((t, j))
    counts += n_globals

    if int(np.max(counts)) > budget:
        raise BudgetExceeded(
            f"weave needs {int(np.max(counts))} pulses on one qubit, budget is {budget}"
        )

    # Assign alternating labels per dot in time order (stable for stacked
    # same-time events), then rebuild stages at the union of event times.
    events_sorted = sorted(range(len(events)), key=lambda i: (events[i][0], i))
    label_state = {j: 0 for j in range(n)}
    labeled: list[tuple[float, int, str]] = []
    for i in events_sorted:
        t, j = events[i]
        labeled.append((t, j, "X" if label_state[j] % 2 == 0 else "Y"))
        label_state[j] += 1

    # Group events into boundary slots; same-dot repeats at one timestamp
    # become zero-duration stages so each boundary carries one label per dot.
    slots: list[tuple[float, dict[int, str]]] = []
    for t, j, lab in labeled:
        if slots and abs(slots[-1][0] - t) < 1e-15 and j not in slots[-1][1]:
            slots[-1][1][j] = lab
        else:
            slots.append((t, {j: lab}))

    stages: list[Stage] = []
    prev = 0.0
    for t, group in slots:
        labels = ["I"] * n
        for j, lab in group.items():
            labels[j] = lab
        stages.append(Stage(max(t - prev, 0.0), PauliAssignment(labels)))
        prev = t
    if prev < total - 1e-15:
        stages.append(Stage(total - prev, None))
    else:
        stages.append(Stage(0.0, None))
    woven = PulseSchedule(n, stages)
    return woven


# -- k-space path ---------------------------------------------------------------

@dataclass(frozen=True)
class KSpacePath:
    """Piecewise-linear per-bond accumulated phase over time, in pi units."""

    times: np.ndarray
    raw: np.ndarray      # (points, bonds), phase / pi
    folded: np.ndarray   # raw folded into the target unit cell
    modulus: float

    def endpoint_distance(self, target_phases: Sequence[float]) -> float:
        """Folded distance of the endpoint from the target lattice point."""
        target = np.mod(np.asarray(target_phases, dtype=float), self.modulus) / np.pi
        d = circular_distance(self.folded[-1] * np.pi, target * np.pi, self.modulus)
        return float(np.max(d / np.pi))

    def to_csv(self) -> str:
        lines = ["time,bond_id,phase_over_pi,folded_phase_over_pi"]
        for i, t in enumerate(self.times):
            for w in range(self.raw.shape[1]):
                lines.append(
                    f"{float(t)!r},{w},{float(self.raw[i, w])!r},{float(self.folded[i, w])!r}"
                )
        return "\n".join(lines) + "\n"


def kspace_path(
    array: DotArray,
    schedule: PulseSchedule,
    target: CalibrationTarget,
    samples_per_stage: int = 1,
) -> KSpacePath:
    """Trace the per-bond accumulated phase (in pi units) along a schedule.

    Stage n advances bond w at velocity ``a_w^(n) Delta_w / pi``; the folded
    form reduces each coordinate modulo the target lattice period.
    """
    signs = stage_sign_matrix(array, schedule)  # (bonds, stages)
    velocities = np.array([b.velocity for b in array.bonds])
    times = [0.0]
    raw = [np.zeros(array.n_bonds)]
    t = 0.0
    for idx, st in enumerate(schedule.stages):
        rate = signs[:, idx] * velocities / np.pi
        start = raw[-1]
        for step in range(1, samples_per_stage + 1):
            dt = st.duration * step / samples_per_stage
            times.append(t + dt)
            raw.append(start + rate * dt)
        t += st.duration
    raw_arr = np.array(raw)
    cell = target.modulus / np.pi
    folded = np.mod(raw_arr, cell)
    return KSpacePath(np.array(times), raw_arr, folded, target.modulus)


def straight_path_fold(
    velocities: Sequence[float],
    target: CalibrationTarget,
    t_grid: np.ndarray,
) -> np.ndarray:
    """Folded per-bond coordinates of the unpulsed straight path on a grid."""
    v = np.asarray(velocities, dtype=float) / np.pi
    cell = target.modulus / np.pi
    return np.mod(np.outer(t_grid, v), cell)


def time_upper_bound(n_targets: int, epsilon: float, v_min: float) -> float:
    """Worst-case straight-path time to reach infidelity epsilon.

    ``tau = Gamma(n/2) / (sqrt(n-1) v_min) * ((8/pi) / (eps (n-1)))^((n-2)/2)``.
    ``v_min`` is the smallest per-bond k-space speed |Delta_w| / (2 pi),
    the slowest coordinate of the straight path.
    """
    if n_targets < 2:
        raise ValueError("need at least two targets")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if v_min <= 0:
        raise ValueError("v_min must be positive")
    n = n_targets
    return (
        gamma_function(n / 2.0)
        / (np.sqrt(n - 1.0) * v_min)
        * ((8.0 / np.pi) / (epsilon * (n - 1.0))) ** ((n - 2.0) / 2.0)
    )


def min_kspace_speed(array: DotArray) -> float:
    """Smallest per-bond |Delta| / (2 pi) over the array."""
    return float(min(abs(b.velocity) for b in array.bonds) / TWO_PI)
