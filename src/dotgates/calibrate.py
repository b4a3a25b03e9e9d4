"""Dynamical calibration of inhomogeneous bonds with instantaneous pulses.

An X or Y pulse on a dot swaps the spin-conserved and spin-flipped rates of
every bond at that dot, reversing those bonds' effective velocities; Z and
identity leave them alone.  A pulse schedule therefore steers the per-bond
accumulated phase along a piecewise-linear path in "k-space" (phase in
units of pi per bond), and the per-stage durations can be solved so every
bond lands on its target lattice point regardless of velocity mismatch.

Every stage runs in a toggling frame: the X-mask of the dots flipped an odd
number of times so far, with dot 0 the most significant bit, as in the
basis indices.  ``PulseSchedule.frames`` accumulates the pulses' X-masks
by XOR, one frame per stage plus the net frame after the last, and
``bond_signs`` reads every bond's velocity sign in a frame as ``1 - 2
(b_j xor b_k)``.  The stage sign matrix, the stage pulses of
``solve_intervals``, the pulse-induced local phases (from the per-dot
signs) and the echo weave (from the per-dot toggles) are all read from
those frames.  A pulse is its X and Z masks, and ``PauliAssignment`` is
the one pulse type: the net pulse of a schedule is the XOR of the masks,
``PauliAssignment.compose`` multiplies two pulses on their masks and
returns the product's scalar exactly, and the exact layer applies a pulse
to rows or columns, or as the reflection ``PauliAssignment.reflection``,
from its masks alone.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .basis import bit_of, bit_table, circular_distance, single_bit_index, wrap_2pi
from .gates import FreePhase, NoBondVelocity, Unreachable
from .model import DotArray, integer

# (x, z) bits of each single-qubit Pauli, with Y = i X Z
_PAULI_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_PAULI_LABEL = {bits: lab for lab, bits in _PAULI_BITS.items()}
_I_POWERS = (1.0 + 0j, 1j, -1.0 + 0j, -1j)


class InfeasibleSchedule(Unreachable, RuntimeError):
    """No nonnegative stage durations found within the offset search bound."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(f"{message} (best residual {best_residual:.3e})")
        self.best_residual = best_residual


class BudgetExceeded(Unreachable, RuntimeError):
    """Weaving would need more pulses per qubit than the configured budget."""


@functools.lru_cache(maxsize=64)
def _pauli_phase(n_dots: int, x: int, z: int) -> np.ndarray:
    """``i^|x & z| (-1)^|b & z|`` for every basis state b, read-only: the
    phases of a Pauli string, shared by every pulse with these masks."""
    idx = np.arange(1 << n_dots)
    odd = np.zeros(idx.shape, dtype=np.int64)  # parity of |b & z|
    for shift in range(n_dots):
        if (z >> shift) & 1:
            odd ^= (idx >> shift) & 1
    phase = _I_POWERS[(x & z).bit_count() % 4] * (1 - 2 * odd)
    phase.flags.writeable = False
    return phase


@dataclass(frozen=True)
class PauliAssignment:
    """One Pauli per dot, applied simultaneously, held as two bit masks.

    The assignment is ``i^|x & z| X^x Z^z``: ``x_mask`` and ``z_mask`` are
    indexed like basis states (dot 0 the most significant bit), so it maps
    ``|b>`` to ``i^|x & z| (-1)^|b & z| |b ^ x>``.  It is built from one
    I/X/Y/Z label per dot, and ``labels`` reads them back.
    """

    n_dots: int
    x_mask: int
    z_mask: int

    def __init__(self, labels: Iterable[str]):
        n = x = z = 0
        for lab in labels:
            if lab not in _PAULI_BITS:
                raise ValueError(f"unknown Pauli label {lab!r}")
            bx, bz = _PAULI_BITS[lab]
            n, x, z = n + 1, (x << 1) | bx, (z << 1) | bz
        self._fill(n, x, z)

    def _fill(self, n_dots: int, x: int, z: int) -> None:
        object.__setattr__(self, "n_dots", n_dots)
        object.__setattr__(self, "x_mask", x)
        object.__setattr__(self, "z_mask", z)

    @classmethod
    def _from_masks(cls, x: int, z: int, n_dots: int) -> "PauliAssignment":
        pulse = object.__new__(cls)
        pulse._fill(n_dots, x, z)
        return pulse

    @classmethod
    def identity(cls, n_dots: int) -> "PauliAssignment":
        return cls._from_masks(0, 0, n_dots)

    @classmethod
    def x_on(cls, dots: Iterable[int], n_dots: int) -> "PauliAssignment":
        x = 0
        for d in dots:
            if not 0 <= d < n_dots:
                raise ValueError(f"dot {d} is not in 0..{n_dots - 1}")
            x |= single_bit_index(d, n_dots)
        return cls._from_masks(x, 0, n_dots)

    @property
    def labels(self) -> tuple[str, ...]:
        """One I/X/Y/Z label per dot, dot 0 first."""
        shifts = range(self.n_dots - 1, -1, -1)
        return tuple(_PAULI_LABEL[(self.x_mask >> s) & 1, (self.z_mask >> s) & 1] for s in shifts)

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def compose(self, other: "PauliAssignment") -> tuple["PauliAssignment", complex]:
        """``self`` applied after ``other``; returns the product and its global phase.

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

    def _phases(self) -> np.ndarray:
        return _pauli_phase(self.n_dots, self.x_mask, self.z_mask)

    def _shifted(self) -> np.ndarray:
        return np.arange(1 << self.n_dots) ^ self.x_mask

    def apply_rows(self, matrix: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
        """``diag(scale) @ self @ matrix``, one product per entry of ``matrix``."""
        shifted = self._shifted()
        phase = self._phases() if scale is None else self._phases() * scale[shifted]
        return (phase[:, None] * matrix)[shifted]

    def apply_columns(self, matrix: np.ndarray) -> np.ndarray:
        """``matrix @ self``."""
        return matrix[:, self._shifted()] * self._phases()[None, :]

    def matrix(self) -> np.ndarray:
        idx = np.arange(1 << self.n_dots)
        out = np.zeros((idx.shape[0], idx.shape[0]), dtype=complex)
        out[idx ^ self.x_mask, idx] = self._phases()
        return out

    def reflection(self, v: np.ndarray, out: np.ndarray) -> np.ndarray | None:
        """``C`` with ``V^dag self V = C^dag C - I`` for unitary V, or None for I.

        A Pauli string other than I is a traceless Hermitian involution, so
        ``self = 2 Pi - I`` with ``Pi`` the projector on its +1 eigenspace,
        of rank 2^N / 2.  ``C`` holds ``sqrt(2) Pi V`` in that eigenspace's
        basis: one row ``V[b] + conj(phase[b]) V[b ^ x]`` for each pair
        ``{b, b ^ x}``, or ``sqrt(2) V[b]`` for each b with ``phase[b] = +1``
        when the X mask is 0.  The gather costs O(4^N) and writes C into
        ``out`` (2^N / 2 rows).
        """
        if self.is_identity():
            return None
        phase = self._phases()
        if self.x_mask:
            top = 1 << (self.x_mask.bit_length() - 1)
            lo = np.arange(phase.shape[0]).reshape(-1, 2, top)[:, 0].ravel()
            # mode "clip" lets take write into out unbuffered; every index is in range
            rows = np.take(v, lo ^ self.x_mask, axis=0, out=out, mode="clip")
            rows *= np.conj(phase[lo])[:, None]
            rows += v[lo]
        else:
            rows = np.take(v, np.flatnonzero(phase.real > 0), axis=0, out=out, mode="clip")
            rows *= np.sqrt(2.0)
        return rows


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

    def frames(self) -> np.ndarray:
        """X-mask in force during each stage, then the net mask after the
        last stage: the XOR of the X-masks of every pulse fired so far."""
        pulses = [0] + [0 if st.pulse is None else st.pulse.x_mask for st in self.stages]
        return np.bitwise_xor.accumulate(np.array(pulses, dtype=np.int64))

    def net_pulse(self) -> PauliAssignment:
        """Product of the pulses up to a global phase: the XOR of their masks."""
        x = z = 0
        for st in self.stages:
            if st.pulse is not None:
                x, z = x ^ st.pulse.x_mask, z ^ st.pulse.z_mask
        return PauliAssignment._from_masks(x, z, self.n_dots)

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
                dot = integer(p["dot"], "pulse dot")
                if not 0 <= dot < n_dots:
                    raise ValueError(f"dot {dot} is not in 0..{n_dots - 1}")
                labels[dot] = str(p["pauli"])
            pulse = PauliAssignment(labels)
            stages.append(Stage(float(rec["tau"]), None if pulse.is_identity() else pulse))
        return cls(n_dots, stages)


@dataclass(frozen=True)
class CalibrationTarget:
    """Per-bond phase targets and velocities; bond w must land on the
    lattice ``phases[w] + pi Z`` of controlled-phase targets."""

    phases: tuple[float, ...]
    velocities: tuple[float, ...]

    def __post_init__(self):
        if len(self.phases) != len(self.velocities):
            raise ValueError("phases and velocities must align with the bond list")
        for phi, delta in zip(self.phases, self.velocities):
            if abs(delta) < 1e-15 and circular_distance(phi, 0.0, np.pi) > 1e-9:
                raise NoBondVelocity(
                    "a zero-velocity bond can only target a phase that is "
                    "zero on the lattice"
                )

    @classmethod
    def for_array(cls, array: DotArray, phases: Sequence[float]) -> "CalibrationTarget":
        return cls(tuple(float(p) for p in phases), tuple(b.velocity for b in array.bonds))


# -- toggling-frame signs ---------------------------------------------------------

def _dot_signs(masks, n_dots: int) -> np.ndarray:
    """(..., dots) signs of X-masks: -1 on every dot whose bit is set."""
    masks = np.asarray(masks, dtype=np.int64)[..., None]
    return 1 - 2 * bit_of(masks, np.arange(n_dots), n_dots)


def bond_signs(array: DotArray, masks) -> np.ndarray:
    """(..., bonds) velocity signs in the toggling frames ``masks``:
    ``1 - 2 (b_j xor b_k)`` per bond, dot 0 the most significant bit."""
    signs = _dot_signs(masks, array.n_dots)
    j = [b.j for b in array.bonds]
    k = [b.k for b in array.bonds]
    return signs[..., j] * signs[..., k]


def subset_signs(array: DotArray, flipped: frozenset[int]) -> np.ndarray:
    """Per-bond velocity sign when the dots in ``flipped`` carry X or Y."""
    return bond_signs(array, PauliAssignment.x_on(flipped, array.n_dots).x_mask)


def stage_sign_matrix(array: DotArray, schedule: PulseSchedule) -> np.ndarray:
    """(bonds, stages) matrix of per-stage bond signs."""
    return bond_signs(array, schedule.frames()[:-1]).T


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


# Most dots whose 2^N X-subsets ``assignment_vectors`` enumerates.  Its sign
# table holds 2^N x bonds entries: 16 fully connected dots (120 bonds) took
# 1.4 s and 310 MB of peak memory.
ENUMERATION_MAX_DOTS = 16


def assignment_vectors(array: DotArray) -> AssignmentEnumeration:
    """Enumerate all X-subset assignments and their distinct sign vectors.

    Each vector's representative is its first subset in the order of
    ``sum(2^j for j in subset)``.

    The vectors always span the bond space positively, so nonnegative
    stage durations exist for any right-hand side.  Bond (j, k) has sign
    ``(-1)^(b_j + b_k)`` in the frame with X-mask b: the Walsh function of
    the mask with bits j and k set.  ``DotArray`` forces j < k and forbids
    duplicate bonds, so distinct bonds have distinct Walsh functions.
    Distinct Walsh functions are orthogonal over the 2^N masks, so the
    sign table, and with it the set of distinct vectors, has rank equal to
    the bond count.  None of these Walsh functions is the constant one
    (j != k), so each sums to 0 over all masks, and the distinct vectors
    weighted by their multiplicities (all > 0) sum to 0.  That puts every
    -v in the cone of the vectors, so their positive span equals their
    linear span.

    Raises
    ------
    ValueError
        If the array has more than ``ENUMERATION_MAX_DOTS`` dots.
    """
    n = array.n_dots
    if n > ENUMERATION_MAX_DOTS:
        raise ValueError(f"enumeration over 2^{n} subsets exceeds the limit")
    # reversing the bits of subset index i gives its X-mask (dot j at bit i_j)
    masks = bit_table(n) @ (1 << np.arange(n))
    table, first = np.unique(bond_signs(array, masks), axis=0, return_index=True)
    vectors = tuple(tuple(int(v) for v in row) for row in table[::-1])
    reps = tuple(frozenset(j for j in range(n) if (i >> j) & 1) for i in first[::-1].tolist())
    return AssignmentEnumeration(
        vectors=vectors,
        representatives=reps,
        n_distinct=len(vectors),
        n_bonds=array.n_bonds,
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

# Growth of the total-time cap between rounds of the offset search.  A round
# over b bonds costs about the cap to the power b - 1.  Measured: 1.25 was
# slower than 1.5 everywhere (more rounds); 2 was 17 % faster on 5-bond
# trees but nearly 3x slower on 7- and 8-bond chains and stars (larger last
# boxes), and it overshoots the budget on planted 12-bond trees that 1.5
# solves.
_CAP_GROWTH = 1.5
# Most offset tuples one round of the offset search may hold, and most
# offset prefixes it may store (a prefix row costs about 4b floats).  At any
# bound >= 1 a whole box within the tuple budget has at most a third of it
# as prefixes, so the prefix cap refuses no box inside such a whole box; it
# keeps a round that reaches the tuple budget through a narrow last offset
# from storing millions of rows.
_OFFSET_BUDGET = 4_000_000
_PREFIX_BUDGET = _OFFSET_BUDGET // 3
_DURATION_TOL = 1e-9  # how far below zero a solved duration may round


def _narrow(lo: np.ndarray, hi: np.ndarray, value: np.ndarray, slope: float, floor: float):
    """Shrink the per-row ranges [lo, hi] to the m with value + slope * m >= floor."""
    if slope == 0:
        hi[value < floor] = -np.inf
    elif slope > 0:
        np.maximum(lo, np.ceil((floor - value) / slope), out=lo)
    else:
        np.minimum(hi, np.floor((floor - value) / slope), out=hi)


def _least_total(phi: np.ndarray, vel: np.ndarray, modulus: float) -> float:
    """Lower bound on the total time of any offset tuple: bond w needs at
    least its distance to the lattice ``phi_w + modulus Z`` over ``|vel_w|``."""
    gap = np.abs(np.remainder(phi + 0.5 * modulus, modulus) - 0.5 * modulus)
    return float(np.max(gap / np.abs(vel)))


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

    The offsets are searched in rounds under a cap T on the total time.  A is
    a +-1 matrix, so a tuple with durations >= -tol and total <= T has
    ``|phi_w + modulus m_w| <= |vel_w| (T + 2 b tol)`` up to rounding: each
    round searches only that box of offsets, and accepts its winner when the
    winner's whole tie window lies under T, as then no tuple outside the box
    can win or tie.  Otherwise T grows.  The round whose box is the whole
    ``[-bound, bound]^b`` drops the cap and is the exhaustive search, so an
    infeasible instance is reported from it.

    Raises
    ------
    ValueError
        If a round's box holds more than ``_OFFSET_BUDGET`` offset tuples or
        ``_PREFIX_BUDGET`` prefixes, or the whole box is empty (``bound < 0``).
    InfeasibleSchedule
        If no tuple in the whole box admits durations >= -tol; the residual
        is the least worst-case duration violation over all of them.
    """
    n = amat.shape[0]
    ainv = np.linalg.inv(amat)

    def taus_of(mcombo):  # (rows, bonds) offsets -> (rows, stages) durations
        return ((phi[None, :] + modulus * mcombo) / vel[None, :]) @ ainv.T

    beta = ainv[:, -1] * (modulus / vel[-1])
    total_slope = beta.sum()
    # twice a forward-error bound of either way of computing tau (a dot
    # product of length n over right-hand sides of at most reach)
    reach = np.abs(ainv) @ ((np.abs(phi) + modulus * bound) / np.abs(vel))
    slack = 8 * (n + 4) * np.finfo(float).eps * reach
    total_slack = 2.0 * slack.sum()
    # a tuple the rule keeps under cap T has sum|tau| <= T + spread, and
    # pad covers the rounding of the box ends for offsets up to the bound
    spread = 2 * n * tol + 2.0 * total_slack
    pad = 4 * np.finfo(float).eps * (np.abs(phi) + modulus * (bound + 1))

    def search(box_lo, box_hi, cap):
        """Durations of the winner among the tuples in the box, or None when
        no feasible tuple there has its whole tie window under cap; then also
        a cap under which the next round is sure to accept (inf if unknown)."""
        sizes = box_hi - box_lo + 1
        count = int(np.prod(sizes[:-1]))
        prefixes = np.indices(tuple(sizes[:-1])).reshape(n - 1, count).T + box_lo[:-1]
        base = taus_of(np.column_stack([prefixes, np.zeros(count)]))  # at m_b = 0
        totals = base.sum(axis=1)

        def last_offsets(floor, ceiling):
            lo, hi = np.full(count, float(box_lo[-1])), np.full(count, float(box_hi[-1]))
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
        lo, hi = last_offsets(-tol - slack, min(window, cap + total_slack))
        keep = np.flatnonzero(lo <= hi)
        counts = (hi[keep] - lo[keep]).astype(np.int64) + 1
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        last = np.repeat(lo[keep].astype(np.int64), counts) + np.arange(counts.sum()) - starts
        mcombo = np.column_stack([prefixes[np.repeat(keep, counts)], last])

        taus = taus_of(mcombo)
        feasible = np.all(taus >= -tol, axis=1)
        if not np.any(feasible):
            if cap < np.inf:
                return None, window
            least = np.inf
            for m in range(-bound, bound + 1):
                taus = taus_of(np.column_stack([prefixes, np.full(count, m)]))
                least = min(least, float(np.min(np.max(np.maximum(-taus, 0.0), axis=1))))
            raise InfeasibleSchedule("no nonnegative durations in offset bound", least)
        totals = np.where(feasible, taus.sum(axis=1), np.inf)
        tie = totals.min() * (1.0 + 1e-12) + 1e-15
        if tie > cap:
            return None, tie + 2.0 * total_slack
        near = np.flatnonzero(totals <= tie)
        # deterministic tie-break among minimal-time solutions: smallest
        # offset magnitudes first, then the lexicographically smallest tuple
        keys = np.vstack([mcombo[near].T[::-1], np.abs(mcombo[near]).sum(axis=1)])
        winner = near[np.lexsort(keys)][0]
        return np.clip(taus[winner], 0.0, None), None

    # the tie window's additive term makes the first cap positive, so it grows
    cap = _least_total(phi, vel, modulus) * (1.0 + 1e-12) + 1e-15
    while True:
        radius = np.abs(vel) * (cap + spread) + pad
        box_lo = np.maximum(np.ceil((-radius - phi) / modulus), -bound).astype(np.int64)
        box_hi = np.minimum(np.floor((radius - phi) / modulus), bound).astype(np.int64)
        if np.all(box_lo == -bound) and np.all(box_hi == bound):
            cap = np.inf
        sure = np.inf
        if np.all(box_lo <= box_hi):
            widths = (box_hi - box_lo + 1).astype(object)
            n_tuples, n_prefixes = int(np.prod(widths)), int(np.prod(widths[:-1]))
            if n_tuples > _OFFSET_BUDGET or n_prefixes > _PREFIX_BUDGET:
                raise ValueError(
                    f"offset search over {n_tuples} combinations ({n_prefixes} prefixes) "
                    "is too large; lower offset_bound or split the array"
                )
            taus, sure = search(box_lo, box_hi, cap)
            if taus is not None:
                return taus
        elif cap == np.inf:  # only a negative bound empties the whole box
            raise ValueError(f"offset bound {bound} leaves no offsets to search")
        # a cap sure to accept short of the full growth keeps the last box small
        grown = cap * _CAP_GROWTH
        cap = sure if cap < sure < grown else grown


def solve_intervals(
    array: DotArray,
    target: CalibrationTarget,
    assignments: Sequence[frozenset[int]] | None = None,
    offset_bound: int = 8,
) -> PulseSchedule:
    """Solve stage durations so every bond accumulates its target phase.

    The system is ``sum_n a_w^(n) tau_n = (phi_w + m_w * pi) / Delta_w``
    with free integer offsets ``|m_w| <= offset_bound`` (per-bond offsets are
    independent) and durations required nonnegative; among exact solutions
    the smallest total time wins, ties broken by the smallest offset
    magnitudes and then the lexicographically smallest tuple.  Stage 0 must
    carry the trivial assignment (no pulses yet).

    For fixed offsets, min sum(tau) subject to the system and tau >= 0 is a
    linear program, so it is attained at a basic solution: b of the stages
    (b active bonds) whose b x b sign matrix is invertible, the others held
    at zero.  Every such basis is searched in closed form: the first b - 1
    offsets are enumerated and the last one solved for, over a box of offsets
    that a cap on the total time bounds, the cap growing until the box's
    winner provably beats every tuple outside it.  The search costs
    C(stages, b) times the offset prefixes of the boxes searched, at most
    (2M+1)^(b-1) for M = ``offset_bound`` in the last, whole box, and the
    result within a basis is the one an exhaustive search over all (2M+1)^b
    tuples picks by the rule above.  Across bases the least total wins; a
    later basis replaces an earlier one only when its total is lower by
    more than the tie window ``1e-12`` relative plus ``1e-15``, so among
    equal totals the earliest basis (the fewest pulses) is kept.  With as
    many stages as active bonds, the default, there is one basis.

    Raises
    ------
    ValueError
        If ``offset_bound`` is negative, the stage assignments are malformed,
        or one round of the search would hold more than 4 * 10^6 offset
        tuples.
    InfeasibleSchedule
        If no basis and offset combination inside the bound admits tau >= 0;
        the reported residual is the least worst-case duration violation
        over all of them.
    """
    if offset_bound < 0:
        raise ValueError(f"offset_bound must be nonnegative, got {offset_bound}")
    if assignments is None:
        assignments = choose_assignments(array)
    n_dots = array.n_dots
    masks = [PauliAssignment.x_on(s, n_dots).x_mask for s in assignments]
    if masks[0]:
        raise ValueError("the first stage assignment must be the trivial one")
    velocities = np.array(target.velocities)
    phases = np.asarray(target.phases, dtype=float)
    active = np.abs(velocities) > 1e-15
    amat = bond_signs(array, masks).T.astype(float)[active]
    vel = velocities[active]
    phi = phases[active]
    n_bonds, n_stages = amat.shape
    if n_bonds == 0:
        return PulseSchedule(n_dots, [Stage(0.0, None)])
    if n_stages < n_bonds or np.linalg.matrix_rank(amat) < n_bonds:
        raise ValueError("stage assignments do not span the active bonds")

    durations, best_total, least = None, np.inf, np.inf
    for basis in combinations(range(n_stages), n_bonds):
        sub = amat[:, list(basis)]
        if np.linalg.matrix_rank(sub) < n_bonds:
            continue
        try:
            taus = _square_durations(sub, phi, vel, np.pi, offset_bound, _DURATION_TOL)
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

    # Drop zero-length stages; the pulse between two kept stages is X on
    # every dot whose frame bit differs.
    kept = [0] + [idx for idx in range(1, n_stages) if durations[idx] > 1e-12]
    toggles = [masks[a] ^ masks[b] for a, b in zip(kept, kept[1:])] + [0]
    schedule = PulseSchedule(n_dots, [
        Stage(float(durations[idx]), PauliAssignment._from_masks(x, 0, n_dots) if x else None)
        for idx, x in zip(kept, toggles)
    ])
    achieved = accumulated_bond_phases(array, schedule)
    err = circular_distance(achieved[active], phi, np.pi)
    if np.max(err) > 1e-7:
        raise InfeasibleSchedule("schedule verification failed", float(np.max(err)))
    return schedule


# -- pulse-induced local phases --------------------------------------------------

def extra_local_phases(schedule: PulseSchedule, array: DotArray) -> FreePhase:
    """Accumulate the pulse-induced single-qubit phases stage by stage.

    Each stage contributes ``(s_nj - s_Nj) / 2 * eps_j * tau_n`` to the
    half-angle phi'_j of qubit j's sigma^Z rotation, where s_nj is the sign
    of dot j in the frame of stage n and s_Nj its sign in the net frame
    after the last stage.  To first order the pulsed propagator factorizes
    as ``net * prod_j exp(-i phi'_j sigma_j^Z) * prod_n exp(i tau_n Lambda^(n))``;
    the result is that rotation as a free phase on the diagonal (global part
    plus 2 phi'_j per excited bit).
    """
    eps = array.zeemans
    if len(eps) != schedule.n_dots:
        raise ValueError("schedule and array disagree on the dot count")
    signs = _dot_signs(schedule.frames(), schedule.n_dots)
    durations = np.array([st.duration for st in schedule.stages], dtype=float)
    terms = 0.5 * (signs[:-1] - signs[-1]) * eps * durations[:, None]  # (stages, dots)
    phi = sum(terms, np.zeros(schedule.n_dots))  # stage by stage, in time order
    return FreePhase(wrap_2pi(-np.sum(phi)), wrap_2pi(2.0 * phi))


# -- dynamical-decoupling weave ---------------------------------------------------

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
    # A dot's existing pulses are the stage ends where its frame bit toggles.
    frames = schedule.frames()
    toggles = bit_of((frames[1:] ^ frames[:-1])[:, None], np.arange(n), n)
    ends = np.cumsum([0.0] + [st.duration for st in schedule.stages])[1:].tolist()

    # Event list: (time, dot) for existing pulses; end-of-schedule insertions
    # carry the timestamp `total`.
    events: list[tuple[float, int]] = [
        (ends[s], j) for j in range(n) for s in np.flatnonzero(toggles[:, j]).tolist()
    ]
    counts = toggles.sum(axis=0)

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
    n_globals = int(deficits[0])
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

    # Alternate X and Y per dot in time order (stable for stacked same-time
    # events): a dot with an odd count so far takes Y.  Each boundary slot is
    # an (x, z) mask pair; a same-dot repeat at one timestamp opens a new slot,
    # a zero-duration stage, so each boundary carries one pulse per dot.
    odd = 0
    slots: list[list] = []  # [time, x, z]
    for i in sorted(range(len(events)), key=lambda i: (events[i][0], i)):
        t, j = events[i]
        bit = single_bit_index(j, n)
        y = odd & bit
        odd ^= bit
        if slots and abs(slots[-1][0] - t) < 1e-15 and not slots[-1][1] & bit:
            slots[-1][1] |= bit
            slots[-1][2] |= y
        else:
            slots.append([t, bit, y])

    stages: list[Stage] = []
    prev = 0.0
    for t, x, z in slots:
        stages.append(Stage(max(t - prev, 0.0), PauliAssignment._from_masks(x, z, n)))
        prev = t
    stages.append(Stage(total - prev if prev < total - 1e-15 else 0.0, None))
    return PulseSchedule(n, stages)


# -- k-space path ---------------------------------------------------------------

@dataclass(frozen=True)
class KSpacePath:
    """Piecewise-linear per-bond accumulated phase over time, in pi units."""

    times: np.ndarray
    raw: np.ndarray      # (points, bonds), phase / pi
    folded: np.ndarray   # raw folded into the unit cell [0, 1)

    def to_csv(self) -> str:
        lines = ["time,bond_id,phase_over_pi,folded_phase_over_pi"]
        for t, raw, folded in zip(self.times.tolist(), self.raw.tolist(), self.folded.tolist()):
            for w, (r, f) in enumerate(zip(raw, folded)):
                lines.append(f"{t!r},{w},{r!r},{f!r}")
        return "\n".join(lines) + "\n"


def kspace_path(array: DotArray, schedule: PulseSchedule, samples_per_stage: int = 1) -> KSpacePath:
    """Trace the per-bond accumulated phase (in pi units) along a schedule.

    Stage n advances bond w at velocity ``a_w^(n) Delta_w / pi``; the folded
    form reduces each coordinate modulo 1, the period of the pi lattice.
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
    return KSpacePath(np.array(times), raw_arr, np.mod(raw_arr, 1.0))


def straight_path_fold(velocities: Sequence[float], t_grid: np.ndarray) -> np.ndarray:
    """Folded per-bond coordinates (phase / pi modulo 1) of the unpulsed
    straight path on a grid."""
    v = np.asarray(velocities, dtype=float) / np.pi
    return np.mod(np.outer(t_grid, v), 1.0)
