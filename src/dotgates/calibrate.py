"""Dynamical calibration of inhomogeneous bonds with instantaneous pulses.

An X or Y pulse on a dot swaps the spin-conserved and spin-flipped rates of
every bond at that dot, reversing those bonds' effective velocities; Z and
identity leave them alone.  A pulse schedule therefore steers the per-bond
accumulated phase along a piecewise-linear path in "k-space" (phase in
units of pi per bond), and the per-stage durations can be solved so every
bond lands on its target lattice point regardless of velocity mismatch.
On a forest every bond sign vector is some frame, so ``solve_intervals``
builds the time-optimal schedule in closed form; on an array with cycles,
or at given frames, it searches integer lattice offsets.

Every stage runs in a toggling frame: the X-mask of the dots flipped an odd
number of times so far, dot 0 the most significant bit as in the basis
indices.  ``PulseSchedule.frames`` accumulates the pulses' X-masks by XOR,
one frame per stage plus the net frame after the last, and ``bond_signs``
reads a bond's velocity sign in a frame as ``1 - 2 (b_j xor b_k)``; the
stage signs, the local phases and the echo weave are read from the frames.
``PauliAssignment``, the one pulse type, is its X and Z masks
(``PauliAssignment(n)`` is the identity; ``from_labels`` parses text), every
stage carries one, and the exact layer applies it from its masks alone.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .basis import bit_of, circular_distance, single_bit_index, wrap_2pi
from .gates import FreePhase, NoBondVelocity, Unreachable
from .model import DotArray, finite, integer

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
    ``|b>`` to ``i^|x & z| (-1)^|b & z| |b ^ x>``.  ``PauliAssignment(n)``
    is the identity on n dots; ``from_labels`` reads one I/X/Y/Z label per
    dot, and ``labels`` reads them back.
    """

    n_dots: int
    x_mask: int = 0
    z_mask: int = 0

    def __post_init__(self):
        # x | z is negative if either is; 1 << n is a TypeError unless n is an integer
        if not 0 <= self.x_mask | self.z_mask < 1 << self.n_dots:
            raise ValueError(f"masks {self.x_mask}, {self.z_mask} are not in [0, 2^{self.n_dots})")

    @classmethod
    def from_labels(cls, labels: Iterable[str]) -> "PauliAssignment":
        n = x = z = 0
        for lab in labels:
            if lab not in _PAULI_BITS:
                raise ValueError(f"unknown Pauli label {lab!r}")
            bx, bz = _PAULI_BITS[lab]
            n, x, z = n + 1, (x << 1) | bx, (z << 1) | bz
        return cls(n, x, z)

    @classmethod
    def x_on(cls, dots: Iterable[int], n_dots: int) -> "PauliAssignment":
        x = 0
        for d in dots:
            if not 0 <= d < n_dots:
                raise ValueError(f"dot {d} is not in 0..{n_dots - 1}")
            x |= single_bit_index(d, n_dots)
        return cls(n_dots, x)

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
        return PauliAssignment(self.n_dots, x, z), _I_POWERS[power % 4]

    def _phases(self) -> np.ndarray:
        return _pauli_phase(self.n_dots, self.x_mask, self.z_mask)

    def _shifted(self) -> np.ndarray:
        return np.arange(1 << self.n_dots) ^ self.x_mask

    def apply_rows(self, matrix: np.ndarray, scale: np.ndarray | None = None,
                   rows: slice = slice(None)) -> np.ndarray:
        """Rows ``rows`` of ``diag(scale) @ self @ matrix``, one product per
        entry: row b is ``scale[b] phase[b ^ x] matrix[b ^ x]``."""
        shifted = self._shifted()[rows]
        phase = self._phases()[shifted] if scale is None else self._phases()[shifted] * scale[rows]
        return phase[:, None] * matrix[shifted]

    def matrix(self) -> np.ndarray:
        idx = np.arange(1 << self.n_dots)
        out = np.zeros((idx.shape[0], idx.shape[0]), dtype=complex)
        out[idx ^ self.x_mask, idx] = self._phases()
        return out

    def reflection(self, vt: np.ndarray, out: np.ndarray) -> np.ndarray | None:
        """``C^T`` with ``V^dag self V = C^dag C - I`` for unitary ``V = vt^T``,
        or None for I.

        A Pauli string other than I is a traceless Hermitian involution, so
        ``self = 2 Pi - I`` with ``Pi`` the projector on its +1 eigenspace,
        of rank 2^N / 2.  ``C`` holds ``sqrt(2) Pi V`` in that eigenspace's
        basis: one row ``V[b] + conj(phase[b]) V[b ^ x]`` for each pair
        ``{b, b ^ x}``, or ``sqrt(2) V[b]`` for each b with ``phase[b] = +1``
        when the X mask is 0.  The gather reads columns of ``vt``, costs
        O(4^N) and writes ``C^T`` into ``out`` (2^N x 2^N / 2).
        """
        if self.is_identity():
            return None
        phase = self._phases()
        if self.x_mask:
            top = 1 << (self.x_mask.bit_length() - 1)
            lo = np.arange(phase.shape[0]).reshape(-1, 2, top)[:, 0].ravel()
            # mode "clip" lets take write into out unbuffered; every index is in range
            cols = np.take(vt, lo ^ self.x_mask, axis=1, out=out, mode="clip")
            cols *= np.conj(phase[lo])
            pairs = cols.reshape(vt.shape[0], -1, top)  # += vt[:, lo], read as a view
            pairs += vt.reshape(vt.shape[0], -1, 2, top)[:, :, 0]
        else:
            cols = np.take(vt, np.flatnonzero(phase.real > 0), axis=1, out=out, mode="clip")
            cols *= np.sqrt(2.0)
        return cols


@dataclass(frozen=True)
class Stage:
    """Evolution period followed by a boundary pulse, the identity if omitted."""

    duration: float
    pulse: PauliAssignment | None = None

    def __post_init__(self):
        if not 0 <= self.duration < math.inf:
            raise ValueError(f"stage duration must be finite and nonnegative, got {self.duration!r}")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered stages; the pulse of stage n fires after its evolution.  Every
    stage carries a pulse: ``Stage(t)`` and ``Stage(t, PauliAssignment(n))``
    build equal schedules."""

    n_dots: int
    stages: tuple[Stage, ...]

    def __init__(self, n_dots: int, stages: Iterable[Stage]):
        identity = PauliAssignment(int(n_dots))
        stages = tuple(Stage(st.duration, st.pulse or identity) for st in stages)
        if any(st.pulse.n_dots != identity.n_dots for st in stages):
            raise ValueError("pulse width does not match dot count")
        object.__setattr__(self, "n_dots", identity.n_dots)
        object.__setattr__(self, "stages", stages)

    @property
    def total_time(self) -> float:
        return float(sum(st.duration for st in self.stages))

    @property
    def durations(self) -> np.ndarray:
        return np.array([st.duration for st in self.stages], dtype=float)

    def frames(self) -> np.ndarray:
        """X-mask in force during each stage, then the net mask after the
        last stage: the XOR of the X-masks of every pulse fired so far."""
        pulses = [0] + [st.pulse.x_mask for st in self.stages]
        return np.bitwise_xor.accumulate(np.array(pulses, dtype=np.int64))

    def net_pulse(self) -> PauliAssignment:
        """Product of the pulses up to a global phase: the XOR of their masks."""
        x = z = 0
        for st in self.stages:
            x, z = x ^ st.pulse.x_mask, z ^ st.pulse.z_mask
        return PauliAssignment(self.n_dots, x, z)

    def to_json(self) -> str:
        def pulse(p):
            return [{"dot": j, "pauli": lab} for j, lab in enumerate(p.labels) if lab != "I"]

        doc = {"stages": [{"tau": st.duration, "pulse": pulse(st.pulse)} for st in self.stages]}
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, source: str | dict, n_dots: int) -> "PulseSchedule":
        doc = json.loads(source) if isinstance(source, str) else source
        stages = []
        for rec in doc["stages"]:
            labels = {}
            for p in rec.get("pulse", []):
                dot = integer(p["dot"], "pulse dot")
                if not 0 <= dot < n_dots:
                    raise ValueError(f"dot {dot} is not in 0..{n_dots - 1}")
                if dot in labels:
                    raise ValueError(f"a stage's pulse names dot {dot} twice")
                labels[dot] = str(p["pauli"])
            pulse = PauliAssignment.from_labels(labels.get(j, "I") for j in range(n_dots))
            stages.append(Stage(finite(rec["tau"], "stage tau"), pulse))
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
    velocities = np.array([b.velocity for b in array.bonds])
    return velocities * (stage_sign_matrix(array, schedule) @ schedule.durations)


def choose_assignments(array: DotArray) -> list[frozenset[int]]:
    """Default stage assignments: the trivial one plus a greedy linearly
    independent set of X-subsets, preferring small subsets."""
    n, b = array.n_dots, array.n_bonds
    chosen, rows = [frozenset()], [np.ones(b)]
    # by size, then lexicographically, generated only as far as needed
    subsets = (frozenset(c) for size in range(1, n + 1) for c in combinations(range(n), size))
    for subset in subsets:
        if len(chosen) >= b:
            break
        vec = subset_signs(array, subset).astype(float)
        if np.linalg.matrix_rank(np.array(rows + [vec])) > len(rows):
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


def _square_durations(
    amat: np.ndarray, phi: np.ndarray, vel: np.ndarray, bound: int, tol: float, least: float
) -> np.ndarray:
    """Durations of the best offset tuple for one invertible b x b sign matrix.

    ``tau(m) = A^-1 ((phi + pi m) / vel)`` is affine in the offsets.  The
    first b - 1 offsets are enumerated; for each such prefix tau is affine in
    the last offset m_b, so the m_b that keep every tau >= -tol form an integer
    interval, and the total time, linear in m_b, is least at one of its ends.
    Ranges and totals are widened by a rounding bound, so the tuples kept are
    a superset of those the exact rule below can accept; only they are
    evaluated exactly.

    The offsets are searched in rounds under a cap T on the total time, the
    first just above ``least``, a total no tuple can beat.  A is a +-1
    matrix, so a tuple with durations >= -tol and total <= T has
    ``|phi_w + pi m_w| <= |vel_w| (T + 2 b tol)`` up to rounding: each
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
        return ((phi[None, :] + np.pi * mcombo) / vel[None, :]) @ ainv.T

    beta = ainv[:, -1] * (np.pi / vel[-1])
    total_slope = beta.sum()
    # twice a forward-error bound of either way of computing tau (a dot
    # product of length n over right-hand sides of at most reach)
    reach = np.abs(ainv) @ ((np.abs(phi) + np.pi * bound) / np.abs(vel))
    slack = 8 * (n + 4) * np.finfo(float).eps * reach
    total_slack = 2.0 * slack.sum()
    # a tuple the rule keeps under cap T has sum|tau| <= T + spread, and
    # pad covers the rounding of the box ends for offsets up to the bound
    spread = 2 * n * tol + 2.0 * total_slack
    pad = 4 * np.finfo(float).eps * (np.abs(phi) + np.pi * (bound + 1))

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
    cap = least * (1.0 + 1e-12) + 1e-15
    while True:
        radius = np.abs(vel) * (cap + spread) + pad
        box_lo = np.maximum(np.ceil((-radius - phi) / np.pi), -bound).astype(np.int64)
        box_hi = np.minimum(np.floor((radius - phi) / np.pi), bound).astype(np.int64)
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


def _forest_stages(bonds: Sequence, y: np.ndarray, least: float, n_dots: int):
    """Frames and durations of a schedule of total ``least`` that moves bond
    w by ``y[w]``, or None when the bonds close a cycle.

    Bond w runs forwards for the first ``(1 + y_w / least) / 2`` of the time
    and backwards after it (a threshold decomposition).  Each piece between
    two cuts is one frame, its dot bits read out from the lowest dot of each
    component, or its all-dot complement, which flips no bond, if that
    toggles fewer dots; a zero-length stage pulses into a nonempty first one.
    """
    walk, seen = [], set()  # (near dot, far dot, bond), each component from its root
    for root in range(n_dots):
        queue = [] if root in seen else [root]
        seen.add(root)
        for near in queue:
            for w, b in enumerate(bonds):
                far = {b.j: b.k, b.k: b.j}.get(near)
                if far is not None and far not in seen:
                    seen.add(far)
                    queue.append(far)
                    walk.append((near, far, w))
    if len(walk) < len(bonds):
        return None
    cut = 0.5 * (1.0 + y / least) if least else np.ones_like(y)
    points = np.array(sorted({0.0, 1.0, *cut.tolist()}))
    full, masks = (1 << n_dots) - 1, [0]
    for start in points[:-1]:
        bits = [0] * n_dots
        for near, far, w in walk:
            bits[far] = bits[near] ^ int(cut[w] <= start)
        mask = int("".join(map(str, bits)), 2)
        if ((mask ^ full) ^ masks[-1]).bit_count() < (mask ^ masks[-1]).bit_count():
            mask ^= full
        masks.append(mask)
    durations = np.append(0.0, least * np.diff(points))
    return (masks, durations) if masks[1] else (masks[1:], durations[1:])


def solve_intervals(
    array: DotArray,
    target: CalibrationTarget,
    assignments: Sequence[frozenset[int]] | None = None,
    offset_bound: int = 8,
) -> PulseSchedule:
    """Solve stage durations so every bond accumulates its target phase.

    Bond w must move by ``y_w = (phi_w + m_w pi) / Delta_w`` for an integer
    m_w, and a stage of length tau moves it by +-tau, the sign read from the
    stage's frame, so no schedule is shorter than ``T* = max_w dist(phi_w,
    pi Z) / |Delta_w|``.  When ``assignments`` is None and the active bonds
    (|Delta| > 1e-15) form a forest, ``_forest_stages`` reaches T* whatever
    ``offset_bound``; at distance pi/2 a bond takes the offset that runs it
    forwards, so a homogeneous target is one stage with no pulse.

    Otherwise (cycles, or given ``assignments``) the frames are fixed, one
    per active bond with the trivial one first, by default
    ``choose_assignments`` on the active bonds, and ``_square_durations``
    searches the offsets ``|m_w| <= offset_bound`` for the least total with
    nonnegative durations, ties going to the smallest offset magnitudes and
    then to the lexicographically smallest tuple.

    Raises
    ------
    ValueError
        If ``offset_bound`` is negative, the assignments are malformed or not
        one independent frame per active bond, or one round of the search
        would hold more than 4 * 10^6 offset tuples.
    InfeasibleSchedule
        If no offset tuple inside the bound admits durations >= 0; its
        residual is the least worst-case duration violation.
    """
    if offset_bound < 0:
        raise ValueError(f"offset_bound must be nonnegative, got {offset_bound}")
    n_dots = array.n_dots
    velocities = np.array(target.velocities)
    active = np.abs(velocities) > 1e-15
    bonds = [b for b, on in zip(array.bonds, active) if on]
    vel, phi = velocities[active], np.asarray(target.phases, dtype=float)[active]
    near = np.remainder(phi + 0.5 * np.pi, np.pi) - 0.5 * np.pi  # in [-pi/2, pi/2)
    y = np.where(near == -0.5 * np.pi, 0.5 * np.pi / np.abs(vel), near / vel)
    least = float(np.max(np.abs(y), initial=0.0))
    if assignments is None and (forest := _forest_stages(bonds, y, least, n_dots)):
        masks, durations = forest
    else:
        if assignments is None:
            assignments = choose_assignments(array.with_bonds(bonds))
        masks = [PauliAssignment.x_on(s, n_dots).x_mask for s in assignments]
        if masks[0]:
            raise ValueError("the first stage assignment must be the trivial one")
        amat = bond_signs(array, masks).T.astype(float)[active]
        if not bonds:
            return PulseSchedule(n_dots, [Stage(0.0)])
        if amat.shape[1] != len(bonds) or np.linalg.matrix_rank(amat) < len(bonds):
            raise ValueError("stage assignments are not one independent stage per active bond")
        durations = _square_durations(amat, phi, vel, offset_bound, _DURATION_TOL, least)

    # Drop zero-length stages; the pulse between two kept stages is X on
    # every dot whose frame bit differs.
    kept = [0] + [idx for idx in range(1, len(masks)) if durations[idx] > 1e-12]
    toggles = [masks[a] ^ masks[b] for a, b in zip(kept, kept[1:])] + [0]
    schedule = PulseSchedule(n_dots, [
        Stage(float(durations[idx]), PauliAssignment(n_dots, x))
        for idx, x in zip(kept, toggles)
    ])
    err = circular_distance(accumulated_bond_phases(array, schedule)[active], phi, np.pi)
    if np.max(err, initial=0.0) > 1e-7:
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
    terms = 0.5 * (signs[:-1] - signs[-1]) * eps * schedule.durations[:, None]  # (stages, dots)
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
    ends = np.cumsum(np.append(0.0, schedule.durations))[1:].tolist()

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

    stages, prev = [], 0.0
    for t, x, z in slots:
        stages.append(Stage(max(t - prev, 0.0), PauliAssignment(n, x, z)))
        prev = t
    stages.append(Stage(total - prev if prev < total - 1e-15 else 0.0))
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
