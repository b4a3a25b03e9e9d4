"""Diagonal-gate calculus: feasibility, phase gauges, times, decomposition.

A diagonal multi-qubit gate is a phase vector over the computational
basis, defined modulo a *free phase*: one global phase plus a virtual-Z
angle per qubit.  Both are values of one ``phase_polynomial`` of degree at
most 2 in the qubit bits: a free phase is its constant and linear part,
and to first order an array adds one controlled phase, a ``b_j b_k`` term,
per bond.  ``read_bonds`` reads a target as an angle ``theta_w`` per bond
times a free phase; a coupling of an unbonded pair, or of three or more
dots, is out of reach.  The reading gives

* the dynamics rule, per-bond conditions ``tau * Delta_w = phi_w`` with
  ``phi_w = -theta_w / 2 (mod pi)``, which are also the calibration targets,
* and the local phases, which for gates controlled by dot 0 solve the
  parity rule ``L phi = theta mod 2pi`` (``solve_parity``).

Two lattice conventions are in circulation, differing by a factor of
two (``mod pi`` against ``mod 2pi``), and they realize different gates;
both are computed and reported so the exact simulator can arbitrate which
times realize a given target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .basis import (
    TWO_PI,
    bit_table,
    circular_distance,
    single_bit_index,
    wrap_2pi,
)
from .model import DotArray, finite

DEFAULT_TOL = 1e-9


class NoBondVelocity(ValueError):
    """A bond with zero effective velocity cannot realize a nonzero phase."""


LATTICE_BUDGET = 10**6


class LatticeBudgetExceeded(ValueError):
    """A time search would generate more than ``LATTICE_BUDGET`` lattice points."""


def _pair_block(n_qubits: int, j: int, k: int) -> tuple:
    """Index into the ``(2,) * n_qubits`` view of a phase vector that picks
    the rows with qubits j and k both excited."""
    block = [slice(None)] * n_qubits
    block[j] = block[k] = 1
    return tuple(block)


def phase_polynomial(n_qubits: int, constant: float, slopes=(), pairs=(), angles=()) -> np.ndarray:
    """``constant + sum_j slopes[j] b_j + sum_w angles[w] b_j b_k`` with
    ``pairs[w] = (j, k)``, on every basis index: the phase polynomial that
    every reading fits.  Added on the ``(2,) * N`` view in a fixed order:
    the constant, the slopes by qubit, then the pairs in list order."""
    total = np.full((2,) * n_qubits, float(constant))
    for j, slope in enumerate(slopes):
        total[(slice(None),) * j + (1,)] += slope
    for (j, k), theta in zip(pairs, angles):
        total[_pair_block(n_qubits, j, k)] += theta
    return total.ravel()


@dataclass(frozen=True)
class PhaseVector:
    """Length-2^N vector of phases, canonicalized to [0, 2pi)."""

    values: np.ndarray

    def __init__(self, values):
        arr = wrap_2pi(np.asarray(values, dtype=float)).copy()
        n = arr.shape[0] if arr.ndim == 1 else 0
        if n & (n - 1) or n < 2:
            raise ValueError("phase vector must be one-dimensional, of length a power of two >= 2")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_qubits(self) -> int:
        return int(self.values.shape[0]).bit_length() - 1

    @classmethod
    def zeros(cls, n_qubits: int) -> "PhaseVector":
        return cls(np.zeros(1 << n_qubits))

    @property
    def controlled(self) -> bool:
        """Whether qubit 0 controls the gate: the first half is zero."""
        top = self.values[: self.values.shape[0] // 2]
        return bool(np.max(circular_distance(top, 0.0)) <= 1e-7)

    def reduced(self) -> np.ndarray:
        """Second half (control qubit excited), for controlled-type gates."""
        if not self.controlled:
            raise ValueError("not a controlled-type gate: first half is not zero")
        return self.values[self.values.shape[0] // 2 :].copy()

    def distance(self, other: "PhaseVector") -> float:
        return float(np.max(circular_distance(self.values, other.values)))

    def equals(self, other: "PhaseVector", tol: float = DEFAULT_TOL) -> bool:
        return self.distance(other) <= tol


@dataclass(frozen=True)
class FreePhase:
    """Global phase plus one virtual-Z phase per qubit."""

    global_phase: float
    local: tuple[float, ...]

    def __init__(self, global_phase: float = 0.0, local: Sequence[float] = ()):
        object.__setattr__(self, "global_phase", float(global_phase))
        object.__setattr__(self, "local", tuple(float(x) for x in local))

    @property
    def n_qubits(self) -> int:
        return len(self.local)

    def expand(self) -> PhaseVector:
        """Phase at index n is ``global + sum_j b_j(n) local_j``."""
        return PhaseVector(phase_polynomial(self.n_qubits, self.global_phase, self.local))


@dataclass(frozen=True)
class MqcpFactor:
    """One control dot applying independent conditional phases to targets."""

    control: int
    targets: tuple[tuple[int, float], ...]

    def __init__(self, control: int, targets: Iterable[tuple[int, float]]):
        tgts = tuple((int(d), float(wrap_2pi(th))) for d, th in targets)
        ids = [d for d, _ in tgts]
        if len(set(ids)) != len(ids) or int(control) in ids:
            raise ValueError("target ids must be distinct and differ from the control")
        object.__setattr__(self, "control", int(control))
        object.__setattr__(self, "targets", tgts)


@dataclass(frozen=True)
class GateSpec:
    """Target gate: either a product of controlled-phase factors or raw phases."""

    factors: tuple[MqcpFactor, ...] | None = None
    raw: PhaseVector | None = None

    def __post_init__(self):
        if (self.factors is None) == (self.raw is None):
            raise ValueError("specify exactly one of factors or raw")

    def expand(self, n_qubits: int | None = None) -> PhaseVector:
        if self.raw is not None:
            if n_qubits is not None and self.raw.n_qubits != n_qubits:
                raise ValueError("raw phase vector size does not match qubit count")
            return self.raw
        dots = [d for f in self.factors for d in (f.control, *(t for t, _ in f.targets))]
        if n_qubits is None:
            n_qubits = 1 + max(dots)
        if min(dots) < 0 or max(dots) >= n_qubits:
            raise ValueError(f"gate names a dot outside 0..{n_qubits - 1}")
        pairs = [(f.control, dot) for f in self.factors for dot, _ in f.targets]
        angles = [theta for f in self.factors for _, theta in f.targets]
        return PhaseVector(phase_polynomial(n_qubits, 0.0, (), pairs, angles))

    @classmethod
    def from_json(cls, source: str | dict) -> "GateSpec":
        doc = json.loads(source) if isinstance(source, str) else source
        if "raw" in doc:
            raw = np.asarray(doc["raw"], dtype=float)
            if not np.all(np.isfinite(raw)):
                raise ValueError("raw gate phases must be finite")
            return cls(raw=PhaseVector(raw))
        factors = tuple(
            MqcpFactor(
                f["control"],
                [(t["dot"], finite(t["theta"], f"theta on dot {t['dot']}")) for t in f["targets"]],
            )
            for f in doc["factors"]
        )
        return cls(factors=factors)

    def to_json(self) -> str:
        if self.raw is not None:
            return json.dumps({"raw": list(self.raw.values)})
        return json.dumps(
            {
                "factors": [
                    {
                        "control": f.control,
                        "targets": [{"dot": d, "theta": th} for d, th in f.targets],
                    }
                    for f in self.factors
                ]
            },
            indent=2,
        )


@dataclass(frozen=True)
class ParitySolution:
    feasible: bool
    free: FreePhase | None
    residual: float


def parity_matrix(n_qubits: int) -> np.ndarray:
    """Signed matrix mapping (phi_c, phi_1, .., phi_{N-1}) to the reduced
    gate vector: the row for target bits a is (-1, (-1)^a_1, ..)."""
    if n_qubits < 2:
        raise ValueError("need at least two qubits")
    rows = 1 << (n_qubits - 1)
    mat = np.empty((rows, n_qubits), dtype=np.int64)
    mat[:, 0] = -1
    bits = bit_table(n_qubits - 1)
    mat[:, 1:] = 1 - 2 * bits
    return mat


def solve_parity(theta_g, n_qubits: int, tol: float = DEFAULT_TOL) -> ParitySolution:
    """Solve the parity rule ``L phi = theta_g mod 2pi`` or report infeasibility.

    The reduced vector is the second half of ``[0, theta_g]``, a gate that
    dot 0 controls; reading it on the star of dot 0 (see ``read_bonds``)
    gives local phases solving the parity rule exactly when the rule has a
    solution.  The residual is that reading's worst row.
    """
    theta_g = wrap_2pi(np.asarray(theta_g, dtype=float))
    if n_qubits < 2 or theta_g.shape != (1 << (n_qubits - 1),):
        raise ValueError("need N >= 2 qubits and a reduced gate vector of length 2^(N-1)")
    star = [(0, j) for j in range(1, n_qubits)]
    reading = _read(np.concatenate([np.zeros_like(theta_g), theta_g]), star, tol)
    free = FreePhase(0.0, reading.local_phases) if reading.feasible else None
    return ParitySolution(reading.feasible, free, reading.residual)


def mqcp_phase_solution(factor: MqcpFactor, n_qubits: int) -> FreePhase:
    """Closed-form local phases for a one-control multi-target gate.

    ``phi_j = -theta_j / 2 (mod pi)`` on each target and
    ``phi_c = sum_j phi_j (mod 2pi)`` on the control: the reading of the
    factor on its own bonds.
    """
    pairs = [(factor.control, dot) for dot, _ in factor.targets]
    target = GateSpec(factors=(factor,)).expand(n_qubits)
    return FreePhase(0.0, _read(target.values, pairs).local_phases)


@dataclass(frozen=True)
class ControlAnalysis:
    second_control: bool
    control_qubit: int | None
    degenerate_two_qubit: bool


def assert_single_control(theta_g, tol: float = 1e-7) -> ControlAnalysis:
    """Detect whether a second qubit also acts as a control.

    Qubit j (among the targets) is a second control when the gate leaves
    every state with that qubit in |0> untouched.  Such gates either reduce
    to a two-qubit controlled phase (the conditioned block is a constant
    phase) or are rejected by parity.
    """
    theta_g = wrap_2pi(np.asarray(theta_g, dtype=float))
    n_targets = theta_g.shape[0].bit_length() - 1
    cube = theta_g.reshape((2,) * n_targets)
    for j in range(n_targets):
        if np.max(circular_distance(cube.take(0, axis=j), 0.0)) <= tol:
            on = cube.take(1, axis=j)
            constant = bool(np.max(circular_distance(on, on.flat[0])) <= tol)
            return ControlAnalysis(True, j, constant)
    return ControlAnalysis(False, None, False)


@dataclass(frozen=True)
class BondReading:
    """A target as ``sum_w bond_phases[w] [b_j != b_k] - sum_j local_phases[j] b_j``
    up to a global phase; ``unbonded_pairs`` are coupled but have no bond."""

    feasible: bool
    residual: float
    unbonded_pairs: tuple[tuple[int, int], ...]
    bond_phases: tuple[float, ...]
    local_phases: tuple[float, ...]


def read_bonds(array: DotArray, target: PhaseVector, tol: float = DEFAULT_TOL) -> BondReading:
    """Read a diagonal target as per-bond controlled phases times a free phase.

    The angle of dots j < k is ``f[e_j|e_k] - f[e_j] - f[e_k] + f[0]``; a
    pair without a bond whose angle is nonzero beyond ``tol`` is unbonded.
    The residual is the worst row of ``f`` against ``f[0] + sum_j (f[e_j] -
    f[0]) b_j + sum_bonds theta_w b_j b_k``.  ``bond_phases[w] = -theta_w / 2
    (mod pi)``, and dot j's local phase, summed in bond order, is
    ``sum_{w at j} bond_phases[w] - (f[e_j] - f[0])``: it solves the parity
    rule when dot 0 controls, and is ``mqcp_phase_solution``'s for one factor.
    """
    if target.n_qubits != array.n_dots:
        raise ValueError("target size does not match the array's dot count")
    return _read(target.values, [(b.j, b.k) for b in array.bonds], tol)


def _read(f: np.ndarray, pairs, tol: float = DEFAULT_TOL) -> BondReading:
    """``read_bonds`` of the phase vector ``f`` on the bonds ``pairs``."""
    n = f.shape[0].bit_length() - 1
    single = single_bit_index(np.arange(n), n)
    at_single = f[single]
    angles = wrap_2pi(f[single[:, None] | single] - at_single[:, None] - at_single + f[0])
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    bonded = np.eye(n, dtype=bool)
    bonded[ends[:, 0], ends[:, 1]] = True
    stray = ~bonded & (circular_distance(angles, 0.0) > tol)
    unbonded = tuple((int(j), int(k)) for j, k in zip(*np.nonzero(np.triu(stray))))

    theta = angles[ends[:, 0], ends[:, 1]]
    slopes = at_single - f[0]
    model = phase_polynomial(n, f[0], slopes, ends, theta)
    residual = float(np.max(circular_distance(f, model)))

    bond_phases = np.mod(-theta / 2, np.pi)
    summed = np.bincount(ends.ravel(), weights=np.repeat(bond_phases, 2), minlength=n)
    local = wrap_2pi(summed - slopes)
    return BondReading(
        feasible=residual <= tol and not unbonded,
        residual=residual,
        unbonded_pairs=unbonded,
        bond_phases=tuple(float(x) for x in bond_phases),
        local_phases=tuple(float(x) for x in local),
    )


@dataclass(frozen=True)
class TimeCandidate:
    tau: float
    per_bond_residual: tuple[float, ...]
    max_residual: float


@dataclass(frozen=True)
class DynamicsCandidates:
    """Candidate gate times on the two superposed phase lattices."""

    mod_pi: tuple[TimeCandidate, ...]
    mod_2pi: tuple[TimeCandidate, ...]

    def best(self, branch: str = "mod_pi") -> TimeCandidate:
        cands = getattr(self, branch)
        if not cands:
            raise ValueError(f"no candidate times on branch {branch!r}")
        return cands[0]


def _scan_lattice(
    velocities: np.ndarray,
    phases: np.ndarray,
    modulus: float,
    tau_max: float,
    tol: float,
    max_candidates: int = 10_000,
) -> tuple[TimeCandidate, ...]:
    still = np.abs(velocities) < 1e-15
    if np.any(circular_distance(phases[still], 0.0, modulus) > tol):
        raise NoBondVelocity("a zero-velocity bond cannot accumulate the requested phase")
    # lattice points t = (phi + m * modulus) / delta inside (0, tau_max]
    delta, phi = velocities[~still], phases[~still]
    reach = tau_max * delta
    m_lo = np.ceil((np.minimum(reach, 0.0) - phi) / modulus - 1e-12)
    m_hi = np.floor((np.maximum(reach, 0.0) - phi) / modulus + 1e-12)
    count = np.sum(np.maximum(m_hi - m_lo + 1, 0))
    if count > LATTICE_BUDGET:
        raise LatticeBudgetExceeded(
            f"tau_max {tau_max!r} spans {count:.0f} lattice points, more than the "
            f"{LATTICE_BUDGET} searched; lower --tau-max"
        )
    if not delta.size:
        return ()
    times = np.concatenate([
        (p + modulus * np.arange(lo, hi + 1)) / d for d, p, lo, hi in zip(delta, phi, m_lo, m_hi)
    ])
    times = np.sort(times[(times > 1e-15) & (times <= tau_max * (1.0 + 1e-12))])
    times = times[np.diff(times, prepend=-np.inf) > 1e-12]
    residuals = circular_distance(np.outer(times, velocities), phases, modulus)
    worst = residuals.max(axis=1)
    order = np.lexsort((times, np.round(worst, 12)))[:max_candidates]
    return tuple(
        TimeCandidate(float(times[i]), tuple(residuals[i].tolist()), float(worst[i]))
        for i in order
    )


def solve_dynamics(
    array: DotArray,
    bond_phases: Sequence[float],
    tau_max: float,
    tol: float = DEFAULT_TOL,
) -> DynamicsCandidates:
    """Score candidate gate times against each bond's phase condition.

    ``bond_phases`` holds one target phase per bond, as ``read_bonds`` gives
    it.  Candidates are the union of all per-bond lattice points up to
    ``tau_max`` (at most ``LATTICE_BUDGET``, else ``LatticeBudgetExceeded``),
    scored by the worst per-bond deviation; exact hits exist when velocities
    are mutually rational.  The ``mod_pi`` branch solves ``tau Delta_w =
    phi_w (mod pi)``; the ``mod_2pi`` branch solves ``tau Delta_w = 2 phi_w
    (mod 2pi)`` and is reported alongside because the two conventions differ
    by a factor of two and realize different gates (exact simulation
    arbitrates which times hit a given target).
    """
    tau_max = finite(tau_max, "tau_max")
    velocities = np.array([b.velocity for b in array.bonds])
    phases = np.asarray(bond_phases, dtype=float)
    if phases.shape != velocities.shape:
        raise ValueError(f"need one phase per bond ({array.n_bonds}), got {phases.shape}")
    return DynamicsCandidates(
        mod_pi=_scan_lattice(velocities, np.mod(phases, np.pi), np.pi, tau_max, tol),
        mod_2pi=_scan_lattice(velocities, wrap_2pi(2.0 * phases), TWO_PI, tau_max, tol),
    )


def decompose_intrinsic(array: DotArray, tau: float) -> tuple[GateSpec, FreePhase]:
    """Split the ideal evolution at time tau into per-bond controlled-phase
    factors plus local phase corrections.

    Each bond contributes a controlled-phase of angle ``-2 tau Delta_w``;
    the correction on dot j is the sum of ``tau Delta_w`` over bonds at j
    (independent of how bonds are grouped into stars), and the global phase
    collects ``tau S_w``.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    factors = []
    local = np.zeros(array.n_dots)
    global_phase = 0.0
    for b in array.bonds:
        theta = wrap_2pi(-2.0 * tau * b.velocity)
        factors.append(MqcpFactor(b.j, [(b.k, theta)]))
        local[b.j] += tau * b.velocity
        local[b.k] += tau * b.velocity
        global_phase += tau * b.spin_flip_rate
    corrections = FreePhase(wrap_2pi(global_phase), wrap_2pi(local))
    return GateSpec(factors=tuple(factors)), corrections


def equiv_up_to_free_phase(
    u: PhaseVector, target: PhaseVector, tol: float = DEFAULT_TOL
) -> tuple[bool, FreePhase, float]:
    """Decide whether two diagonal gates differ only by a free phase.

    The candidate global phase is read at index 0 and the per-qubit phases
    at the single-bit indices; all 2^N rows are then verified and the worst
    deviation returned.
    """
    if u.n_qubits != target.n_qubits:
        raise ValueError("phase vectors have different sizes")
    n = u.n_qubits
    delta = wrap_2pi(u.values - target.values)
    global_phase = delta[0]
    local = wrap_2pi(delta[single_bit_index(np.arange(n), n)] - global_phase)
    free = FreePhase(global_phase, local)
    residual = float(np.max(circular_distance(delta, free.expand().values)))
    return residual <= tol, free, residual
