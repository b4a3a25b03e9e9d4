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

The times that realize the target solve the dynamics rule mod pi.  A
second lattice, ``tau * Delta_w = -theta_w (mod 2pi)``, is also reported:
its times realize the doubled angle ``2 theta_w`` on every bond, not the
target, and no flow simulates them.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .basis import (
    TWO_PI,
    circular_distance,
    pair_view,
    single_bit_index,
    wrap_2pi,
)
from .model import DotArray, finite, integer

DEFAULT_TOL = 1e-9


class Unreachable(Exception):
    """The input is well formed, but no time or schedule reaches the target."""


class NoBondVelocity(Unreachable, ValueError):
    """A bond with zero effective velocity cannot realize a nonzero phase."""


LATTICE_BUDGET = 10**6


class LatticeBudgetExceeded(ValueError):
    """A time search would generate more than ``LATTICE_BUDGET`` lattice points."""


def phase_polynomial(n_qubits: int, constant: float, slopes=(), pairs=(), angles=()) -> np.ndarray:
    """``constant + sum_j slopes[j] b_j + sum_w angles[w] b_j b_k`` with
    ``pairs[w] = (j, k)``, on every basis index: the phase polynomial that
    every reading fits.  Added on the ``(2,) * N`` view in a fixed order:
    the constant, the slopes by qubit, then the pairs in list order."""
    total = np.full((2,) * n_qubits, float(constant))
    for j, slope in enumerate(slopes):
        total[(slice(None),) * j + (1,)] += slope
    total = total.ravel()
    for (j, k), theta in zip(pairs, angles):
        pair_view(total, j, k)[1, 1] += theta
    return total


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
        control = integer(control, "control")
        tgts = tuple((integer(d, "target dot"), float(wrap_2pi(th))) for d, th in targets)
        ids = [d for d, _ in tgts]
        if len(set(ids)) != len(ids) or control in ids:
            raise ValueError("target ids must be distinct and differ from the control")
        object.__setattr__(self, "control", control)
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
            if not dots:
                raise ValueError("a gate with no factors needs the qubit count")
            n_qubits = 1 + max(dots)
        if not all(0 <= d < n_qubits for d in dots):
            raise ValueError(f"gate names a dot outside 0..{n_qubits - 1}")
        pairs = [(f.control, dot) for f in self.factors for dot, _ in f.targets]
        angles = [theta for f in self.factors for _, theta in f.targets]
        return PhaseVector(phase_polynomial(n_qubits, 0.0, (), pairs, angles))

    @classmethod
    def from_json(cls, source: str | dict) -> "GateSpec":
        doc = json.loads(source) if isinstance(source, str) else source
        if "raw" in doc:
            try:
                raw = np.asarray(doc["raw"], dtype=float)
            except OverflowError:  # an int past the float range, as JSON may hold
                raw = np.array([np.inf])
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


# Most lattice times a ranking keeps, best first.
RANKED_MAX = 10_000


@dataclass(frozen=True)
class LatticeRanking:
    """Lattice times ranked by their worst per-bond residual, then by time:
    ``times[i]``, its per-bond ``residuals[i]`` and ``worst[i]``, their
    maximum.  At most ``RANKED_MAX`` entries."""

    times: np.ndarray
    residuals: np.ndarray
    worst: np.ndarray


@dataclass(frozen=True)
class DynamicsCandidates:
    """Candidate gate times on the two superposed phase lattices."""

    mod_pi: LatticeRanking
    mod_2pi: LatticeRanking


def _scan_lattice(
    velocities: np.ndarray,
    phases: np.ndarray,
    modulus: float,
    tau_max: float,
    tol: float,
) -> LatticeRanking:
    still = np.abs(velocities) < 1e-15
    if np.any(circular_distance(phases[still], 0.0, modulus) > tol):
        raise NoBondVelocity("a zero-velocity bond cannot accumulate the requested phase")
    # lattice points t = (phi + m * modulus) / delta inside [0, tau_max]
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
    if delta.size:
        times = np.concatenate([
            (p + modulus * np.arange(lo, hi + 1)) / d
            for d, p, lo, hi in zip(delta, phi, m_lo, m_hi)
        ])
        # abs reads the -0.0 of a negative velocity as 0.0
        times = np.sort(np.abs(times[(times >= 0.0) & (times <= tau_max * (1.0 + 1e-12))]))
        times = times[np.diff(times, prepend=-np.inf) > 1e-12]
    else:  # no bond moves, so every time is on the lattice
        times = np.zeros(1)
    residuals = circular_distance(np.outer(times, velocities), phases, modulus)
    worst = residuals.max(axis=1, initial=0.0)  # 0 on an array without bonds
    order = np.lexsort((times, np.round(worst, 12)))[:RANKED_MAX]
    return LatticeRanking(times[order], residuals[order], worst[order])


def solve_dynamics(
    array: DotArray,
    bond_phases: Sequence[float],
    tau_max: float,
    tol: float = DEFAULT_TOL,
) -> DynamicsCandidates:
    """Score candidate gate times against each bond's phase condition.

    ``bond_phases`` holds one target phase per bond, as ``read_bonds`` gives
    it.  Candidates are the union of all per-bond lattice points in
    ``[0, tau_max]`` (at most ``LATTICE_BUDGET``, else ``LatticeBudgetExceeded``),
    scored by the worst per-bond deviation; exact hits exist when velocities
    are mutually rational.  The ``mod_pi`` branch solves ``tau Delta_w =
    phi_w (mod pi)``, the times that realize the target.  The ``mod_2pi``
    branch solves ``tau Delta_w = 2 phi_w = -theta_w (mod 2pi)``: bond w
    then gains the controlled phase ``-2 tau Delta_w = 2 theta_w``, the
    doubled angle, so these times do not realize the target, and no flow
    simulates them.
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
