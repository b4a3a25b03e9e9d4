"""Exact and perturbative dynamics of the dot array.

The computational Hamiltonian splits into a diagonal Zeeman part and an
exchange part assembled from one projector per bond onto the entangled
state ``(s* |uu> + t* |ud> - t |du> + s |dd>) / sqrt(2)``.  One Hermitian
eigendecomposition per array, held by :class:`Spectrum`, serves every
exact flow: the qubit-frame propagator ``exp(+i tau H0) exp(-i tau (H0 +
Hex))``, the matching of perturbed eigenstates to basis states, and staged
evolutions with instantaneous Pauli pulses.  Its first-order approximation
is the diagonal gate ``exp(+i tau Lambda)`` with Lambda the grid vector.

The flows read only the diagonal of the propagator, which costs O(4^N)
given the spectrum; pulses act as signed permutations of rows.  The dense
propagator is built only on request (``qubit_frame_evolution``,
``pulsed_evolution``, ``SimReport.u_exact``).

The difference from the ideal gate is coherent error, quantified by the
average gate fidelity, a perturbative lower bound, per-state residue
phases, the leaked population, and the residue left after the
least-squares free phase, which has a closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import bit_table, wrap_pm_pi
from .calibrate import PauliAssignment, PulseSchedule, SignedPermutation
from .gates import FreePhase, PhaseVector, phase_polynomial
from .model import Bond, Dot, DotArray, bond_pair_index, grid_vector


class EigensolverFailure(RuntimeError):
    """Dense Hermitian eigendecomposition did not converge."""


class DegenerateSpectrum(RuntimeError):
    """Coupled levels too close for the perturbative treatment."""


def entangled_state(bond: Bond) -> np.ndarray:
    """Normalized bond state (s*, t*, -t, s)/sqrt(2) on (uu, ud, du, dd)."""
    t, s = bond.t, bond.s
    return np.array([np.conj(s), np.conj(t), -t, s]) / np.sqrt(2.0)


@dataclass(frozen=True)
class HamiltonianPair:
    """Diagonal dot part and dense Hermitian exchange part."""

    h0: np.ndarray
    h_ex: np.ndarray


def _embed_projector_add(h: np.ndarray, xi: np.ndarray, weight: float, j: int, k: int, n: int):
    """Add weight * |xi><xi| (acting on dots j, k) into the dense matrix."""
    sub = bond_pair_index(j, k, n)
    # each group lists its rows in spectator-bit order, so rows align across groups
    grouped = [np.flatnonzero(sub == a) for a in range(4)]
    proj = weight * np.outer(xi, np.conj(xi))
    for a in range(4):
        for b in range(4):
            h[grouped[a], grouped[b]] += proj[a, b]


def build_hamiltonian(array: DotArray) -> HamiltonianPair:
    """Dot and exchange Hamiltonians in the computational basis.

    ``h0`` holds the Zeeman diagonal ``sum_j (-1)^{b_j} eps_j / 2`` (bit 0 is
    spin up); ``h_ex`` accumulates ``-J_w`` times the embedded projector on
    each bond's entangled state, so its diagonal is minus the grid vector.
    """
    n = array.n_dots
    bits = bit_table(n)
    h0 = ((1 - 2 * bits) @ array.zeemans) / 2.0
    h_ex = np.zeros((1 << n, 1 << n), dtype=complex)
    for bond in array.bonds:
        _embed_projector_add(h_ex, entangled_state(bond), -bond.exchange, bond.j, bond.k, n)
    return HamiltonianPair(h0=h0, h_ex=h_ex)


def _eigh(matrix: np.ndarray):
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails
        raise EigensolverFailure(str(exc)) from exc


@dataclass(frozen=True)
class Spectrum:
    """One eigendecomposition of ``H = H0 + Hex`` per array.

    Holds the Zeeman diagonal ``h0``, the real diagonal of ``Hex`` (minus
    the grid vector), and the eigenvalues and eigenvector columns of H from
    a single ``eigh``; every exact quantity of the array is read from it.
    """

    h0: np.ndarray
    h_ex_diag: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray

    @classmethod
    def of(cls, array: DotArray) -> "Spectrum":
        pair = build_hamiltonian(array)
        h_ex_diag = np.real(np.diag(pair.h_ex)).copy()
        h = pair.h_ex  # a fresh matrix: add H0 in place rather than copy it
        h[np.diag_indices_from(h)] += pair.h0
        evals, evecs = _eigh(h)
        return cls(pair.h0, h_ex_diag, evals, evecs)

    @cached_property
    def weights(self) -> np.ndarray:
        """``weights[n, m] = |<n|m'>|^2``, basis state n and eigenvector m."""
        return np.abs(self.evecs) ** 2

    def propagator(self, tau: float) -> np.ndarray:
        """Dense ``exp(+i tau H0) exp(-i tau H)``."""
        u = (self.evecs * np.exp(-1j * tau * self.evals)) @ self.evecs.conj().T
        return np.exp(1j * tau * self.h0)[:, None] * u

    def diagonal(self, tau: float) -> np.ndarray:
        """Diagonal of :meth:`propagator`, ``e^{i tau h0} (|V|^2 e^{-i tau E})``."""
        rot = np.exp(-1j * tau * self.evals)
        mixed = self.weights @ np.column_stack([rot.real, rot.imag])
        return np.exp(1j * tau * self.h0) * (mixed[:, 0] + 1j * mixed[:, 1])

    def match(self, min_overlap: float = 0.5) -> MatchedSpectrum:
        """Pair eigenvectors with basis states; see :func:`match_eigenstates`."""
        dim = self.evals.shape[0]
        basis_of = _match_columns(self.weights)
        overlaps = self.weights[np.arange(dim), basis_of]
        if np.min(overlaps) < min_overlap:
            worst = int(np.argmin(overlaps))
            raise DegenerateSpectrum(
                f"state {worst} overlaps its eigenvector by only {overlaps[worst]:.3f}; "
                "the spectrum is outside the perturbative regime"
            )
        return MatchedSpectrum(
            energies_0=self.h0.copy(),
            energies=self.evals[basis_of],
            overlaps=overlaps,
            first_order=self.h_ex_diag.copy(),
        )

    def _pulsed_factors(self, schedule: PulseSchedule, head: SignedPermutation):
        """``(left, right)`` with ``left @ right = head U``, U the staged
        evolution of the schedule before the final frame rotation.

        The running product is kept as ``V w`` in eigen coordinates ``w``.
        Evolving stages scale the rows of ``w``; the pulses between two of
        them, composed into one signed permutation P, cost the two dense
        products of ``V^dag P V``.  Pulses before the first evolution act on
        the columns of ``V^dag`` and pulses after the last one, with
        ``head``, on the rows of ``V``, so neither takes a dense product.
        """
        v = self.evecs
        vh = v.conj().T
        w = None
        pending = None  # pulses since the last evolving stage
        for stage in schedule.stages:
            if stage.duration > 0:
                if w is None:
                    w = vh if pending is None else pending.apply_columns(vh)
                elif pending is not None:
                    w = vh @ pending.apply_rows(v @ w)
                w = np.exp(-1j * stage.duration * self.evals)[:, None] * w
                pending = None
            if stage.pulse is not None:
                pulse = stage.pulse.signed_permutation()
                pending = pulse if pending is None else pulse.after(pending)
        if w is None:  # nothing evolves: the schedule is its pulses alone
            w = vh if pending is None else pending.apply_columns(vh)
        elif pending is not None:
            head = head.after(pending)
        return head.apply_rows(v), w

    def _frame(self, schedule: PulseSchedule) -> SignedPermutation:
        return SignedPermutation.diagonal(np.exp(1j * schedule.total_time * self.h0))

    def pulsed(self, schedule: PulseSchedule) -> np.ndarray:
        """Dense qubit-frame propagator of a staged, pulsed evolution."""
        left, right = self._pulsed_factors(schedule, self._frame(schedule))
        return left @ right

    def pulsed_diagonal(self, schedule: PulseSchedule, net: PauliAssignment) -> np.ndarray:
        """``diag(net^dag U)`` of the pulsed propagator U, in O(4^N) beyond
        the products between evolving stages; ``net`` is the schedule's net
        Pauli, so the result holds the gate's phases."""
        head = net.signed_permutation().inverse().after(self._frame(schedule))
        left, right = self._pulsed_factors(schedule, head)
        return np.einsum("bk,kb->b", left, right)


def qubit_frame_evolution(array: DotArray, tau: float) -> np.ndarray:
    """Exact propagator ``exp(+i tau H0) exp(-i tau (H0 + Hex))``."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return Spectrum.of(array).propagator(tau)


def ideal_evolution(array: DotArray, tau: float) -> PhaseVector:
    """First-order diagonal gate: phases ``tau * Lambda``."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return PhaseVector(tau * grid_vector(array))


def unitarity_defect(u: np.ndarray) -> float:
    dim = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))


def average_gate_fidelity(u: np.ndarray, v_diag: PhaseVector) -> float:
    """``F = (d + |tr(U^dag V)|^2) / (d (d + 1))`` for diagonal V.

    Only the diagonal of U enters the trace product.
    """
    return _diagonal_fidelity(np.diag(u), v_diag)


def _diagonal_fidelity(u_diag: np.ndarray, v_diag: PhaseVector) -> float:
    d = u_diag.shape[0]
    if v_diag.values.shape[0] != d:
        raise ValueError("dimension mismatch")
    tr = np.sum(np.conj(u_diag) * np.exp(1j * v_diag.values))
    return float((d + np.abs(tr) ** 2) / (d * (d + 1)))


def fidelity_lower_bound(residues, leak: float) -> float:
    """``1 - 2d/(d+1) max|phi_n| - 4/(d+1) sum (1 - r_nn)``."""
    residues = np.asarray(residues, dtype=float)
    d = residues.shape[0]
    return float(1.0 - (2.0 * d / (d + 1.0)) * np.max(np.abs(residues)) - (4.0 / (d + 1.0)) * leak)


@dataclass(frozen=True)
class MatchedSpectrum:
    """Perturbed eigensystem matched to the computational basis."""

    energies_0: np.ndarray     # unperturbed Zeeman energies E_n
    energies: np.ndarray       # matched perturbed energies E'_n
    overlaps: np.ndarray       # r_nn = |<n|n'>|^2
    first_order: np.ndarray    # <n|Hex|n>

    @property
    def leak(self) -> float:
        return float(np.sum(1.0 - self.overlaps))

    def energy_shift_residues(self, tau: float) -> np.ndarray:
        """tau * (dE_n - dE_n^(1)), folded to (-pi, pi]."""
        shift = self.energies - self.energies_0 - self.first_order
        return wrap_pm_pi(tau * shift)


def match_eigenstates(array: DotArray, min_overlap: float = 0.5) -> MatchedSpectrum:
    """Pair perturbed eigenstates with basis states by maximal overlap.

    Pairs are assigned greedily by descending overlap with deterministic
    index tie-breaking; an overlap below ``min_overlap`` signals a
    non-perturbative spectrum and raises :class:`DegenerateSpectrum`.
    """
    return Spectrum.of(array).match(min_overlap)


def _greedy_match(weights: np.ndarray) -> np.ndarray:
    """Basis row -> eigenvector column, pairs taken by descending weight."""
    dim = weights.shape[0]
    order = np.argsort(-weights, axis=None, kind="stable")
    basis_of = np.full(dim, -1)
    eig_of = np.full(dim, -1)
    assigned = 0
    for flat in order:
        n, m = divmod(int(flat), dim)
        if basis_of[n] >= 0 or eig_of[m] >= 0:
            continue
        basis_of[n] = m
        eig_of[m] = n
        assigned += 1
        if assigned == dim:
            break
    return basis_of


def _match_columns(weights: np.ndarray) -> np.ndarray:
    """The greedy pairing, in O(4^N) when every column's best row differs.

    Each column's largest weight (lowest row on ties) comes first in the
    greedy order among that column's entries, so when those rows are all
    distinct no pair can block another and greedy takes exactly them.
    """
    dim = weights.shape[0]
    basis_of = np.full(dim, -1)
    basis_of[np.argmax(weights, axis=0)] = np.arange(dim)
    if np.any(basis_of < 0):  # two columns picked the same row
        return _greedy_match(weights)
    return basis_of


def diagonal_residues(u: np.ndarray, ideal: PhaseVector) -> np.ndarray:
    """arg(U_nn e^{-i tau Lambda_n}) folded to (-pi, pi]."""
    return _diagonal_residues(np.diag(u), ideal)


def _diagonal_residues(u_diag: np.ndarray, ideal: PhaseVector) -> np.ndarray:
    return wrap_pm_pi(np.angle(u_diag) - ideal.values)


@dataclass(frozen=True)
class SecondOrder:
    """Leading perturbative residue phases and leaked population."""

    phi: np.ndarray
    leak: float


def perturbation_second_order(
    array: DotArray, tau: float, gap_threshold: float | None = None
) -> SecondOrder:
    """Second-order energy residues and leak from the exchange coupling.

    ``phi_n = tau sum_{m != n} |<n|Hex|m>|^2 / (E_n - E_m)`` and
    ``leak = sum_{n != m} |<n|Hex|m>|^2 / (E_n - E_m)^2`` over the
    unperturbed Zeeman energies.

    Raises
    ------
    DegenerateSpectrum
        If a coupled pair of levels sits closer than ``gap_threshold``
        (default ten times the total exchange energy).
    """
    pair = build_hamiltonian(array)
    if gap_threshold is None:
        gap_threshold = 10.0 * sum(b.exchange for b in array.bonds)
    v = pair.h_ex - np.diag(np.diag(pair.h_ex))
    gaps = pair.h0[:, None] - pair.h0[None, :]
    coupled = np.abs(v) > 1e-14
    bad = coupled & (np.abs(gaps) < gap_threshold)
    if np.any(bad):
        n, m = np.argwhere(bad)[0]
        raise DegenerateSpectrum(
            f"levels {int(n)} and {int(m)} are coupled but separated by only "
            f"{abs(gaps[n, m]):.3e} (threshold {gap_threshold:.3e})"
        )
    weight = np.abs(v) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(coupled, weight / gaps, 0.0)
        ratio2 = np.where(coupled, weight / gaps**2, 0.0)
    return SecondOrder(phi=tau * ratio.sum(axis=1), leak=float(ratio2.sum()))


@dataclass(frozen=True)
class PhaseCorrection:
    free: FreePhase
    post: np.ndarray


def optimal_phase_correction(residues, n_qubits: int) -> PhaseCorrection:
    """Least-squares free-phase compensation of residue phases.

    The free phase ``c + sum_j s_j b_j`` whose removal leaves the compensated
    residues of least Euclidean norm.  The columns 1 and ``(-1)^{b_j}`` span
    the same space and are orthogonal, so ``s_j`` is the mean residue with
    ``b_j = 1`` minus the mean with ``b_j = 0``, and ``c = mean - sum_j s_j / 2``.
    """
    residues = np.asarray(residues, dtype=float)
    # mean residue with qubit j off and on: axis 1 of this view is bit j
    halves = [residues.reshape(1 << j, 2, -1).mean(axis=(0, 2)) for j in range(n_qubits)]
    slopes = np.array([on - off for off, on in halves])
    constant = residues.mean() - slopes.sum() / 2
    post = residues - phase_polynomial(n_qubits, constant, slopes)
    return PhaseCorrection(free=FreePhase(constant, slopes), post=post)


def pulsed_evolution(array: DotArray, schedule: PulseSchedule) -> np.ndarray:
    """Exact qubit-frame propagator of a staged, pulsed evolution.

    Stages evolve under the full Hamiltonian for their duration and each
    boundary pulse is applied as a Pauli operator; the final frame rotation
    uses the total elapsed time.  The dense oracle of
    :meth:`Spectrum.pulsed_diagonal`.
    """
    return Spectrum.of(array).pulsed(schedule)


@dataclass(frozen=True)
class SimReport:
    """Exact-versus-ideal comparison for one evolution."""

    array: DotArray
    tau: float
    u_diag: np.ndarray  # diagonal of the exact propagator
    u_ideal: PhaseVector
    fidelity: float
    bound: float
    residues: np.ndarray
    leak: float
    correction: FreePhase
    post_residues: np.ndarray

    @cached_property
    def u_exact(self) -> np.ndarray:
        """Dense exact propagator, rebuilt on first request."""
        return qubit_frame_evolution(self.array, self.tau)

    @property
    def max_residue(self) -> float:
        return float(np.max(np.abs(self.residues)))

    @property
    def max_post_residue(self) -> float:
        return float(np.max(np.abs(self.post_residues)))

    def to_json(self) -> str:
        doc = {
            "fidelity": self.fidelity,
            "bound": self.bound,
            "leak": self.leak,
            "residues": list(map(float, self.residues)),
            "max_residue": self.max_residue,
            "correction": {
                "global": self.correction.global_phase,
                "local": list(self.correction.local),
            },
            "post_residues": list(map(float, self.post_residues)),
            "max_post_residue": self.max_post_residue,
            "u_exact_diag_phase": list(map(float, np.angle(self.u_diag))),
            "u_ideal": list(map(float, self.u_ideal.values)),
        }
        return json.dumps(doc, indent=2)


def simulate_gate(array: DotArray, tau: float) -> SimReport:
    """Run the exact evolution and assemble the fidelity accounting."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    spectrum = Spectrum.of(array)
    u_diag = spectrum.diagonal(tau)
    ideal = PhaseVector(-tau * spectrum.h_ex_diag)
    residues = _diagonal_residues(u_diag, ideal)
    leak = spectrum.match(0.5).leak
    corr = optimal_phase_correction(residues, array.n_dots)
    return SimReport(
        array=array,
        tau=tau,
        u_diag=u_diag,
        u_ideal=ideal,
        fidelity=_diagonal_fidelity(u_diag, ideal),
        bound=fidelity_lower_bound(residues, leak),
        residues=residues,
        leak=leak,
        correction=corr.free,
        post_residues=corr.post,
    )


def scaled_zeeman_array(array: DotArray, j_over_eps: float) -> DotArray:
    """Copy of the array with Zeeman energies rescaled so the largest
    exchange energy divided by the smallest Zeeman equals ``j_over_eps``."""
    j_max = max(b.exchange for b in array.bonds)
    eps_min = min(d.zeeman for d in array.dots)
    factor = (j_max / j_over_eps) / eps_min
    dots = [Dot(d.id, d.zeeman * factor, d.chem_potential) for d in array.dots]
    return DotArray(dots, array.bonds)


def sweep_rows(
    array: DotArray, tau: float, grid
) -> tuple[list[tuple[float, float, float, float]], list[tuple[float, str]]]:
    """(J/eps, infidelity, bound, max residue) rows over a coupling sweep.

    A point whose spectrum is degenerate is skipped; it is returned in the
    second list as (J/eps, message), so one such point does not cost the rest.
    """
    rows, skipped = [], []
    for x in grid:
        scaled = scaled_zeeman_array(array, float(x))
        try:
            report = simulate_gate(scaled, tau)
        except DegenerateSpectrum as exc:
            skipped.append((float(x), str(exc)))
            continue
        rows.append((float(x), 1.0 - report.fidelity, report.bound, report.max_residue))
    return rows, skipped
