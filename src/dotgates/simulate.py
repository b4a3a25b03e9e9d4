"""Exact dynamics of the dot array.

The computational Hamiltonian splits into a diagonal Zeeman part and an
exchange part assembled from one projector per bond onto the entangled
state ``(s* |uu> + t* |ud> - t |du> + s |dd>) / sqrt(2)``.  One Hermitian
eigendecomposition per array, held by :class:`Spectrum`, serves every
exact flow: the qubit-frame propagator ``exp(+i tau H0) exp(-i tau (H0 +
Hex))``, the one regime check (:meth:`Spectrum.leak`, which reads each
basis state's overlap with its eigenvector), and staged evolutions with
instantaneous Pauli pulses.  Its first-order approximation is the diagonal
gate ``exp(+i tau Lambda)`` with Lambda the grid vector.

The eigendecomposition is LAPACK's ``zheevd`` (divide and conquer), called
in place through ``ctypes`` from the library numpy already loads: the
C-ordered H reaches Fortran as its conjugate, so the buffer comes back
holding V^dag row by row, and V is its conjugate's transpose view, with no
n x n copy.  The workspace is n^2 + 65 n + 4160 complex numbers: zheevd
keeps n^2 + n of it, and the rest lets the eigenvector back-transformation
(``zunmtr``) apply its Householder reflectors in blocks of 64.
``numpy.linalg.eigh`` passes the minimum workspace, which leaves them one
at a time and takes about twice as long.  Where numpy's LAPACK exports no
64-bit-integer ``zheevd`` (Accelerate, MKL or a 32-bit-integer build),
``numpy.linalg.eigh`` runs instead; the choice is made once, at import.

The flows read only the diagonal of the propagator, which costs O(4^N)
given the spectrum.  Pulses compose on their masks
(:meth:`PauliAssignment.compose`), so the pulses of any boundary are one
Pauli string ``P_h`` and a scalar c.  Pulses before the first and after the
last evolving stage permute and sign rows, also O(4^N).  Between two
evolving stages, ``V^dag P_h V = C^dag C - I`` is a reflection with C of
2^N / 2 rows (:meth:`PauliAssignment.reflection`): each such boundary costs
two half-size products, 8^N complex multiply-adds.  The dense propagator is
built only on request (``qubit_frame_evolution``, ``pulsed_evolution``).

The difference from the ideal gate is coherent error, quantified by the
average gate fidelity, a perturbative lower bound, per-state residue
phases, the leaked population, and the residue left after the
least-squares free phase, which has a closed form.
"""

from __future__ import annotations

import ctypes
import json
from dataclasses import dataclass

import numpy as np

from .basis import bit_table, pair_view, wrap_pm_pi
from .calibrate import PauliAssignment, PulseSchedule, Stage
from .gates import FreePhase, PhaseVector, phase_polynomial
from .model import Bond, Dot, DotArray


class EigensolverFailure(RuntimeError):
    """Dense Hermitian eigendecomposition did not converge."""


class DegenerateSpectrum(RuntimeError):
    """Coupled levels too close for the perturbative treatment."""


# Most dots the dense path takes.  At 13 dots the complex 2^N x 2^N
# Hamiltonian alone is 1 GiB; zheevd overwrites it in place and adds n^2
# complex numbers of work and 2 n^2 floats of rwork, about 3x H in all,
# and every further dot multiplies that by four.
DENSE_MAX_DOTS = 12


class DenseLimitExceeded(ValueError):
    """An array with more dots than the dense path takes."""


# Least |<n|n'>|^2 of a basis state and its eigenvector in the perturbative
# regime: in a two-level pair, 3/4 admits mixing up to |V_nm| / |E_n - E_m| =
# sqrt(3) / 2.  Every row and column of |V|^2 sums to 1 (V is unitary), so
# overlaps above 1/2 pair states and eigenvectors one to one.
MIN_OVERLAP = 0.75


def entangled_state(bond: Bond) -> np.ndarray:
    """Normalized bond state (s*, t*, -t, s)/sqrt(2) on (uu, ud, du, dd)."""
    t, s = bond.t, bond.s
    return np.array([np.conj(s), np.conj(t), -t, s]) / np.sqrt(2.0)


@dataclass(frozen=True)
class HamiltonianPair:
    """Diagonal dot part and dense Hermitian exchange part."""

    h0: np.ndarray
    h_ex: np.ndarray


def build_hamiltonian(array: DotArray) -> HamiltonianPair:
    """Dot and exchange Hamiltonians in the computational basis.

    ``h0`` holds the Zeeman diagonal ``sum_j (-1)^{b_j} eps_j / 2`` (bit 0 is
    spin up); ``h_ex`` accumulates ``-J_w`` times the embedded projector on
    each bond's entangled state, so its diagonal is minus the grid vector.
    An array of more than ``DENSE_MAX_DOTS`` dots raises
    :class:`DenseLimitExceeded` before anything is allocated, and energies
    that sum past the float range raise ``ValueError``.
    """
    n = array.n_dots
    if n > DENSE_MAX_DOTS:
        raise DenseLimitExceeded(
            f"{n} dots exceed the dense limit of {DENSE_MAX_DOTS}: the 2^{n} x 2^{n} "
            f"Hamiltonian alone would take {4**n >> 26} GiB"
        )
    bits = bit_table(n)
    # finite energies can still sum past the float range, and LAPACK is not
    # promised to fail on a non-finite matrix: overflow is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        h0 = ((1 - 2 * bits) @ array.zeemans) / 2.0
        h_ex = np.zeros((1 << n, 1 << n), dtype=complex)
        for bond in array.bonds:
            xi = entangled_state(bond)
            rows = pair_view(np.arange(1 << n), bond.j, bond.k).reshape(4, -1)
            h_ex[rows[:, None], rows[None, :]] += (-bond.exchange * np.outer(xi, np.conj(xi)))[:, :, None]
    if not (np.isfinite(h0).all() and np.isfinite(h_ex).all()):
        raise ValueError("the Hamiltonian overflows: energies sum past the float range")
    return HamiltonianPair(h0=h0, h_ex=h_ex)


def _lapack_zheevd():
    """LAPACK's ``zheevd`` with 64-bit integers from the library numpy
    links, or None where that library exports no such symbol."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    func = getattr(lib, "scipy_zheevd_64_", None) or getattr(lib, "zheevd_64_", None)
    if func is None:
        return None
    integer = ctypes.POINTER(ctypes.c_int64)

    def buffer(dtype, ndim=1):
        return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags="C_CONTIGUOUS, WRITEABLE")

    # jobz, uplo, n, a, lda, w, work, lwork, rwork, lrwork, iwork, liwork,
    # info, and the hidden lengths of the two strings
    func.argtypes = [
        ctypes.c_char_p, ctypes.c_char_p, integer, buffer(np.complex128, 2), integer,
        buffer(np.float64), buffer(np.complex128), integer, buffer(np.float64), integer,
        buffer(np.int64), integer, integer, ctypes.c_size_t, ctypes.c_size_t,
    ]
    func.restype = None
    return func


_ZHEEVD = _lapack_zheevd()


def _eigh(matrix: np.ndarray):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian
    complex C-ordered matrix.  The direct ``zheevd`` path overwrites the
    matrix and returns the eigenvectors as a transposed view of its buffer;
    the ``numpy.linalg.eigh`` fallback leaves it as it was."""
    if _ZHEEVD is None:
        try:
            return np.linalg.eigh(matrix)
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailure(str(exc)) from exc
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"eigh needs a square matrix, got shape {matrix.shape}")
    evals = np.empty(n)
    # zheevd keeps n^2 + n of work; zunmtr's blocked back-transformation
    # needs n * 64 + 65 * 64 more (ilaenv's block size 64 and its T factor)
    work = np.empty(n * n + 65 * n + 4160, dtype=complex)
    rwork = np.empty(2 * n * n + 5 * n + 1)
    iwork = np.empty(5 * n + 3, dtype=np.int64)
    size, info = ctypes.c_int64(n), ctypes.c_int64(0)
    _ZHEEVD(b"V", b"L", size, matrix, size, evals, work, ctypes.c_int64(work.size),
            rwork, ctypes.c_int64(rwork.size), iwork, ctypes.c_int64(iwork.size), info, 1, 1)
    if info.value:
        raise EigensolverFailure(f"LAPACK zheevd returned info = {info.value}")
    # Fortran read the buffer as conj(H), so row k holds conj(v_k)
    np.conjugate(matrix, out=matrix)
    return evals, matrix.T


@dataclass(frozen=True)
class Spectrum:
    """One eigendecomposition of ``H = H0 + Hex`` per array.

    Holds the Zeeman diagonal ``h0``, the real diagonal of ``Hex`` (minus
    the grid vector), and the eigenvalues and eigenvector columns of H from
    a single ``eigh``; every exact quantity of the array is read from it.
    The eigenvectors overwrite H's own buffer.
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

    def check_time(self, t: float) -> None:
        """Refuse a time whose phases ``t E`` or ``t h0`` overflow a float,
        which would make every exponential NaN (``ValueError``)."""
        energy = float(max(np.abs(self.evals).max(), np.abs(self.h0).max()))
        if not np.isfinite(abs(float(t)) * energy):
            raise ValueError(f"time {t!r} times an energy of the array overflows a float")

    def diagonal(self, tau: float) -> np.ndarray:
        """Diagonal of ``exp(+i tau H0) exp(-i tau H)``:
        ``e^{i tau h0} (|V|^2 e^{-i tau E})``."""
        self.check_time(tau)
        rot = np.exp(-1j * tau * self.evals)
        mixed = np.abs(self.evecs) ** 2 @ np.column_stack([rot.real, rot.imag])
        return np.exp(1j * tau * self.h0) * (mixed[:, 0] + 1j * mixed[:, 1])

    def leak(self) -> float:
        """Leaked population ``sum_n (1 - |<n|n'>|^2)``, the regime check of
        every exact flow.

        State n's overlap is the largest weight in row n of |V|^2; one below
        ``MIN_OVERLAP`` puts the spectrum outside the perturbative regime and
        raises :class:`DegenerateSpectrum`.  Rows and columns of |V|^2 each
        sum to 1, so a weight above 1/2 is also the largest of its column:
        above the floor, states and eigenvectors pair one to one, each
        eigenvector with the state it overlaps most.  The terms are summed
        in basis-row order.
        """
        overlaps = np.max(np.abs(self.evecs) ** 2, axis=1)
        if np.min(overlaps) < MIN_OVERLAP:
            worst = int(np.argmin(overlaps))
            raise DegenerateSpectrum(
                f"state {worst} overlaps its eigenvector by only {overlaps[worst]:.3f}; "
                "the spectrum is outside the perturbative regime"
            )
        return float(np.sum(1.0 - overlaps))

    def _pulsed_factors(self, schedule: PulseSchedule, net: PauliAssignment):
        """``(left, right)`` with ``left @ right = net U``, U the qubit-frame
        propagator of the schedule and ``net`` a Pauli string.

        The running product is kept as ``V w`` in eigen coordinates ``w``.
        Evolving stages scale the rows of ``w``.  The pulses since the last
        evolving stage compose on their masks into ``c P_h``, O(1) per
        pulse with c in {1, i, -1, -i}.  Between two evolving stages P_h is a
        reflection, ``V^dag P_h V = C^dag C - I`` with C the 2^N / 2 rows of
        :meth:`PauliAssignment.reflection`, so ``w <- c (C^dag (C w) - w)``
        costs two half-size products, 8^N complex multiply-adds, and none
        when P_h is I.  ``w`` is updated in place and the work buffers are
        reused from boundary to boundary.
        Pulses before the first evolution act on the columns of ``V^dag``.
        Pulses after the last one, ``net`` and the frame rotation
        ``F = exp(i T H0)`` act on the rows of V: ``net F = F[b ^ x_net] net``
        (F read at the flipped index), so ``left = F[b ^ x_net] c (net P_h) V``
        and neither side takes a dense product.
        """
        self.check_time(schedule.total_time)
        v = self.evecs
        identity = PauliAssignment.identity(schedule.n_dots)
        pending, c = identity, 1  # c P_h, the pulses since the last evolving stage
        buffers = []  # work buffers of the reflections

        def cross(w):
            """``w`` after the boundary ``c P_h``."""
            if w is None:
                w = v.conj().T if pending.is_identity() else pending.apply_columns(v.conj().T)
            elif not pending.is_identity():
                if not buffers:
                    buffers.extend(np.empty((2, v.shape[0] // 2, v.shape[0]), dtype=complex))
                    buffers.append(np.empty(v.shape, dtype=complex))
                rows, half, spare = buffers
                np.matmul(pending.reflection(v, out=rows), w, out=half)
                np.conjugate(rows, out=rows)
                np.matmul(rows.T, half, out=spare)
                np.subtract(spare, w, out=w)
            if c != 1:
                w *= c
            return w

        w = None
        for stage in schedule.stages:
            if stage.duration > 0:
                w = cross(w)
                w *= np.exp(-1j * stage.duration * self.evals)[:, None]
                pending, c = identity, 1
            if stage.pulse is not None:
                pending, phase = stage.pulse.compose(pending)
                c *= phase
        if w is None:  # nothing evolves: the schedule is its pulses alone
            w = cross(w)
            pending, c = identity, 1
        head, phase = net.compose(pending)
        frame = np.exp(1j * schedule.total_time * self.h0)
        return head.apply_rows(v, frame[np.arange(v.shape[0]) ^ net.x_mask] * (c * phase)), w

    def pulsed(self, schedule: PulseSchedule) -> np.ndarray:
        """Dense qubit-frame propagator of a staged, pulsed evolution."""
        left, right = self._pulsed_factors(schedule, PauliAssignment.identity(schedule.n_dots))
        return left @ right

    def pulsed_diagonal(self, schedule: PulseSchedule) -> np.ndarray:
        """``diag(net^dag U)`` of the pulsed propagator U, in O(4^N) beyond
        the products between evolving stages; ``net`` is the schedule's net
        Pauli (a Pauli string is its own inverse), so the result holds the
        gate's phases."""
        left, right = self._pulsed_factors(schedule, schedule.net_pulse())
        return np.einsum("bk,kb->b", left, right)


def qubit_frame_evolution(array: DotArray, tau: float) -> np.ndarray:
    """Exact propagator ``exp(+i tau H0) exp(-i tau (H0 + Hex))``."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return Spectrum.of(array).pulsed(PulseSchedule(array.n_dots, [Stage(tau)]))


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


def diagonal_residues(u_diag: np.ndarray, ideal: PhaseVector) -> np.ndarray:
    """arg(U_nn e^{-i tau Lambda_n}) folded to (-pi, pi], from diag(U)."""
    return wrap_pm_pi(np.angle(u_diag) - ideal.values)


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

    tau: float
    u_diag: np.ndarray  # diagonal of the exact propagator
    u_ideal: PhaseVector
    fidelity: float
    bound: float
    residues: np.ndarray
    leak: float
    correction: FreePhase
    post_residues: np.ndarray

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
    residues = diagonal_residues(u_diag, ideal)
    leak = spectrum.leak()
    corr = optimal_phase_correction(residues, array.n_dots)
    return SimReport(
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
    exchange energy divided by the smallest Zeeman equals ``j_over_eps``;
    an array with no bond of positive J has no such scale (``ValueError``)."""
    j_max = max((b.exchange for b in array.bonds), default=0.0)
    if j_max <= 0:
        raise ValueError("a coupling sweep needs a bond with J > 0")
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
