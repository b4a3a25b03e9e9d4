"""Exact dynamics of the dot array.

The computational Hamiltonian splits into a diagonal Zeeman part and an
exchange part assembled from one projector per bond onto the entangled
state ``(s* |uu> + t* |ud> - t |du> + s |dd>) / sqrt(2)``.  One Hermitian
eigendecomposition per array, held by :class:`Spectrum`, serves every
exact flow through one entry point, :meth:`Spectrum.diagonal` of a pulse
schedule; a time tau is ``PulseSchedule(n, [Stage(tau)])``, propagator
``exp(+i tau H0) exp(-i tau (H0 + Hex))``.  :meth:`Spectrum.leak` (each basis
state's overlap with its eigenvector) is the one regime check, and
:func:`simulate_gate` compares any schedule with its first-order gate.

The eigendecomposition runs LAPACK's three stages, each called in place
through ``ctypes`` from the library numpy already loads: ``zhetrd``
reduces H to a real tridiagonal T = Q^dag H Q, ``zungtr`` forms Q in H's
own buffer, and ``dstedc`` (divide and conquer) returns T's real
eigenvectors Z.  The eigenvectors Q Z are then real GEMMs over two column
halves of the buffer: Z is real, so one ``dgemm`` of Z with a block's float
view, its real and imaginary columns interleaved, covers both.  The
C-ordered H reaches Fortran as its conjugate, so the buffer comes back
holding V^dag row by row, and V is its conjugate's transpose view.  Beside
H itself the peak is Z and ``dstedc``'s work, n^2 floats each: 2x H in
all, where ``zheevd`` would copy Z into n^2 complex numbers of work and
back-transform it there, about 3x H.  Where numpy's LAPACK exports no
64-bit-integer stage under one prefix (Accelerate, MKL or a
32-bit-integer build), ``numpy.linalg.eigh`` runs instead; the choice is
made once, at import.

The flows read only the diagonal of the propagator, which costs O(4^N)
given the spectrum.  Pulses compose on their masks
(:meth:`PauliAssignment.compose`), so the pulses of any boundary are one
Pauli string ``P_h`` and a scalar c.  Pulses before the first and after the
last evolving stage permute and sign rows, also O(4^N).  Between two
evolving stages, ``V^dag P_h V = C^dag C - I`` is a reflection with C of
2^N / 2 rows (:meth:`PauliAssignment.reflection`): each such boundary costs
two half-size products, 8^N complex multiply-adds, in place: the verify
holds at most 3x H.  The dense propagator is built only on request
(``qubit_frame_evolution``, ``pulsed_evolution``).

The difference from the ideal gate is coherent error, quantified by the
average gate fidelity, a perturbative lower bound, per-state residue
phases, the leaked population, and the residue left after the
least-squares free phase, which has a closed form.
"""

from __future__ import annotations

import ctypes
import functools
from collections import namedtuple
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


class PhaseLimitExceeded(ValueError):
    """A time whose phases exceed ``MAX_PHASE``, where they are rounding."""


# Most dots the dense path takes.  At 13 dots the complex 2^N x 2^N
# Hamiltonian alone is 1 GiB; the eigensolver overwrites it in place and
# adds the n^2 floats of the tridiagonal's eigenvectors and n^2 floats of
# dstedc's work, 2x H in all; the pulsed verify holds at most 3x H (0.75 GiB at
# 12 dots), and every further dot multiplies both by four.
DENSE_MAX_DOTS = 12


class DenseLimitExceeded(ValueError):
    """An array with more dots than the dense path takes."""


# Least |<n|n'>|^2 of a basis state and its eigenvector in the perturbative
# regime: in a two-level pair, 3/4 admits mixing up to |V_nm| / |E_n - E_m| =
# sqrt(3) / 2.  Every row and column of |V|^2 sums to 1 (V is unitary), so
# overlaps above 1/2 pair states and eigenvectors one to one.
MIN_OVERLAP = 0.75

# Largest phase t |E| a time may give: one ulp of 2^38 rad is 2^-14 rad, more
# than 100x below the 1e-2 rad an answer is verified to.
MAX_PHASE = 2.0**38


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


# The three LAPACK stages of ``_eigh``, in the order they run
_Stages = namedtuple("_Stages", "zhetrd zungtr dstedc")


def _lapack_stages():
    """LAPACK's ``zhetrd``, ``zungtr`` and ``dstedc`` with 64-bit integers,
    all under one symbol prefix, from the library numpy links, or None where
    that library does not export all three."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix in ("scipy_", ""):
        funcs = [getattr(lib, f"{prefix}{name}_64_", None) for name in _Stages._fields]
        if all(funcs):
            break
    else:
        return None
    integer = ctypes.POINTER(ctypes.c_int64)

    def buffer(dtype, ndim=1):
        return np.ctypeslib.ndpointer(dtype, ndim=ndim, flags="C_CONTIGUOUS, WRITEABLE")

    real, cplx = buffer(np.float64), buffer(np.complex128)
    heads = (
        # uplo, n, a, lda, d, e, tau, work, lwork
        [ctypes.c_char_p, integer, buffer(np.complex128, 2), integer, real, real, cplx, cplx, integer],
        # uplo, n, a, lda, tau, work, lwork
        [ctypes.c_char_p, integer, buffer(np.complex128, 2), integer, cplx, cplx, integer],
        # compz, n, d, e, z, ldz, work, lwork, iwork, liwork
        [ctypes.c_char_p, integer, real, real, buffer(np.float64, 2), integer, real, integer,
         buffer(np.int64), integer],
    )
    for func, head in zip(funcs, heads):
        func.argtypes = head + [integer, ctypes.c_size_t]  # info, the hidden string length
        func.restype = None
    return _Stages(*funcs)


_STAGES = _lapack_stages()


def _eigh(matrix: np.ndarray):
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian
    complex C-ordered matrix.  The direct path overwrites the matrix and
    returns the eigenvectors as a transposed view of its buffer, at a peak
    of twice the matrix; the ``numpy.linalg.eigh`` fallback leaves it as it
    was.  Any stage that reports ``info != 0`` raises
    :class:`EigensolverFailure`."""
    if _STAGES is None:
        try:
            return np.linalg.eigh(matrix)
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailure(str(exc)) from exc
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"eigh needs a square matrix, got shape {matrix.shape}")
    size, info = ctypes.c_int64(n), ctypes.c_int64(0)

    def call(name, *args):
        getattr(_STAGES, name)(*args, info, 1)  # then info and the length of the one string
        if info.value:
            raise EigensolverFailure(f"LAPACK {name} returned info = {info.value}")

    # Fortran reads the buffer as conj(H): T = Q^dag conj(H) Q, then Q in place;
    # 32 n complex numbers of work, the optimum both report, run them in blocks
    evals, off = np.empty(n), np.empty(n)
    tau, work = np.empty(n, dtype=complex), np.empty(32 * n, dtype=complex)
    lwork = ctypes.c_int64(work.size)
    call("zhetrd", b"L", size, matrix, size, evals, off, tau, work, lwork)
    call("zungtr", b"L", size, matrix, size, tau, work, lwork)
    del tau, work  # freed before dstedc's n^2 work is taken
    z = np.empty((n, n))  # row k holds column k of Z
    work, iwork = np.empty(n * n + 4 * n + 1), np.empty(5 * n + 3, dtype=np.int64)
    call("dstedc", b"I", size, evals, off, z, size, work, ctypes.c_int64(work.size), iwork,
         ctypes.c_int64(iwork.size))
    # the buffer holds Q^T row by row, so (Q Z)^T = Z^T Q^T is z @ buffer, one
    # column half at a time; the products land in dstedc's spent work, whose
    # n^2 + 4n + 1 floats hold n x 2 ceil(n/2)
    half = (n + 1) // 2
    product = work[:2 * half * n].reshape(n, 2 * half)
    for cols in (matrix[:, :half], matrix[:, half:]):
        part = product[:, :2 * cols.shape[1]]
        np.matmul(z, cols.view(float), out=part)
        cols[...] = part.view(complex)
    # row k now holds the eigenvector of conj(H), the conjugate of H's v_k
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
        """Refuse a negative or NaN time (``ValueError``), and one whose
        largest phase ``t max(|E|, |h0|)`` exceeds ``MAX_PHASE``
        (:class:`PhaseLimitExceeded`)."""
        if not t >= 0:
            raise ValueError(f"time {t!r} must be nonnegative")
        phase = t * float(max(np.abs(self.evals).max(), np.abs(self.h0).max()))
        if not phase <= MAX_PHASE:
            raise PhaseLimitExceeded(f"time {t!r} gives phases up to {phase:.3g} rad; a time "
                                     "must give phases of at most 2^38 rad, one ulp 2^-14 rad")

    def diagonal(self, schedule: PulseSchedule) -> np.ndarray:
        """``diag(net U)``, U the schedule's qubit-frame propagator and ``net``
        its net Pauli (its own inverse): the gate's phases.  A schedule whose
        pulses are all I, a time among them, is one evolution for its total T:
        ``e^{i T h0} (|V|^2 e^{-i T E})``.  Any other costs O(4^N) beyond the
        products between evolving stages, its left factor formed by blocks of rows."""
        if all(st.pulse.is_identity() for st in schedule.stages):
            tau = schedule.total_time
            self.check_time(tau)
            rot = np.exp(-1j * tau * self.evals)
            mixed = np.abs(self.evecs) ** 2 @ np.column_stack([rot.real, rot.imag])
            return np.exp(1j * tau * self.h0) * (mixed[:, 0] + 1j * mixed[:, 1])
        head, scale, w = self._pulsed_factors(schedule, schedule.net_pulse())
        width = self._panel_width()
        return np.concatenate([
            np.einsum("bk,kb->b", head.apply_rows(self.evecs, scale, rows), w[:, rows])
            for rows in (slice(start, start + width) for start in range(0, w.shape[0], width))
        ])

    @functools.cached_property
    def _overlaps(self) -> np.ndarray:  # each row's largest |V|^2 weight, read once
        return np.max(np.abs(self.evecs) ** 2, axis=1)

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
        overlaps = self._overlaps
        if np.min(overlaps) < MIN_OVERLAP:
            worst = int(np.argmin(overlaps))
            raise DegenerateSpectrum(
                f"state {worst} overlaps its eigenvector by only {overlaps[worst]:.3f}; "
                "the spectrum is outside the perturbative regime"
            )
        return float(np.sum(1.0 - overlaps))

    def _pulsed_factors(self, schedule: PulseSchedule, net: PauliAssignment):
        """``(head, scale, w)`` with ``head.apply_rows(V, scale) @ w = net U``, U
        the qubit-frame propagator of the schedule and ``net`` a Pauli string.

        The running product is kept as ``V w`` in eigen coordinates ``w``.
        Evolving stages scale the rows of ``w``.  The pulses since the last
        evolving stage compose on their masks into ``c P_h``, O(1) per
        pulse with c in {1, i, -1, -i}.  Between two evolving stages P_h is a
        reflection, ``V^dag P_h V = C^dag C - I`` with C the 2^N / 2 rows of
        :meth:`PauliAssignment.reflection`, so ``w <- c (C^dag (C w) - w)``
        costs two half-size products, 8^N complex multiply-adds, and none
        when P_h is I.  ``w`` is updated in place by panels of columns, ``w_p
        <- conj(C^T conj(C w_p)) - w_p``: beside V, only ``C^T`` and two panels.
        Pulses before the first evolution gather the columns of ``V^dag``.
        Pulses after the last one, ``net`` and the frame rotation
        ``F = exp(i T H0)`` act on the rows of V: ``net F = F[b ^ x_net] net``
        (F read at the flipped index), so the left factor is ``head =
        net P_h`` applied to the rows of V with ``scale = F[b ^ x_net] c``.
        """
        self.check_time(schedule.total_time)
        v = self.evecs
        n, width = v.shape[0], self._panel_width()
        identity = PauliAssignment(schedule.n_dots)
        pending, c = identity, 1  # c P_h, the pulses since the last evolving stage
        buffers = []  # C^T and the two panels, reused from boundary to boundary

        def cross(w):
            """``w`` after the boundary ``c P_h``."""
            if w is None:  # V^dag P_h: one gather of V^T's columns, then in place
                w = np.take(v.T, pending._shifted(), axis=1)
                np.conjugate(w, out=w)
                if not pending.is_identity():
                    w *= pending._phases()
            elif not pending.is_identity():
                if not buffers:
                    shapes = ((n, n // 2), (n // 2, width), (n, width))
                    buffers.extend(np.empty(shape, dtype=complex) for shape in shapes)
                ct, x, y = buffers
                pending.reflection(v.T, out=ct)
                for panel in (w[:, k:k + width] for k in range(0, n, width)):  # views of w
                    np.matmul(ct.T, panel, out=x)
                    np.conjugate(x, out=x)
                    np.matmul(ct, x, out=y)
                    np.conjugate(y, out=y)
                    panel[...] = np.subtract(y, panel, out=y)  # out=panel would copy
            if c != 1:
                w *= c
            return w

        w = None
        for stage in schedule.stages:
            if stage.duration > 0:
                w = cross(w)
                w *= np.exp(-1j * stage.duration * self.evals)[:, None]
                pending, c = identity, 1
            pending, phase = stage.pulse.compose(pending)
            c *= phase
        if w is None:  # nothing evolves: the schedule is its pulses alone
            w = cross(w)
            pending, c = identity, 1
        head, phase = net.compose(pending)
        frame = np.exp(1j * schedule.total_time * self.h0)
        return head, frame[np.arange(n) ^ net.x_mask] * (c * phase), w

    def _panel_width(self) -> int:
        """Columns per panel of the pulsed verify: n / 8, and from 32 up to n."""
        return min(max(self.evals.shape[0] // 8, 32), self.evals.shape[0])


def qubit_frame_evolution(array: DotArray, tau: float) -> np.ndarray:
    """Exact propagator ``exp(+i tau H0) exp(-i tau (H0 + Hex))``."""
    return pulsed_evolution(array, PulseSchedule(array.n_dots, [Stage(tau)]))


def _diagonal_fidelity(u_diag: np.ndarray, v_diag: PhaseVector) -> float:
    d = u_diag.shape[0]
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
    :meth:`Spectrum.diagonal`.
    """
    spectrum = Spectrum.of(array)
    head, scale, w = spectrum._pulsed_factors(schedule, PauliAssignment(schedule.n_dots))
    return head.apply_rows(spectrum.evecs, scale) @ w


@dataclass(frozen=True)
class SimReport:
    """Exact-versus-ideal comparison for one schedule."""

    u_diag: np.ndarray  # diagonal of net U, the exact propagator read through its net Pauli
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


def simulate_gate(spectrum: Spectrum, schedule: PulseSchedule) -> SimReport:
    """The schedule's exact evolution, scored against its first-order ideal:
    stage n, in frame x_n, adds ``-tau_n (h_ex_diag + h0)[b ^ x_n]`` to state
    b's phase, the frame rotation ``T h0[b ^ x_net]``, and the pulses, which
    compose to ``c net``, arg c.  A time's ideal is ``-tau h_ex_diag``."""
    leak = spectrum.leak()
    u_diag = spectrum.diagonal(schedule)
    frames, rows = schedule.frames(), np.arange(u_diag.shape[0])
    flipped = rows ^ frames[:-1, None]  # (stages, states): b ^ x_n
    pulses, c = PauliAssignment(schedule.n_dots), 1
    for stage in schedule.stages:
        pulses, phase = stage.pulse.compose(pulses)
        c *= phase
    # h0 - h0 is 0 exactly in a time's one frame, which keeps its ideal bit for bit;
    # the stages are summed in time order, row after row
    energies = spectrum.h_ex_diag[flipped] - (spectrum.h0[rows ^ frames[-1]] - spectrum.h0[flipped])
    ideal = PhaseVector(np.angle(c) - (schedule.durations[:, None] * energies).sum(axis=0))
    residues = diagonal_residues(u_diag, ideal)
    corr = optimal_phase_correction(residues, schedule.n_dots)
    return SimReport(
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

    A point whose scaled energies leave the float range, whose spectrum is
    degenerate, or whose scaled energies take tau's phases past ``MAX_PHASE``
    is skipped and returned in the second list as (J/eps, message).  An
    array with no bond of J > 0 has no scale (``ValueError``, before any point).
    """
    if not any(b.exchange > 0 for b in array.bonds):
        raise ValueError("a coupling sweep needs a bond with J > 0")
    rows, skipped = [], []
    schedule = PulseSchedule(array.n_dots, [Stage(tau)])
    for x in grid:
        try:
            report = simulate_gate(Spectrum.of(scaled_zeeman_array(array, float(x))), schedule)
        except (DegenerateSpectrum, ValueError) as exc:
            skipped.append((float(x), str(exc)))
            continue
        rows.append((float(x), 1.0 - report.fidelity, report.bound, report.max_residue))
    return rows, skipped
