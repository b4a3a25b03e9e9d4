"""One spectrum per array: diagonal readouts against dense references."""

import numpy as np
import pytest
from scipy.linalg import expm

from dotgates import (
    CalibrationTarget,
    DegenerateSpectrum,
    PauliAssignment,
    PulseSchedule,
    Spectrum,
    Stage,
    build_hamiltonian,
    pulsed_evolution,
    qubit_frame_evolution,
    simulate_gate,
    solve_intervals,
    weave_dd,
)
from dotgates.basis import circular_distance, wrap_pm_pi
from dotgates.calibrate import SignedPermutation
from dotgates.simulate import MIN_OVERLAP, optimal_phase_correction

from conftest import (
    argmax_match,
    chain_array,
    min_column_overlap,
    random_connected_array,
    stellar_array,
)

PAULI_2X2 = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def kron_pulse(pulse):
    out = np.array([[1.0 + 0j]])
    for lab in pulse.labels:
        out = np.kron(out, PAULI_2X2[lab])
    return out


def expm_reference(array, schedule):
    """Stage-by-stage expm and Kronecker pulses, independent of Spectrum."""
    pair = build_hamiltonian(array)
    h = np.diag(pair.h0) + pair.h_ex
    u = np.eye(h.shape[0], dtype=complex)
    for st in schedule.stages:
        u = expm(-1j * st.duration * h) @ u
        if st.pulse is not None:
            u = kron_pulse(st.pulse) @ u
    return np.exp(1j * schedule.total_time * pair.h0)[:, None] * u


def dense_readout(array, schedule):
    net = schedule.net_pulse()
    return np.diag(net.matrix().conj().T @ pulsed_evolution(array, schedule))


def expm_readout(array, schedule):
    """``diag(net^dag U)`` from ``expm_reference``: no code of Spectrum."""
    net = kron_pulse(schedule.net_pulse())
    return np.diag(net.conj().T @ expm_reference(array, schedule))


def greedy_match(weights):
    """Basis row -> eigenvector column, pairs taken by descending weight
    with index tie-breaking: the reference pairing of ``argmax_match``.

    Each column's largest weight (lowest row on ties) comes first in this
    order among that column's entries, so when those rows are all distinct
    no pair blocks another and greedy takes exactly them.
    """
    dim = weights.shape[0]
    order = np.argsort(-weights, axis=None, kind="stable")
    basis_of = np.full(dim, -1)
    eig_of = np.full(dim, -1)
    for flat in order:
        n, m = divmod(int(flat), dim)
        if basis_of[n] < 0 and eig_of[m] < 0:
            basis_of[n] = m
            eig_of[m] = n
    return basis_of


def spectrum_with_vectors(evecs):
    """A spectrum whose eigenvectors are the columns of ``evecs``."""
    dim = evecs.shape[0]
    return Spectrum(np.zeros(dim), np.zeros(dim), np.arange(dim, dtype=float), evecs)


def random_schedule(rng, n, n_stages, labels="IXYZ", zero_frac=0.25):
    stages = []
    for i in range(n_stages):
        duration = 0.0 if rng.random() < zero_frac else float(rng.uniform(50.0, 900.0))
        pulse = None
        if i < n_stages - 1 or rng.random() < 0.5:
            pulse = PauliAssignment(rng.choice(list(labels), size=n))
            if pulse.is_identity():
                pulse = None
        stages.append(Stage(duration, pulse))
    return PulseSchedule(n, stages)


def array_family(rng, n):
    yield chain_array(n, j_scale=1e-3, rng=rng)
    yield stellar_array(n - 1, rng=rng)
    yield random_connected_array(rng, n)


class TestPulsedDiagonal:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_dense_on_random_schedules(self, n):
        rng = np.random.default_rng(100 + n)
        for arr in array_family(rng, n):
            spectrum = Spectrum.of(arr)
            for _ in range(2):
                sched = random_schedule(rng, n, int(rng.integers(2, 6)))
                woven = [weave_dd(sched)] if sched.total_time > 0 else []
                for s in [sched] + woven:
                    got = spectrum.pulsed_diagonal(s, s.net_pulse())
                    assert np.max(np.abs(got - dense_readout(arr, s))) <= 1e-12
                    assert np.max(np.abs(got - expm_readout(arr, s))) <= 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_dense_on_solved_schedules(self, n):
        rng = np.random.default_rng(7 + n)
        for arr in (stellar_array(n - 1, j_scale=2e-4, rng=rng),
                    chain_array(n, j_scale=2e-4, rng=rng)):
            target = CalibrationTarget.for_array(arr, [np.pi / 2] * arr.n_bonds)
            base = solve_intervals(arr, target, offset_bound=3)
            spectrum = Spectrum.of(arr)
            for s in (base, weave_dd(base)):
                got = spectrum.pulsed_diagonal(s, s.net_pulse())
                assert np.max(np.abs(got - dense_readout(arr, s))) <= 1e-12
                assert np.max(np.abs(got - expm_readout(arr, s))) <= 1e-9

    EDGE_SCHEDULES = {
        "y_and_z_labels": [
            Stage(300.0, PauliAssignment("YZI")),
            Stage(200.0, PauliAssignment("ZYY")),
            Stage(150.0, None),
        ],
        "zero_duration_stages": [
            Stage(250.0, PauliAssignment("XII")),
            Stage(0.0, PauliAssignment("IYZ")),
            Stage(0.0, PauliAssignment("YIX")),
            Stage(400.0, None),
            Stage(0.0, None),
        ],
        "pulse_before_first_evolution": [
            Stage(0.0, PauliAssignment("XYZ")),
            Stage(500.0, PauliAssignment("IXI")),
            Stage(120.0, None),
        ],
        "adjacent_evolutions": [
            Stage(100.0, None),
            Stage(200.0, None),
            Stage(300.0, PauliAssignment("YYY")),
        ],
        "total_time_zero": [
            Stage(0.0, PauliAssignment("XZY")),
            Stage(0.0, PauliAssignment("ZIX")),
        ],
        "nothing_at_all": [Stage(0.0, None)],
    }

    @pytest.mark.parametrize("name", sorted(EDGE_SCHEDULES))
    def test_edge_schedules(self, name):
        arr = random_connected_array(np.random.default_rng(5), 3, j_scale=3e-3)
        sched = PulseSchedule(3, self.EDGE_SCHEDULES[name])
        dense = pulsed_evolution(arr, sched)
        assert np.max(np.abs(dense - expm_reference(arr, sched))) <= 1e-9
        net = sched.net_pulse()
        got = Spectrum.of(arr).pulsed_diagonal(sched, net)
        assert np.max(np.abs(got - np.diag(kron_pulse(net).conj().T @ dense))) <= 1e-12


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def composite(labels_list):
    """Signed permutation of the pulses applied in order, first label first."""
    ops = [PauliAssignment(labels).signed_permutation() for labels in labels_list]
    out = ops[0]
    for op in ops[1:]:
        out = op.after(out)
    return out


class NotAPauli:
    """A stage pulse whose operator is no Pauli product."""

    def __init__(self, op):
        self.op = op
        self.n_dots = op.phase.shape[0].bit_length() - 1

    def signed_permutation(self):
        return self.op


class TestReflection:
    """``V^dag P V = c (C^dag C - I)`` for every Pauli product P."""

    def assert_reflection(self, op, v):
        out = np.empty((v.shape[0] // 2, v.shape[0]), dtype=complex)
        c, rows = op.reflection(v, out)
        target = v.conj().T @ op.matrix() @ v
        if rows is None:
            assert np.max(np.abs(target - c * np.eye(v.shape[0]))) <= 1e-13
            return c, rows
        assert rows is out
        rebuilt = c * (rows.conj().T @ rows - np.eye(v.shape[0]))
        assert np.max(np.abs(target - rebuilt)) <= 1e-13
        return c, rows

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pauli_strings_and_their_products(self, n):
        rng = np.random.default_rng(200 + n)
        scalars = set()
        for _ in range(12):
            v = random_unitary(rng, 1 << n)
            labels = [rng.choice(list("IXYZ"), size=n) for _ in range(int(rng.integers(1, 4)))]
            scalars.add(self.assert_reflection(composite(labels), v)[0])
        assert scalars - {1}  # products carry phases i^k

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pure_z_products(self, n):
        rng = np.random.default_rng(210 + n)
        for _ in range(8):
            labels = [rng.choice(list("IZ"), size=n) for _ in range(int(rng.integers(1, 3)))]
            op = composite(labels)
            assert op.flip == 0
            self.assert_reflection(op, random_unitary(rng, 1 << n))

    @pytest.mark.parametrize(
        "labels, scalar",
        [
            (["XZ", "XZ"], 1),  # a pulse and its inverse on zero-duration stages
            (["Z", "Y", "X"], 1j),  # X Y Z = i I
            (["ZZ", "YY", "XX"], -1),
            (["ZZZ", "YYY", "XXX"], -1j),
            (["XI", "IY", "XY"], 1),
        ],
    )
    def test_scalar_composites_take_no_rows(self, labels, scalar):
        rng = np.random.default_rng(220)
        v = random_unitary(rng, 1 << len(labels[0]))
        c, rows = self.assert_reflection(composite(labels), v)
        assert rows is None and c == pytest.approx(scalar)

    @pytest.mark.parametrize(
        "op",
        [
            SignedPermutation.diagonal([1, 1, 1, -1]),  # CZ
            SignedPermutation.diagonal(np.exp(1j * np.arange(4.0))),
            SignedPermutation(1, np.array([1, 1, 1, -1], dtype=complex)),  # X on a CZ
            SignedPermutation(3, np.array([1, 1j, 1, 1j])),  # not a character
            SignedPermutation.diagonal([1, -1, -1, -1, 1, 1, 1, -1]),  # traceless, not a string
        ],
    )
    def test_non_pauli_operator_raises(self, op):
        dim = op.phase.shape[0]
        v = random_unitary(np.random.default_rng(240), dim)
        with pytest.raises(ValueError, match="not a Pauli product"):
            op.reflection(v, np.empty((dim // 2, dim), dtype=complex))

    def test_non_pauli_boundary_fails_the_chain(self):
        # a boundary between two evolving stages has no other path
        arr = random_connected_array(np.random.default_rng(5), 2, j_scale=3e-3)
        cz = NotAPauli(SignedPermutation.diagonal([1, 1, 1, -1]))
        sched = PulseSchedule(2, [Stage(100.0, cz), Stage(200.0, None)])
        with pytest.raises(ValueError, match="not a Pauli product"):
            Spectrum.of(arr).pulsed_diagonal(sched, PauliAssignment("II"))


def oracle_leak(weights):
    """``sum_n (1 - overlap_n)`` over the argmax pairing, in basis-row order."""
    return float(np.sum(1.0 - weights[np.arange(weights.shape[0]), argmax_match(weights)]))


class TestMatching:
    def test_argmax_equals_greedy_on_arrays(self):
        rng = np.random.default_rng(11)
        for n in range(2, 8):
            for arr in array_family(rng, max(n, 3)):
                spectrum = Spectrum.of(arr)
                weights = np.abs(spectrum.evecs) ** 2
                assert np.array_equal(argmax_match(weights), greedy_match(weights))
                if min_column_overlap(spectrum.evecs) < MIN_OVERLAP:
                    with pytest.raises(DegenerateSpectrum):
                        spectrum.leak()
                else:
                    assert spectrum.leak() == oracle_leak(weights)  # bit for bit

    def test_argmax_equals_greedy_on_random_weights(self):
        # strongly mixed unitaries make column collisions common
        rng = np.random.default_rng(12)
        collisions = admitted = 0
        for dim in (2, 4, 8, 16):
            for _ in range(25):
                z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                q, _ = np.linalg.qr(z)
                weights = np.abs(q) ** 2
                spectrum = spectrum_with_vectors(q)
                if argmax_match(weights) is not None:
                    assert np.array_equal(argmax_match(weights), greedy_match(weights))
                    if min_column_overlap(q) >= MIN_OVERLAP:
                        admitted += 1
                        assert spectrum.leak() == oracle_leak(weights)
                        continue
                else:
                    collisions += 1
                    # the theorem: any pairing, greedy's included, leaves some
                    # state at overlap <= 1/2
                    assert np.min(weights[np.arange(dim), greedy_match(weights)]) <= 0.5
                with pytest.raises(DegenerateSpectrum, match="overlaps its eigenvector by only"):
                    spectrum.leak()
        assert collisions > 0 and admitted > 0

    def test_collision_raises_degenerate_spectrum(self):
        # a Householder reflection I - (2/3) J: columns 1 and 2 both peak
        # on row 0 with weight 4/9, column 0 on row 1
        evecs = np.eye(3) - 2.0 / 3.0
        weights = evecs**2
        assert np.argmax(weights, axis=0).tolist() == [1, 0, 0]
        assert argmax_match(weights) is None
        with pytest.raises(DegenerateSpectrum, match="state 0 overlaps its eigenvector by only 0.444"):
            spectrum_with_vectors(evecs).leak()

    def test_exact_half_tie_raises(self):
        # every weight of the Hadamard is 1/2, so both columns pick row 0;
        # greedy would pair them at overlap exactly 1/2, below the floor
        evecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert greedy_match(evecs**2).tolist() == [0, 1]
        with pytest.raises(DegenerateSpectrum, match="state 0 overlaps its eigenvector by only 0.500"):
            spectrum_with_vectors(evecs).leak()

    def test_overlap_below_the_floor_raises(self):
        # exp(i phi J / 3) for the all-ones J: every column peaks on its own
        # row, at weight (5 + 4 cos phi) / 9 = 0.418 < 1/2 for phi = 0.6 pi
        evecs = np.eye(3) + (np.exp(0.6j * np.pi) - 1.0) / 3.0
        assert argmax_match(np.abs(evecs) ** 2).tolist() == [0, 1, 2]
        with pytest.raises(DegenerateSpectrum, match="state 0 overlaps its eigenvector by only 0.418"):
            spectrum_with_vectors(evecs).leak()

    @pytest.mark.parametrize("overlap", [0.5006, 0.6, 0.7499])
    def test_two_level_mixing_below_three_quarters_raises(self, overlap):
        # a rotation by theta with cos^2 theta = overlap: argmax pairs the two
        # states one to one, yet they are mixed past |V|/|dE| = sqrt(3)/2
        c, s = np.sqrt(overlap), np.sqrt(1.0 - overlap)
        evecs = np.array([[c, -s], [s, c]])
        assert argmax_match(evecs**2).tolist() == [0, 1]
        with pytest.raises(DegenerateSpectrum, match=f"by only {overlap:.3f}"):
            spectrum_with_vectors(evecs).leak()

    @pytest.mark.parametrize("overlap", [0.7501, 0.9, 1.0])
    def test_two_level_mixing_at_three_quarters_is_admitted(self, overlap):
        c, s = np.sqrt(overlap), np.sqrt(1.0 - overlap)
        evecs = np.array([[c, -s], [s, c]])
        assert min_column_overlap(evecs) >= MIN_OVERLAP
        assert spectrum_with_vectors(evecs).leak() == oracle_leak(evecs**2)


class TestSimulateGateDiagonal:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_fields_match_dense_reference(self, n):
        rng = np.random.default_rng(40 + n)
        for arr in array_family(rng, n):
            tau = float(rng.uniform(100.0, 3000.0))
            if min_column_overlap(Spectrum.of(arr).evecs) < MIN_OVERLAP:
                # n = 3: the random array's Zeeman energies 1.2508 and 1.2507
                # mix two states at overlap 0.535
                with pytest.raises(DegenerateSpectrum):
                    simulate_gate(arr, tau)
                continue
            report = simulate_gate(arr, tau)

            pair = build_hamiltonian(arr)
            evals, evecs = np.linalg.eigh(np.diag(pair.h0) + pair.h_ex)
            u = np.exp(1j * tau * pair.h0)[:, None] * (
                (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T
            )
            d = u.shape[0]
            ideal = -tau * np.real(np.diag(pair.h_ex))
            tr = np.sum(np.conj(np.diag(u)) * np.exp(1j * ideal))
            fidelity = (d + abs(tr) ** 2) / (d * (d + 1))
            residues = wrap_pm_pi(np.angle(np.diag(u)) - ideal)
            weights = np.abs(evecs) ** 2
            leak = float(np.sum(1.0 - weights[np.arange(d), greedy_match(weights)]))
            bound = 1.0 - 2 * d / (d + 1) * np.max(np.abs(residues)) - 4 / (d + 1) * leak
            post = optimal_phase_correction(residues, n).post

            assert np.max(np.abs(report.u_diag - np.diag(u))) <= 1e-12
            assert abs(report.fidelity - fidelity) <= 1e-12
            assert abs(report.leak - leak) <= 1e-12
            assert abs(report.bound - bound) <= 1e-12
            assert np.max(circular_distance(report.residues, residues)) <= 1e-12
            assert np.max(np.abs(report.post_residues - post)) <= 1e-12
            assert np.max(np.abs(qubit_frame_evolution(arr, tau) - u)) <= 1e-12

    def test_one_eigh_per_report(self, monkeypatch, rng):
        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or real_eigh(a))
        simulate_gate(stellar_array(3, rng=rng), 500.0)
        assert len(calls) == 1
