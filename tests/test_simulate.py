import numpy as np
import pytest

from dotgates import (
    Bond,
    DegenerateSpectrum,
    Dot,
    DotArray,
    PauliAssignment,
    PhaseVector,
    PulseSchedule,
    Stage,
    average_gate_fidelity,
    build_hamiltonian,
    equiv_up_to_free_phase,
    fidelity_lower_bound,
    ideal_evolution,
    optimal_phase_correction,
    perturbation_second_order,
    pulsed_evolution,
    qubit_frame_evolution,
    simulate_gate,
)
from dotgates.basis import bit_table, circular_distance
from dotgates.calibrate import conjugated_grid_vector
from dotgates.model import grid_vector
from dotgates.simulate import (
    diagonal_residues,
    match_eigenstates,
    scaled_zeeman_array,
    unitarity_defect,
)

from conftest import make_bond, random_connected_array, stellar_array


def fit_slope(x, y):
    return np.polyfit(np.log(x), np.log(y), 1)[0]


def free_phase_design_matrix(n_qubits):
    """Columns: all-ones (global phase) then the bit indicator of each qubit."""
    return np.column_stack([np.ones(1 << n_qubits), bit_table(n_qubits)]).astype(float)


class TestBuildHamiltonian:
    def test_singlet_projector_without_soi(self):
        arr = DotArray([Dot(0, 1.0), Dot(1, 1.4)], [Bond(0, 1, 0.8, t=1.0, s=0.0)])
        pair = build_hamiltonian(arr)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        expected = -0.8 * np.outer(singlet, singlet)
        assert pair.h_ex == pytest.approx(expected)

    def test_diagonal_is_minus_grid_vector(self, rng):
        for _ in range(10):
            arr = random_connected_array(rng, int(rng.integers(2, 6)))
            pair = build_hamiltonian(arr)
            assert np.real(np.diag(pair.h_ex)) == pytest.approx(-grid_vector(arr))

    def test_hermitian(self, rng):
        arr = random_connected_array(rng, 4)
        pair = build_hamiltonian(arr)
        assert np.max(np.abs(pair.h_ex - pair.h_ex.conj().T)) <= 1e-12

    def test_zeeman_diagonal(self):
        arr = DotArray([Dot(0, 1.0), Dot(1, 0.4)], [])
        pair = build_hamiltonian(arr)
        assert pair.h0 == pytest.approx([0.7, 0.3, -0.3, -0.7])

    def test_disjoint_bonds_spectrum(self):
        # bonds on disjoint pairs commute: eigenvalues are all sums
        j1, j2 = 0.8, 0.5
        arr = DotArray(
            [Dot(j, 1.0 + 0.2 * j) for j in range(4)],
            [make_bond(0, 1, j1, 0.7), make_bond(2, 3, j2, 0.9)],
        )
        evals = np.sort(np.linalg.eigvalsh(build_hamiltonian(arr).h_ex))
        expected = np.sort(
            [0.0] * 9 + [-j1] * 3 + [-j2] * 3 + [-j1 - j2]
        )
        assert evals == pytest.approx(expected, abs=1e-12)

    def test_overlapping_bonds_rank_and_range(self, rng):
        # embedded bond projectors on a shared dot are not orthogonal, so
        # the spectrum moves off {-J1, -J2} but stays within the total
        j1, j2 = 0.8, 0.5
        arr = DotArray(
            [Dot(j, 1.0 + 0.2 * j) for j in range(3)],
            [make_bond(0, 1, j1, 0.7, 0.3), make_bond(0, 2, j2, 0.85, 1.1)],
        )
        evals = np.linalg.eigvalsh(build_hamiltonian(arr).h_ex)
        assert np.sum(np.abs(evals) > 1e-12) <= 4
        assert np.all(evals >= -(j1 + j2) - 1e-12)
        assert np.all(evals <= 1e-12)
        nonzero = np.sort(evals[np.abs(evals) > 1e-12])
        naive = np.sort([-j1, -j1, -j2, -j2])
        assert np.max(np.abs(nonzero - naive)) > 1e-3

class TestEvolutions:
    def test_tau_zero_is_identity(self, rng):
        arr = random_connected_array(rng, 3)
        u = qubit_frame_evolution(arr, 0.0)
        assert u == pytest.approx(np.eye(8))

    def test_no_coupling_is_identity(self):
        arr = DotArray([Dot(0, 1.0), Dot(1, 0.7)], [])
        for tau in (0.3, 4.5, 31.0):
            assert qubit_frame_evolution(arr, tau) == pytest.approx(np.eye(4))

    def test_unitarity(self, rng):
        for _ in range(5):
            arr = random_connected_array(rng, int(rng.integers(2, 6)))
            u = qubit_frame_evolution(arr, float(rng.uniform(0, 2000.0)))
            assert unitarity_defect(u) <= 1e-10

    def test_matches_pade_exponential(self, rng):
        # independent route: scipy's Pade expm instead of eigendecomposition
        from scipy.linalg import expm

        for _ in range(5):
            arr = random_connected_array(rng, int(rng.integers(2, 5)))
            tau = float(rng.uniform(0.0, 500.0))
            pair = build_hamiltonian(arr)
            h = np.diag(pair.h0).astype(complex) + pair.h_ex
            reference = np.diag(np.exp(1j * tau * pair.h0)) @ expm(-1j * tau * h)
            assert np.max(np.abs(qubit_frame_evolution(arr, tau) - reference)) <= 1e-9

    def test_pulsed_matches_pade_exponential(self, rng):
        from scipy.linalg import expm

        arr = random_connected_array(rng, 3)
        pair = build_hamiltonian(arr)
        h = np.diag(pair.h0).astype(complex) + pair.h_ex
        stages = [
            Stage(120.0, PauliAssignment(["X", "I", "I"])),
            Stage(75.0, PauliAssignment(["I", "Y", "I"])),
            Stage(40.0, None),
        ]
        sched = PulseSchedule(3, stages)
        reference = np.eye(8, dtype=complex)
        for st in stages:
            reference = expm(-1j * st.duration * h) @ reference
            if st.pulse is not None:
                reference = st.pulse.matrix() @ reference
        reference = np.diag(np.exp(1j * sched.total_time * pair.h0)) @ reference
        assert np.max(np.abs(pulsed_evolution(arr, sched) - reference)) <= 1e-9

    def test_ideal_single_bond(self):
        bond = make_bond(0, 1, 1.0, 0.8)
        arr = DotArray([Dot(0, 1.0), Dot(1, 1.2)], [bond])
        tau = 0.9
        s, t = bond.spin_flip_rate, bond.spin_conserved_rate
        assert ideal_evolution(arr, tau).values == pytest.approx(
            np.mod(tau * np.array([s, t, t, s]), 2 * np.pi)
        )

    def test_ideal_tau_zero(self, rng):
        arr = random_connected_array(rng, 3)
        assert np.all(ideal_evolution(arr, 0.0).values == 0.0)

    def test_leak_scaling_slope_two(self):
        # off-diagonal column mass scales as (J / eps)^2
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.37)],
            [make_bond(0, 1, 1e-3, 0.8, 0.4)],
        )
        tau = np.pi / arr.bonds[0].velocity
        xs = np.geomspace(1e-3, 1e-1, 7)
        leaks = []
        for x in xs:
            u = qubit_frame_evolution(scaled_zeeman_array(arr, float(x)), tau)
            leaks.append(np.sum(1.0 - np.abs(np.diag(u)) ** 2))
        assert fit_slope(xs, np.array(leaks)) == pytest.approx(2.0, abs=0.2)

    def test_phase_residue_scaling_slope_one(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.37)],
            [make_bond(0, 1, 1e-3, 0.8, 0.4)],
        )
        tau = np.pi / arr.bonds[0].velocity
        xs = np.geomspace(1e-4, 1e-2, 7)
        res = []
        for x in xs:
            scaled = scaled_zeeman_array(arr, float(x))
            u = qubit_frame_evolution(scaled, tau)
            res.append(np.max(np.abs(diagonal_residues(u, ideal_evolution(scaled, tau)))))
        assert fit_slope(xs, np.array(res)) == pytest.approx(1.0, abs=0.15)


class TestFidelity:
    def test_equal_gates(self, rng):
        pv = PhaseVector(rng.uniform(0, 2 * np.pi, size=8))
        u = np.diag(np.exp(1j * pv.values))
        assert average_gate_fidelity(u, pv) == pytest.approx(1.0)

    def test_global_phase_invariance(self, rng):
        pv = PhaseVector(rng.uniform(0, 2 * np.pi, size=4))
        u = np.exp(1j * 0.77) * np.diag(np.exp(1j * pv.values))
        assert average_gate_fidelity(u, pv) == pytest.approx(1.0)

    def test_traceless_two_dim(self):
        u = np.diag([1.0, -1.0]).astype(complex)
        assert average_gate_fidelity(u, PhaseVector([0.0, 0.0])) == pytest.approx(1.0 / 3.0)

    def test_bound_formula(self):
        assert fidelity_lower_bound(np.zeros(4), 0.0) == pytest.approx(1.0)
        eps = 0.01
        residues = np.array([eps, -eps / 2, 0.0, eps / 3])
        assert fidelity_lower_bound(residues, 0.0) == pytest.approx(1.0 - (8.0 / 5.0) * eps)

    def test_bound_holds_on_random_instances(self, rng):
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 6))
            arr = random_connected_array(rng, n, j_scale=10 ** rng.uniform(-3.5, -1.5))
            tau = float(rng.uniform(0.2, 2.0)) * np.pi / np.mean(
                [abs(b.velocity) + 1e-9 for b in arr.bonds]
            )
            report = simulate_gate(arr, tau)
            if report.bound >= 0:
                checked += 1
                assert report.fidelity >= report.bound - 1e-12
        assert checked > 10


class TestPerturbation:
    def test_zero_coupling(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.5)], [make_bond(0, 1, 0.0, 0.8)]
        )
        so = perturbation_second_order(arr, 3.0)
        assert so.phi == pytest.approx(np.zeros(4), abs=1e-15)
        assert so.leak == pytest.approx(0.0, abs=1e-15)

    def test_matches_exact_energy_shifts(self):
        # second-order formula against the exact matched spectrum
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.62)],
            [make_bond(0, 1, 1e-2, 0.8, 0.9, 0.2)],
        )
        tau = 7.0
        so = perturbation_second_order(arr, tau)
        spectrum = match_eigenstates(arr)
        exact = spectrum.energy_shift_residues(tau)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(so.phi - exact)) <= 0.05 * scale
        assert so.leak == pytest.approx(spectrum.leak, rel=0.05)

    def test_degenerate_spectrum_raises(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.0 + 1e-6)],
            [make_bond(0, 1, 1e-2, 0.8)],
        )
        with pytest.raises(DegenerateSpectrum):
            perturbation_second_order(arr, 1.0)

    def test_residues_cross_convention(self):
        # diagonal residues of the propagator are minus the energy-shift
        # residues to leading order
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.62)],
            [make_bond(0, 1, 1e-3, 0.8, 0.9, 0.2)],
        )
        tau = (np.pi / 2) / arr.bonds[0].velocity
        so = perturbation_second_order(arr, tau)
        u = qubit_frame_evolution(arr, tau)
        res = diagonal_residues(u, ideal_evolution(arr, tau))
        assert np.max(np.abs(res + so.phi)) <= 0.05 * np.max(np.abs(so.phi))


class TestPhaseCorrection:
    def test_in_span_removed(self, rng):
        n = 3
        k = free_phase_design_matrix(n)
        y = rng.normal(size=n + 1)
        corr = optimal_phase_correction(k @ y, n)
        assert corr.post == pytest.approx(np.zeros(1 << n), abs=1e-12)

    def test_orthogonal_untouched(self, rng):
        n = 3
        k = free_phase_design_matrix(n)
        v = rng.normal(size=1 << n)
        v -= k @ (np.linalg.pinv(k) @ v)
        corr = optimal_phase_correction(v, n)
        assert corr.post == pytest.approx(v, abs=1e-12)
        assert np.abs(corr.free.global_phase) <= 1e-12
        assert np.max(np.abs(corr.free.local)) <= 1e-12

    def test_norm_optimality(self, rng):
        n = 3
        residues = rng.normal(size=1 << n)
        corr = optimal_phase_correction(residues, n)
        k = free_phase_design_matrix(n)
        best = np.linalg.norm(corr.post)
        y0 = np.concatenate([[corr.free.global_phase], corr.free.local])
        for _ in range(50):
            perturbed = y0 + rng.normal(scale=0.1, size=n + 1)
            assert np.linalg.norm(residues - k @ perturbed) >= best - 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_least_squares(self, rng, n):
        residues = rng.uniform(-np.pi, np.pi, size=1 << n)
        k = free_phase_design_matrix(n)
        y = np.linalg.lstsq(k, residues, rcond=None)[0]
        corr = optimal_phase_correction(residues, n)
        assert corr.free.global_phase == pytest.approx(y[0], abs=1e-12)
        assert np.array(corr.free.local) == pytest.approx(y[1:], abs=1e-12)
        assert corr.post == pytest.approx(residues - k @ y, abs=1e-12)


class TestPulsedEvolution:
    def test_empty_schedule_matches_frame_evolution(self, rng):
        arr = random_connected_array(rng, 3)
        tau = 123.4
        sched = PulseSchedule(3, [Stage(tau, None)])
        assert pulsed_evolution(arr, sched) == pytest.approx(
            qubit_frame_evolution(arr, tau)
        )

    def test_echo_pair_structure(self):
        # X at t1, X at the end: no net bit flip; the entangling phases are
        # t1 * Lambda + t2 * (X Lambda X) plus a local phase on the pulsed dot
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.43)],
            [make_bond(0, 1, 1e-4, 0.8, 0.6)],
        )
        t1, t2 = 900.0, 400.0
        x1 = PauliAssignment.x_on([1], 2)
        sched = PulseSchedule(2, [Stage(t1, x1), Stage(t2, x1)])
        u = pulsed_evolution(arr, sched)
        offdiag = np.max(np.abs(u - np.diag(np.diag(u))))
        assert offdiag <= 2e-3  # no bit flip survives
        expected = PhaseVector(
            t1 * grid_vector(arr) + t2 * conjugated_grid_vector(arr, x1)
        )
        diag = PhaseVector(np.angle(np.diag(u)))
        ok, free, res = equiv_up_to_free_phase(diag, expected, tol=1e-2)
        assert ok
        # the extra local phase sits on the pulsed qubit only; its value is
        # the flipped-interval Zeeman phase -2 * t2 * eps_1 mod 2pi
        assert circular_distance(free.local[1], -2.0 * t2 * 1.43) < 1e-2
        assert circular_distance(free.local[0], 0.0) < 1e-2

    def test_twirl_identity(self, rng):
        # sum_P P M P = 2 tr(M) I over the single-qubit Pauli group
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
        for _ in range(200):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            twirled = sum(p @ m @ p for p in paulis)
            assert np.max(np.abs(twirled - 2.0 * np.trace(m) * np.eye(2))) <= 1e-12

    def test_twirl_removes_traceless_bath_coupling(self, rng):
        # toy system (x) bath coupling: twirling the system side kills every
        # traceless system factor exactly, the decoupling mechanism's core
        paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
                  np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
        for _ in range(50):
            sys_part = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            sys_part -= 0.5 * np.trace(sys_part) * np.eye(2)
            bath = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            coupling = np.kron(sys_part, bath)
            twirled = sum(
                np.kron(p, np.eye(3)) @ coupling @ np.kron(p, np.eye(3))
                for p in paulis
            )
            assert np.max(np.abs(twirled)) <= 1e-12


class TestSimReport:
    def test_report_fields_consistent(self, rng):
        arr = stellar_array(2, rng=rng)
        tau = (np.pi / 2) / abs(arr.bonds[0].velocity)
        report = simulate_gate(arr, tau)
        assert 0.0 <= report.fidelity <= 1.0
        assert report.max_post_residue <= report.max_residue + 1e-15
        assert unitarity_defect(report.u_exact) <= 1e-10
        assert np.all(np.abs(report.residues) <= np.pi)
        doc = report.to_json()
        assert "fidelity" in doc
