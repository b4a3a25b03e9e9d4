import numpy as np
import pytest

from dotgates import (
    Dot,
    DotArray,
    FreePhase,
    GateSpec,
    LatticeBudgetExceeded,
    MqcpFactor,
    NoBondVelocity,
    PhaseVector,
    assert_single_control,
    equiv_up_to_free_phase,
    mqcp_phase_solution,
    phase_polynomial,
    read_bonds,
    solve_dynamics,
    solve_parity,
)
from dotgates.basis import bit_table, circular_distance, wrap_2pi

from conftest import (
    decompose_intrinsic,
    ideal_evolution,
    make_bond,
    parity_matrix,
    stellar_array,
)


def czz_spec(thetas):
    return GateSpec(factors=(MqcpFactor(0, [(j + 1, th) for j, th in enumerate(thetas)]),))


def shifted(pv: PhaseVector, free: FreePhase) -> PhaseVector:
    return PhaseVector(pv.values + free.expand().values)


def reduced_from_free(free: FreePhase) -> np.ndarray:
    """Reduced gate vector generated by a free phase through the parity map."""
    n = free.n_qubits
    lmat = parity_matrix(n)
    return wrap_2pi(lmat @ np.array(free.local))


class TestPhaseVector:
    def test_canonicalized(self):
        pv = PhaseVector([7.0, -1.0, 0.0, 2 * np.pi])
        assert np.all(pv.values >= 0.0)
        assert np.all(pv.values < 2 * np.pi)
        assert pv.equals(PhaseVector([7.0 - 2 * np.pi, -1.0 + 2 * np.pi, 0.0, 0.0]))

    def test_reduced_requires_controlled_form(self):
        with pytest.raises(ValueError):
            PhaseVector([0.0, 1.0, 0.0, 0.5]).reduced()

    def test_free_phase_expansion_structure(self):
        free = FreePhase(0.3, [1.0, 2.0])
        pv = free.expand()
        assert pv.values == pytest.approx(wrap_2pi([0.3, 2.3, 1.3, 3.3]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_free_phase_expansion_matches_bit_table(self, rng, n):
        free = FreePhase(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi, size=n))
        expected = wrap_2pi(free.global_phase + bit_table(n) @ np.array(free.local))
        assert np.max(circular_distance(free.expand().values, expected)) <= 1e-12

    @pytest.mark.parametrize("values", [2.0, [[0.0, 1.0], [2.0, 3.0]], [0.0, 1.0, 2.0], [1.0]],
                             ids=["scalar", "matrix", "length-3", "length-1"])
    def test_malformed_shapes_are_value_errors(self, values):
        with pytest.raises(ValueError, match="power of two"):
            PhaseVector(values)


class TestPhasePolynomial:
    def test_matches_bit_formula(self, rng):
        for n in range(1, 8):
            bits = bit_table(n)
            slopes = rng.uniform(-np.pi, np.pi, size=n)
            pairs = [(int(j), int(k)) for j, k in rng.integers(n, size=(4, 2)) if j != k]
            angles = rng.uniform(-np.pi, np.pi, size=len(pairs))
            expected = 0.7 + bits @ slopes
            for (j, k), theta in zip(pairs, angles):
                expected = expected + theta * bits[:, j] * bits[:, k]
            got = phase_polynomial(n, 0.7, slopes, pairs, angles)
            assert got == pytest.approx(expected, abs=1e-12)


class TestParityMatrix:
    def test_two_qubits(self):
        assert parity_matrix(2).tolist() == [[-1, 1], [-1, -1]]

    def test_three_qubits(self):
        expected = [[-1, 1, 1], [-1, 1, -1], [-1, -1, 1], [-1, -1, -1]]
        assert parity_matrix(3).tolist() == expected

    def test_four_qubits_structure(self):
        lmat = parity_matrix(4)
        assert lmat.shape == (8, 4)
        assert np.all(lmat[:, 0] == -1)
        # target columns sum to an odd integer, so full rows sum even
        assert np.all(lmat[:, 1:].sum(axis=1) % 2 == 1)
        assert np.all(lmat.sum(axis=1) % 2 == 0)
        # rows follow the bit pattern of the row index
        bits = bit_table(3)
        assert np.array_equal(lmat[:, 1:], 1 - 2 * bits)


class TestSolveParity:
    def test_ccz_rejected(self):
        sol = solve_parity([0.0, 0.0, 0.0, np.pi], 3)
        assert not sol.feasible
        assert sol.residual > 0.5

    def test_ccz_rejected_for_any_phase(self, rng):
        # the row-sum congruence kills every doubly-controlled phase
        for _ in range(50):
            th = rng.uniform(0.05, 2 * np.pi - 0.05)
            sol = solve_parity([0.0, 0.0, 0.0, th], 3)
            assert not sol.feasible

    def test_controlled_phase_two_qubits(self):
        theta = 1.234
        sol = solve_parity([0.0, theta], 2)
        assert sol.feasible
        phi_c, phi_1 = sol.free.local
        # phi_1 = -theta/2 mod pi and phi_c = phi_1 mod 2pi
        assert circular_distance(2 * phi_1, -theta) < 1e-12
        assert circular_distance(phi_c, phi_1) < 1e-12 or circular_distance(
            phi_c, phi_1 + np.pi
        ) < 1e-12

    def test_cz_z_three_qubits(self):
        th1, th2 = 0.8, 2.1
        theta_g = wrap_2pi(np.array([0.0, th2, th1, th1 + th2]))
        sol = solve_parity(theta_g, 3)
        assert sol.feasible
        phi_c, phi_1, phi_2 = sol.free.local
        assert circular_distance(2 * phi_1, -th1) < 1e-12
        assert circular_distance(2 * phi_2, -th2) < 1e-12
        assert circular_distance(phi_c, phi_1 + phi_2, np.pi) < 1e-12

    def test_three_qubit_row_congruence(self, rng):
        # row 4 of the parity matrix is the integer combination
        # row2 + row3 - row1, so every feasible reduced vector obeys
        # theta1 + theta2 - theta0 = theta3 mod 2pi; the doubly-controlled
        # pi gate (0, 0, 0, pi) violates it for every phase value
        lmat = parity_matrix(3)
        assert np.array_equal(lmat[1] + lmat[2] - lmat[0], lmat[3])
        for _ in range(40):
            free = FreePhase(0.0, rng.uniform(0, 2 * np.pi, size=3))
            theta = reduced_from_free(free)
            assert circular_distance(theta[1] + theta[2] - theta[0], theta[3]) < 1e-9

    def test_round_trip_random_free_phases(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            free = FreePhase(0.0, rng.uniform(0, 2 * np.pi, size=n))
            theta_g = reduced_from_free(free)
            sol = solve_parity(theta_g, n)
            assert sol.feasible
            assert sol.residual <= 1e-9
            again = reduced_from_free(sol.free)
            assert np.max(circular_distance(again, theta_g)) <= 1e-9


class TestMqcpSolution:
    def test_czz_pi(self):
        free = mqcp_phase_solution(czz_spec([np.pi, np.pi]).factors[0], 3)
        assert free.local[1] == pytest.approx(np.pi / 2)
        assert free.local[2] == pytest.approx(np.pi / 2)
        assert free.local[0] == pytest.approx(np.pi)

    def test_identity(self):
        free = mqcp_phase_solution(czz_spec([0.0, 0.0]).factors[0], 3)
        assert free.local == pytest.approx((0.0, 0.0, 0.0))

    def test_single_target(self):
        free = mqcp_phase_solution(czz_spec([np.pi]).factors[0], 2)
        assert free.local[1] == pytest.approx(np.pi / 2)
        assert free.local[0] == pytest.approx(np.pi / 2)

    def test_agrees_with_parity_solver(self, rng):
        for _ in range(40):
            n_targets = int(rng.integers(1, 5))
            thetas = rng.uniform(0, 2 * np.pi, size=n_targets)
            spec = czz_spec(thetas)
            n = n_targets + 1
            theta_g = spec.expand(n).reduced()
            free = mqcp_phase_solution(spec.factors[0], n)
            assert np.max(circular_distance(reduced_from_free(free), theta_g)) < 1e-9
            assert solve_parity(theta_g, n).feasible


class TestSingleControl:
    def test_ccz_has_second_control(self):
        analysis = assert_single_control([0.0, 0.0, 0.0, np.pi])
        assert analysis.second_control
        assert not analysis.degenerate_two_qubit

    def test_cz_z_has_no_second_control(self):
        analysis = assert_single_control(wrap_2pi(np.array([0.0, 2.1, 0.8, 2.9])))
        assert not analysis.second_control

    def test_constant_block_is_degenerate_two_qubit(self):
        phi = 1.1
        theta_g = wrap_2pi(np.array([0.0, 0.0, -2 * phi, -2 * phi]))
        analysis = assert_single_control(theta_g)
        assert analysis.second_control
        assert analysis.degenerate_two_qubit


class TestSolveDynamics:
    def test_two_qubit_controlled_phase_time(self):
        theta = 1.9
        bond = make_bond(0, 1, 1.0, 0.85)
        arr = DotArray([Dot(0, 1.0), Dot(1, 1.3)], [bond])
        spec = GateSpec(factors=(MqcpFactor(0, [(1, theta)]),))
        free = mqcp_phase_solution(spec.factors[0], 2)
        best = solve_dynamics(arr, [free.local[1]], tau_max=100.0).mod_pi
        delta = bond.velocity
        # smallest positive (-theta/2 + n pi) / delta
        expected = (np.mod(-theta / 2.0, np.pi)) / delta
        assert best.times[0] == pytest.approx(expected)
        assert best.worst[0] <= 1e-12

    def test_stellar_equal_velocities_exact_hit(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1.0, 0.8), make_bond(0, 2, 1.0, 0.8)],
        )
        free = mqcp_phase_solution(czz_spec([np.pi, np.pi]).factors[0], 3)
        best = solve_dynamics(arr, free.local[1:], tau_max=50.0).mod_pi
        assert best.worst[0] == pytest.approx(0.0, abs=1e-12)
        assert best.times[0] == pytest.approx((np.pi / 2) / arr.bonds[0].velocity)

    def test_chain_coarse_lattice_times(self):
        # homogeneous three-dot chain (center dot 1): the coarse lattice
        # admits exactly tau = (2k+1) pi / velocity, where the uncorrected
        # evolution is the end-to-end Z pair
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.4), Dot(2, 0.6)],
            [make_bond(0, 1, 1.0, 0.8), make_bond(1, 2, 1.0, 0.8)],
        )
        cands = solve_dynamics(arr, [np.pi / 2, np.pi / 2], tau_max=40.0)
        delta = arr.bonds[0].velocity
        taus = cands.mod_2pi.times[cands.mod_2pi.worst < 1e-9]
        expected = [(2 * k + 1) * np.pi / delta for k in range(2)]
        for e in expected:
            assert any(abs(t - e) < 1e-9 for t in taus)

    def test_chain_gets_candidates(self):
        # no bond of a 4-dot chain shares a dot with every other bond; the
        # per-bond targets still give exact lattice times
        arr = DotArray(
            [Dot(j, 1.0 + 0.2 * j) for j in range(4)],
            [make_bond(0, 1, 1.0, 0.8), make_bond(1, 2, 1.0, 0.8), make_bond(2, 3, 1.0, 0.8)],
        )
        gate = GateSpec(factors=tuple(MqcpFactor(j, [(j + 1, np.pi)]) for j in range(3)))
        reading = read_bonds(arr, gate.expand(4))
        assert reading.feasible
        best = solve_dynamics(arr, reading.bond_phases, tau_max=10.0).mod_pi
        assert best.worst[0] <= 1e-12
        assert best.times[0] == pytest.approx((np.pi / 2) / arr.bonds[0].velocity)

    def test_zero_velocity_bond_raises(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3)],
            [make_bond(0, 1, 1.0, 0.5)],  # balanced channels
        )
        with pytest.raises(NoBondVelocity):
            solve_dynamics(arr, [np.pi / 2], tau_max=10.0)

    def test_zero_velocity_bond_with_null_phase_is_skipped(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1.0, 0.8), make_bond(0, 2, 1.0, 0.5)],
        )
        cands = solve_dynamics(arr, [np.pi / 2, 0.0], tau_max=50.0)
        assert cands.mod_pi.worst[0] <= 1e-12

    def test_identity_answers_tau_zero(self):
        # phases exactly 0 on the lattice are met at tau = 0 (not -0.0 on a
        # negative velocity), also when no bond moves
        moving = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1.0, 0.3), make_bond(1, 2, 1.0, 0.5)],
        )
        bare = DotArray([Dot(0, 1.0), Dot(1, 1.3)], [])
        for arr in (moving, bare):
            cands = solve_dynamics(arr, [0.0] * arr.n_bonds, tau_max=50.0)
            for ranked in (cands.mod_pi, cands.mod_2pi):
                assert ranked.times[0] == 0.0 and not np.signbit(ranked.times[0])
                assert ranked.worst[0] == 0.0


class TestReadBonds:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_agrees_with_parity_rule_on_controlled_targets(self, rng, n):
        star = stellar_array(n - 1, rng=rng)
        for trial in range(60):
            if trial % 2:
                theta_g = rng.uniform(0, 2 * np.pi, size=1 << (n - 1))
            else:
                theta_g = reduced_from_free(FreePhase(0.0, rng.uniform(0, 2 * np.pi, size=n)))
            target = PhaseVector(np.concatenate([np.zeros(1 << (n - 1)), theta_g]))
            reading = read_bonds(star, target)
            parity = solve_parity(theta_g, n)
            assert reading.feasible == parity.feasible
            if reading.feasible:
                lhs = parity_matrix(n) @ np.array(reading.local_phases)
                assert np.max(circular_distance(lhs, theta_g)) <= 1e-9

    @pytest.mark.parametrize("n_targets", [1, 2, 5, 9])
    def test_single_factor_matches_closed_form_exactly(self, rng, n_targets):
        star = stellar_array(n_targets, rng=rng)
        factor = MqcpFactor(0, [(j, rng.uniform(0, 2 * np.pi)) for j in range(1, n_targets + 1)])
        reading = read_bonds(star, GateSpec(factors=(factor,)).expand(n_targets + 1))
        free = mqcp_phase_solution(factor, n_targets + 1)
        assert reading.feasible and reading.residual == 0.0
        assert reading.local_phases == free.local
        assert reading.bond_phases == free.local[1:]

    def test_pair_with_zero_angle_needs_no_bond(self):
        # the angle of (0, 2) is 2pi, which does not couple the dots
        chain = DotArray([Dot(j, 1.0 + 0.3 * j) for j in range(3)],
                         [make_bond(0, 1, 1.0, 0.8), make_bond(1, 2, 1.0, 0.8)])
        gate = GateSpec(factors=(MqcpFactor(0, [(1, 1.1), (2, np.pi)]), MqcpFactor(2, [(0, np.pi)])))
        reading = read_bonds(chain, gate.expand(3))
        assert reading.feasible and reading.unbonded_pairs == ()
        assert reading.bond_phases[1] == 0.0

    def test_doubly_controlled_phase_is_infeasible(self):
        star = stellar_array(2)
        reading = read_bonds(star, PhaseVector([0.0] * 7 + [np.pi]))
        assert not reading.feasible
        assert reading.unbonded_pairs == ()
        assert reading.residual == pytest.approx(np.pi)

    def test_target_size_must_match(self):
        with pytest.raises(ValueError, match="dot count"):
            read_bonds(stellar_array(2), PhaseVector.zeros(2))


class TestLatticeBudget:
    def test_huge_tau_max_raises_before_allocating(self):
        import tracemalloc

        chain = DotArray([Dot(j, 1.0 + 0.3 * j) for j in range(3)],
                         [make_bond(0, 1, 1e-3, 0.8), make_bond(1, 2, 1e-3, 0.8)])
        tracemalloc.start()
        try:
            with pytest.raises(LatticeBudgetExceeded, match="--tau-max"):
                solve_dynamics(chain, [np.pi / 2, np.pi / 2], tau_max=1e12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_budget_is_an_input_error(self):
        assert issubclass(LatticeBudgetExceeded, ValueError)

    def test_non_finite_tau_max_is_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_dynamics(stellar_array(2), [0.5, 0.5], tau_max=float("inf"))

    def test_phase_count_must_match_bonds(self):
        with pytest.raises(ValueError, match="one phase per bond"):
            solve_dynamics(stellar_array(2), [0.5], tau_max=1e5)


class TestDecomposeIntrinsic:
    def test_single_bond_factor(self):
        bond = make_bond(0, 1, 1.0, 0.85)
        arr = DotArray([Dot(0, 1.0), Dot(1, 1.3)], [bond])
        tau = 2.2
        factors, corr = decompose_intrinsic(arr, tau)
        assert len(factors.factors) == 1
        ((dot, theta),) = factors.factors[0].targets
        assert dot == 1
        assert circular_distance(theta, -2.0 * tau * bond.velocity) < 1e-12

    def test_six_qubit_hub_array_phases(self):
        # two hubs (dots 0, 1) carrying three bonds each; homogeneous bonds
        # at velocity * tau = pi/2 give 3pi/2 on the hubs and pi/2 elsewhere
        t_sq = 0.8
        bonds = [
            make_bond(0, 1, 1.0, t_sq),
            make_bond(0, 2, 1.0, t_sq),
            make_bond(0, 3, 1.0, t_sq),
            make_bond(1, 4, 1.0, t_sq),
            make_bond(1, 5, 1.0, t_sq),
        ]
        arr = DotArray([Dot(j, 1.0 + 0.1 * j) for j in range(6)], bonds)
        tau = (np.pi / 2) / bonds[0].velocity
        _, corr = decompose_intrinsic(arr, tau)
        assert corr.local[0] == pytest.approx(3 * np.pi / 2)
        assert corr.local[1] == pytest.approx(3 * np.pi / 2)
        for j in range(2, 6):
            assert corr.local[j] == pytest.approx(np.pi / 2)

    def test_triangle_gives_majority_flip_gate(self):
        bonds = [make_bond(0, 1, 1.0, 0.8), make_bond(1, 2, 1.0, 0.8), make_bond(0, 2, 1.0, 0.8)]
        arr = DotArray([Dot(j, 1.0 + 0.1 * j) for j in range(3)], bonds)
        tau = (np.pi / 2) / bonds[0].velocity  # per-bond angle -2 tau Delta = -pi
        factors, _ = decompose_intrinsic(arr, tau)
        diag = np.exp(1j * factors.expand(3).values)
        assert np.round(diag.real).astype(int).tolist() == [1, 1, 1, -1, 1, -1, -1, -1]

    def test_bond_order_invariance(self, rng):
        arr = stellar_array(3, rng=rng)
        tau = 1.7
        base_factors, base_corr = decompose_intrinsic(arr, tau)
        base = base_factors.expand(4).values
        for _ in range(20):
            perm = rng.permutation(arr.n_bonds)
            shuffled = arr.with_bonds([arr.bonds[p] for p in perm])
            factors, corr = decompose_intrinsic(shuffled, tau)
            assert factors.expand(4).values == pytest.approx(base)
            assert corr.expand().values == pytest.approx(base_corr.expand().values)

    def test_reassembles_ideal_evolution(self, rng):
        for _ in range(10):
            arr = stellar_array(int(rng.integers(2, 5)), rng=rng)
            tau = float(rng.uniform(0.1, 9.0)) / 1e-3
            factors, corr = decompose_intrinsic(arr, tau)
            rebuilt = PhaseVector(
                factors.expand(arr.n_dots).values + corr.expand().values
            )
            assert rebuilt.distance(ideal_evolution(arr, tau)) < 1e-7


class TestEquivalenceOracle:
    def test_identical_vectors(self, rng):
        pv = PhaseVector(rng.uniform(0, 2 * np.pi, size=8))
        ok, free, res = equiv_up_to_free_phase(pv, pv)
        assert ok
        assert res == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(np.array(free.local))) < 1e-12

    def test_recovers_applied_shift(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 6))
            pv = PhaseVector(rng.uniform(0, 2 * np.pi, size=1 << n))
            shift = FreePhase(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi, size=n))
            ok, rec, res = equiv_up_to_free_phase(shifted(pv, shift), pv)
            assert ok and res <= 1e-9
            assert np.max(circular_distance(rec.global_phase, shift.global_phase)) < 1e-9
            assert np.max(circular_distance(np.array(rec.local), np.array(shift.local))) < 1e-9

    def test_invariant_under_extra_free_phase(self, rng):
        n = 3
        u = PhaseVector(rng.uniform(0, 2 * np.pi, size=8))
        target = PhaseVector(rng.uniform(0, 2 * np.pi, size=8))
        _, _, res0 = equiv_up_to_free_phase(u, target)
        for _ in range(20):
            shift = FreePhase(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi, size=n))
            _, _, res = equiv_up_to_free_phase(shifted(u, shift), target)
            assert res == pytest.approx(res0, abs=1e-9)

    def test_detects_inequivalence(self):
        czz = czz_spec([np.pi, np.pi]).expand(3)
        ccz = PhaseVector(np.concatenate([np.zeros(4), [0, 0, 0, np.pi]]))
        ok, _, res = equiv_up_to_free_phase(ccz, czz)
        assert not ok
        assert res > 0.5

    def test_exact_simulation_of_solved_stellar_gate(self):
        # the simulated propagator at a solved time matches the target up to
        # free phases, with a residual at the coupling-to-splitting scale
        from dotgates import qubit_frame_evolution

        j_over_eps = 1e-3
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.45), Dot(2, 0.62)],
            [make_bond(0, 1, j_over_eps, 0.8), make_bond(0, 2, j_over_eps, 0.8)],
        )
        spec = czz_spec([np.pi, np.pi])
        free = mqcp_phase_solution(spec.factors[0], 3)
        best = solve_dynamics(arr, free.local[1:], tau_max=1e5).mod_pi
        assert best.worst[0] <= 1e-12
        u = qubit_frame_evolution(arr, best.times[0])
        diag = PhaseVector(np.angle(np.diag(u)))
        ok, _, res = equiv_up_to_free_phase(diag, spec.expand(3), tol=20 * j_over_eps)
        assert ok
        assert res <= 20 * j_over_eps


class TestGateSpecJson:
    def test_factor_round_trip(self):
        spec = czz_spec([np.pi, 1.1])
        back = GateSpec.from_json(spec.to_json())
        assert back.expand(3).distance(spec.expand(3)) < 1e-12

    def test_raw_round_trip(self, rng):
        spec = GateSpec(raw=PhaseVector(rng.uniform(0, 2 * np.pi, size=8)))
        back = GateSpec.from_json(spec.to_json())
        assert back.expand(3).distance(spec.expand(3)) < 1e-12

    @pytest.mark.parametrize(
        "doc",
        [
            {"raw": [0.0, float("nan"), 0.0, 0.0]},
            {"raw": [0.0, 0.0, float("inf"), 0.0]},
            {"factors": [{"control": 0, "targets": [{"dot": 1, "theta": float("nan")}]}]},
        ],
        ids=["raw-nan", "raw-inf", "theta-nan"],
    )
    def test_rejects_non_finite_phases(self, doc):
        with pytest.raises(ValueError, match="finite"):
            GateSpec.from_json(doc)

    @pytest.mark.parametrize("control, dot", [(0.7, 1), (0, 1.2), ("0", 1), (0, True)])
    def test_rejects_non_integer_dots(self, control, dot):
        # int() would read 0.7 as 0 and 1.2 as 1
        doc = {"factors": [{"control": control, "targets": [{"dot": dot, "theta": np.pi}]}]}
        with pytest.raises(ValueError, match="must be an integer"):
            GateSpec.from_json(doc)

    def test_no_factors_is_the_identity(self):
        spec = GateSpec.from_json('{"factors": []}')
        assert np.array_equal(spec.expand(3).values, np.zeros(8))
        # with no dot named, only the caller knows the qubit count
        with pytest.raises(ValueError, match="needs the qubit count"):
            spec.expand()


def expand_by_bit_table(spec, n):
    """Parent implementation of ``GateSpec.expand`` for factored gates."""
    bits = bit_table(n)
    total = np.zeros(1 << n)
    for f in spec.factors:
        for dot, theta in f.targets:
            total += theta * bits[:, f.control] * bits[:, dot]
    return PhaseVector(total)


def single_control_by_masks(theta_g, tol=1e-7):
    """Parent implementation of ``assert_single_control``."""
    theta_g = wrap_2pi(np.asarray(theta_g, dtype=float))
    n_targets = theta_g.shape[0].bit_length() - 1
    bits = bit_table(n_targets)
    for j in range(n_targets):
        if np.max(circular_distance(theta_g[bits[:, j] == 0], 0.0)) <= tol:
            on = theta_g[bits[:, j] == 1]
            return j, bool(np.max(circular_distance(on, on[0])) <= tol)
    return None, False


def parity_by_pi_branches(theta_g, n_qubits, tol=1e-9):
    """Parent implementation of ``solve_parity``'s verdict.

    Local phases from the all-zero and single-bit rows, the control phase
    from row zero, then the better of that and a pi offset on the control.
    """
    theta_g = wrap_2pi(np.asarray(theta_g, dtype=float))
    lmat = parity_matrix(n_qubits)
    n_targets = n_qubits - 1
    phi = np.zeros(n_qubits)
    phi[1:] = 0.5 * (theta_g[0] - theta_g[[1 << (n_targets - 1 - j) for j in range(n_targets)]])
    phi[0] = np.sum(phi[1:]) - theta_g[0]
    alt = phi.copy()
    alt[0] += np.pi
    return min(float(np.max(circular_distance(theta_g, lmat @ p))) for p in (phi, alt)) <= tol


def scan_lattice_by_bond(velocities, phases, modulus, tau_max, tol):
    """Per-bond loop of ``_scan_lattice``: (times, residuals) in rank order."""
    pieces = []
    for delta, phi in zip(velocities, phases):
        if abs(delta) < 1e-15:
            continue
        x_lo, x_hi = sorted((0.0, tau_max * delta))
        m_lo = int(np.ceil((x_lo - phi) / modulus - 1e-12))
        m_hi = int(np.floor((x_hi - phi) / modulus + 1e-12))
        pts = (phi + modulus * np.arange(m_lo, m_hi + 1)) / delta
        pieces.append(pts[(pts >= 0.0) & (pts <= tau_max * (1.0 + 1e-12))])
    times = np.sort(np.concatenate(pieces))
    times = times[np.concatenate([[True], np.diff(times) > 1e-12])]
    residuals = circular_distance(np.outer(times, velocities), phases, modulus)
    order = np.lexsort((times, np.round(residuals.max(axis=1), 12)))[:10_000]
    return times[order], residuals[order]


class TestLoopReferences:
    """The vectorised gate calculus gives the parent loops' results bit for bit."""

    def test_expand(self, rng):
        from conftest import random_connected_array

        for n in range(2, 9):
            arr = random_connected_array(rng, n)
            spec = GateSpec(factors=tuple(
                MqcpFactor(b.j, [(b.k, rng.uniform(0, 2 * np.pi))]) for b in arr.bonds
            ) + (MqcpFactor(0, [(d, rng.uniform(0, 2 * np.pi)) for d in range(1, n)]),))
            assert np.array_equal(spec.expand(n).values, expand_by_bit_table(spec, n).values)

    def test_assert_single_control(self, rng):
        for n_targets in range(1, 7):
            for _ in range(20):
                theta_g = rng.uniform(0, 2 * np.pi, size=1 << n_targets)
                j = int(rng.integers(n_targets))
                bits = bit_table(n_targets)
                theta_g[bits[:, j] == 0] = 0.0
                if rng.random() < 0.5:
                    theta_g[bits[:, j] == 1] = theta_g[-1]
                ref = single_control_by_masks(theta_g)
                got = assert_single_control(theta_g)
                assert (got.control_qubit, got.degenerate_two_qubit) == ref
                assert got.second_control == (ref[0] is not None)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_solve_parity_verdict(self, rng, n):
        for trial in range(100):
            if trial % 2:
                theta_g = rng.uniform(0, 2 * np.pi, size=1 << (n - 1))
            else:
                theta_g = reduced_from_free(FreePhase(0.0, rng.uniform(0, 2 * np.pi, size=n)))
            assert solve_parity(theta_g, n).feasible == parity_by_pi_branches(theta_g, n)

    def test_scan_lattice(self, rng):
        from dotgates.gates import _scan_lattice

        for _ in range(40):
            b = int(rng.integers(1, 6))
            velocities = rng.choice([-1, 1], size=b) * rng.uniform(1e-4, 1e-3, size=b)
            modulus = float(rng.choice([np.pi, 2 * np.pi]))
            phases = rng.uniform(0, modulus, size=b)
            tau_max = float(rng.uniform(1e3, 1e5))
            times, residuals = scan_lattice_by_bond(velocities, phases, modulus, tau_max, 1e-9)
            got = _scan_lattice(velocities, phases, modulus, tau_max, 1e-9)
            assert got.times.tolist() == times.tolist()
            assert got.residuals.tolist() == residuals.tolist()
            assert got.worst.tolist() == residuals.max(axis=1).tolist()
