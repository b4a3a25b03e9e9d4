"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from dotgates import (
    Bond,
    CalibrationTarget,
    Dot,
    DotArray,
    FreePhase,
    GateSpec,
    MqcpFactor,
    PhaseVector,
    accumulated_bond_phases,
    assignment_vectors,
    equiv_up_to_free_phase,
    extra_local_phases,
    mqcp_phase_solution,
    qubit_frame_evolution,
    simulate_gate,
    solve_intervals,
    solve_parity,
    weave_dd,
)
from dotgates.basis import bit_table, circular_distance, wrap_2pi
from dotgates.calibrate import stage_sign_matrix
from dotgates.circuits import (
    check_parity_run,
    consecutive_ones_parity,
    logical_z_triangle,
    pauli_string,
)
from dotgates.simulate import (
    Spectrum,
    diagonal_residues,
    pulsed_evolution,
    scaled_zeeman_array,
)

from conftest import (
    decompose_intrinsic,
    ideal_evolution,
    make_bond,
    parity_matrix,
    reversal_signs_brute_force,
)


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS  [{detail}]")


def ladder_zeemans(n, rng, base=1.0, step=0.4, jitter=0.05):
    """Well-separated Zeeman splittings (coupled-level gaps stay large)."""
    return np.array([base + step * j for j in range(n)]) + rng.uniform(
        -jitter, jitter, n
    )


def reduced_from_free(free):
    return wrap_2pi(parity_matrix(free.n_qubits) @ np.array(free.local))


def test_criterion_1_parity_rule_suite():
    started = time.monotonic()
    rng = np.random.default_rng(101)

    # the doubly-controlled pi gate is rejected, for every phase choice
    assert not solve_parity([0.0, 0.0, 0.0, np.pi], 3).feasible
    for _ in range(20):
        assert not solve_parity([0.0, 0.0, 0.0, rng.uniform(0.1, 6.1)], 3).feasible

    # every one-control multi-target spec is accepted and the closed-form
    # phases agree with the solver through the parity map
    for _ in range(60):
        n_targets = int(rng.integers(1, 8))
        n = n_targets + 1
        thetas = rng.uniform(0.0, 2 * np.pi, size=n_targets)
        spec = MqcpFactor(0, [(j + 1, th) for j, th in enumerate(thetas)])
        free = mqcp_phase_solution(spec, n)
        theta_g = GateSpec(factors=(spec,)).expand(n).reduced()
        solution = solve_parity(theta_g, n, tol=1e-9)
        assert solution.feasible
        assert np.max(circular_distance(reduced_from_free(free), theta_g)) <= 1e-9

    # round trip: 1000 random free phases across 2..8 qubits
    for trial in range(1000):
        n = 2 + trial % 7
        free = FreePhase(0.0, rng.uniform(0.0, 2 * np.pi, size=n))
        theta_g = reduced_from_free(free)
        solution = solve_parity(theta_g, n, tol=1e-9)
        assert solution.feasible and solution.residual <= 1e-9
        assert (
            np.max(circular_distance(reduced_from_free(solution.free), theta_g))
            <= 1e-9
        )

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(1, f"1000 round trips N=2..8, residual tol 1e-9, {elapsed:.2f}s")


def test_criterion_2_exact_vs_ideal_scaling():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    grid = np.geomspace(1e-4, 1e-1, 8)
    bound_checked = 0
    for n in range(2, 6):
        for _ in range(2):
            eps = ladder_zeemans(n, rng)
            dots = [Dot(j, float(e)) for j, e in enumerate(eps)]
            edges = {(j, j + 1) for j in range(n - 1)}
            if n > 2:
                a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
                edges.add((a, b))
            bonds = [
                make_bond(j, k, 1e-3 * (0.7 + 0.5 * rng.random()), 0.72 + 0.2 * rng.random())
                for j, k in sorted(edges)
            ]
            arr = DotArray(dots, bonds)
            tau = (np.pi / 2) / np.mean([abs(b.velocity) for b in arr.bonds])
            residues, leaks = [], []
            for x in grid:
                scaled = scaled_zeeman_array(arr, float(x))
                u = qubit_frame_evolution(scaled, tau)
                ideal = ideal_evolution(scaled, tau)
                res = diagonal_residues(np.diag(u), ideal)
                residues.append(np.max(np.abs(res)))
                leaks.append(Spectrum.of(scaled).leak())
                report_sim = simulate_gate(scaled, tau)
                if report_sim.bound >= 0.0:
                    bound_checked += 1
                    assert report_sim.fidelity >= report_sim.bound - 1e-12
            slope_res = np.polyfit(np.log(grid), np.log(residues), 1)[0]
            slope_leak = np.polyfit(np.log(grid), np.log(leaks), 1)[0]
            assert abs(slope_res - 1.0) <= 0.15, f"residue slope {slope_res} at N={n}"
            assert abs(slope_leak - 2.0) <= 0.2, f"leak slope {slope_leak} at N={n}"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    assert bound_checked >= 32
    report(
        2,
        f"slopes 1 +/- 0.15 and 2 +/- 0.2 for two arrays each of N=2..5; "
        f"bound held on {bound_checked} nonnegative instances; {elapsed:.1f}s",
    )


def test_criterion_3_interference_residue_formula():
    # three dots in a line with the center carrying both bonds (stored as
    # dot 0 so the amplitudes are center-first and the channel phases
    # combine as eta_1 - eta_2)
    theta1, eta1, theta2, eta2 = 0.6, 0.3, 0.8, 1.1
    eps_center, eps1, eps2 = 1.0, 1.45, 0.62
    j_over = 1e-2
    j1, j2 = j_over, 1.3 * j_over

    def build(th1, e1, th2, e2):
        return DotArray(
            [Dot(0, eps_center), Dot(1, eps1), Dot(2, eps2)],
            [
                Bond(0, 1, j1, t=np.exp(1j * e1) * np.cos(th1), s=1j * np.sin(th1)),
                Bond(0, 2, j2, t=np.exp(1j * e2) * np.cos(th2), s=1j * np.sin(th2)),
            ],
        )

    arr = build(theta1, eta1, theta2, eta2)
    tau = (np.pi / 2) / np.mean([abs(b.velocity) for b in arr.bonds])
    rep = simulate_gate(arr, tau)
    phi_max = (
        tau
        * j1
        * j2
        / (8.0 * eps_center)
        * np.sin(2 * theta1)
        * np.sin(2 * theta2)
        * np.cos(eta1 - eta2)
    )
    assert rep.max_post_residue == pytest.approx(abs(phi_max), rel=0.10)
    # the compensated residue carries the bit-parity sign pattern
    pattern = np.array([(-1) ** bin(n).count("1") for n in range(8)])
    assert np.max(np.abs(rep.post_residues + phi_max * pattern)) <= 0.1 * abs(phi_max)

    generic = rep.max_post_residue
    for sweet in (build(np.pi / 2, eta1, theta2, eta2), build(theta1, 0.0, theta2, np.pi / 2)):
        assert simulate_gate(sweet, tau).max_post_residue <= generic / 10.0
    report(
        3,
        f"post-correction residue {generic:.3e} vs formula {abs(phi_max):.3e} "
        f"(within 10%); sweet spots drop >= 10x",
    )


def test_criterion_4_superexchange_invariance():
    rng = np.random.default_rng(404)
    for n in range(3, 8):
        eps = ladder_zeemans(n, rng)
        t_sq = 0.8
        arr = DotArray(
            [Dot(j, float(e)) for j, e in enumerate(eps)],
            [make_bond(j, j + 1, 1e-3, t_sq) for j in range(n - 1)],
        )
        tau = np.pi / arr.bonds[0].velocity
        bits = bit_table(n)
        target = PhaseVector(np.pi * (bits[:, 0] + bits[:, -1]))
        # ideal evolution equals the end-to-end Z pair up to a global phase,
        # exactly on phase vectors
        delta = wrap_2pi(ideal_evolution(arr, tau).values - target.values)
        assert np.max(circular_distance(delta, delta[0])) <= 1e-9
        # exact simulation stays within the first-order error scale
        u = qubit_frame_evolution(arr, tau)
        _, _, residual = equiv_up_to_free_phase(
            PhaseVector(np.angle(np.diag(u))), target, tol=1.0
        )
        assert residual <= 0.03  # 30 x (J / eps)
    report(4, "chains of 3..7 dots: ideal exact up to global phase; sim residual <= 0.03")


def test_criterion_5_decomposition():
    rng = np.random.default_rng(505)
    t_sq = 0.8
    bonds = [
        make_bond(0, 1, 1.0, t_sq),
        make_bond(0, 2, 1.0, t_sq),
        make_bond(0, 3, 1.0, t_sq),
        make_bond(1, 4, 1.0, t_sq),
        make_bond(1, 5, 1.0, t_sq),
    ]
    arr = DotArray([Dot(j, 1.0 + 0.4 * j) for j in range(6)], bonds)
    tau = (np.pi / 2) / bonds[0].velocity
    _, corr = decompose_intrinsic(arr, tau)
    hubs = [corr.local[0], corr.local[1]]
    leaves = [corr.local[j] for j in range(2, 6)]
    assert hubs == pytest.approx([3 * np.pi / 2] * 2, abs=1e-12)
    assert leaves == pytest.approx([np.pi / 2] * 4, abs=1e-12)

    base_factors, base_corr = decompose_intrinsic(arr, tau)
    base_theta = base_factors.expand(6).values
    base_local = base_corr.expand().values
    for _ in range(100):
        perm = rng.permutation(len(bonds))
        shuffled = arr.with_bonds([bonds[p] for p in perm])
        factors, corr = decompose_intrinsic(shuffled, tau)
        assert factors.expand(6).values == pytest.approx(base_theta)
        assert corr.expand().values == pytest.approx(base_local)
    report(5, "hub phases 3pi/2 / leaf phases pi/2 exact; invariant over 100 shuffles")


def _stellar_instance(rng):
    n_targets = int(rng.integers(2, 4))
    n = n_targets + 1
    eps = ladder_zeemans(n, rng)
    bonds = [
        make_bond(0, j + 1, 1e-3 * (0.8 + 0.4 * rng.random()), 0.72 + 0.2 * rng.random())
        for j in range(n_targets)
    ]
    arr = DotArray([Dot(j, float(e)) for j, e in enumerate(eps)], bonds)
    spec = GateSpec(
        factors=(MqcpFactor(0, [(j + 1, np.pi) for j in range(n_targets)]),)
    )
    return arr, spec, None


RECT_SUBSETS = [frozenset(), frozenset({2}), frozenset({2, 3}), frozenset({3})]
RECT_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]])


def _rectangle_instance(rng):
    eps = ladder_zeemans(4, rng)
    edges = [(0, 1), (1, 3), (0, 2), (2, 3)]
    bonds = [
        make_bond(j, k, 1e-3 * (0.8 + 0.4 * rng.random()), 0.72 + 0.2 * rng.random())
        for j, k in edges
    ]
    arr = DotArray([Dot(j, float(e)) for j, e in enumerate(eps)], bonds)
    spec = GateSpec(
        factors=tuple(MqcpFactor(j, [(k, np.pi)]) for j, k in edges)
    )
    return arr, spec, RECT_SUBSETS


def test_criterion_6_calibration_end_to_end():
    started = time.monotonic()
    rng = np.random.default_rng(606)
    rect_matrix_checked = 0
    for trial in range(50):
        arr, spec, subsets = (
            _rectangle_instance(rng) if trial % 5 == 0 else _stellar_instance(rng)
        )
        target = CalibrationTarget.for_array(arr, [np.pi / 2] * arr.n_bonds)
        schedule = solve_intervals(arr, target, subsets, offset_bound=8)
        assert all(st.duration >= 0.0 for st in schedule.stages)
        acc = accumulated_bond_phases(arr, schedule)
        assert np.max(circular_distance(acc, np.pi / 2, np.pi)) <= 1e-9

        if subsets is not None and len(schedule.stages) == 4:
            assert np.array_equal(stage_sign_matrix(arr, schedule), RECT_SIGNS)
            rect_matrix_checked += 1

        u = pulsed_evolution(arr, schedule)
        stripped = schedule.net_pulse().matrix().conj().T @ u
        frame = extra_local_phases(schedule, arr)
        diag = PhaseVector(np.angle(np.diag(stripped)) - frame.expand().values)
        ok, _, residual = equiv_up_to_free_phase(
            diag, spec.expand(arr.n_dots), tol=1e-2
        )
        assert ok, f"trial {trial}: equivalence residual {residual:.4f}"

        woven = weave_dd(schedule, budget=24)
        drift = np.max(np.abs(accumulated_bond_phases(arr, woven) - acc))
        assert drift <= 1e-12
        assert woven.net_pulse().is_identity()
    elapsed = time.monotonic() - started
    assert elapsed < 180.0
    assert rect_matrix_checked >= 5
    report(
        6,
        f"50 instances solved, pulsed-simulation residual <= 1e-2, "
        f"{rect_matrix_checked} rectangle sign matrices reproduced, "
        f"weave exactly phase-neutral; {elapsed:.1f}s",
    )


def test_criterion_7_assignment_enumeration():
    counts = {}
    for n in range(3, 8):
        dots = [Dot(j, 1.0 + 0.1 * j) for j in range(n)]
        bonds = [
            make_bond(j, k, 1.0, 0.8) for j in range(n) for k in range(j + 1, n)
        ]
        enum = assignment_vectors(DotArray(dots, bonds))
        n_b = n * (n - 1) // 2
        assert enum.n_bonds == n_b
        assert enum.n_distinct >= n_b
        counts[n] = enum.n_distinct
    assert counts[3] == 4
    for n in range(3, 7):
        assert counts[n + 1] >= 2 * counts[n]
    report(7, f"distinct assignment counts {counts}; doubling and N_a >= N_b hold")


def test_criterion_8_applications():
    rng = np.random.default_rng(808)
    # majority-flip diagonal and anticommutation, exact
    diag = np.exp(1j * logical_z_triangle().values)
    assert np.max(np.abs(diag - np.array([1, 1, 1, -1, 1, -1, -1, -1]))) <= 1e-12
    g = np.diag(diag)
    xxx = pauli_string(3, {0: "X", 1: "X", 2: "X"})
    assert np.max(np.abs(g @ xxx + xxx @ g)) <= 1e-12

    # 1000 random parity-check runs: outcome and post-state eigenvalue agree
    for trial in range(1000):
        n_targets = 2 + trial % 3
        basis = "z" if trial % 2 == 0 else "x"
        psi = rng.normal(size=1 << n_targets) + 1j * rng.normal(size=1 << n_targets)
        psi /= np.linalg.norm(psi)
        outcome, defect = check_parity_run(n_targets, basis, psi, rng)
        assert outcome in (1, -1)
        assert defect <= 1e-10

    # reversal matrices against the sign predicate for every string
    for n in range(3, 7):
        signs = reversal_signs_brute_force(n)
        for a in range(1 << n):
            assert signs[a] == consecutive_ones_parity(format(a, f"0{n}b"))
    for bits, expected in [("00010", 1), ("01110", 1), ("00110", -1), ("01111", -1)]:
        assert consecutive_ones_parity(bits) == expected
    report(8, "triangle gate exact; 1000 parity checks exact; reversal signs n=3..6 exact")


def test_criterion_9_twirl_identity():
    rng = np.random.default_rng(909)
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    worst = 0.0
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        twirled = sum(p @ m @ p for p in paulis)
        worst = max(worst, float(np.max(np.abs(twirled - 2.0 * np.trace(m) * np.eye(2)))))
    assert worst <= 1e-12
    report(9, f"1000 random matrices, worst deviation {worst:.2e}")
