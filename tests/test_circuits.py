import numpy as np
import pytest

from dotgates import consecutive_ones_parity, logical_z_triangle, order_reversal
from dotgates.circuits import (
    check_parity_run,
    parity_check_circuit,
    parity_operator,
    pauli_string,
    run_circuit,
    run_cycle_unit,
)

from conftest import reversal_signs_brute_force


def random_state(rng, n):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


class TestLogicalZ:
    def test_diagonal(self):
        diag = np.round(np.exp(1j * logical_z_triangle().values).real).astype(int)
        assert diag.tolist() == [1, 1, 1, -1, 1, -1, -1, -1]

    def test_majority_sign_rule(self):
        diag = np.exp(1j * logical_z_triangle().values)
        for n in range(8):
            ones = bin(n).count("1")
            expected = -1.0 if ones >= 2 else 1.0
            assert diag[n].real == pytest.approx(expected)

    def test_anticommutes_with_joint_flip(self):
        g = np.diag(np.exp(1j * logical_z_triangle().values))
        xxx = pauli_string(3, {0: "X", 1: "X", 2: "X"})
        assert np.max(np.abs(g @ xxx + xxx @ g)) <= 1e-12


class TestParityCheck:
    def test_even_parity_state_is_deterministic(self, rng):
        bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
        for _ in range(25):
            outcome, defect = check_parity_run(2, "z", bell, rng)
            assert outcome == 1
            assert defect <= 1e-10

    def test_odd_parity_state_is_deterministic(self, rng):
        odd = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
        for _ in range(25):
            outcome, _ = check_parity_run(2, "z", odd, rng)
            assert outcome == -1

    @pytest.mark.parametrize("n_targets", [2, 3, 4])
    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_random_states_project_exactly(self, rng, n_targets, basis):
        for _ in range(40):
            psi = random_state(rng, n_targets)
            outcome, defect = check_parity_run(n_targets, basis, psi, rng)
            assert outcome in (1, -1)
            assert defect <= 1e-10

    @pytest.mark.parametrize("n_targets", [2, 3, 4])
    @pytest.mark.parametrize("basis", ["z", "x"])
    def test_signed_permutation_defect_equals_dense_defect(self, rng, n_targets, basis):
        label = "Z" if basis == "z" else "X"
        dense = pauli_string(n_targets + 1, {j: label for j in range(1, n_targets + 1)})
        parity = parity_operator(n_targets, basis)
        circuit = parity_check_circuit(n_targets, basis)
        for _ in range(20):
            # a generic state is no parity eigenstate, so both defects are large
            psi = random_state(rng, n_targets + 1)
            moved = parity.apply_rows(psi[:, None])[:, 0]
            for sign in (1, -1):
                assert np.linalg.norm(moved - sign * psi) == np.linalg.norm(dense @ psi - sign * psi)
            target = random_state(rng, n_targets)
            seed = int(rng.integers(2**32))
            outcome, defect = check_parity_run(
                n_targets, basis, target, np.random.default_rng(seed), circuit=circuit, parity=parity
            )
            full = np.kron(np.array([1.0, 0.0]), target)
            final, outcomes = run_circuit(circuit, state=full, rng=np.random.default_rng(seed))
            assert outcomes == [outcome]
            assert defect == float(np.linalg.norm(dense @ final - outcome * final))

    def test_four_targets_single_gate(self):
        circuit = parity_check_circuit(4, "z")
        entanglers = [op for op in circuit.operations if op.kind == "diag"]
        assert len(entanglers) == 1

    def test_outcome_statistics_follow_parity_weight(self, rng):
        # |00> + |01> has even and odd components of equal weight
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[1] = 1.0 / np.sqrt(2.0)
        outs = [check_parity_run(2, "z", psi, rng)[0] for _ in range(400)]
        plus = sum(1 for o in outs if o == 1) / len(outs)
        assert 0.4 < plus < 0.6


class TestSurfaceCodeUnit:
    def test_ground_state_outcomes(self):
        zs, xs = [], []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            _, outs = run_cycle_unit(np.array([1, 0, 0, 0], dtype=complex), rng)
            zs.append(outs[0])
            xs.append(outs[1])
        assert set(zs) == {1}
        assert set(xs) == {1, -1}

    def test_bell_state_stabilized(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
        for seed in range(20):
            _, outs = run_cycle_unit(bell, np.random.default_rng(seed))
            assert outs == [1, 1]

    def test_final_state_simultaneous_eigenstate(self, rng):
        zz = pauli_string(4, {1: "Z", 2: "Z"})
        xx = pauli_string(4, {1: "X", 2: "X"})
        assert np.max(np.abs(zz @ xx - xx @ zz)) <= 1e-12
        for _ in range(30):
            psi = random_state(rng, 2)
            final, outs = run_cycle_unit(psi, rng)
            assert np.linalg.norm(zz @ final - outs[0] * final) <= 1e-10
            assert np.linalg.norm(xx @ final - outs[1] * final) <= 1e-10

    def test_repeated_cycle_reproduces_outcomes(self, rng):
        for _ in range(15):
            psi = random_state(rng, 2)
            final, first = run_cycle_unit(psi, rng)
            # read the data block back out of the measured ancilla branch
            za = 0 if first[0] == 1 else 1
            xa = 0 if first[1] == 1 else 1
            data = final.reshape(2, 4, 2)[za, :, xa]
            data = data / np.linalg.norm(data)
            _, second = run_cycle_unit(data, rng)
            assert second == first

    def test_post_selection_covers_both_branches(self):
        psi = np.array([1, 0, 0, 0], dtype=complex)
        for forced_x in (1, -1):
            final, outs = run_cycle_unit(psi, np.random.default_rng(0), forced=[1, forced_x])
            assert outs == [1, forced_x]


class TestOrderReversal:
    @pytest.mark.parametrize(
        "bits,expected",
        [("00010", 1), ("01110", 1), ("00110", -1), ("01111", -1)],
    )
    def test_reference_strings(self, bits, expected):
        assert consecutive_ones_parity(bits) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_predicate_matches_brute_force(self, n):
        signs = reversal_signs_brute_force(n)
        for a in range(1 << n):
            assert signs[a] == consecutive_ones_parity(format(a, f"0{n}b"))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_signed_permutation_structure(self, n):
        r = order_reversal(n)
        dim = 1 << n
        for a in range(dim):
            rev = int(format(a, f"0{n}b")[::-1], 2)
            col = np.abs(r[:, a])
            assert col[rev] == pytest.approx(1.0, abs=1e-9)
            assert np.sum(col > 1e-9) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_involution_up_to_signs(self, n):
        r = order_reversal(n)
        square = r @ r
        # applying the reversal twice returns every state up to a sign
        assert np.max(np.abs(np.abs(square) - np.eye(1 << n))) <= 1e-9

    def test_reversal_sign_symmetric_under_reversal(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            bits = "".join(rng.choice(["0", "1"], size=n))
            assert consecutive_ones_parity(bits) == consecutive_ones_parity(bits[::-1])


class TestTranscriptReplay:
    def test_description_round_trip_and_forced_replay(self, rng):
        import json

        from dotgates.circuits import parity_check_circuit

        circuit = parity_check_circuit(3, "x")
        # the record written to paritycheck.json survives JSON unchanged
        assert json.loads(json.dumps(circuit.describe())) == circuit.describe()
        psi = random_state(rng, 3)
        full = np.kron(np.array([1.0, 0.0], dtype=complex), psi)
        _, outcomes = run_circuit(circuit, state=full, rng=np.random.default_rng(9))
        # the recorded outcome replays by forcing it
        state2, outcomes2 = run_circuit(circuit, state=full, forced_outcomes=outcomes)
        assert outcomes2 == outcomes
        assert np.linalg.norm(state2) == pytest.approx(1.0)


class TestRunner:
    def test_measurement_normalizes_state(self, rng):
        from dotgates.circuits import Circuit, hadamard, measure

        circuit = Circuit(2, (hadamard(0), measure(0, "z")))
        state, outcomes = run_circuit(circuit, rng=rng)
        assert np.linalg.norm(state) == pytest.approx(1.0)
        assert outcomes[0] in (1, -1)

    def test_forced_impossible_outcome_raises(self):
        from dotgates.circuits import Circuit, measure

        circuit = Circuit(1, (measure(0, "z"),))
        with pytest.raises(ValueError):
            run_circuit(circuit, forced_outcomes=[-1])
