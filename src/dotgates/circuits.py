"""Application circuits built from diagonal multi-qubit gates.

A tiny state-vector runner supports exactly what the constructions need:
Hadamards, diagonal gates given as phase vectors, and projective
measurements in the Z or +/- basis (sampled with a seeded generator or
post-selected exhaustively).  On top of it sit the triangle logical-Z
gate, simultaneous parity checks, a surface-code unit cell, and the fast
array-reversal sequence with its sign predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import bit_of
from .calibrate import PauliAssignment
from .gates import GateSpec, MqcpFactor, PhaseVector

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class Operation:
    kind: str            # "h" | "diag" | "measure"
    qubit: int | None = None
    phases: PhaseVector | None = None
    basis: str | None = None  # "z" | "pm"


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    operations: tuple[Operation, ...]

    def describe(self) -> list[dict]:
        out = []
        for op in self.operations:
            if op.kind == "h":
                out.append({"op": "h", "qubit": op.qubit})
            elif op.kind == "diag":
                out.append({"op": "diag", "phases": list(map(float, op.phases.values))})
            else:
                out.append({"op": "measure", "qubit": op.qubit, "basis": op.basis})
        return out


def hadamard(qubit: int) -> Operation:
    return Operation("h", qubit=qubit)


def diagonal(phases: PhaseVector) -> Operation:
    return Operation("diag", phases=phases)


def measure(qubit: int, basis: str = "z") -> Operation:
    if basis not in ("z", "pm"):
        raise ValueError("basis must be 'z' or 'pm'")
    return Operation("measure", qubit=qubit, basis=basis)


def apply_single_qubit(state: np.ndarray, gate: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    shaped = state.reshape([2] * n_qubits)
    moved = np.moveaxis(shaped, qubit, 0)
    moved = np.tensordot(gate, moved, axes=([1], [0]))
    return np.moveaxis(moved, 0, qubit).reshape(-1)


def run_circuit(
    circuit: Circuit,
    state: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    forced_outcomes: Sequence[int] | None = None,
):
    """Execute a circuit; returns the final state and measured outcomes.

    Measurements sample from ``rng`` unless ``forced_outcomes`` pins each
    outcome (+1/-1) for exhaustive post-selection; forcing an outcome of
    zero probability raises.
    """
    n = circuit.n_qubits
    dim = 1 << n
    if state is None:
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(state, dtype=complex).copy()
        state /= np.linalg.norm(state)
    if rng is None:
        rng = np.random.default_rng(0)
    forced = list(forced_outcomes) if forced_outcomes is not None else None
    outcomes: list[int] = []
    for op in circuit.operations:
        if op.kind == "h":
            state = apply_single_qubit(state, _HADAMARD, op.qubit, n)
        elif op.kind == "diag":
            state = np.exp(1j * op.phases.values) * state
        else:
            gate = _HADAMARD if op.basis == "pm" else None
            if gate is not None:
                state = apply_single_qubit(state, gate, op.qubit, n)
            bits = bit_of(np.arange(dim), op.qubit, n)
            p_plus = float(np.sum(np.abs(state[bits == 0]) ** 2))
            if forced is not None:
                outcome = forced.pop(0)
            else:
                outcome = 1 if rng.random() < p_plus else -1
            keep = bits == (0 if outcome == 1 else 1)
            prob = p_plus if outcome == 1 else 1.0 - p_plus
            if prob < 1e-12:
                raise ValueError("forced a zero-probability outcome")
            state = np.where(keep, state, 0.0) / np.sqrt(prob)
            outcomes.append(outcome)
    return state, outcomes


def pauli_string(n_qubits: int, ops: dict[int, str]) -> np.ndarray:
    """Dense operator with the given single-qubit Paulis, identity elsewhere."""
    return PauliAssignment(ops.get(j, "I") for j in range(n_qubits)).matrix()


# -- triangle logical Z --------------------------------------------------------

def logical_z_triangle() -> PhaseVector:
    """Product of the three pi controlled-phases around a triangle.

    The diagonal is (1, 1, 1, -1, 1, -1, -1, -1): a sign flip on every
    majority-one state, which anticommutes with the joint bit flip
    X x X x X.
    """
    spec = GateSpec(
        factors=(
            MqcpFactor(0, [(1, np.pi)]),
            MqcpFactor(1, [(2, np.pi)]),
            MqcpFactor(0, [(2, np.pi)]),
        )
    )
    return spec.expand(3)


# -- parity checks --------------------------------------------------------------

def parity_check_circuit(n_targets: int, basis: str = "z") -> Circuit:
    """Ancilla-mediated parity measurement of n target qubits.

    Qubit 0 is the ancilla: prepare |+>, apply the all-pi controlled-phase
    onto the targets, then measure the ancilla in the +/- basis.  For the
    X-basis check the targets are Hadamard-rotated after the entangling
    gate, so the post-measurement state is an eigenstate of the joint X
    parity.
    """
    if n_targets not in (2, 3, 4):
        raise ValueError("parity checks are built for 2 to 4 targets")
    if basis not in ("z", "x"):
        raise ValueError("basis must be 'z' or 'x'")
    n = n_targets + 1
    spec = GateSpec(factors=(MqcpFactor(0, [(j, np.pi) for j in range(1, n)]),))
    ops = [hadamard(0), diagonal(spec.expand(n))]
    if basis == "x":
        ops.extend(hadamard(j) for j in range(1, n))
    ops.append(measure(0, basis="pm"))
    return Circuit(n, tuple(ops))


def parity_operator(n_targets: int, basis: str) -> PauliAssignment:
    """Joint Z (or X) parity of the targets, identity on the ancilla."""
    label = "Z" if basis == "z" else "X"
    return PauliAssignment(("I",) + (label,) * n_targets)


def check_parity_run(
    n_targets: int,
    basis: str,
    target_state: np.ndarray,
    rng: np.random.Generator,
    *,
    circuit: Circuit | None = None,
    parity: PauliAssignment | None = None,
) -> tuple[int, float]:
    """Run one parity check; returns the outcome and the eigenvalue defect.

    The defect is ``|| P |psi> - outcome |psi> ||`` for the joint parity
    operator P on the post-measurement state, zero when the projection
    worked exactly.  A caller running many checks passes ``circuit`` and
    ``parity``, built once by ``parity_check_circuit`` and
    ``parity_operator`` for the same targets and basis.
    """
    if circuit is None:
        circuit = parity_check_circuit(n_targets, basis)
    if parity is None:
        parity = parity_operator(n_targets, basis)
    # ancilla |0> (qubit 0, most significant) tensor target state
    full = np.kron(np.array([1.0, 0.0], dtype=complex), target_state)
    final, outcomes = run_circuit(circuit, state=full, rng=rng)
    moved = parity.apply_rows(final[:, None])[:, 0]
    defect = float(np.linalg.norm(moved - outcomes[0] * final))
    return outcomes[0], defect


# -- surface-code unit cell ------------------------------------------------------

def surface_code_cycle_unit() -> Circuit:
    """One X-check and one Z-check on a shared pair of data qubits.

    Qubits: 0 = Z ancilla, 1 and 2 = data, 3 = X ancilla.  Each check is an
    ancilla-controlled pi-phase on both data qubits; the X check conjugates
    the data with Hadamards around the entangler.  Outcomes order: Z check
    first, then X check.
    """
    n = 4
    z_spec = GateSpec(factors=(MqcpFactor(0, [(1, np.pi), (2, np.pi)]),))
    x_spec = GateSpec(factors=(MqcpFactor(3, [(1, np.pi), (2, np.pi)]),))
    ops = [
        hadamard(0),
        diagonal(z_spec.expand(n)),
        measure(0, basis="pm"),
        hadamard(3),
        hadamard(1),
        hadamard(2),
        diagonal(x_spec.expand(n)),
        hadamard(1),
        hadamard(2),
        measure(3, basis="pm"),
    ]
    return Circuit(n, tuple(ops))


def run_cycle_unit(
    data_state: np.ndarray, rng: np.random.Generator, forced: Sequence[int] | None = None
):
    """Run the unit cell on a two-qubit data state.

    Returns the final 4-qubit state and the (Z, X) outcomes; each ancilla
    ends in the computational state its outcome selected, so the data block
    is read from that branch.
    """
    circuit = surface_code_cycle_unit()
    state = np.kron(
        np.array([1.0, 0.0], dtype=complex),
        np.kron(np.asarray(data_state, dtype=complex), np.array([1.0, 0.0], dtype=complex)),
    )
    return run_circuit(circuit, state=state, rng=rng, forced_outcomes=forced)


# -- fast array reversal ----------------------------------------------------------

def chain_gate(n_qubits: int) -> PhaseVector:
    """Product of pi controlled-phases along the open chain 0-1-...-(n-1)."""
    spec = GateSpec(
        factors=tuple(MqcpFactor(j, [(j + 1, np.pi)]) for j in range(n_qubits - 1))
    )
    return spec.expand(n_qubits)


def order_reversal(n_qubits: int) -> np.ndarray:
    """Reversal unitary ``R = H (G H)^n`` from n chain gates.

    R maps |a> to a sign times |reverse(a)>; the signs follow
    :func:`consecutive_ones_parity`.
    """
    if not 2 <= n_qubits <= 8:
        raise ValueError("reversal construction covers 2 to 8 qubits")
    dim = 1 << n_qubits
    h_all = np.array([[1.0]])
    for _ in range(n_qubits):
        h_all = np.kron(h_all, _HADAMARD)
    g = np.exp(1j * chain_gate(n_qubits).values)
    r = h_all.astype(complex)
    for _ in range(n_qubits):
        r = (r * g) @ h_all  # r @ diag(g) @ h_all, scaling columns
    return r


def consecutive_ones_parity(bits: str) -> int:
    """+1 or -1 from the count of adjacent '11' pairs in the string.

    Counting adjacent pairs (so a run of length L contributes L - 1)
    reproduces the reversal matrix signs; the brute-force matrix is the
    ground truth this predicate is validated against.
    """
    if any(c not in "01" for c in bits):
        raise ValueError("bit string expected")
    pairs = sum(1 for a, b in zip(bits, bits[1:]) if a == "1" and b == "1")
    return -1 if pairs % 2 else 1
