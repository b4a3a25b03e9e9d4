import json
from dataclasses import dataclass

import numpy as np
import pytest

from dotgates import (
    Bond,
    Dot,
    DotArray,
    FreePhase,
    GateSpec,
    MqcpFactor,
    PhaseVector,
    PulseSchedule,
    Spectrum,
    Stage,
    order_reversal,
    simulate_gate,
)
from dotgates.basis import bit_of, bit_table, pair_view, wrap_2pi
from dotgates.calibrate import bond_signs


def bond_vector(bond):
    """Phase-rate quadruple (S, T, T, S) on the bond's (up-up, up-down,
    down-up, down-down) subspace."""
    s = bond.spin_flip_rate
    t = bond.spin_conserved_rate
    return np.array([s, t, t, s])


def grid_vector(array):
    """Kronecker sum of all bond vectors over the full 2^N space: the
    first-order phase rates, equal to minus the diagonal of the exchange part."""
    n = array.n_dots
    total = np.zeros(1 << n)
    for bond in array.bonds:
        block = pair_view(total, bond.j, bond.k)
        block += bond_vector(bond).reshape((2, 2) + (1,) * (n - 2))
    return total


def array_to_json(array):
    """The array's JSON document, the schema ``array_from_json`` reads."""
    doc = {
        "dots": [
            {"id": int(d.id), "zeeman": float(d.zeeman)}
            | ({"chem_potential": float(d.chem_potential)} if d.chem_potential is not None else {})
            for d in array.dots
        ],
        "bonds": [
            {
                "j": int(b.j),
                "k": int(b.k),
                "J": float(b.exchange),
                "t": [float(np.real(b.t)), float(np.imag(b.t))],
                "s": [float(np.real(b.s)), float(np.imag(b.s))],
            }
            for b in array.bonds
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def make_bond(j, k, exchange, t_sq, phase_t=0.0, phase_s=0.0):
    """Bond with |t|^2 = t_sq and arbitrary channel phases."""
    t = np.sqrt(t_sq) * np.exp(1j * phase_t)
    s = np.sqrt(1.0 - t_sq) * np.exp(1j * phase_s)
    return Bond(j, k, exchange, t=t, s=s)


def conjugated(bond):
    """Bond with the tunneling channels swapped (S and T exchanged): the
    action of a single X or Y pulse on one endpoint, which negates the
    effective velocity.  The reference the pulsed-frame oracles build on."""
    return Bond(bond.j, bond.k, bond.exchange, t=bond.s, s=bond.t)


def bond_pair_index(j, k, n_dots):
    """``2 b_j + b_k`` for every basis index: the entry of a bond's 4-vector
    (up-up, up-down, down-up, down-down) that each basis state sees.  The
    reference grouping of ``basis.pair_view``."""
    idx = np.arange(1 << n_dots)
    return 2 * bit_of(idx, j, n_dots) + bit_of(idx, k, n_dots)


def parity_matrix(n_qubits):
    """Signed matrix mapping (phi_c, phi_1, .., phi_{N-1}) to the reduced
    gate vector: the row for target bits a is (-1, (-1)^a_1, ..).  The
    paper's parity rule ``L phi = theta mod 2pi``, against which
    ``solve_parity`` and the CLI's local phases are checked."""
    if n_qubits < 2:
        raise ValueError("need at least two qubits")
    mat = np.empty((1 << (n_qubits - 1), n_qubits), dtype=np.int64)
    mat[:, 0] = -1
    mat[:, 1:] = 1 - 2 * bit_table(n_qubits - 1)
    return mat


def simulate_time(array, tau):
    """``simulate_gate`` of a time: its one-stage schedule on the array's spectrum."""
    return simulate_gate(Spectrum.of(array), PulseSchedule(array.n_dots, [Stage(tau)]))


def ideal_evolution(array, tau):
    """First-order diagonal gate: phases ``tau * Lambda``, Lambda the grid
    vector.  The reference the exact propagator converges to as J/eps -> 0."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return PhaseVector(tau * grid_vector(array))


def decompose_intrinsic(array, tau):
    """Split the ideal evolution at time tau into per-bond controlled-phase
    factors plus local phase corrections, the paper's reading of a native
    gate.

    Each bond contributes a controlled-phase of angle ``-2 tau Delta_w``;
    the correction on dot j is the sum of ``tau Delta_w`` over bonds at j
    (independent of how bonds are grouped into stars), and the global phase
    collects ``tau S_w``.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    factors = []
    local = np.zeros(array.n_dots)
    global_phase = 0.0
    for b in array.bonds:
        theta = wrap_2pi(-2.0 * tau * b.velocity)
        factors.append(MqcpFactor(b.j, [(b.k, theta)]))
        local[b.j] += tau * b.velocity
        local[b.k] += tau * b.velocity
        global_phase += tau * b.spin_flip_rate
    corrections = FreePhase(wrap_2pi(global_phase), wrap_2pi(local))
    return GateSpec(factors=tuple(factors)), corrections


def argmax_match(weights):
    """Basis row -> eigenvector column, each column at the row of its
    largest weight (the lowest row on ties), or None when two columns pick
    the same row: the pairing that ``Spectrum.leak()`` is checked against."""
    rows = np.argmax(weights, axis=0)
    if np.unique(rows).size < rows.size:
        return None
    return np.argsort(rows)  # rows is a permutation; this is its inverse


def min_column_overlap(evecs):
    """Smallest over eigenvectors of the largest |V|^2 weight: below
    ``MIN_OVERLAP`` (3/4), ``Spectrum.leak()`` must refuse the spectrum."""
    return float(np.min(np.max(np.abs(evecs) ** 2, axis=0)))


def stellar_array(n_targets, j_scale=1e-3, t_sq=None, zeemans=None, rng=None):
    """Control dot 0 bonded to targets 1..n."""
    rng = rng or np.random.default_rng(0)
    n = n_targets + 1
    if zeemans is None:
        zeemans = 1.0 + 0.9 * rng.random(n)
    if t_sq is None:
        t_sq = 0.72 + 0.2 * rng.random(n_targets)
    dots = [Dot(j, float(e)) for j, e in enumerate(zeemans)]
    bonds = [
        make_bond(0, j + 1, j_scale * (1.0 + rng.random()), float(t_sq[j]))
        for j in range(n_targets)
    ]
    return DotArray(dots, bonds)


def chain_array(n_dots, j_scale=1e-3, t_sq=0.8, zeemans=None, rng=None):
    """Open chain 0-1-...-(n-1) with homogeneous bonds."""
    rng = rng or np.random.default_rng(1)
    if zeemans is None:
        zeemans = 1.0 + 0.9 * rng.random(n_dots)
    dots = [Dot(j, float(e)) for j, e in enumerate(zeemans)]
    bonds = [make_bond(j, j + 1, j_scale, t_sq) for j in range(n_dots - 1)]
    return DotArray(dots, bonds)


def least_total(phi, vel):
    """T*, the least total time of any schedule: the largest over the bonds
    of the distance to the lattice ``phi + pi Z`` over the speed."""
    gap = np.abs(np.remainder(np.asarray(phi) + 0.5 * np.pi, np.pi) - 0.5 * np.pi)
    return float(np.max(gap / np.abs(vel), initial=0.0))


def random_connected_array(rng, n_dots, j_scale=1e-3):
    """Random spanning tree plus one extra edge when it fits."""
    zeemans = 1.0 + 0.9 * rng.random(n_dots)
    dots = [Dot(j, float(e)) for j, e in enumerate(zeemans)]
    edges = set()
    for j in range(1, n_dots):
        k = int(rng.integers(0, j))
        edges.add((k, j))
    attempts = 0
    while len(edges) < n_dots and attempts < 20:
        a, b = rng.choice(n_dots, size=2, replace=False)
        edges.add((min(a, b), max(a, b)))
        attempts += 1
    bonds = [
        make_bond(j, k, j_scale * (0.6 + rng.random()), 0.7 + 0.25 * rng.random())
        for j, k in sorted(edges)
    ]
    return DotArray(dots, bonds)


def reversal_signs_brute_force(n_qubits: int, tol: float = 1e-9) -> np.ndarray:
    """Signs p(a) extracted from the dense reversal matrix: the oracle of
    ``consecutive_ones_parity``.

    Verifies that |R| is exactly the bit-reversal permutation with entries
    in {0, +-1} before reading off the signs.
    """
    r = order_reversal(n_qubits)
    dim = r.shape[0]
    signs = np.zeros(dim)
    for a in range(dim):
        col = r[:, a]
        rev = int(format(a, f"0{n_qubits}b")[::-1], 2)
        value = col[rev]
        rest = np.delete(np.abs(col), rev)
        if np.max(rest) > tol or abs(abs(value) - 1.0) > tol:
            raise AssertionError("reversal matrix is not a signed permutation")
        if abs(value.imag) > tol:
            raise AssertionError("reversal signs are not real")
        signs[a] = np.sign(value.real)
    return signs


@dataclass(frozen=True)
class AssignmentEnumeration:
    """Distinct bond-sign vectors reachable by flipping dot subsets."""

    vectors: tuple[tuple[int, ...], ...]
    representatives: tuple[frozenset[int], ...]
    n_distinct: int
    n_bonds: int


# Most dots whose 2^N X-subsets ``assignment_vectors`` enumerates.  Its sign
# table holds 2^N x bonds entries: 16 fully connected dots (120 bonds) took
# 1.4 s and 310 MB of peak memory.
ENUMERATION_MAX_DOTS = 16


def assignment_vectors(array):
    """Enumerate all X-subset assignments and their distinct sign vectors:
    the oracle of the spanning theorem the stage solver relies on.

    Each vector's representative is its first subset in the order of
    ``sum(2^j for j in subset)``.

    The vectors always span the bond space positively, so nonnegative
    stage durations exist for any right-hand side.  Bond (j, k) has sign
    ``(-1)^(b_j + b_k)`` in the frame with X-mask b: the Walsh function of
    the mask with bits j and k set.  ``DotArray`` forces j < k and forbids
    duplicate bonds, so distinct bonds have distinct Walsh functions.
    Distinct Walsh functions are orthogonal over the 2^N masks, so the
    sign table, and with it the set of distinct vectors, has rank equal to
    the bond count.  None of these Walsh functions is the constant one
    (j != k), so each sums to 0 over all masks, and the distinct vectors
    weighted by their multiplicities (all > 0) sum to 0.  That puts every
    -v in the cone of the vectors, so their positive span equals their
    linear span.  An array of more than ``ENUMERATION_MAX_DOTS`` dots
    raises ``ValueError``.
    """
    n = array.n_dots
    if n > ENUMERATION_MAX_DOTS:
        raise ValueError(f"enumeration over 2^{n} subsets exceeds the limit")
    # reversing the bits of subset index i gives its X-mask (dot j at bit i_j)
    masks = bit_table(n) @ (1 << np.arange(n))
    table, first = np.unique(bond_signs(array, masks), axis=0, return_index=True)
    vectors = tuple(tuple(int(v) for v in row) for row in table[::-1])
    reps = tuple(frozenset(j for j in range(n) if (i >> j) & 1) for i in first[::-1].tolist())
    return AssignmentEnumeration(
        vectors=vectors,
        representatives=reps,
        n_distinct=len(vectors),
        n_bonds=array.n_bonds,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
