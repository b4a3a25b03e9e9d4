"""Computational-basis conventions and angle arithmetic.

The whole package indexes the 2^N computational basis with qubit 0 as the
most significant bit.  Bit value 0 corresponds to the spin-up state (the
+epsilon_Z/2 eigenstate of sigma^Z), so the first half of any diagonal
vector is the block where qubit 0 points up.

Phases are angular quantities; equality is always modular.  ``wrap_2pi``
canonicalizes to [0, 2pi), ``wrap_pm_pi`` folds to (-pi, pi], and the
``circular_distance`` helpers measure modular deviations.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def bit_of(index, qubit: int, n_qubits: int):
    """Bit of ``qubit`` (0 = most significant) in basis index ``index``."""
    return (np.asarray(index) >> (n_qubits - 1 - qubit)) & 1


def bit_table(n_qubits: int) -> np.ndarray:
    """(2^N, N) array of bits for every basis index, qubit 0 first."""
    idx = np.arange(1 << n_qubits)
    return np.stack(
        [bit_of(idx, j, n_qubits) for j in range(n_qubits)], axis=1
    ).astype(np.int64)


def pair_view(values: np.ndarray, j: int, k: int) -> np.ndarray:
    """The 2^N vector ``values`` seen with qubit j on axis 0, qubit k on
    axis 1 and the other qubits after them in order: entry ``[b_j, b_k]`` is
    the block of basis states with those two bits, aligned by the spectator
    bits.  A writeable view of the ``(2,) * N`` view, where axis q is qubit
    q; the one map that places a pair term in the 2^N basis."""
    n = values.shape[0].bit_length() - 1
    spectators = [q for q in range(n) if q != j and q != k]
    return values.reshape((2,) * n).transpose([j, k, *spectators])


def single_bit_index(qubit: int, n_qubits: int) -> int:
    """Basis index with only ``qubit`` excited (bit set)."""
    return 1 << (n_qubits - 1 - qubit)


def wrap_2pi(angles):
    """Canonicalize angles into [0, 2pi)."""
    wrapped = np.mod(angles, TWO_PI)
    # np.mod can return TWO_PI for inputs just below 0 due to rounding.
    return np.where(wrapped >= TWO_PI, wrapped - TWO_PI, wrapped)


def wrap_pm_pi(angles):
    """Fold angles into (-pi, pi]."""
    wrapped = np.mod(np.asarray(angles, dtype=float) + np.pi, TWO_PI) - np.pi
    return np.where(wrapped <= -np.pi, wrapped + TWO_PI, wrapped)


def circular_distance(a, b, modulus: float = TWO_PI):
    """Shortest distance between angles ``a`` and ``b`` modulo ``modulus``."""
    delta = np.mod(np.asarray(a, dtype=float) - b, modulus)
    return np.minimum(delta, modulus - delta)
