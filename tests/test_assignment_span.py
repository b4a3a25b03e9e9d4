"""The X-subset sign vectors span the bond space, linearly and positively.

``assignment_vectors`` proves both facts in its docstring instead of
checking them.  The oracle here is the numerical check it no longer runs:
the rank of the distinct vectors, and one HiGHS feasibility LP per signed
unit vector of the bond space.
"""

from itertools import combinations

import numpy as np
import pytest
import scipy.optimize

from dotgates import Dot, DotArray
from dotgates.calibrate import bond_signs

from conftest import assignment_vectors, make_bond


def linearly_spans(enum) -> bool:
    """Whether the distinct vectors have full rank in the bond space."""
    if not enum.n_bonds:
        return True
    return np.linalg.matrix_rank(np.array(enum.vectors, dtype=float)) == enum.n_bonds


def positively_spans(enum) -> bool:
    """Whether nonnegative combinations of the distinct vectors reach every
    signed unit vector, and with it the whole bond space."""
    mat = np.array(enum.vectors, dtype=float).T
    for i in range(enum.n_bonds):
        for sign in (1.0, -1.0):
            target = np.zeros(enum.n_bonds)
            target[i] = sign
            res = scipy.optimize.linprog(
                np.zeros(mat.shape[1]),
                A_eq=mat,
                b_eq=target,
                bounds=[(0, None)] * mat.shape[1],
                method="highs",
            )
            if not res.success:
                return False
    return True


def graph_edges(kind, n, rng):
    if kind == "chain":
        return [(j, j + 1) for j in range(n - 1)]
    if kind == "star":
        return [(0, k) for k in range(1, n)]
    if kind == "tree":
        return [(int(rng.integers(0, k)), k) for k in range(1, n)]
    if kind == "complete":
        return list(combinations(range(n), 2))
    if kind == "bondless":
        return []
    if kind == "disconnected":  # no bond joins the two halves
        half = n // 2
        pairs = combinations(range(n), 2)
        return [(j, k) for j, k in pairs if (j < half) == (k < half) and rng.random() < 0.7]
    # random: each pair bonded with one probability drawn per graph
    density = rng.random()
    return [pair for pair in combinations(range(n), 2) if rng.random() < density]


def graph(kind, n, seed):
    rng = np.random.default_rng(seed)
    dots = [Dot(j, 1.0 + 0.1 * j) for j in range(n)]
    edges = graph_edges(kind, n, rng)
    return DotArray(dots, [make_bond(j, k, 1e-3, 0.7 + 0.25 * rng.random()) for j, k in edges])


KINDS = ["chain", "star", "tree", "complete", "bondless", "disconnected"]


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("kind", KINDS)
def test_vectors_span_positively(kind, n):
    enum = assignment_vectors(graph(kind, n, seed=n))
    assert linearly_spans(enum)
    assert positively_spans(enum)


@pytest.mark.parametrize("n", range(2, 8))
def test_random_graphs_span_positively(n):
    for seed in range(8):
        enum = assignment_vectors(graph("random", n, seed=100 * n + seed))
        assert linearly_spans(enum)
        assert positively_spans(enum)


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("kind", KINDS + ["random"])
def test_sign_table_columns_are_orthogonal_and_balanced(kind, n):
    # the two facts the proof rests on: distinct bonds' signs are orthogonal
    # over all 2^N frames, and each bond's signs sum to zero
    array = graph(kind, n, seed=n)
    table = bond_signs(array, np.arange(1 << n))
    assert np.array_equal(table.T @ table, (1 << n) * np.eye(array.n_bonds, dtype=int))
    assert not table.sum(axis=0).any()
