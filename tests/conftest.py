"""Shared fixtures: example trees, independently built dense oracles."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import treeshift as ts

settings.register_profile("slowio", deadline=None, max_examples=40)
settings.load_profile("slowio")


def oracle_shift_matrix(tree: ts.Tree, weights: ts.WeightMap) -> np.ndarray:
    """Dense shift matrix assembled vertex by vertex from the tree structure.

    Kept independent of the library's cached index arrays so matrix identities
    are checked against a second construction.
    """
    n = tree.n_vertices
    out = np.zeros((n, n), dtype=np.complex128)
    for u in tree.vertices:
        for v in tree.children[u]:
            out[tree.index[v], tree.index[u]] = weights[v]
    return out


def oracle_left_inverse_matrix(tree: ts.Tree, weights: ts.WeightMap) -> np.ndarray:
    """(S* S)^(-1) S* assembled densely; the pseudo-inverse route."""
    smat = oracle_shift_matrix(tree, weights)
    gram = smat.conj().T @ smat
    diag = np.diag(gram).copy()
    inv = np.zeros_like(diag)
    inv[diag > 0] = 1.0 / diag[diag > 0]
    return np.diag(inv) @ smat.conj().T


def oracle_lambda_product(tree: ts.Tree, weights: ts.WeightMap, u, v) -> float:
    """Product of the weights along the ancestor chain from v up to, excluding, u.

    1.0 when u == v (the empty product) and 0.0 when u is not an ancestor of
    v: the weight that e_u carries to v under the scalar multiplier.
    """
    prod = 1.0
    while v != u:
        if v == tree.root:
            return 0.0
        prod *= weights[v]
        v = tree.parent[v]
    return prod


@pytest.fixture(scope="session")
def t2():
    tree, weights = ts.generate_example("T2", 14, [0.5])
    return tree, weights


@pytest.fixture(scope="session")
def t2_shift(t2):
    tree, weights = t2
    S = ts.ShiftOperator(tree, weights)
    return S, ts.separated_kernel_basis(S)


@pytest.fixture(scope="session")
def chain():
    tree, weights = ts.generate_example("UNILATERAL", 12, [1.0] * 12)
    return tree, weights


@pytest.fixture(scope="session")
def chain_shift(chain):
    tree, weights = chain
    S = ts.ShiftOperator(tree, weights)
    return S, ts.separated_kernel_basis(S)


@pytest.fixture(scope="session")
def t4_depth2():
    tree, weights = ts.generate_example("T4", 2, [])
    return tree, weights


@pytest.fixture(scope="session")
def t4_shift(t4_depth2):
    tree, weights = t4_depth2
    S = ts.ShiftOperator(tree, weights)
    return S, ts.separated_kernel_basis(S)


@pytest.fixture(scope="session")
def random_tree_batch():
    return [ts.generate_random_tree(8, 3, seed) for seed in range(5)]
