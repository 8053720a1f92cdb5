"""Operators as block maps, the convolution-law buffers and the one memory budget.

The commutant routines take an operator as a map on vectors (n,) and blocks
(n, m).  The shift powers the CLI passes must be the dense matrices bit for
bit, and the law trials, which now fill buffers allocated once, must give the
residuals of the per-trial loop they replace.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import treeshift as ts
from treeshift import _util, cli
from treeshift import multiplier as mul
from treeshift import shift as sh
from treeshift._util import stable_rng, worst_of
from treeshift.errors import DepthTooLargeForMemory, NotInCommutant

from conftest import oracle_left_inverse_matrix, oracle_shift_matrix


def _acceptance_trees():
    """The tree battery of the acceptance tests, and generate_random_tree(10, 3, 5)."""
    trees = {
        "two-ray": ts.generate_example("T2", 14, [0.5]),
        "chain": ts.generate_example("UNILATERAL", 12, [1.0] * 12),
        "quartic-d2": ts.generate_example("T4", 2, []),
        "random-10-3-5": ts.generate_random_tree(10, 3, 5),
    }
    for seed in range(3):
        trees[f"random-{seed}"] = ts.generate_random_tree(8, 3, seed)
    out = []
    for label, (tree, weights) in trees.items():
        S = ts.ShiftOperator(tree, weights)
        out.append(pytest.param(S, ts.separated_kernel_basis(S), id=label))
    return out


TREES = _acceptance_trees()


def _operators(S):
    """(name, block map, dense matrix) for S, S^2 and a random polynomial in S."""
    smat = oracle_shift_matrix(S.tree, S.weights)
    coeffs = stable_rng(40, "block-map-poly").standard_normal(4)
    poly = sum(c * np.linalg.matrix_power(smat, k) for k, c in enumerate(coeffs))
    return [("S", sh._shift_power_map(S, 1), smat),
            ("S2", sh._shift_power_map(S, 2), smat @ smat),
            ("poly", lambda x: poly @ x, poly)]


@pytest.mark.parametrize("S, basis", TREES)
def test_shift_power_maps_are_the_dense_products(S, basis):
    n = S.tree.n_vertices
    rng = stable_rng(41, "block-map-input")
    block = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
    kernel = basis._from_coords_array(np.eye(basis.dim, dtype=np.complex128))
    for name, amap, dense in _operators(S)[:2]:
        for x in (block, block[:, 0], kernel, np.eye(n)):
            assert np.array_equal(amap(x), dense @ x), name


@pytest.mark.parametrize("S, basis", TREES)
def test_block_map_symbol_and_commutant_match_dense(S, basis):
    tree = S.tree
    for name, amap, dense in _operators(S):
        by_map, by_dense = mul.extract_symbol(S, basis, amap), mul.extract_symbol(S, basis, dense)
        assert np.array_equal(by_map.mats, by_dense.mats), name
        assert by_map.exact_to == by_dense.exact_to, name
        r_A = mul.generation_raise(tree, dense)
        if tree.depth - 1 - r_A < 0:
            continue
        # the commutant lhs is the coefficient pass of A applied to these trial vectors
        fs = sh._random_block(tree, tree.depth - 1 - r_A,
                              (stable_rng(3, f"commutant-{t}") for t in range(5)))
        assert np.array_equal(amap(fs), dense @ fs), name
        rep_map = mul.commutant_check(S, basis, amap, trials=5, seed=3)
        rep_dense = mul.commutant_check(S, basis, dense, trials=5, seed=3)
        assert rep_map.max_residual == rep_dense.max_residual, name
        assert rep_map.details == rep_dense.details, name


@pytest.mark.parametrize("S, basis", TREES)
def test_generation_raise_of_a_map_equals_its_dense_matrix(S, basis):
    tree = S.tree
    gens = np.array([tree.generation[v] for v in tree.vertices])
    left = oracle_left_inverse_matrix(tree, S.weights)
    cases = [(name, amap, dense) for name, amap, dense in _operators(S)]
    cases += [("L", lambda x: sh._left_inverse_array(S, x), left),
              ("root", cli._root_projection, np.diag(np.eye(tree.n_vertices)[0])),
              ("zero", np.zeros_like, np.zeros((tree.n_vertices,) * 2))]
    for name, amap, dense in cases:
        rows, cols = np.nonzero(np.abs(dense) > 0)
        sparsity = int(np.max(gens[rows] - gens[cols])) if rows.size else 0
        assert mul.generation_raise(tree, amap) == sparsity, name
        assert mul.generation_raise(tree, dense) == sparsity, name


def _cauchy_loop(a, b):
    """The operator Cauchy product as convolve took it, one fresh product per term."""
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:], dtype=np.complex128)
    for j in range(len(a)):
        for k in range(len(b)):
            out[j + k] += a[j] @ b[k]
    return out


def _law_trials_loop(dim, rng, trials):
    """The per-trial loop of the multiplier-algebra suite, fresh symbols each trial."""
    worst_unit = worst_assoc = worst_comm = 0.0
    for _ in range(trials):
        a = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
        b = rng.standard_normal((4, dim, dim)) + 1j * rng.standard_normal((4, dim, dim))
        c = rng.standard_normal((2, dim, dim)) + 1j * rng.standard_normal((2, dim, dim))
        au = _cauchy_loop(a, mul.unit_symbol(dim).mats)
        worst_unit = worst_of(worst_unit, float(np.linalg.norm(au[:len(a)] - a)))
        one = _cauchy_loop(_cauchy_loop(a, b), c)
        two = _cauchy_loop(a, _cauchy_loop(b, c))
        worst_assoc = worst_of(worst_assoc, float(np.linalg.norm(one - two)))
        sa = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        worst_comm = worst_of(worst_comm, float(np.linalg.norm(
            np.convolve(sa, sb) - np.convolve(sb, sa))))
    return worst_unit, worst_assoc, worst_comm


@pytest.mark.parametrize("dim, trials", [(8, 4), (120, 2)])
def test_law_trials_in_reused_buffers_match_the_loop(dim, trials):
    got = mul._convolution_law_trials(dim, stable_rng(0, "mult-algebra"), trials)
    want = _law_trials_loop(dim, stable_rng(0, "mult-algebra"), trials)
    assert got == want
    assert got[1] > 0.0
    a, b = (mul.OpSymbol(stable_rng(1, label).standard_normal((n, dim, dim))) for label, n in
            (("a", 3), ("b", 2)))
    assert np.array_equal(mul.convolve(a, b).mats, _cauchy_loop(a.mats, b.mats))


def test_law_trials_hold_25_dense_matrices():
    # a, b, c 9, unit 1, pair 6, one 7, two 1, tmp 1: the draws run through
    # `one`, and a * (b * c) is taken one index at a time
    dim = 120
    tracemalloc.start()
    try:
        mul._convolution_law_trials(dim, stable_rng(0, "mult-algebra"), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25.5 * 16 * dim * dim


def test_law_trials_refuse_above_the_memory_budget(monkeypatch):
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 25 * 8 * 8)
    mul._convolution_law_trials(8, stable_rng(0, "budget"), 1)
    with pytest.raises(DepthTooLargeForMemory, match="kernel dimension 9"):
        mul._convolution_law_trials(9, stable_rng(0, "budget"), 1)


def test_one_budget_guards_kernel_matrix_and_the_suite(t2_shift, monkeypatch):
    S, basis = t2_shift
    rho = ts.spectral_radius_estimate(S).estimate
    ts.kernel_matrix(S, basis, 0.0, 0.0, order=3, rho=rho)
    # 29 vertices times a 2-dimensional kernel: 58 entries of kernel stacks
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 50)
    with pytest.raises(DepthTooLargeForMemory):
        ts.kernel_matrix(S, basis, 0.0, 0.0, order=3, rho=rho)
    # T2's kernel is 2-dimensional: 144 entries of law-trial buffers
    report = cli.run(cli.RunConfig(suites=("multiplier-algebra",)))
    [rec] = report.records
    assert rec.law == "suite execution"
    assert rec.witness.startswith("DepthTooLargeForMemory: convolution-law trials")


@pytest.mark.parametrize("S, basis", TREES)
def test_chunked_unit_column_walk_matches_one_block(S, basis, monkeypatch):
    tree = S.tree
    shift = sh._shift_power_map(S, 1)
    cases = _operators(S) + [("root", cli._root_projection, None)]
    whole = [mul._unit_column_walk(tree, amap, shift) for _, amap, _ in cases]
    # three unit columns a block
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 3 * tree.n_vertices)
    for (name, amap, _), (r_A, norm) in zip(cases, whole):
        blocks = []

        def counted(x, amap=amap):
            blocks.append(x.shape[1])
            return amap(x)

        got_r, got_norm = mul._unit_column_walk(tree, counted, shift)
        assert max(blocks) == 3 and sum(blocks) == 2 * tree.n_vertices, name
        assert got_r == r_A == mul.generation_raise(tree, amap), name
        assert abs(got_norm - norm) <= 1e-14 * max(1.0, norm), name


def test_symbol_refuses_above_the_memory_budget(t2_shift, monkeypatch):
    S, basis = t2_shift
    # depth 14 and a 2-dimensional kernel on 29 vertices: 15 * 4 + 29 * 2 entries
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 118)
    mul.extract_symbol(S, basis, sh._shift_power_map(S, 1))
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 117)
    walks = []
    monkeypatch.setattr(mul, "_unit_column_walk",
                        lambda *args, walk=mul._unit_column_walk: walks.append(1) or walk(*args))
    # extract_symbol refuses before it walks the unit columns; commutant_check
    # walks first, so that an operator off the commutant is named as such
    for check, n_walks in ((mul.extract_symbol, 0), (mul.commutant_check, 1)):
        walks.clear()
        with pytest.raises(DepthTooLargeForMemory, match="kernel dimension 2 and depth 14"):
            check(S, basis, sh._shift_power_map(S, 2))
        assert len(walks) == n_walks
    with pytest.raises(NotInCommutant):
        mul.commutant_check(S, basis, cli._root_projection)
