from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

import treeshift as ts
from treeshift._util import stable_rng
from treeshift.errors import SupportOverflow

from conftest import oracle_left_inverse_matrix, oracle_shift_matrix


def test_shift_on_two_ray_root(t2_shift, t2):
    S, _ = t2_shift
    tree, _ = t2
    sf = ts.apply_shift(S, ts.L2Vector.basis(tree, (0, 0)))
    assert sf[(1, 1)] == pytest.approx(1.0)
    assert sf[(2, 1)] == pytest.approx(0.5)
    assert sf.norm() ** 2 == pytest.approx(1.25)


def test_shift_zero_and_overflow(t2_shift, t2):
    S, _ = t2_shift
    tree, _ = t2
    z = ts.apply_shift(S, ts.L2Vector.zero(tree))
    assert z.norm() == 0.0
    with pytest.raises(SupportOverflow):
        ts.apply_shift(S, ts.L2Vector.basis(tree, (1, tree.depth)))


def test_t4_isometry_norm(t4_shift, t4_depth2):
    S, _ = t4_shift
    tree, _ = t4_depth2
    sf = ts.apply_shift(S, ts.L2Vector.basis(tree, (0, 0)))
    assert sf.norm() ** 2 == pytest.approx(1.0, abs=1e-14)


def test_adjoint_examples(t2_shift, t2):
    S, _ = t2_shift
    tree, _ = t2
    # brute-force oracle: adjoint of the dense matrix
    smat = oracle_shift_matrix(tree, S.weights)
    e11 = ts.L2Vector.basis(tree, (1, 1))
    got = ts.apply_adjoint(S, e11)
    want = smat.conj().T @ e11.data
    assert np.linalg.norm(got.data - want) < 1e-14
    assert got[(0, 0)] == pytest.approx(1.0)
    assert ts.apply_adjoint(S, ts.L2Vector.basis(tree, (0, 0))).norm() == 0.0
    kernel_vec = ts.L2Vector.from_dict(tree, {(1, 1): 0.5, (2, 1): -1.0})
    assert ts.apply_adjoint(S, kernel_vec).norm() < 1e-14


@given(seed=st.integers(0, 500))
def test_adjoint_pairing_random(seed):
    tree, weights = ts.generate_random_tree(6, 3, seed % 7)
    S = ts.ShiftOperator(tree, weights)
    rng = stable_rng(seed, "pairing")
    f = ts.L2Vector.random(tree, tree.depth - 1, rng)
    g = ts.L2Vector.random(tree, tree.depth, rng)
    lhs = ts.apply_shift(S, f).inner(g)
    rhs = f.inner(ts.apply_adjoint(S, g))
    assert abs(lhs - rhs) < 1e-12


def test_left_inverse_two_ray(t2_shift, t2):
    S, _ = t2_shift
    tree, _ = t2
    le11 = ts.apply_left_inverse(S, ts.L2Vector.basis(tree, (1, 1)))
    assert le11[(0, 0)] == pytest.approx(0.8)
    le21 = ts.apply_left_inverse(S, ts.L2Vector.basis(tree, (2, 1)))
    assert le21[(0, 0)] == pytest.approx(0.4)
    f = ts.L2Vector.basis(tree, (0, 0))
    assert (ts.apply_left_inverse(S, ts.apply_shift(S, f)) - f).norm() < 1e-15


def test_left_inverse_matches_pseudoinverse(t2, t4_depth2, random_tree_batch):
    for tree, weights in [t2, t4_depth2] + random_tree_batch[:2]:
        S = ts.ShiftOperator(tree, weights)
        eye = np.eye(tree.n_vertices, dtype=np.complex128)
        lmat = np.column_stack([ts.apply_left_inverse(S, ts.L2Vector(tree, e)).data
                                for e in eye])
        want = oracle_left_inverse_matrix(tree, weights)
        assert np.linalg.norm(lmat - want) < 1e-12


def test_kernel_basis_two_ray(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    assert basis.dim == 2
    assert list(basis.gen_index) == [0, 1]
    scale = np.sqrt(1.25)
    expected = ts.L2Vector.from_dict(tree, {(1, 1): 0.5 / scale, (2, 1): -1.0 / scale})
    got = basis.vector(1)
    assert min((got - expected).norm(), (got + expected).norm()) < 1e-14
    assert (basis.vector(0) - ts.L2Vector.basis(tree, (0, 0))).norm() == 0.0


def test_kernel_basis_matches_null_space(t4_depth2, random_tree_batch):
    # oracle: null space of the dense adjoint matrix
    for tree, weights in [t4_depth2] + random_tree_batch[:2]:
        S = ts.ShiftOperator(tree, weights)
        basis = ts.separated_kernel_basis(S)
        smat = oracle_shift_matrix(tree, weights)
        null = scipy.linalg.null_space(smat.conj().T)
        assert null.shape[1] == basis.dim
        # every basis vector annihilated by S*, orthonormal, single generation
        mat = basis._coords_array(np.eye(tree.n_vertices))
        gram = mat @ mat.T
        assert np.linalg.norm(gram - np.eye(basis.dim)) < 1e-12
        for j in range(basis.dim):
            v = basis.vector(j)
            assert np.linalg.norm(smat.conj().T @ v.data) < 1e-12
            gens = {tree.generation[u] for u in v.as_dict()}
            assert gens == {int(basis.gen_index[j])}


def gram_schmidt_kernel_rows(S):
    """Reference kernel basis, one sibling block at a time, by Gram-Schmidt.

    For the children v_0, ..., v_{k-1} of each vertex in vertex order, the
    differences lambda_t e_{v_0} - lambda_0 e_{v_t} (t >= 1) are orthogonalised
    twice against the earlier vectors of the block and normalised; the root
    indicator comes first.
    """
    tree = S.tree
    rows = [np.eye(1, tree.n_vertices, tree.index[tree.root])[0]]
    for u in tree.vertices:
        kids = tree.children[u]
        idxs = [tree.index[v] for v in kids]
        lam = np.array([S.weights[v] for v in kids])
        block = []
        for t in range(1, len(kids)):
            d = np.zeros(len(kids))
            d[0], d[t] = lam[t], -lam[0]
            for _ in range(2):
                for b in block:
                    d -= np.dot(b, d) * b
            d /= np.linalg.norm(d)
            block.append(d)
            row = np.zeros(tree.n_vertices)
            row[idxs] = d
            rows.append(row)
    return np.array(rows)


def test_closed_form_basis_matches_gram_schmidt(t2, t4_depth2, chain, random_tree_batch):
    root_only = ts.generate_example("UNILATERAL", 0, [])
    rng = stable_rng(40, "closed-form")
    for tree, weights in [t2, t4_depth2, chain, root_only] + random_tree_batch:
        S = ts.ShiftOperator(tree, weights)
        basis = ts.separated_kernel_basis(S)
        mat = basis._coords_array(np.eye(tree.n_vertices))
        assert mat.shape == (basis.dim, tree.n_vertices)
        assert np.abs(mat - gram_schmidt_kernel_rows(S)).max() <= 1e-15
        for j in range(basis.dim):
            assert np.array_equal(basis.vector(j).data, mat[j])
        for cols in ((), (3,)):
            x = rng.standard_normal((tree.n_vertices,) + cols) + 1j * rng.standard_normal(
                (tree.n_vertices,) + cols)
            c = rng.standard_normal((basis.dim,) + cols) + 1j * rng.standard_normal(
                (basis.dim,) + cols)
            assert np.abs(basis._coords_array(x) - mat @ x).max() <= 1e-15 * np.linalg.norm(x)
            assert (np.abs(basis._from_coords_array(c) - mat.T @ c).max()
                    <= 1e-15 * np.linalg.norm(c))


def test_kernel_dimension_count(t4_depth2):
    tree, weights = t4_depth2
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    expected = 1 + sum(len(tree.children[u]) - 1
                       for u in tree.vertices if tree.children[u])
    assert basis.dim == expected == 64


def test_chain_kernel_is_root_only(chain_shift):
    S, basis = chain_shift
    assert basis.dim == 1
    assert basis.vector(0)[(0, 0)] == pytest.approx(1.0)


def test_projection_identities(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    rng = stable_rng(11, "proj")
    smat = oracle_shift_matrix(tree, S.weights)
    lmat = oracle_left_inverse_matrix(tree, S.weights)
    pmat = np.eye(tree.n_vertices) - smat @ lmat
    for _ in range(20):
        f = ts.L2Vector.random(tree, tree.depth, rng)
        p = ts.project_kernel(S, basis, f)
        assert np.linalg.norm(p.data - pmat @ f.data) < 1e-12
        again = ts.project_kernel(S, basis, p)
        assert (again - p).norm() < 1e-12
        g = ts.L2Vector.random(tree, tree.depth, rng)
        assert abs(p.inner(g) - f.inner(ts.project_kernel(S, basis, g))) < 1e-12
    v = basis.vector(1)
    assert (ts.project_kernel(S, basis, v) - v).norm() < 1e-14


def test_left_inverse_kills_kernel(t2_shift, t4_shift):
    for S, basis in (t2_shift, t4_shift):
        for j in range(basis.dim):
            assert ts.apply_left_inverse(S, basis.vector(j)).norm() < 1e-13


def test_is_balanced(t2_shift, t4_shift):
    S2, _ = t2_shift
    ok, witness = ts.is_balanced(S2)
    assert not ok
    u, v = witness
    assert {S2.tree.generation[u]} == {S2.tree.generation[v]}
    n_u = np.sqrt(S2.norm_squares[u])
    n_v = np.sqrt(S2.norm_squares[v])
    assert abs(n_u - n_v) > 0.4
    S4, _ = t4_shift
    assert ts.is_balanced(S4) == (True, None)
    chain, wc = ts.generate_example("UNILATERAL", 2, [1.0, 2.0])
    assert ts.is_balanced(ts.ShiftOperator(chain, wc))[0]


def test_gram_diagonal(t2_shift, t2):
    S, _ = t2_shift
    tree, _ = t2
    rng = stable_rng(12, "gram")
    f = ts.L2Vector.random(tree, tree.depth - 1, rng)
    lhs = ts.apply_adjoint(S, ts.apply_shift(S, f))
    diag = np.zeros(tree.n_vertices)
    for u, val in S.norm_squares.items():
        diag[tree.index[u]] = val
    assert np.linalg.norm(lhs.data - diag * f.data) < 1e-13


def test_lower_bound(t2_shift):
    S, _ = t2_shift
    assert S.lower_bound == pytest.approx(0.5)
    assert S.norm_upper == pytest.approx(np.sqrt(1.25))


def _loop_shift_arrays(tree, weights):
    """The shift's cached arrays filled vertex by vertex, skipping the root: the oracle."""
    n = tree.n_vertices
    child_idx = np.empty(max(n - 1, 0), dtype=np.intp)
    parent_idx = np.empty_like(child_idx)
    wvec = np.empty(child_idx.shape[0], dtype=np.float64)
    pos = 0
    for v in tree.vertices:
        if v == tree.root:
            continue
        child_idx[pos] = tree.index[v]
        parent_idx[pos] = tree.index[tree.parent[v]]
        wvec[pos] = weights[v]
        pos += 1
    ns = np.zeros(n, dtype=np.float64)
    np.add.at(ns, parent_idx, wvec ** 2)
    norm_squares = {u: float(ns[tree.index[u]]) for u in tree.vertices if tree.children[u]}
    internal = [ns[tree.index[u]] for u in tree.vertices if tree.children[u]]
    lower_bound = float(np.sqrt(min(internal))) if internal else 0.0
    return child_idx, parent_idx, wvec, ns, norm_squares, lower_bound


def test_shift_arrays_match_vertex_loop(t2, t4_depth2):
    cases = [t2, t4_depth2, ts.generate_random_tree(7, 3, 5),
             ts.generate_example("UNILATERAL", 0, [])]
    for tree, weights in cases:
        S = ts.ShiftOperator(tree, weights)
        child_idx, parent_idx, wvec, ns, norm_squares, lower_bound = _loop_shift_arrays(
            tree, weights)
        # the kernels read the children as the slice [1:] of the vertex order
        assert np.array_equal(child_idx, np.arange(1, tree.n_vertices))
        for got, want in ((S._parent_idx, parent_idx), (S._wvec, wvec), (S._ns, ns)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert list(S.norm_squares.items()) == list(norm_squares.items())
        assert S.lower_bound == lower_bound
        assert S._n_internal == len(norm_squares)


def test_l2vector_basics(t2):
    tree, _ = t2
    f = ts.L2Vector.from_dict(tree, {(1, 1): 1 + 2j, (2, 3): -0.5})
    assert f[(1, 1)] == 1 + 2j
    assert f.support_depth() == 3
    assert f.as_dict() == {(1, 1): 1 + 2j, (2, 3): -0.5}
    g = 2.0 * f - f
    assert (g - f).norm() == 0.0
    assert f.inner(f) == pytest.approx(abs(1 + 2j) ** 2 + 0.25)
    z = ts.L2Vector.zero(tree)
    assert z.support_depth() == -1
    h = f.copy()
    h.data[0] = 9.0
    assert f[(0, 0)] == 0.0


def test_trivial_tree_not_left_invertible():
    tree, weights = ts.generate_example("UNILATERAL", 0, [])
    S = ts.ShiftOperator(tree, weights)
    assert S.lower_bound == 0.0
    with pytest.raises(ts.errors.NotLeftInvertible):
        ts.apply_left_inverse(S, ts.L2Vector.zero(tree))
    with pytest.raises(ts.errors.NotLeftInvertible):
        ts.spectral_radius_estimate(S)


def test_two_ray_shift_orbits(t2_shift, t2):
    # orbits: S^k e_00 = e_(1,k) + a^k e_(2,k); the pair vector shifts to
    # a e_(1,k+1) - a^k e_(2,k+1)
    S, _ = t2_shift
    tree, _ = t2
    alpha = 0.5
    root_orbit = ts.L2Vector.basis(tree, (0, 0))
    pair_orbit = ts.L2Vector.from_dict(tree, {(1, 1): alpha, (2, 1): -1.0})
    for k in range(1, 6):
        root_orbit = ts.apply_shift(S, root_orbit)
        want = ts.L2Vector.from_dict(tree, {(1, k): 1.0, (2, k): alpha ** k})
        assert (root_orbit - want).norm() < 1e-14
        pair_orbit = ts.apply_shift(S, pair_orbit)
        want2 = ts.L2Vector.from_dict(
            tree, {(1, k + 1): alpha, (2, k + 1): -alpha ** k})
        assert (pair_orbit - want2).norm() < 1e-14


def test_two_ray_left_inverse_display(t2_shift, t2):
    # full closed form of L^n f on both rays and at the root
    S, _ = t2_shift
    tree, _ = t2
    alpha = 0.5
    rng = stable_rng(21, "ln-display")
    f = ts.L2Vector.random(tree, tree.depth, rng)
    g = f
    for n in range(1, 6):
        g = ts.apply_left_inverse(S, g)
        root_want = (f[(1, n)] + alpha ** (2 - n) * f[(2, n)]) / (alpha ** 2 + 1)
        assert abs(g[(0, 0)] - root_want) < 1e-12
        for k in range(1, tree.depth - n + 1):
            assert abs(g[(1, k)] - f[(1, k + n)]) < 1e-12
            assert abs(g[(2, k)] - f[(2, k + n)] / alpha ** n) < 1e-9 * max(
                1.0, abs(f[(2, k + n)] / alpha ** n))
