from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import treeshift as ts
from treeshift._util import stable_rng
from treeshift.errors import (
    DepthTooLargeForMemory,
    Inconsistent,
    OutsideDisc,
    PreconditionFailed,
    SupportOverflow,
)
from treeshift.shift import _left_inverse_adjoint_array

from conftest import oracle_left_inverse_matrix, oracle_shift_matrix


def oracle_coeffs(tree, weights, basis, f, order):
    """Dense-matrix route: stack basis-projections of L^n f."""
    lmat = oracle_left_inverse_matrix(tree, weights)
    bmat = basis._coords_array(np.eye(tree.n_vertices))
    out = np.zeros((order + 1, basis.dim), dtype=np.complex128)
    cur = f.data.copy()
    for n in range(order + 1):
        out[n] = bmat @ cur
        cur = lmat @ cur
    return out


def test_coeffs_of_kernel_vector(t2_shift):
    S, basis = t2_shift
    for j in range(basis.dim):
        c = ts.analytic_coeffs(S, basis, basis.vector(j))
        expect = np.zeros_like(c.coords)
        expect[0, j] = 1.0
        assert np.linalg.norm(c.coords - expect) < 1e-13


def test_coeffs_match_closed_form_two_ray(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    alpha = 0.5
    f = ts.L2Vector.basis(tree, (1, 2))
    c = ts.analytic_coeffs(S, basis, f)
    # closed form at n=1: no root component, pair component alpha/(alpha^2+1)
    # against the unnormalized difference vector
    assert abs(c.coords[1][0]) < 1e-15
    pair_coord = alpha / (alpha ** 2 + 1) * np.sqrt(alpha ** 2 + 1)
    assert abs(abs(c.coords[1][1]) - pair_coord) < 1e-14
    back = basis.from_coords(c.coords[1])
    assert back[(1, 1)] == pytest.approx(0.4 * alpha)
    assert back[(2, 1)] == pytest.approx(-0.4)


def test_coeffs_match_dense_oracle(t4_shift, t4_depth2, random_tree_batch):
    for (tree, weights), (S, basis) in [
        (t4_depth2, t4_shift),
    ] + [((t, w), (lambda s: (s, ts.separated_kernel_basis(s)))(ts.ShiftOperator(t, w)))
         for t, w in random_tree_batch[:2]]:
        rng = stable_rng(3, "coeffs-oracle")
        f = ts.L2Vector.random(tree, tree.depth, rng)
        got = ts.analytic_coeffs(S, basis, f)
        want = oracle_coeffs(tree, weights, basis, f, tree.depth)
        assert np.linalg.norm(got.coords - want) < 1e-11


def test_coeffs_vanish_beyond_support(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    rng = stable_rng(4, "vanish")
    f = ts.L2Vector.random(tree, 5, rng)
    c = ts.analytic_coeffs(S, basis, f)
    assert np.linalg.norm(c.coords[6:]) == 0.0


def test_round_trip(t2_shift, chain_shift, t4_shift):
    for S, basis in (t2_shift, chain_shift, t4_shift):
        tree = S.tree
        rng = stable_rng(5, "round-trip")
        for _ in range(20):
            f = ts.L2Vector.random(tree, tree.depth, rng)
            c = ts.analytic_coeffs(S, basis, f)
            via_reconstruct = ts.reconstruct(S, basis, c, tree.depth)
            via_layers = ts.expand_layers(S, basis, c)
            assert (via_reconstruct - f).norm() < 1e-10
            assert (via_layers - f).norm() < 1e-10


def test_reconstruct_kernel_coefficient(t2_shift):
    S, basis = t2_shift
    coords = np.zeros((1, basis.dim), dtype=np.complex128)
    coords[0, 1] = 1.0
    g = ts.reconstruct(S, basis, ts.CoeffSeq(coords, 0), 2)
    assert (g - basis.vector(1)).norm() < 1e-12


def test_reconstruct_forward_check(t2_shift):
    # place a unit coefficient at n=1 on the root direction and verify forward
    S, basis = t2_shift
    coords = np.zeros((2, basis.dim), dtype=np.complex128)
    coords[1, 0] = 1.0
    g = ts.reconstruct(S, basis, ts.CoeffSeq(coords, 1), 3)
    c = ts.analytic_coeffs(S, basis, g)
    assert abs(c.coords[1][0] - 1.0) < 1e-12
    assert np.linalg.norm(c.coords - np.pad(coords, ((0, c.length - 2), (0, 0)))) < 1e-12


def test_reconstruct_inconsistent(t2_shift):
    S, basis = t2_shift
    depth = S.tree.depth
    cases = []
    # no vector supported at the root alone has a nonzero first coefficient
    coords = np.zeros((2, basis.dim), dtype=np.complex128)
    coords[1, 0] = 1.0
    cases.append((coords, 0))
    # a generation-1 kernel vector shifted depth times leaves the truncation
    coords = np.zeros((depth + 1, basis.dim), dtype=np.complex128)
    coords[depth, int(np.flatnonzero(basis.gen_index == 1)[0])] = 1.0
    cases.append((coords, depth))
    # coefficients that are not finite
    for bad in (float("nan"), float("inf")):
        coords = np.zeros((3, basis.dim), dtype=np.complex128)
        coords[0, 0] = 1.0
        coords[1, 0] = bad
        cases.append((coords, depth))
    for coords, support in cases:
        with pytest.raises(Inconsistent):
            ts.reconstruct(S, basis, ts.CoeffSeq(coords, coords.shape[0] - 1), support)


def test_expand_layers_overflow(t2_shift):
    S, basis = t2_shift
    coords = np.zeros((S.tree.depth + 1, basis.dim), dtype=np.complex128)
    coords[S.tree.depth, 1] = 1.0  # generation 1 + depth > depth
    with pytest.raises(SupportOverflow):
        ts.expand_layers(S, basis, ts.CoeffSeq(coords, S.tree.depth))


def test_coefficient_convergence_surrogate(t2_shift, t2):
    # truncations of a fixed vector converge entrywise in coefficients
    S, basis = t2_shift
    tree, _ = t2
    rng = stable_rng(6, "tomek")
    f = ts.L2Vector.random(tree, tree.depth, rng)
    c_full = ts.analytic_coeffs(S, basis, f)
    errs = []
    for d in (4, 8, 12, 14):
        fk = ts.L2Vector.zero(tree)
        n = sum(len(g) for g in tree.generations[:d + 1])
        fk.data[:n] = f.data[:n]
        ck = ts.analytic_coeffs(S, basis, fk)
        errs.append(np.abs(ck.coords - c_full.coords).max())
    assert errs[-1] == 0.0
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_kernel_matrix_origin(t2_shift):
    S, basis = t2_shift
    k = ts.kernel_matrix(S, basis, 0.0, 0.0, order=5, rho=2.0)
    assert np.linalg.norm(k.matrix - np.eye(basis.dim)) < 1e-14


def test_kernel_matrix_chain_geometric(chain_shift):
    # oracle: brute-force geometric series for the rank-one chain kernel
    S, basis = chain_shift
    z, lam = 0.4 + 0.1j, -0.2 + 0.3j
    order = 9
    k = ts.kernel_matrix(S, basis, z, lam, order=order, rho=1.0 - 1e-12)
    expected = sum((z * np.conj(lam)) ** n for n in range(order + 1))
    assert abs(k.matrix[0, 0] - expected) < 1e-13


def test_kernel_matrix_hermitian(t2_shift):
    S, basis = t2_shift
    rng = stable_rng(7, "herm")
    for _ in range(5):
        z = complex(*rng.uniform(-0.3, 0.3, 2))
        lam = complex(*rng.uniform(-0.3, 0.3, 2))
        a = ts.kernel_matrix(S, basis, z, lam, order=8, rho=2.0)
        b = ts.kernel_matrix(S, basis, lam, z, order=8, rho=2.0)
        assert np.linalg.norm(a.matrix - b.matrix.conj().T) < 1e-12


def test_kernel_matrix_outside_disc(t2_shift):
    S, basis = t2_shift
    with pytest.raises(OutsideDisc):
        ts.kernel_matrix(S, basis, 0.9, 0.0, order=4, rho=2.0)


def test_disc_checks_reject_points_that_are_not_finite(t2_shift):
    # a NaN compares False with 1, max(0.0, nan) is 0.0 and 0 * inf is NaN,
    # so no point may slip past the disc check, whatever rho is
    S, basis = t2_shift
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        for rho in (2.0, 0.0):
            for z, lam in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(OutsideDisc):
                    ts.kernel_matrix(S, basis, z, lam, order=4, rho=rho)
            with pytest.raises(OutsideDisc):
                ts.eigenvector_residual(S, basis, bad, 0, rho=rho)


def test_kernel_matrix_stack_memory_guard():
    # T4 at depth 3: 4165 vertices times a 4096-dimensional kernel passes the stack cap
    tree, weights = ts.generate_example("T4", 3, [])
    S = ts.ShiftOperator(tree, weights)
    with pytest.raises(DepthTooLargeForMemory):
        ts.kernel_matrix(S, ts.separated_kernel_basis(S), 0.0, 0.0, order=1, rho=1.0)


def _stacked_kernel_matrix(S, basis, z, lam, order):
    """The kernel matrix summed over a list of dense (L*)^m B stacks, one per power."""
    stacks = [basis._from_coords_array(np.eye(basis.dim, dtype=np.complex128))]
    for _ in range(order):
        stacks.append(_left_inverse_adjoint_array(S, stacks[-1]))
    Wz = np.zeros_like(stacks[0])
    Wl = np.zeros_like(stacks[0])
    for m, W in enumerate(stacks):
        Wz += np.conj(z) ** m * W
        Wl += np.conj(lam) ** m * W
    return Wz.conj().T @ Wl


def test_kernel_matrix_matches_power_stack_sum(chain_shift):
    rng = stable_rng(11, "kernel-stack")
    cases = [ts.generate_example("T2", 12, [0.5]), ts.generate_random_tree(6, 3, 17)]
    shifts = [chain_shift] + [(S, ts.separated_kernel_basis(S))
                              for S in (ts.ShiftOperator(*case) for case in cases)]
    for S, basis in shifts:
        rho = ts.spectral_radius_estimate(S).estimate
        order = S.tree.depth
        k = ts.kernel_matrix(S, basis, 0.0, 0.0, order=order, rho=rho)
        assert np.array_equal(k.matrix, _stacked_kernel_matrix(S, basis, 0.0, 0.0, k.order))
        for _ in range(4):
            z, lam = (complex(*rng.uniform(-0.6, 0.6, 2)) / rho for _ in range(2))
            k = ts.kernel_matrix(S, basis, z, lam, order=order, rho=rho)
            want = _stacked_kernel_matrix(S, basis, z, lam, k.order)
            assert np.linalg.norm(k.matrix - want) <= 1e-13 * np.linalg.norm(want)


def test_kernel_matrix_memory_does_not_grow_with_order():
    # a stack per power held about 10 times the order-1 peak at order 50
    tree, weights = ts.generate_example("T2", 60, [0.5])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    rho = ts.spectral_radius_estimate(S).estimate
    peaks = []
    for order in (1, 50):
        tracemalloc.start()
        try:
            k = ts.kernel_matrix(S, basis, 0.5 / rho, 0.25j / rho, order=order, rho=rho)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert k.order == order
    assert peaks[1] <= 1.5 * peaks[0]


def test_reproducing_property(t2_shift):
    # <f(lam), e> = <f, k(., lam) e> via the vertex-space pullback
    S, basis = t2_shift
    tree = S.tree
    rng = stable_rng(8, "reprod")
    lam = 0.21 - 0.13j
    order = tree.depth - 2
    for j in range(basis.dim):
        f = ts.L2Vector.random(tree, 6, rng)
        c = ts.analytic_coeffs(S, basis, f)
        f_at_lam = sum(c.coords[n] * lam ** n for n in range(c.length))
        lhs = complex(np.vdot(np.zeros(basis.dim), np.zeros(basis.dim)))
        lhs = complex((f_at_lam * 0).sum())
        e = np.zeros(basis.dim)
        e[j] = 1.0
        lhs = complex(f_at_lam @ e.conj())
        # right side: pair f with the truncated kernel section in vertex space
        w = basis.vector(j)
        acc = w.copy()
        cur = w
        for k in range(1, order + 1):
            cur = ts.apply_left_inverse_adjoint(S, cur)
            acc = acc + (np.conj(lam) ** k) * cur
        rhs = f.inner(acc)
        assert abs(lhs - rhs) < 1e-10


def test_eigenvector_residual_chain(chain_shift):
    S, basis = chain_shift
    for order in (10, 11):
        rep = ts.eigenvector_residual(S, basis, 0.5, 0, order=order, rho=1.0)
        assert rep.residual <= rep.tail_bound
        assert rep.residual <= 2.0 ** (-order)


def test_eigenvector_residual_two_ray(t2_shift):
    S, basis = t2_shift
    for j in range(basis.dim):
        rep = ts.eigenvector_residual(S, basis, 0.3, j, rho=2.0)
        assert rep.residual <= rep.tail_bound


def test_eigenvector_residual_zero(t2_shift):
    S, basis = t2_shift
    rep = ts.eigenvector_residual(S, basis, 0.0, 0, rho=2.0)
    assert rep.residual < 1e-14


def test_eigenvector_residual_last_generation_takes_order_zero(t4_shift):
    # a kernel vector in the last generation has no room for an L* term, so
    # the default order is 0 and the residual is the order-0 truncation, |lam|
    S, basis = t4_shift
    j = int(np.flatnonzero(basis.gen_index == S.tree.depth)[0])
    rep = ts.eigenvector_residual(S, basis, 0.3, j, rho=1.0)
    assert rep.order == 0
    assert rep.residual == pytest.approx(0.3, rel=1e-12)
    assert rep.residual <= rep.tail_bound


def test_eigenvector_outside_disc(t2_shift):
    S, basis = t2_shift
    with pytest.raises(OutsideDisc):
        ts.eigenvector_residual(S, basis, 0.6, 0, rho=2.0)


def test_spectral_radius_examples(chain_shift, t2_shift):
    Sc, _ = chain_shift
    est = ts.spectral_radius_estimate(Sc)
    assert est.estimate == pytest.approx(1.0, abs=1e-9)
    S2, _ = t2_shift
    est2 = ts.spectral_radius_estimate(S2)
    assert est2.estimate >= 2.0 - 1e-9
    chain2, w2 = ts.generate_example("UNILATERAL", 12, [2.0] * 12)
    est3 = ts.spectral_radius_estimate(ts.ShiftOperator(chain2, w2))
    assert est3.estimate == pytest.approx(0.5, abs=1e-9)


def test_spectral_radius_against_dense_powers(t2, t2_shift):
    # oracle: exact operator norms of dense matrix powers
    tree, weights = t2
    S, _ = t2_shift
    lmat = oracle_left_inverse_matrix(tree, weights)
    est = ts.spectral_radius_estimate(S)
    cur = np.eye(tree.n_vertices, dtype=np.complex128)
    for n in range(1, len(est.norms) + 1):
        cur = lmat @ cur
        exact = np.linalg.svd(cur, compute_uv=False)[0]
        assert abs(est.norms[n - 1] - exact) <= 1e-12 * exact


def test_coeffs_t4_depth3_sparse_oracle():
    # independent sparse-matrix route on the wide tree
    import scipy.sparse as sp

    tree, weights = ts.generate_example("T4", 3, [])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    n = tree.n_vertices
    rows, cols, vals = [], [], []
    for u in tree.vertices:
        for v in tree.children[u]:
            rows.append(tree.index[v])
            cols.append(tree.index[u])
            vals.append(weights[v])
    smat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    gram_diag = np.asarray((smat.conj().T @ smat).diagonal()).real
    inv = np.zeros(n)
    inv[gram_diag > 0] = 1.0 / gram_diag[gram_diag > 0]
    lmat = sp.diags(inv) @ smat.conj().T
    rng = stable_rng(30, "t4-sparse")
    f = ts.L2Vector.random(tree, tree.depth, rng)
    got = ts.analytic_coeffs(S, basis, f)
    cur = f.data.copy()
    for m in range(tree.depth + 1):
        # row by row: building the dense basis matrix of this tree takes ~0.5 GB
        want = np.array([basis.vector(j).data.real @ cur for j in range(basis.dim)])
        assert np.linalg.norm(got.coords[m] - want) < 1e-11
        cur = lmat @ cur


def test_eigenvector_residual_deep_chain_orders():
    tree, weights = ts.generate_example("UNILATERAL", 22, [1.0] * 22)
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    for order in (10, 20):
        rep = ts.eigenvector_residual(S, basis, 0.5, 0, order=order, rho=1.0)
        assert rep.residual <= rep.tail_bound
        assert rep.residual <= 2.0 ** (-order)


def test_coeffseq_round_trip_stays_in_kernel(t2_shift):
    S, basis = t2_shift
    rng = stable_rng(31, "kernel-stay")
    f = ts.L2Vector.random(S.tree, S.tree.depth, rng)
    c = ts.analytic_coeffs(S, basis, f)
    for n in range(c.length):
        vec = basis.from_coords(c.coords[n])
        assert ts.apply_adjoint(S, vec).norm() < 1e-12


def test_expand_layers_matches_reconstruct_on_synthetic(t2_shift):
    # consistent coefficients that are not a round trip of anything prepared
    S, basis = t2_shift
    rng = stable_rng(32, "synthetic")
    coords = np.zeros((5, basis.dim), dtype=np.complex128)
    coords[0] = rng.standard_normal(2)
    coords[2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    coords[4, 0] = -1.3j
    c = ts.CoeffSeq(coords, 4)
    via_layers = ts.expand_layers(S, basis, c)
    via_reconstruct = ts.reconstruct(S, basis, c, support_depth=5)
    assert (via_layers - via_reconstruct).norm() < 1e-11


def test_reconstruct_underdetermined_warning(t2_shift):
    # a caller-supplied short system leaves deep layers free; the zero
    # extension sum_{n<=1} S^n c(n) is returned with a warning
    S, basis = t2_shift
    from treeshift.errors import UnderdeterminedWarning

    system = ts.CoefficientSystem(S, basis, support_depth=3, order=1)
    assert system.rank < len(system.columns)
    coords = np.zeros((2, basis.dim), dtype=np.complex128)
    coords[0, 0] = 1.0
    coords[1, 1] = 0.5
    c = ts.CoeffSeq(coords, 1)
    with pytest.warns(UnderdeterminedWarning):
        g = ts.reconstruct(S, basis, c, 3, system=system)
    back = ts.analytic_coeffs(S, basis, g)
    assert np.linalg.norm(back.coords[:2] - coords) < 1e-11
    assert np.array_equal(g.data, ts.expand_layers(S, basis, c).data)


def test_reconstruct_block_gates_each_column(t2_shift):
    # a block of coefficient sequences is one walk whose columns equal the
    # per-sequence reconstruct, and a bad column fails the whole block
    from treeshift.model import _reconstruct_array

    S, basis = t2_shift
    tree = S.tree
    rng = stable_rng(35, "reconstruct-block")
    fs = [ts.L2Vector.random(tree, g, rng) for g in (4, 2, 4)]
    coeffs = [ts.analytic_coeffs(S, basis, f) for f in fs]
    block = np.stack([c.coords for c in coeffs], axis=-1)
    got = _reconstruct_array(S, basis, block, 4)
    for q, c in enumerate(coeffs):
        assert np.array_equal(got[:, q], ts.reconstruct(S, basis, c, 4).data)
    nonfinite = block.copy()
    nonfinite[3, 0, 1] = np.inf
    overflow = block.copy()
    overflow[tree.depth, 1, 1] = 1.0    # S^depth e'_1 leaves the truncation
    deep = np.stack([coeffs[0].coords,
                     ts.analytic_coeffs(S, basis, ts.L2Vector.random(tree, 9, rng)).coords],
                    axis=-1)            # no vector of support depth 4 has column 1
    for bad in (nonfinite, overflow, deep):
        with pytest.raises(Inconsistent):
            _reconstruct_array(S, basis, bad, 4)


def test_reproducing_property_random_points(t2_shift):
    S, basis = t2_shift
    tree = S.tree
    rng = stable_rng(34, "reprod-rand")
    order = tree.depth - 2
    for _ in range(6):
        lam = complex(*rng.uniform(-0.3, 0.3, 2))
        j = int(rng.integers(0, basis.dim))
        f = ts.L2Vector.random(tree, 6, rng)
        c = ts.analytic_coeffs(S, basis, f)
        f_at_lam = sum(c.coords[n] * lam ** n for n in range(c.length))
        e = np.zeros(basis.dim)
        e[j] = 1.0
        lhs = complex(f_at_lam @ e.conj())
        w = basis.vector(j)
        acc = w.copy()
        cur = w
        for k in range(1, order + 1):
            cur = ts.apply_left_inverse_adjoint(S, cur)
            acc = acc + (np.conj(lam) ** k) * cur
        assert abs(lhs - f.inner(acc)) < 1e-10


def test_coefficient_system_inverts_column_stack(t2_shift, t4_shift):
    # the per-vector coefficient sequences of the unit vectors of V_{<=d},
    # stacked, are the dense map: its rank is the closed form, and the Wold
    # expansion of each column gives back its unit vector
    tree, weights = ts.generate_random_tree(5, 3, 3)
    S_rand = ts.ShiftOperator(tree, weights)
    cases = [t2_shift, t4_shift, (S_rand, ts.separated_kernel_basis(S_rand))]
    for S, basis in cases:
        depth = S.tree.depth
        for support, order in ((depth, depth), (max(0, depth - 2), depth + 1),
                               (depth, depth - 1), (depth, 0)):
            system = ts.CoefficientSystem(S, basis, support, order)
            stack = np.stack([ts.analytic_coeffs(S, basis, ts.L2Vector.basis(S.tree, v),
                                                 order).coords.ravel()
                              for v in system.columns], axis=1)
            assert system.rank == np.linalg.matrix_rank(stack)
            if order < support:
                assert system.rank < len(system.columns)
                continue
            for k in range(len(system.columns)):
                x, residual = system.solve(stack[:, k])
                unit = np.zeros(len(system.columns))
                unit[k] = 1.0
                assert np.linalg.norm(x - unit) < 1e-12
                assert residual < 1e-12


def test_spectral_radius_norms_are_exact():
    # each norm equals the largest singular value of the dense k-th power of L
    depth = 20
    cases = [ts.balanced_double_ray(depth, [1.0 + 1.0 / (m + 1) for m in range(depth)]),
             ts.generate_example("T4", 2, []),
             ts.generate_random_tree(5, 3, 3)]
    for tree, weights in cases:
        S = ts.ShiftOperator(tree, weights)
        est = ts.spectral_radius_estimate(S)
        lmat = oracle_left_inverse_matrix(tree, weights)
        power = np.eye(tree.n_vertices, dtype=np.complex128)
        for got in est.norms:
            power = lmat @ power
            dense = np.linalg.svd(power, compute_uv=False)[0]
            assert abs(got - dense) <= 1e-12 * dense


def test_negative_coefficient_order_is_refused(t2_shift):
    S, basis = t2_shift
    with pytest.raises(PreconditionFailed, match="order must be nonnegative, got -2"):
        ts.analytic_coeffs(S, basis, ts.L2Vector.basis(S.tree, S.tree.root), order=-2)


def test_negative_eigenvector_order_is_refused(t2_shift):
    S, basis = t2_shift
    with pytest.raises(PreconditionFailed, match="got -5"):
        ts.eigenvector_residual(S, basis, 0.1, 1, order=-5, rho=2.0)


def test_negative_kernel_order_is_refused(t2_shift):
    # the order once fell back to 0, with the tail bound of a negative exponent
    S, basis = t2_shift
    with pytest.raises(PreconditionFailed, match="got -3"):
        ts.kernel_matrix(S, basis, 0.2, 0.1, order=-3, rho=2.0)


def test_kernel_index_outside_the_basis_is_refused():
    # a negative index once wrapped around to the last kernel vector, and an
    # index of dim raised an untyped IndexError
    tree, weights = ts.generate_example("T2", 6, [0.5])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    for j in (-1, -basis.dim, basis.dim, basis.dim + 3):
        with pytest.raises(PreconditionFailed, match="kernel index"):
            basis.vector(j)
        with pytest.raises(PreconditionFailed, match="kernel index"):
            ts.eigenvector_residual(S, basis, 0.1, j, rho=1.0)
    assert basis.vector(basis.dim - 1).norm() == pytest.approx(1.0)


def test_empty_coefficient_sequence_expands_to_zero(t2_shift):
    S, basis = t2_shift
    g = ts.expand_layers(S, basis, ts.CoeffSeq(np.zeros((0, basis.dim), np.complex128), -1))
    assert g.data.dtype == np.complex128 and np.array_equal(g.data, np.zeros(S.tree.n_vertices))
