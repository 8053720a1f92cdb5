from __future__ import annotations

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import treeshift as ts
from treeshift._util import stable_rng
from treeshift.errors import BadParams, DepthTooLargeForMemory, DimensionMismatch, NotUnimodular

angles = st.floats(0.0, 2 * np.pi, allow_nan=False)


def test_rotate_identity(t2_shift, t2):
    tree, _ = t2
    rng = stable_rng(0, "rot-id")
    f = ts.L2Vector.random(tree, tree.depth, rng)
    assert (ts.rotate_vector(tree, f, 1.0) - f).norm() == 0.0


def test_rotate_single_point(t2):
    tree, _ = t2
    f = ts.L2Vector.basis(tree, (2, 3))
    fw = ts.rotate_vector(tree, f, 1j)
    assert fw[(2, 3)] == pytest.approx(1j ** 3)


def test_rotate_rejects_offcircle(t2):
    tree, _ = t2
    with pytest.raises(NotUnimodular):
        ts.rotate_vector(tree, ts.L2Vector.basis(tree, (0, 0)), 0.9)


def test_rotation_rejects_points_that_are_not_finite(t2_shift, t2):
    tree, _ = t2
    _, basis = t2_shift
    for w in (np.nan, complex(np.nan, 1.0), np.inf):
        with pytest.raises(NotUnimodular):
            ts.rotation_diagonal(basis, w)
        with pytest.raises(NotUnimodular):
            ts.rotate_vector(tree, ts.L2Vector.basis(tree, (0, 0)), w)


@given(theta=angles, theta2=angles)
def test_rotation_norm_and_group_law(theta, theta2):
    tree, weights = ts.generate_example("T2", 6, [0.5])
    rng = stable_rng(int(theta * 1e6) % 1000, "group")
    f = ts.L2Vector.random(tree, tree.depth, rng)
    w1, w2 = np.exp(1j * theta), np.exp(1j * theta2)
    fw = ts.rotate_vector(tree, f, w1)
    assert abs(fw.norm() - f.norm()) < 1e-13
    double = ts.rotate_vector(tree, fw, w2)
    direct = ts.rotate_vector(tree, f, w1 * w2)
    assert (double - direct).norm() < 1e-12


def test_rotation_coefficient_identity(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    rng = stable_rng(1, "rot-coeff")
    w = np.exp(0.37j)
    diag = ts.rotation_diagonal(basis, w)
    for _ in range(10):
        f = ts.L2Vector.random(tree, tree.depth, rng)
        c = ts.analytic_coeffs(S, basis, f)
        cw = ts.analytic_coeffs(S, basis, ts.rotate_vector(tree, f, w))
        for n in range(c.length):
            want = (w ** n) * diag.phases * c.coords[n]
            assert np.linalg.norm(cw.coords[n] - want) < 1e-12


def test_rotation_continuity_slope(t2_shift, t2):
    # ||f_w - f_w'|| shrinks linearly in |w - w'| on truncations
    tree, _ = t2
    rng = stable_rng(2, "rot-cont")
    f = ts.L2Vector.random(tree, tree.depth, rng)
    w = np.exp(0.4j)
    gaps, errs = [], []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        w2 = np.exp(1j * (0.4 + eps))
        gaps.append(abs(w2 - w))
        errs.append((ts.rotate_vector(tree, f, w2) - ts.rotate_vector(tree, f, w)).norm())
    ratios = [e / g for e, g in zip(errs, gaps)]
    # ratios approach the Lipschitz constant as the gap shrinks
    assert max(ratios) / min(ratios) < 1.10
    assert abs(ratios[-1] - ratios[-2]) / ratios[-1] < 1e-3


def test_rotation_intertwining_two_paths(t2_shift, t2):
    # rotated-symbol action equals rotate, act, rotate back
    S, basis = t2_shift
    tree, _ = t2
    rng = stable_rng(4, "intertwine")
    w = np.exp(0.9j)
    op = ts.OpSymbol(rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    f = ts.L2Vector.random(tree, tree.depth - 3, rng)

    def act(sym, vec):
        conv = ts.convolve_with_coeffs(sym, ts.analytic_coeffs(S, basis, vec,
                                                               order=tree.depth - 2))
        return ts.expand_layers(S, basis, conv)

    # the rotated symbol w^n D_w op(n) D_conj(w), D_w the generation phases
    ph = ts.rotation_diagonal(basis, w).phases
    rotated = ts.OpSymbol(np.stack([w ** n * (ph[:, None] * m * np.conj(ph)[None, :])
                                    for n, m in enumerate(op.mats)]))
    lhs = act(rotated, f)
    inner = act(op, ts.rotate_vector(tree, f, np.conj(w)))
    rhs = ts.rotate_vector(tree, inner, w)
    assert (lhs - rhs).norm() < 1e-12


def test_fejer_values():
    fj = ts.fejer_symbol(2)
    assert np.allclose(fj.coeffs, [1.0, 2.0 / 3.0, 1.0 / 3.0])
    assert ts.fejer_symbol(0).coeffs.tolist() == [1.0]
    assert ts.fejer_symbol(4).weight(5) == 0.0
    fj8 = ts.fejer_symbol(8)
    assert fj8.coeffs[0] == 1.0
    assert all(a >= b for a, b in zip(fj8.coeffs, fj8.coeffs[1:]))


def test_fejer_negative_order_is_bad_params():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BadParams):
            ts.fejer_symbol(-1)


def test_fejer_truncate():
    phi = ts.ScalarSymbol(np.array([2.0, 1.0, 0.5, 0.25]))
    out = ts.fejer_truncate(ts.fejer_symbol(1), phi)
    assert np.allclose(out.coeffs, [2.0, 0.5])


def test_circle_integral_chain_monomials(chain_shift):
    S, basis = chain_shift
    phi = ts.ScalarSymbol(np.array([1.0, 0.5, 0.25]))
    assert ts.circle_integral_check(S, basis, phi, 1) < 1e-12
    assert ts.circle_integral_check(S, basis, phi, 0) < 1e-12
    assert ts.circle_integral_check(S, basis, phi, -1) < 1e-12
    assert ts.circle_integral_check(S, basis, phi, -3) < 1e-12


def test_circle_integral_two_ray(t2_shift):
    S, basis = t2_shift
    phi = ts.ScalarSymbol(np.array([1.0, -0.3 + 0.2j, 0.08]))
    for k in (2, 0, -2):
        assert ts.circle_integral_check(S, basis, phi, k) < 1e-10


def _circle_integral_per_node(S, basis, phi, k, n_test_vectors=5, seed=0):
    # one reconstruct per quadrature node: the oracle for the block walk
    from treeshift._util import kahan_mean_vectors, worst_of

    tree = S.tree
    Q = phi.length + abs(k) + 1
    margin = phi.length - 1
    f_depth = max(0, tree.depth - margin)
    support = min(tree.depth, f_depth + margin)
    nodes = [np.exp(2j * np.pi * q / Q) for q in range(Q)]
    worst = 0.0
    for t in range(n_test_vectors):
        f = ts.L2Vector.random(tree, f_depth, stable_rng(seed, f"circle-{t}"))
        c = ts.analytic_coeffs(S, basis, f, order=f_depth)
        images = []
        for w in nodes:
            rotated = ts.ScalarSymbol(phi.coeffs * np.array([w ** n for n in range(phi.length)]))
            g = ts.reconstruct(S, basis, ts.convolve_with_coeffs(rotated, c), support)
            images.append(np.conj(w) ** k * g.data)
        avg = kahan_mean_vectors(images)
        target = np.zeros_like(avg)
        if 0 <= k < phi.length:
            monomial = np.zeros(k + 1, dtype=np.complex128)
            monomial[k] = phi.coeffs[k]
            target = ts.reconstruct(S, basis, ts.convolve_with_coeffs(
                ts.ScalarSymbol(monomial), c), support).data
        worst = worst_of(worst, float(np.linalg.norm(avg - target)))
    return worst


def test_circle_integral_block_walk_matches_per_node_loop(monkeypatch):
    from treeshift import model

    walks = []
    inner = model._layer_array
    monkeypatch.setattr(model, "_layer_array",
                        lambda *args: walks.append(args[2].shape) or inner(*args))
    phi = ts.ScalarSymbol(np.array([1.0, 0.5, 0.25]))
    for tree, weights in (ts.generate_example("T2", 12, [0.5]),
                          ts.generate_random_tree(6, 3, 17)):
        S = ts.ShiftOperator(tree, weights)
        basis = ts.separated_kernel_basis(S)
        for k in (1, 0, -2):
            walks.clear()
            got = ts.circle_integral_check(S, basis, phi, k, seed=2)
            # one walk over all test vectors at all Q nodes, and one for their targets
            Q = phi.length + abs(k) + 1
            assert [shape[2:] for shape in walks] == [(5, Q)] + ([(5,)] if k >= 0 else [])
            assert got == _circle_integral_per_node(S, basis, phi, k, seed=2)


def test_cesaro_unit_symbol_no_error(t2_shift):
    S, basis = t2_shift
    unit = ts.ScalarSymbol(np.array([1.0]))
    vecs = [ts.L2Vector.basis(S.tree, S.tree.root)]
    rep = ts.cesaro_convergence_experiment(S, basis, unit, [0, 2, 8], vecs)
    assert all(r.error < 1e-14 for r in rep.rows)


def test_cesaro_chain_geometric_decay(chain_shift, chain):
    # oracle: exact truncation error sum_m ((1-p_n(m)) 2^-m)^2 on the chain
    S, basis = chain_shift
    tree, _ = chain
    geom = ts.ScalarSymbol(0.5 ** np.arange(tree.depth + 1))
    vecs = [ts.L2Vector.basis(tree, tree.root)]
    orders = [4, 8, 16, 32]
    rep = ts.cesaro_convergence_experiment(S, basis, geom, orders, vecs)
    errs = rep.errors_for(0)
    for n in orders:
        fx = ts.fejer_symbol(n)
        exact = np.sqrt(sum(
            ((1.0 - fx.weight(m)) * 0.5 ** m) ** 2 for m in range(tree.depth + 1)))
        assert errs[n] == pytest.approx(exact, rel=1e-9)
    assert errs[32] < errs[16] < errs[8] < errs[4]
    # error roughly halves when the order doubles
    assert errs[8] / errs[4] == pytest.approx(0.5, abs=0.2)


def test_cesaro_two_ray_random(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    rng = stable_rng(5, "cesaro")
    phi = ts.ScalarSymbol(np.array([1.0, 0.25, 1.0 / 16, 1.0 / 64]))
    f_depth = tree.depth - (phi.length - 1) - basis.max_generation
    vecs = [ts.L2Vector.random(tree, f_depth, rng) for _ in range(3)]
    rep = ts.cesaro_convergence_experiment(S, basis, phi, [1, 2, 8], vecs)
    for vid in range(3):
        errs = rep.errors_for(vid)
        assert errs[8] <= errs[2] <= errs[1] + 1e-15
    assert all(v <= rep.full_norm_estimate * 1.05 for v in rep.norm_estimates.values())


def test_fejer_domination(t2_shift):
    S, basis = t2_shift
    phi = ts.ScalarSymbol(np.array([1.0, 0.5, 0.25, 0.125]))
    vecs = [ts.L2Vector.basis(S.tree, S.tree.root)]
    rep = ts.cesaro_convergence_experiment(S, basis, phi, [2, 4, 16], vecs)
    for order, est in rep.norm_estimates.items():
        assert est <= rep.full_norm_estimate * 1.05, order


def test_circle_integral_refuses_a_node_count_above_the_memory_budget():
    # k = 10**6 takes a million nodes: once 125 s and 2.7 GB before a result
    tree, weights = ts.generate_example("T2", 8, [0.5])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    phi = ts.ScalarSymbol(np.array([1.0, 0.5]))
    start = time.perf_counter()
    for k in (10 ** 6, -10 ** 6):
        with pytest.raises(DepthTooLargeForMemory, match="1000003 nodes"):
            ts.circle_integral_check(S, basis, phi, k)
    assert time.perf_counter() - start < 0.5
    for k in (1, -2):
        assert ts.circle_integral_check(S, basis, phi, k) < 1e-10


def test_cesaro_refuses_a_test_vector_past_the_workable_depth(t2_shift):
    S, basis = t2_shift
    phi = ts.ScalarSymbol(np.array([1.0, 0.5, 0.25]))
    deep = ts.L2Vector.basis(S.tree, S.tree.generations[S.tree.depth - 1][0])
    vecs = [ts.L2Vector.basis(S.tree, S.tree.root), deep]
    with pytest.raises(DimensionMismatch, match="test vector 1 exceeds"):
        ts.cesaro_convergence_experiment(S, basis, phi, [2], vecs)
