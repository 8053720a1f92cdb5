from __future__ import annotations

import warnings

import numpy as np
import pytest

import treeshift as ts
from treeshift import _util
from treeshift import balanced as bal
from treeshift._util import stable_rng
from treeshift.errors import (
    DepthTooLargeForMemory,
    DimensionMismatch,
    NotBalanced,
    PreconditionFailed,
    SupportOverflow,
    WrongGeneration,
)


@pytest.fixture(scope="module")
def double_ray():
    depth = 20
    norms = [1.0 + 1.0 / (m + 1) for m in range(depth)]
    tree, weights = ts.balanced_double_ray(depth, norms)
    S = ts.ShiftOperator(tree, weights)
    return S, ts.separated_kernel_basis(S), norms


def test_pairing_n0(double_ray):
    S, _, _ = double_ray
    tree = S.tree
    f = ts.L2Vector.basis(tree, (1, 1))
    g = ts.L2Vector.basis(tree, (2, 1))
    assert ts.balanced_inner_product_check(S, f, g, 0, (1, 1)) == 0.0


def test_pairing_chain_2_3():
    tree, weights = ts.generate_example("UNILATERAL", 4, [2.0, 3.0, 1.0, 1.0])
    S = ts.ShiftOperator(tree, weights)
    e0 = ts.L2Vector.basis(tree, (0, 0))
    # direct product oracle: <S^2 e0, S^2 e0> = (2*3)^2 = 36
    sf = ts.apply_shift(S, ts.apply_shift(S, e0))
    assert sf.inner(sf) == pytest.approx(36.0)
    assert ts.balanced_inner_product_check(S, e0, e0, 2, (2, 0)) < 1e-12


def test_pairing_t4_preserves_orthogonality(t4_shift):
    S, _ = t4_shift
    tree = S.tree
    rng = stable_rng(0, "t4-pair")
    gen1 = tree.generations[1]
    f = ts.L2Vector.from_dict(tree, {v: rng.standard_normal() for v in gen1})
    g = ts.L2Vector.from_dict(tree, {v: rng.standard_normal() for v in gen1})
    g = g - (g.inner(f) / f.inner(f)) * f
    assert abs(f.inner(g)) < 1e-12
    resid = ts.balanced_inner_product_check(S, f, g, 1, tree.generations[2][0])
    assert resid < 1e-12
    sf = ts.apply_shift(S, f)
    sg = ts.apply_shift(S, g)
    assert abs(sf.inner(sg)) < 1e-12


def test_pairing_rejects_unbalanced(t2_shift):
    S, _ = t2_shift
    tree = S.tree
    f = ts.L2Vector.basis(tree, (1, 1))
    with pytest.raises(NotBalanced):
        ts.balanced_inner_product_check(S, f, f, 1, (1, 2))


def test_pairing_rejects_wrong_generation(double_ray):
    S, _, _ = double_ray
    tree = S.tree
    f = ts.L2Vector.basis(tree, (1, 1))
    with pytest.raises(WrongGeneration):
        ts.balanced_inner_product_check(S, f, f, 2, (1, 2))


def test_wold_kernel_vector(double_ray):
    S, basis, _ = double_ray
    dec = ts.wold_decompose(S, basis, basis.vector(1))
    assert (dec.parts[0] - basis.vector(1)).norm() < 1e-13
    assert all(p.norm() < 1e-13 for p in dec.parts[1:])
    assert dec.residual < 1e-13


def test_wold_shifted_combination(double_ray):
    S, basis, _ = double_ray
    f = ts.apply_shift(S, basis.vector(1)) + basis.vector(0)
    dec = ts.wold_decompose(S, basis, f)
    assert (dec.parts[0] - basis.vector(0)).norm() < 1e-12
    assert (dec.parts[1] - basis.vector(1)).norm() < 1e-12


def test_wold_parseval(double_ray, t4_shift):
    for S, basis in ((double_ray[0], double_ray[1]), t4_shift):
        rng = stable_rng(1, "wold")
        for _ in range(10):
            f = ts.L2Vector.random(S.tree, S.tree.depth, rng)
            dec = ts.wold_decompose(S, basis, f)
            norms = dec.layer_norms(S)
            assert abs(sum(x ** 2 for x in norms) - f.norm() ** 2) < 1e-10
            assert dec.residual < 1e-10


def test_wold_layer_norms_match_per_part_shifts(double_ray):
    S, basis, _ = double_ray
    f = ts.L2Vector.random(S.tree, S.tree.depth, stable_rng(4, "wold-norms"))
    dec = ts.wold_decompose(S, basis, f)
    expected = []
    for n, part in enumerate(dec.parts):
        for _ in range(n):
            part = ts.apply_shift(S, part)
        expected.append(part.norm())
    assert dec.layer_norms(S) == expected
    top = S.tree.generations[S.tree.depth][0]
    lifted = ts.WoldDecomposition(parts=[basis.vector(0), ts.L2Vector.basis(S.tree, top)],
                                  residual=0.0)
    with pytest.raises(SupportOverflow):
        lifted.layer_norms(S)


def test_wold_layers_orthogonal_dense(double_ray):
    # dense check that distinct layers are orthogonal subspaces
    S, basis, _ = double_ray
    rng = stable_rng(2, "layers")
    f = ts.L2Vector.random(S.tree, S.tree.depth, rng)
    dec = ts.wold_decompose(S, basis, f)
    shifted = []
    for n, part in enumerate(dec.parts):
        cur = part
        for _ in range(n):
            cur = ts.apply_shift(S, cur)
        shifted.append(cur)
    for i in range(len(shifted)):
        for j in range(i + 1, len(shifted)):
            assert abs(shifted[i].inner(shifted[j])) < 1e-10


def test_wold_rejects_unbalanced(t2_shift):
    S, basis = t2_shift
    with pytest.raises(NotBalanced):
        ts.wold_decompose(S, basis, ts.L2Vector.basis(S.tree, (0, 0)))


def test_hinf_identity_norm_one():
    beta = ts.BetaWeights(np.ones(64))
    rep = ts.hinf_membership(ts.ScalarSymbol(np.array([1.0])), beta, beta, 64)
    assert all(n == pytest.approx(1.0, abs=1e-12) for n in rep.norms)
    assert rep.verdict == ts.BOUNDED


@pytest.mark.parametrize("trunc, truncs", [(0, None), (-3, None), (8, [4, 0, 8])])
def test_hinf_truncation_below_one_is_rejected(trunc, truncs):
    beta = ts.BetaWeights(np.ones(16))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionFailed):
            ts.hinf_membership(ts.ScalarSymbol(np.array([1.0])), beta, beta, trunc, truncs=truncs)


def test_beta_weights_must_be_finite():
    # with beta1 = inf every norm read 0.0 and the verdict BoundedSoFar
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DimensionMismatch):
            ts.BetaWeights(np.array([1.0, bad]))


def test_hinf_rejects_symbol_entries_that_are_not_finite():
    beta = ts.BetaWeights(np.ones(16))
    for bad in (np.nan, np.inf):
        with pytest.raises(PreconditionFailed):
            ts.hinf_membership(ts.ScalarSymbol(np.array([bad, 1.0])), beta, beta, 16)


def test_hinf_geometric_converges_to_two():
    # oracle: sup over the circle of |sum (z/2)^k| = 1/(1 - z/2) peaks at z=1
    zs = np.exp(2j * np.pi * np.linspace(0, 1, 4096, endpoint=False))
    sup = np.max(np.abs(1.0 / (1.0 - zs / 2)))
    assert sup == pytest.approx(2.0, abs=1e-6)
    beta = ts.BetaWeights(np.ones(256))
    rep = ts.hinf_membership(ts.ScalarSymbol(0.5 ** np.arange(256)), beta, beta, 256)
    assert rep.verdict == ts.BOUNDED
    assert abs(rep.norms[-1] - 2.0) / 2.0 < 0.02
    assert all(a <= b + 1e-12 for a, b in zip(rep.norms, rep.norms[1:]))


def test_hinf_harmonic_diverges():
    beta = ts.BetaWeights(np.ones(512))
    a = ts.ScalarSymbol(1.0 / (np.arange(512) + 1.0))
    rep = ts.hinf_membership(a, beta, beta, 512)
    assert rep.verdict == ts.DIVERGENT
    assert rep.slope > ts.multiplier.SLOPE_THRESHOLD
    # norms track log(trunc): strong linear correlation
    logt = np.log(np.array([2.0 ** d for d in rep.depths]))
    corr = np.corrcoef(logt, np.array(rep.norms))[0, 1]
    assert corr > 0.99


def test_hinf_beta_swap_keeps_verdicts(double_ray):
    # replacing the root orbit weights with any kernel-direction orbit keeps
    # the verdict (the two weighted spaces coincide for balanced shifts)
    S, basis, _ = double_ray
    trunc = S.tree.depth
    beta_root = ts.beta_from_orbit(S, ts.L2Vector.basis(S.tree, S.tree.root), trunc)
    symbols = [
        ts.ScalarSymbol(0.5 ** np.arange(trunc)),
        ts.ScalarSymbol(1.0 / (np.arange(trunc) + 1.0)),
        ts.ScalarSymbol(np.array([1.0])),
    ]
    for j in range(basis.dim):
        k_j = int(basis.gen_index[j])
        beta_j = ts.beta_from_orbit(S, basis.vector(j), trunc - k_j)
        truncs = list(range(2, trunc - k_j + 1))
        xs = [float(x) for x in truncs]
        for sym in symbols:
            rep_root = ts.hinf_membership(sym, beta_root, beta_root, trunc,
                                          truncs=truncs, xs=xs)
            rep_j = ts.hinf_membership(sym, beta_j, beta_j, trunc - k_j,
                                       truncs=truncs, xs=xs)
            assert rep_root.verdict == rep_j.verdict


def test_ratio_bounds_t4(t4_shift):
    S, basis = t4_shift
    rep = ts.ratio_bounds_check(S, basis)
    assert rep.ok
    # isometry: all iterate norms equal, every ratio is exactly one
    assert rep.max_ratio_excess < 1e-12


def test_ratio_bounds_double_ray(double_ray):
    S, basis, _ = double_ray
    rep = ts.ratio_bounds_check(S, basis)
    assert rep.ok
    assert rep.bound_base == pytest.approx(S.norm_upper / S.lower_bound)


def test_ratio_bounds_rejects_unbalanced(t2_shift):
    S, basis = t2_shift
    with pytest.raises(NotBalanced):
        ts.ratio_bounds_check(S, basis)


def test_kom_indicator_block(double_ray):
    S, basis, _ = double_ray
    sym = ts.indicator_symbol(2, basis.dim, np.array([[0.3, -0.2], [0.1, 0.7]]))
    rep = ts.kom_characterization_check(S, basis, sym, S.tree.depth + 1)
    assert rep.agree
    assert rep.multiplication_side.verdict == ts.BOUNDED
    assert all(r.verdict == ts.BOUNDED for r in rep.entry_side.values())


def test_kom_geometric_on_isometric_t4():
    tree, weights = ts.generate_example("T4", 3, [])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    geo = ts.ScalarSymbol(0.5 ** np.arange(4))
    rep = ts.kom_characterization_check(S, basis, geo, 4)
    assert rep.agree
    assert rep.low_confidence  # depth-3 grids cannot settle the slope rule


def test_kom_harmonic_on_isometric_chain():
    tree, weights = ts.generate_example("UNILATERAL", 20, [1.0] * 20)
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    harm = ts.ScalarSymbol(1.0 / (np.arange(21) + 1.0))
    rep = ts.kom_characterization_check(S, basis, harm, 21)
    assert rep.agree
    assert rep.multiplication_side.verdict == ts.DIVERGENT
    assert all(r.verdict == ts.DIVERGENT for r in rep.entry_side.values())


def test_kom_rejects_unbalanced(t2_shift):
    S, basis = t2_shift
    with pytest.raises(NotBalanced):
        ts.kom_characterization_check(S, basis, ts.unit_symbol(2), 4)


def test_kom_trunc_precondition(double_ray):
    S, basis, _ = double_ray
    with pytest.raises(PreconditionFailed):
        ts.kom_characterization_check(S, basis, ts.unit_symbol(2), S.tree.depth + 5)


def test_beta_from_orbit_values(double_ray):
    S, _, norms = double_ray
    beta = ts.beta_from_orbit(S, ts.L2Vector.basis(S.tree, S.tree.root), 5)
    expect = [1.0]
    for m in range(4):
        expect.append(expect[-1] * norms[m] ** 2)
    assert np.allclose(beta.beta, expect)


def test_beta_orbit_overflow(double_ray):
    S, _, _ = double_ray
    with pytest.raises(PreconditionFailed):
        ts.beta_from_orbit(S, ts.L2Vector.basis(S.tree, S.tree.root),
                           S.tree.depth + 5)


def test_wold_parts_live_in_kernel(double_ray):
    S, basis, _ = double_ray
    rng = stable_rng(3, "wold-kernel")
    f = ts.L2Vector.random(S.tree, S.tree.depth, rng)
    dec = ts.wold_decompose(S, basis, f)
    for part in dec.parts:
        assert ts.apply_adjoint(S, part).norm() < 1e-12


def test_hinf_membership_refuses_an_empty_grid():
    beta = ts.BetaWeights(np.ones(16))
    with pytest.raises(PreconditionFailed, match="grid is empty"):
        ts.hinf_membership(ts.ScalarSymbol(np.array([1.0, 0.5])), beta, beta, 8, truncs=[])


def test_hinf_membership_refuses_xs_of_another_length(monkeypatch):
    def no_norm(*args):
        raise AssertionError("a norm was computed before the grid was checked")

    monkeypatch.setattr(bal, "weighted_toeplitz_norm", no_norm)
    beta = ts.BetaWeights(np.ones(16))
    with pytest.raises(PreconditionFailed, match="1 x-coordinates for 2 truncations"):
        ts.hinf_membership(ts.ScalarSymbol(np.array([1.0, 0.5])), beta, beta, 8,
                           truncs=[4, 8], xs=[1.0])


def test_hinf_membership_honours_the_memory_budget(monkeypatch):
    def no_norm(*args):
        raise AssertionError("a norm was computed before the budget was checked")

    beta = ts.BetaWeights(np.ones(64))
    geom = ts.ScalarSymbol(0.5 ** np.arange(64))
    # the grid 16, 32, 64 needs 64^2 entries at its largest truncation
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 64 ** 2)
    assert ts.hinf_membership(geom, beta, beta, 64).verdict == ts.BOUNDED
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 64 ** 2 - 1)
    monkeypatch.setattr(bal, "weighted_toeplitz_norm", no_norm)
    with pytest.raises(DepthTooLargeForMemory, match="truncation 64 needs 4,096 dense entries"):
        ts.hinf_membership(geom, beta, beta, 64)
    # an explicit grid is judged by its largest truncation, wherever it sits
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 48 ** 2 - 1)
    with pytest.raises(DepthTooLargeForMemory, match="truncation 48 needs 2,304"):
        ts.hinf_membership(geom, beta, beta, 64, truncs=[48, 16])


def test_beta_from_orbit_refuses_a_negative_length(double_ray):
    S, _, _ = double_ray
    with pytest.raises(PreconditionFailed, match="length must be nonnegative, got -1"):
        ts.beta_from_orbit(S, ts.L2Vector.basis(S.tree, S.tree.root), -1)
