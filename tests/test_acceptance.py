"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are fixed here, not configurable.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

import treeshift as ts
from treeshift._util import stable_rng
from treeshift.cli import RunConfig, run
from treeshift.errors import NotInCommutant

from conftest import oracle_shift_matrix

TOL_POWER = 1e-10
TOL_ALG = 1e-12


def criterion(num: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] FAIL  {label}")
                raise
            print(f"[criterion {num}] PASS  {label}")
        return inner
    return wrap


@pytest.fixture(scope="module")
def battery():
    trees = {
        "two-ray": ts.generate_example("T2", 14, [0.5]),
        "chain": ts.generate_example("UNILATERAL", 12, [1.0] * 12),
        "quartic-d2": ts.generate_example("T4", 2, []),
    }
    for seed in range(3):
        trees[f"random-{seed}"] = ts.generate_random_tree(8, 3, seed)
    out = {}
    for label, (tree, weights) in trees.items():
        S = ts.ShiftOperator(tree, weights)
        out[label] = (S, ts.separated_kernel_basis(S))
    return out


@criterion(1, "core identities at 1e-10 on the full tree battery, under 5 s")
def test_criterion_1_core_identities():
    start = time.time()
    cases = [
        ts.generate_example("T2", 14, [0.5]),
        ts.generate_example("T4", 3, []),
        ts.generate_example("UNILATERAL", 12, [1.0] * 12),
        ts.generate_example("UNILATERAL", 10, [0.5 + 0.1 * k for k in range(10)]),
    ]
    cases += [ts.generate_random_tree(8, 3, seed) for seed in range(20)]
    worst = 0.0
    for tree, weights in cases:
        S = ts.ShiftOperator(tree, weights)
        basis = ts.separated_kernel_basis(S)
        rng = stable_rng(100, f"crit1-{tree.n_vertices}")
        for _ in range(10):
            f = ts.L2Vector.random(tree, tree.depth - 1, rng)
            g = ts.L2Vector.random(tree, tree.depth, rng)
            sf = ts.apply_shift(S, f)
            worst = max(worst, (ts.apply_left_inverse(S, sf) - f).norm())
            pe = ts.project_kernel(S, basis, g)
            alt = g - ts.apply_shift(S, ts.apply_left_inverse(S, g))
            worst = max(worst, (pe - alt).norm())
            worst = max(worst, abs(sf.inner(g) - f.inner(ts.apply_adjoint(S, g))))
        for j in range(basis.dim):
            worst = max(worst, ts.apply_left_inverse(S, basis.vector(j)).norm())
    elapsed = time.time() - start
    assert worst <= TOL_POWER, worst
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "two-ray reproduction: basis, projections, verdicts, witness sums, under 30 s")
def test_criterion_2_example_one():
    start = time.time()
    alpha = 0.5
    depth = 14
    tree, weights = ts.generate_example("T2", depth, [alpha])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)

    # (a) kernel basis has the closed form up to normalization and sign
    scale = np.sqrt(alpha ** 2 + 1.0)
    pair = ts.L2Vector.from_dict(tree, {(1, 1): alpha / scale, (2, 1): -1.0 / scale})
    got = basis.vector(1)
    assert min((got - pair).norm(), (got + pair).norm()) <= TOL_ALG
    assert (basis.vector(0) - ts.L2Vector.basis(tree, (0, 0))).norm() <= TOL_ALG

    # (b) kernel projection of L^n f matches the closed form entrywise
    rng = stable_rng(200, "crit2")
    a2 = alpha ** 2 + 1.0
    for _ in range(50):
        f = ts.L2Vector.random(tree, depth, rng)
        g = f
        for n in range(1, depth):
            g = ts.apply_left_inverse(S, g)
            pe = ts.project_kernel(S, basis, g)
            c_root = (f[(1, n)] + alpha ** (2 - n) * f[(2, n)]) / a2
            c_pair = (alpha * f[(1, n + 1)] - alpha ** float(-n) * f[(2, n + 1)]) / a2
            closed = {(0, 0): c_root, (1, 1): c_pair * alpha, (2, 1): -c_pair}
            for v, want in closed.items():
                assert abs(pe[v] - want) <= 1e-12 * max(1.0, abs(want)), (v, n)
            rest = pe.as_dict()
            for v in rest:
                if v not in closed:
                    assert abs(rest[v]) <= 1e-12

    # (c) membership verdicts for the constant families and the two-term family
    bad_blocks = [
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[1.0, 1.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [1.0, 1.0]]),
    ]
    for block in bad_blocks:
        sym = ts.two_ray_symbol(basis, alpha, [block])
        rep = ts.membership_diagnostic(S, basis, sym, range(1, depth - 1))
        assert rep.verdict == ts.DIVERGENT, block
    adm = ts.two_ray_admissible_symbol(basis, alpha, 0.7, -0.4, 0.2, 1.1)
    assert ts.membership_diagnostic(S, basis, adm, range(1, depth - 1)).verdict == ts.BOUNDED

    # witness partial sums: per-term mass alpha^4 |a-d|^2 / (alpha^2+1)^2
    a, d = 1.0, 0.0
    sym = ts.two_ray_symbol(basis, alpha, [np.diag([a, d]).astype(complex)])
    witness = ts.two_ray_divergence_witness(tree, alpha, depth - 1)
    conv = ts.convolve_with_coeffs(sym, ts.analytic_coeffs(S, basis, witness))
    keep = conv.coords.copy()
    for n in range(keep.shape[0]):
        keep[n][basis.gen_index + n > depth] = 0.0
    image = ts.expand_layers(S, basis, ts.CoeffSeq(keep, conv.exact_to))
    per_term = alpha ** 4 * abs(a - d) ** 2 / a2 ** 2
    partial = 0.0
    expected = 0.0
    for m in range(3, depth, 3):
        partial += abs(image[(1, m)]) ** 2
        expected += per_term
        assert abs(partial - expected) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(3, "commutant symbols at 1e-10; polynomial symbols recovered; rejection works")
def test_criterion_3_commutant(battery):
    rng = stable_rng(300, "crit3")
    for label, (S, basis) in battery.items():
        tree = S.tree
        if tree.n_vertices > 700:
            continue
        smat = oracle_shift_matrix(tree, S.weights)
        eye_op = np.eye(tree.n_vertices, dtype=np.complex128)
        mats = {"I": eye_op, "S": smat}
        if tree.depth >= 3:
            mats["S2"] = smat @ smat
        deg_cap = min(4, tree.depth - 1)
        polys = {}
        for t in range(10):
            coeffs = rng.standard_normal(deg_cap + 1)
            polys[f"p{t}"] = (coeffs, sum(
                c * np.linalg.matrix_power(smat, k) for k, c in enumerate(coeffs)))
        for name, A in mats.items():
            rep = ts.commutant_check(S, basis, A, trials=5, seed=301)
            assert rep.max_residual <= TOL_POWER, (label, name, rep.max_residual)
        for name, (coeffs, A) in polys.items():
            rep = ts.commutant_check(S, basis, A, trials=5, seed=302)
            assert rep.max_residual <= TOL_POWER, (label, name, rep.max_residual)
            phi = ts.extract_symbol(S, basis, A)
            deg = len(coeffs) - 1
            eye_k = np.eye(basis.dim)
            # exact on kernel directions with room for the polynomial degree
            exact_cols = [j for j in range(basis.dim)
                          if basis.gen_index[j] + deg <= tree.depth]
            assert exact_cols, label
            scale = float(np.abs(coeffs).max())
            for m in range(phi.length):
                want = (coeffs[m] if m <= deg else 0.0)
                block = phi.mats[m][:, exact_cols] - want * eye_k[:, exact_cols]
                assert np.abs(block).max() <= 1e-12 * max(1.0, scale), (label, name, m)
        proj = np.zeros_like(eye_op)
        proj[0, 0] = 1.0
        with pytest.raises(NotInCommutant):
            ts.commutant_check(S, basis, proj)


@criterion(4, "convolution algebra laws at 1e-10 over 100 seeded symbol pairs")
def test_criterion_4_algebra_laws(battery):
    S, basis = battery["two-ray"]
    rng = stable_rng(400, "crit4")
    dim = basis.dim
    unit = ts.unit_symbol(dim)
    for t in range(100):
        la, lb, lc = (int(rng.integers(1, 5)) for _ in range(3))
        a = ts.OpSymbol(rng.standard_normal((la, dim, dim))
                        + 1j * rng.standard_normal((la, dim, dim)))
        b = ts.OpSymbol(rng.standard_normal((lb, dim, dim))
                        + 1j * rng.standard_normal((lb, dim, dim)))
        c = ts.OpSymbol(rng.standard_normal((lc, dim, dim))
                        + 1j * rng.standard_normal((lc, dim, dim)))
        au = ts.convolve(a, unit)
        assert np.linalg.norm(au.mats[:la] - a.mats) <= TOL_POWER
        one = ts.convolve(ts.convolve(a, b), c)
        two = ts.convolve(a, ts.convolve(b, c))
        assert np.linalg.norm(one.mats - two.mats) <= TOL_POWER
        sa = ts.ScalarSymbol(rng.standard_normal(la) + 1j * rng.standard_normal(la))
        sb = ts.ScalarSymbol(rng.standard_normal(lb) + 1j * rng.standard_normal(lb))
        assert np.linalg.norm(ts.convolve(sa, sb).coeffs
                              - ts.convolve(sb, sa).coeffs) <= TOL_POWER
        phi = ts.ScalarSymbol(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        psi = ts.ScalarSymbol(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        rep = ts.product_law_check(S, basis, phi, psi, trials=2, seed=400 + t)
        assert rep.max_residual <= TOL_POWER


@criterion(5, "harmonics: rotations, exact quadrature, window decay and domination")
def test_criterion_5_harmonics(battery):
    S, basis = battery["two-ray"]
    tree = S.tree
    rng = stable_rng(500, "crit5")
    w = np.exp(0.813j)
    diag = ts.rotation_diagonal(basis, w)
    for _ in range(20):
        f = ts.L2Vector.random(tree, tree.depth, rng)
        fw = ts.rotate_vector(tree, f, w)
        assert abs(fw.norm() - f.norm()) <= 1e-13
        c = ts.analytic_coeffs(S, basis, f)
        cw = ts.analytic_coeffs(S, basis, fw)
        for n in range(c.length):
            assert np.linalg.norm(
                cw.coords[n] - (w ** n) * diag.phases * c.coords[n]) <= 1e-12
    phi = ts.ScalarSymbol(np.array([1.0, 0.5, 0.25]))
    for k in (1, 0, -1, -3):
        assert ts.circle_integral_check(S, basis, phi, k, seed=501) <= TOL_POWER
    geom = ts.ScalarSymbol(0.5 ** np.arange(8))
    f_depth = tree.depth - (geom.length - 1) - basis.max_generation
    vecs = [ts.L2Vector.basis(tree, tree.root),
            ts.L2Vector.random(tree, f_depth, rng),
            ts.L2Vector.random(tree, f_depth, rng)]
    rep = ts.cesaro_convergence_experiment(S, basis, geom, [4, 32], vecs, seed=502)
    for vid in range(len(vecs)):
        errs = rep.errors_for(vid)
        assert errs[32] < errs[4]
    for order, est in rep.norm_estimates.items():
        assert est <= rep.full_norm_estimate * 1.05


@criterion(6, "balanced suite: pairing, Parseval, ratio bands, verdict agreement")
def test_criterion_6_balanced():
    depth = 20
    gen_norms = [1.0 + 1.0 / (m + 1) for m in range(depth)]
    tree, weights = ts.balanced_double_ray(depth, gen_norms)
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    t4, w4 = ts.generate_example("T4", 3, [])
    S4 = ts.ShiftOperator(t4, w4)
    b4 = ts.separated_kernel_basis(S4)

    rng = stable_rng(600, "crit6")
    for case, (Sx, gen_cap) in {"ray": (S, 3), "quartic": (S4, 2)}.items():
        for _ in range(50):
            k = int(rng.integers(0, gen_cap))
            gen = Sx.tree.generations[k]
            pick = gen if len(gen) <= 8 else [gen[int(i)] for i in
                                              rng.choice(len(gen), 8, replace=False)]
            f = ts.L2Vector.from_dict(Sx.tree, {
                v: complex(rng.standard_normal(), rng.standard_normal()) for v in pick})
            g = ts.L2Vector.from_dict(Sx.tree, {
                v: complex(rng.standard_normal(), rng.standard_normal()) for v in pick})
            n = int(rng.integers(0, Sx.tree.depth - k + 1))
            u_prime = Sx.tree.generations[k + n][0]
            resid = ts.balanced_inner_product_check(Sx, f, g, n, u_prime)
            assert resid <= TOL_POWER * max(1.0, f.norm() * g.norm() * 40), case

    for _ in range(20):
        f = ts.L2Vector.random(tree, depth, rng)
        dec = ts.wold_decompose(S, basis, f)
        norms = dec.layer_norms(S)
        assert abs(sum(x ** 2 for x in norms) - f.norm() ** 2) <= TOL_POWER
        assert dec.residual <= TOL_POWER

    assert ts.ratio_bounds_check(S4, b4).ok
    assert ts.ratio_bounds_check(S, basis).ok

    sym = ts.indicator_symbol(2, basis.dim, np.array([[0.3, -0.2], [0.1, 0.7]]))
    rep1 = ts.kom_characterization_check(S, basis, sym, depth + 1, seed=601)
    assert rep1.agree
    geo = ts.ScalarSymbol(0.5 ** np.arange(4))
    rep2 = ts.kom_characterization_check(S4, b4, geo, 4, seed=602)
    assert rep2.agree
    chain, wc = ts.generate_example("UNILATERAL", 20, [1.0] * 20)
    Sc = ts.ShiftOperator(chain, wc)
    bc = ts.separated_kernel_basis(Sc)
    harm = ts.ScalarSymbol(1.0 / (np.arange(21) + 1.0))
    rep3 = ts.kom_characterization_check(Sc, bc, harm, 21, seed=603)
    assert rep3.agree
    assert rep3.multiplication_side.verdict == ts.DIVERGENT


@criterion(7, "weighted Toeplitz oracle: norm 2 within 2% by 256, divergence by 512, under 60 s")
def test_criterion_7_hinf_oracle():
    start = time.time()
    beta256 = ts.BetaWeights(np.ones(256))
    geom = ts.ScalarSymbol(0.5 ** np.arange(256))
    rep = ts.hinf_membership(geom, beta256, beta256, 256)
    assert abs(rep.norms[-1] - 2.0) / 2.0 <= 0.02
    assert rep.verdict == ts.BOUNDED
    beta512 = ts.BetaWeights(np.ones(512))
    harm = ts.ScalarSymbol(1.0 / (np.arange(512) + 1.0))
    rep2 = ts.hinf_membership(harm, beta512, beta512, 512)
    assert rep2.verdict == ts.DIVERGENT
    assert rep2.slope > ts.multiplier.SLOPE_THRESHOLD
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@criterion(8, "model round-trip at 1e-10 and adjoint eigen-residuals within tail bounds")
def test_criterion_8_model(battery):
    for label, (S, basis) in battery.items():
        tree = S.tree
        rng = stable_rng(800, f"crit8-{label}")
        system = ts.CoefficientSystem(S, basis, tree.depth, tree.depth)
        for _ in range(100):
            f = ts.L2Vector.random(tree, tree.depth, rng)
            c = ts.analytic_coeffs(S, basis, f)
            back = ts.reconstruct(S, basis, c, tree.depth, system=system)
            assert (back - f).norm() <= TOL_POWER, label
        rho = ts.spectral_radius_estimate(S).estimate
        for t in range(10):
            lam = complex(*rng.uniform(-0.4, 0.4, 2)) / max(rho, 1.0)
            j = int(rng.integers(0, min(basis.dim, 8)))
            order = tree.depth - int(basis.gen_index[j]) - 1
            if order < 1:
                continue
            rep = ts.eigenvector_residual(S, basis, lam, j, order=order, rho=rho)
            assert rep.residual <= rep.tail_bound, (label, lam, j)


@criterion(9, "reports are byte-identical across runs with a fixed seed")
def test_criterion_9_determinism(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    cfg = dict(suites=("all",), seed=20260808, depth=12)
    run(RunConfig(out=str(a), **cfg))
    run(RunConfig(out=str(b), **cfg))
    body_a = a.read_bytes()
    assert body_a == b.read_bytes()
    assert len(body_a) > 0
