"""Randomized checks that run their trials as one block, against per-vector oracles.

Each oracle below is the per-vector loop the check used to run, one trial at a
time through the single-vector API.  The block form draws the same vectors in
the same order and must reproduce the loop's residual bit for bit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import treeshift as ts
from treeshift import balanced as bal
from treeshift import cli
from treeshift import harmonics as har
from treeshift import multiplier as mul
from treeshift import shift as sh
from treeshift import _util
from treeshift._util import stable_rng, worst_of

from conftest import oracle_shift_matrix


def _shift_and_basis(tree, weights):
    S = ts.ShiftOperator(tree, weights)
    return S, ts.separated_kernel_basis(S)


@pytest.fixture(scope="module")
def small_random():
    return _shift_and_basis(*ts.generate_random_tree(6, 3, 17))


@pytest.fixture(scope="module")
def wide_random():
    # kernel dimension 50: symbols extracted here pin the block matmul of
    # _convolve_array at a dimension past the 2 x 2 of the two-ray tree
    S, basis = _shift_and_basis(*ts.generate_random_tree(7, 3, 2))
    assert basis.dim >= 37
    return S, basis


def _polynomials(S):
    smat = oracle_shift_matrix(S.tree, S.weights)
    eye = np.eye(S.tree.n_vertices, dtype=np.complex128)
    return [smat @ smat, smat @ smat @ smat, eye + 0.5 * smat]


# -- oracles: the per-vector loops --------------------------------------------

def _commutant_loop(S, basis, A, trials, seed):
    tree = S.tree
    f_depth = tree.depth - 1 - mul.generation_raise(tree, A)
    phi = mul.extract_symbol(S, basis, A)
    worst = 0.0
    for t in range(trials):
        f = ts.L2Vector.random(tree, f_depth, stable_rng(seed, f"commutant-{t}"))
        lhs = ts.analytic_coeffs(S, basis, ts.L2Vector(tree, A @ f.data))
        rhs = ts.convolve_with_coeffs(phi, ts.analytic_coeffs(S, basis, f))
        worst = worst_of(worst, float(np.linalg.norm(lhs.coords - rhs.coords[:lhs.length])))
    return worst


def _product_law_loop(S, basis, phi, psi, trials, seed):
    tree = S.tree
    both = ts.convolve(phi, psi)
    worst = 0.0
    for t in range(trials):
        f = ts.L2Vector.random(tree, tree.depth, stable_rng(seed, f"product-law-{t}"))
        c = ts.analytic_coeffs(S, basis, f)
        one = ts.convolve_with_coeffs(phi, ts.convolve_with_coeffs(psi, c))
        two = ts.convolve_with_coeffs(both, c)
        worst = worst_of(worst, float(np.linalg.norm(one.coords - two.coords)))
    return worst


def _scalar_mult_loop(S, phi, f):
    acc = f * phi.coeffs[-1]
    for c in phi.coeffs[-2::-1]:
        acc.data[S._n_internal:] = 0.0
        acc = ts.apply_shift(S, acc) + f * c
    return acc


def _scalar_equivalence_loop(S, basis, phi, trials, seed):
    tree = S.tree
    f_depth = tree.depth - (phi.length - 1)
    worst = 0.0
    for t in range(trials):
        f = ts.L2Vector.random(tree, f_depth, stable_rng(seed, f"scalar-equiv-{t}"))
        direct = _scalar_mult_loop(S, phi, f)
        conv = ts.convolve_with_coeffs(phi, ts.analytic_coeffs(S, basis, f, order=f_depth))
        via_model = ts.reconstruct(S, basis, conv, support_depth=tree.depth)
        worst = worst_of(worst, (direct - via_model).norm())
    return worst


def _two_ray_projection_loop(tree, f, n, alpha):
    a2 = alpha ** 2 + 1.0
    c_root = (f[(1, n)] + alpha ** (2 - n) * f[(2, n)]) / a2
    c_pair = (alpha * f[(1, n + 1)] - alpha ** (-n) * f[(2, n + 1)]) / a2
    return ts.L2Vector.from_dict(tree, {(0, 0): c_root, (1, 1): c_pair * alpha,
                                        (2, 1): -c_pair})


def _example1_projection_loop(config):
    depth = max(config.depth, 14)
    tree, weights = ts.generate_example("T2", depth, [config.alpha])
    S, basis = _shift_and_basis(tree, weights)
    rng = stable_rng(config.seed, "example-t2")
    worst = 0.0
    for _ in range(50):
        f = ts.L2Vector.random(tree, depth, rng)
        lf = f
        for n in range(1, depth):
            lf = ts.apply_left_inverse(S, lf)
            pe = ts.project_kernel(S, basis, lf)
            closed = _two_ray_projection_loop(tree, f, n, config.alpha)
            worst = worst_of(worst, (pe - closed).norm())
    return worst


def _rotation_loop(S, basis, seed):
    tree = S.tree
    rng = stable_rng(seed, "harmonics")
    w = np.exp(1j * 0.7)
    worst_norm = worst_coef = 0.0
    for _ in range(10):
        f = ts.L2Vector.random(tree, tree.depth, rng)
        fw = ts.rotate_vector(tree, f, w)
        worst_norm = worst_of(worst_norm, abs(fw.norm() - f.norm()))
        cw = ts.analytic_coeffs(S, basis, fw)
        c = ts.analytic_coeffs(S, basis, f)
        diag = ts.rotation_diagonal(basis, w)
        for n in range(c.length):
            worst_coef = worst_of(worst_coef, float(np.linalg.norm(
                cw.coords[n] - (w ** n) * diag.phases * c.coords[n])))
    return worst_norm, worst_coef


def _wold_loop(S, basis, f):
    """The per-vector Wold parts, residual and layer norms."""
    seq = ts.analytic_coeffs(S, basis, f)
    parts = [basis.from_coords(seq.coords[n]) for n in range(seq.length)]
    residual = (f - ts.expand_layers(S, basis, seq)).norm()
    norms = []
    for n, part in enumerate(parts):
        for _ in range(n):
            part = ts.apply_shift(S, part)
        norms.append(part.norm())
    return parts, residual, norms


def _wold_parseval_loop(seed):
    depth = 20
    tree, weights = ts.balanced_double_ray(depth, [1.0 + 1.0 / (m + 1) for m in range(depth)])
    S, basis = _shift_and_basis(tree, weights)
    rng = stable_rng(seed, "balanced")
    for _ in range(25):
        # the draws of balanced-pairing, which runs first on the same stream
        k = int(rng.integers(0, 3))
        for _ in range(4 * len(tree.generations[k])):
            rng.standard_normal()
        rng.integers(0, min(4, depth - k))
    worst = 0.0
    for _ in range(10):
        f = ts.L2Vector.random(tree, depth, rng)
        _, residual, layer = _wold_loop(S, basis, f)
        worst = worst_of(worst, abs(sum(x ** 2 for x in layer) - f.norm() ** 2), residual)
    return worst


def _is_balanced_loop(S):
    tree = S.tree
    for gen in tree.generations:
        internal = [u for u in gen if tree.children[u]]
        if len(internal) < 2:
            continue
        norms = [np.sqrt(S.norm_squares[u]) for u in internal]
        lo, hi = int(np.argmin(norms)), int(np.argmax(norms))
        if norms[hi] - norms[lo] > sh.BALANCED_TOL:
            return False, (internal[lo], internal[hi])
    return True, None


def _toeplitz_loop(a, beta1, beta2, t):
    mat = np.zeros((t, t), dtype=np.complex128)
    for m in range(t):
        vals = np.zeros(t - m, dtype=np.complex128)
        upto = min(len(a), t - m)
        vals[:upto] = a[:upto]
        mat[m:, m] = vals * np.sqrt(beta2[m:t] / beta1[m])
    return _util.dense_spectral_norm(mat)


def _cesaro_loop(S, basis, phi, orders, test_vectors, seed):
    """The per-vector Cesàro experiment: one coefficient pass and one reconstruct
    for each test vector under each symbol."""
    tree = S.tree
    f_depth = max(0, mul._test_vector_depth(basis, phi.length))

    def apply_symbol(sym, f):
        conv = ts.convolve_with_coeffs(sym, ts.analytic_coeffs(S, basis, f, order=f_depth))
        return ts.reconstruct(S, basis, conv, tree.depth)

    work_depth = max(1, min(f_depth, max(4, tree.depth // 2)))
    full_norm = ts.compressed_multiplication_norm(S, basis, phi, work_depth, seed=seed)
    targets = [apply_symbol(phi, f) for f in test_vectors]
    rows, norms = [], {}
    for order in orders:
        sym_n = ts.fejer_truncate(ts.fejer_symbol(order), phi)
        norms[order] = ts.compressed_multiplication_norm(S, basis, sym_n, work_depth, seed=seed)
        for vid, f in enumerate(test_vectors):
            error = (apply_symbol(sym_n, f) - targets[vid]).norm()
            rows.append(har.ConvergenceRow(order=order, vector_id=vid, error=error))
    return har.ConvergenceReport(rows=rows, norm_estimates=norms,
                                 full_norm_estimate=full_norm, working_depth=work_depth)


def _kernel_vector_loop(basis, j):
    """Kernel vector j written entry by entry from the closed form."""
    out = ts.L2Vector.zero(basis.tree)
    p, t = basis._pos[j], basis._rank[j]
    out.data[p - t:p] = basis._coef[j] * basis._wprev[j - t + 1:j + 1]
    out.data[p] = basis._diag[j]
    return out


def _ratio_bounds_loop(S, basis):
    """The per-direction ratio bands: each kernel vector shifted alone."""
    tree = S.tree
    base = S.norm_upper / S.lower_bound
    gens = basis.gen_index
    norms = []
    for j in range(basis.dim):
        cur = _kernel_vector_loop(basis, j)
        seq = [cur.norm()]
        for _ in range(tree.depth - int(gens[j])):
            cur = ts.apply_shift(S, cur)
            seq.append(cur.norm())
        norms.append(seq)
    worst = 0.0
    pairs = 0
    classes = {}
    for j, k in enumerate(gens):
        classes.setdefault(int(k), []).append(j)
    for ki in sorted(classes):
        for kj in sorted(classes):
            span = abs(ki - kj)
            hi, lo = base ** span, (1.0 / base) ** span
            for n in range(0, tree.depth - max(ki, kj) + 1):
                vi = [norms[j][n] for j in classes[ki]]
                vj = [norms[j][n] for j in classes[kj]]
                rmax, rmin = max(vi) / min(vj), min(vi) / max(vj)
                pairs += 1
                worst = worst_of(worst, rmax / hi - 1.0, lo / rmin - 1.0 if rmin > 0 else 0.0)
    return bal.RatioBoundsReport(ok=worst <= 1e-10, max_ratio_excess=worst,
                                 pairs_checked=pairs, bound_base=base)


def _random_op(rng, length, dim):
    shape = (length, dim, dim)
    return ts.OpSymbol(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _record(records, name):
    (rec,) = [r for r in records if r.name == name]
    return rec


# -- the block checks against the loops -------------------------------------------

def test_commutant_check_block_matches_per_vector_loop(t2_shift, small_random, wide_random):
    for S, basis in (t2_shift, small_random, wide_random):
        for A in _polynomials(S):
            for trials, seed in ((20, 0), (1, 3)):
                rep = ts.commutant_check(S, basis, A, trials=trials, seed=seed)
                assert rep.max_residual == _commutant_loop(S, basis, A, trials, seed)
        # A f for all trials is one matrix-matrix product, f alone a
        # matrix-vector product; where a row of A sums two products the two
        # BLAS kernels may round apart, so S + S^2 agrees to rounding only
        smat = oracle_shift_matrix(S.tree, S.weights)
        A = smat + smat @ smat
        rep = ts.commutant_check(S, basis, A, trials=20)
        assert abs(rep.max_residual - _commutant_loop(S, basis, A, 20, 0)) <= 1e-14


def test_product_law_block_matches_per_vector_loop(t2_shift, small_random, wide_random):
    rng = stable_rng(21, "product-blocks")
    scalars = (ts.ScalarSymbol(np.array([1.0, 0.5, 0.25])), ts.ScalarSymbol(np.array([0.5, -0.25])),
               ts.ScalarSymbol(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    for S, basis in (t2_shift, small_random, wide_random):
        dim = basis.dim
        ops = [_random_op(rng, k, dim) for k in (2, 3)]
        for phi, psi in ((scalars[0], scalars[1]), (scalars[2], scalars[0]), (ops[0], ops[1]),
                         (scalars[2], ops[0])):
            rep = ts.product_law_check(S, basis, phi, psi, trials=7, seed=2)
            assert rep.max_residual == _product_law_loop(S, basis, phi, psi, 7, 2)


def test_scalar_equivalence_block_matches_per_vector_loop(t2_shift, small_random):
    # the random tree has kernel vectors in its last generation, and its test
    # vectors still get length - 1 generations of headroom
    rng = stable_rng(22, "equiv-blocks")
    for S, basis in (t2_shift, small_random):
        for phi in (ts.ScalarSymbol(np.array([1.0, 0.5, 0.25])),
                    ts.ScalarSymbol(rng.standard_normal(2) + 1j * rng.standard_normal(2))):
            rep = ts.scalar_equivalence_check(S, basis, phi, trials=10, seed=4)
            assert rep.max_residual == _scalar_equivalence_loop(S, basis, phi, 10, 4)
            f = ts.L2Vector.random(S.tree, S.tree.depth, rng)
            assert np.array_equal(mul._scalar_mult_array(S, phi, f.data),
                                  _scalar_mult_loop(S, phi, f).data)


def test_convolve_block_matches_per_sequence_at_dimension_37():
    # From two rows on, a sequence and a block both take a matrix-matrix
    # kernel and agree bit for bit.  A one-row sequence takes a vector-matrix
    # kernel, which can round differently from the column of a block.
    rng = stable_rng(23, "convolve-blocks")
    for dim in (2, 37, 120):
        phi = _random_op(rng, 3, dim)
        for length in (1, 2, 6):
            for m in (1, 2, 9):
                shape = (length, dim, m)
                block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                out = mul._convolve_array(phi, block)
                for t in range(m):
                    seq = ts.CoeffSeq(coords=np.ascontiguousarray(block[:, :, t]),
                                      exact_to=length - 1)
                    want = ts.convolve_with_coeffs(phi, seq).coords
                    if length > 1:
                        assert np.array_equal(out[:, :, t], want)
                    else:
                        assert np.allclose(out[:, :, t], want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("seed", [0, 5])
def test_example1_projection_block_matches_per_vector_loop(seed):
    config = cli.RunConfig(seed=seed, suites=("example-t2",))
    records = cli.run(config).records
    assert _record(records, "example1-projection").residual == _example1_projection_loop(config)


def _rotation_case(tmp_path, tree_args, **config):
    if tree_args is not None:
        spec = tmp_path / "random.json"
        ts.save_tree_spec(ts.tree_to_spec(*ts.generate_random_tree(*tree_args)), str(spec))
        config["tree_path"] = str(spec)
    config = cli.RunConfig(suites=("harmonics",), **config)
    _, tree, weights = cli._default_trees(config)[0]
    S, basis = _shift_and_basis(tree, weights)
    records = cli.run(config).records
    got = (_record(records, "rotation-norm").residual,
           _record(records, "rotation-coefficients").residual)
    return got, _rotation_loop(S, basis, config.seed)


def test_rotation_block_matches_per_vector_loop(tmp_path):
    for tree_args, config in ((None, {"depth": 14, "seed": 1}), ((7, 3, 2), {"seed": 2})):
        got, want = _rotation_case(tmp_path, tree_args, **config)
        assert got == want
    # generations 1-5 of this tree hold one vertex each: numpy scales the
    # one-element run of a single vector in place without fused multiply-add,
    # but the block scales that vertex over all trials as one run with it, so
    # the two agree to rounding only
    got, want = _rotation_case(tmp_path, (6, 3, 17), seed=2)
    assert all(abs(a - b) <= 1e-15 for a, b in zip(got, want))


@pytest.mark.parametrize("seed", [0, 7])
def test_wold_parseval_block_matches_per_vector_loop(seed):
    records = cli.run(cli.RunConfig(seed=seed, suites=("balanced",))).records
    assert _record(records, "wold-parseval").residual == _wold_parseval_loop(seed)


def test_wold_decompose_matches_per_vector_loop():
    tree, weights = ts.balanced_double_ray(12, [1.0 + 0.5 / (m + 1) for m in range(12)])
    S, basis = _shift_and_basis(tree, weights)
    rng = stable_rng(24, "wold-blocks")
    for _ in range(3):
        f = ts.L2Vector.random(tree, tree.depth, rng)
        dec = ts.wold_decompose(S, basis, f)
        parts, residual, norms = _wold_loop(S, basis, f)
        assert all(np.array_equal(a.data, b.data) for a, b in zip(dec.parts, parts))
        assert len(dec.parts) == len(parts)
        assert dec.residual == residual
        assert dec.layer_norms(S) == norms


def test_is_balanced_keeps_its_witness_pair(t2, random_tree_batch):
    trees = [t2, ts.generate_random_tree(8, 3, 0), ts.generate_random_tree(7, 3, 2),
             ts.generate_example("T4", 2, []), ts.generate_example("UNILATERAL", 3, [1.0] * 3),
             ts.balanced_double_ray(6, [1.0 + m for m in range(6)]), *random_tree_batch]
    unbalanced = 0
    for tree, weights in trees:
        S = ts.ShiftOperator(tree, weights)
        got = ts.is_balanced(S)
        assert got == _is_balanced_loop(S)
        unbalanced += not got[0]
    assert unbalanced >= 3
    ok, witness = ts.is_balanced(ts.ShiftOperator(*ts.generate_random_tree(8, 3, 0)))
    assert not ok and witness == ((1, 0), (1, 1))


def test_weighted_toeplitz_norm_matches_column_loop():
    rng = stable_rng(25, "toeplitz")
    beta = np.abs(rng.standard_normal(40)) + 0.1
    cases = [(0.5 ** np.arange(256), np.ones(256), np.ones(256), t) for t in (16, 64, 256)]
    cases += [(rng.standard_normal(k) + 1j * rng.standard_normal(k), beta, beta[::-1].copy(), t)
              for k, t in ((3, 20), (50, 40), (1, 1))]
    for a, beta1, beta2, t in cases:
        assert bal.weighted_toeplitz_norm(a, beta1, beta2, t) == _toeplitz_loop(a, beta1, beta2, t)


def test_block_checks_make_one_coefficient_pass_per_block(t2_shift, monkeypatch):
    S, basis = t2_shift
    calls = []
    inner = mul._coeff_array

    def counted(S, basis, x, order):
        calls.append(x.shape)
        return inner(S, basis, x, order)

    monkeypatch.setattr(mul, "_coeff_array", counted)
    smat = oracle_shift_matrix(S.tree, S.weights)
    ts.commutant_check(S, basis, smat @ smat, trials=20)
    # extract_symbol's kernel block, then A f and f for all 20 trials at once
    assert [shape[1:] for shape in calls] == [(basis.dim,), (20,), (20,)]
    calls.clear()
    ts.scalar_equivalence_check(S, basis, ts.ScalarSymbol(np.array([1.0, 0.5])), trials=10)
    assert [shape[1:] for shape in calls] == [(10,)]


def _double_rays():
    return [ts.balanced_double_ray(20, [1.0 + 1.0 / (m + 1) for m in range(20)]),
            ts.balanced_double_ray(9, [0.5 + 0.25 * m for m in range(9)])]


def test_cesaro_block_matches_per_vector_loop(t2_shift):
    rng = stable_rng(26, "cesaro-blocks")
    # generate_random_tree(6, 3, 17) leaves no headroom for a test vector, as above
    trees = [t2_shift, _shift_and_basis(*ts.generate_random_tree(8, 2, 5)),
             *(_shift_and_basis(*ray) for ray in _double_rays())]
    symbols = [ts.ScalarSymbol(0.5 ** np.arange(4)),
               ts.ScalarSymbol(rng.standard_normal(3) + 1j * rng.standard_normal(3))]
    for S, basis in trees:
        tree = S.tree
        for phi in symbols:
            f_depth = max(0, mul._test_vector_depth(basis, phi.length))
            vecs = [ts.L2Vector.basis(tree, tree.root),
                    *(ts.L2Vector.random(tree, f_depth, rng) for _ in range(3))]
            for orders in ([4, 32], [0, 1, 2, 8]):
                rep = ts.cesaro_convergence_experiment(S, basis, phi, orders, vecs, seed=3)
                assert rep == _cesaro_loop(S, basis, phi, orders, vecs, 3)
            # no test vectors: no rows, as in the loop
            rep = ts.cesaro_convergence_experiment(S, basis, phi, [2, 4], [], seed=3)
            assert rep.rows == [] and rep == _cesaro_loop(S, basis, phi, [2, 4], [], 3)


def test_cesaro_makes_one_coefficient_pass_and_one_walk_per_symbol(t2_shift, monkeypatch):
    from treeshift import model

    S, basis = t2_shift
    walks = []
    inner = model._layer_array
    monkeypatch.setattr(model, "_layer_array",
                        lambda *args: walks.append(args[2].shape) or inner(*args))
    passes = []
    monkeypatch.setattr(har, "_coeff_array",
                        lambda *args, f=har._coeff_array: passes.append(args[2].shape) or f(*args))
    tree = S.tree
    phi = ts.ScalarSymbol(0.5 ** np.arange(8))
    vecs = [ts.L2Vector.basis(tree, tree.root),
            ts.L2Vector.random(tree, mul._test_vector_depth(basis, phi.length), stable_rng(1, "c"))]
    ts.cesaro_convergence_experiment(S, basis, phi, [4, 32], vecs)
    assert passes == [(tree.n_vertices, 2)]
    # the target, then one walk per order, each over both vectors
    assert [shape[2:] for shape in walks] == [(2,)] * 3


def test_kernel_vectors_match_their_closed_form(t2_shift, small_random):
    for S, basis in (t2_shift, small_random, _shift_and_basis(*ts.generate_example("T4", 2, []))):
        block = basis._vectors(0, basis.dim)
        for j in range(basis.dim):
            want = _kernel_vector_loop(basis, j).data
            assert np.array_equal(basis.vector(j).data, want)
            assert np.array_equal(block[:, j], want)


def test_ratio_bounds_block_matches_per_direction_loop(monkeypatch):
    cases = [_shift_and_basis(*ray) for ray in _double_rays()]
    cases += [_shift_and_basis(*ts.generate_example("T4", 2, [])),
              _shift_and_basis(*ts.generate_example("UNILATERAL", 6, [1.0 + m for m in range(6)]))]
    for S, basis in cases:
        assert ts.ratio_bounds_check(S, basis) == _ratio_bounds_loop(S, basis)
    # three kernel directions a block on T4 (64 of them)
    S, basis = cases[2]
    monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", 3 * S.tree.n_vertices)
    assert ts.ratio_bounds_check(S, basis) == _ratio_bounds_loop(S, basis)


def test_ratio_bounds_walk_wide_kernels_in_small_chunks(monkeypatch):
    # T4 at depth 3: 4,032 of its 4,096 kernel columns are read only at step 0
    S, basis = _shift_and_basis(*ts.generate_example("T4", 3, []))
    peaks, reports = [], []
    for width in (bal.RATIO_CHUNK_COLUMNS, basis.dim):
        monkeypatch.setattr(bal, "RATIO_CHUNK_COLUMNS", width)
        tracemalloc.start()
        try:
            reports.append(ts.ratio_bounds_check(S, basis))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert reports[0] == reports[1]
    # 5.4 MB against 47 MB in chunks of the whole dense budget (480 columns)
    assert peaks[0] <= 8 * 2**20 < peaks[1]


def test_ratio_bounds_shift_the_kernel_block_once_per_generation(monkeypatch):
    S, basis = _shift_and_basis(*_double_rays()[0])
    widths = []
    inner = bal._shift_power_map

    def counted(S, k):
        shift = inner(S, k)
        return lambda x: widths.append(x.shape[1]) or shift(x)

    monkeypatch.setattr(bal, "_shift_power_map", counted)
    ts.ratio_bounds_check(S, basis)
    # both directions for 19 shifts; the root direction alone for the 20th
    assert widths == [2] * 19 + [1]
