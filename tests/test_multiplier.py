from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import treeshift as ts
from treeshift._util import stable_rng
from treeshift.errors import DimensionMismatch, Inconsistent, NotInCommutant, PreconditionFailed
from treeshift.multiplier import _scalar_mult_array
from treeshift.tree import _prefix_size

from conftest import oracle_lambda_product, oracle_shift_matrix

complex_lists = st.lists(
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=5)


def test_scalar_identity_symbol(t2_shift, t2):
    S, _ = t2_shift
    tree, _ = t2
    rng = stable_rng(0, "scalar-id")
    phi = ts.ScalarSymbol(np.array([1.0]))
    f = ts.L2Vector.random(tree, tree.depth, rng)
    assert np.linalg.norm(_scalar_mult_array(S, phi, f.data) - f.data) < 1e-15


def test_scalar_basis_action_closed_form(t2_shift, t2):
    # action on e_u must be lambda(u|v) phi(|v|-|u|) over descendants
    S, _ = t2_shift
    tree, weights = t2
    phi = ts.ScalarSymbol(np.array([0.3, -1.0, 0.25j]))
    for u in [(0, 0), (1, 2), (2, 3)]:
        got = _scalar_mult_array(S, phi, ts.L2Vector.basis(tree, u).data)
        for v in tree.vertices:
            gap = tree.generation[v] - tree.generation[u]
            expected = 0.0
            if 0 <= gap < phi.length:
                expected = oracle_lambda_product(tree, weights, u, v) * phi.coeffs[gap]
            assert abs(got[tree.index[v]] - expected) < 1e-14, (u, v)


def test_scalar_shift_symbol_is_shift(t2_shift, t2):
    S, _ = t2_shift
    tree, _ = t2
    rng = stable_rng(1, "scalar-shift")
    phi = ts.ScalarSymbol(np.array([0.0, 1.0]))
    for _ in range(5):
        f = ts.L2Vector.random(tree, tree.depth - 1, rng)
        assert np.linalg.norm(_scalar_mult_array(S, phi, f.data)
                              - ts.apply_shift(S, f).data) < 1e-13


def test_scalar_adjoint_pairing(t2_shift, t2):
    # the adjoint of scalar multiplication is the Horner walk of
    # sum_k conj(phi(k)) (S*)^k: mass flows from descendants to ancestors
    S, _ = t2_shift
    tree, _ = t2
    rng = stable_rng(2, "scalar-adj")
    phi = ts.ScalarSymbol(np.array([0.5, 1.0 - 0.5j, 0.1]))
    smat_phi = np.column_stack([
        _scalar_mult_array(S, phi, ts.L2Vector.basis(tree, v).data)
        for v in tree.vertices])
    coeffs = np.conj(phi.coeffs)

    def adjoint(g):
        acc = g * coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = ts.apply_adjoint(S, acc) + g * c
        return acc

    for _ in range(10):
        f = ts.L2Vector.random(tree, tree.depth, rng)
        g = ts.L2Vector.random(tree, tree.depth, rng)
        lhs = np.vdot(g.data, _scalar_mult_array(S, phi, f.data))
        rhs = f.inner(adjoint(g))
        assert abs(lhs - rhs) < 1e-12
        # dense-oracle adjoint
        want = smat_phi.conj().T @ g.data
        assert np.linalg.norm(adjoint(g).data - want) < 1e-12


def test_convolve_unit_law():
    rng = stable_rng(3, "unit")
    for dim in (1, 2, 3):
        a = ts.OpSymbol(rng.standard_normal((4, dim, dim))
                        + 1j * rng.standard_normal((4, dim, dim)))
        unit = ts.unit_symbol(dim)
        left = ts.convolve(unit, a)
        right = ts.convolve(a, unit)
        assert np.linalg.norm(left.mats - a.mats) < 1e-15
        assert np.linalg.norm(right.mats - a.mats) < 1e-15


def test_convolve_indicator_composition():
    for m, n in ((0, 0), (1, 2), (3, 1)):
        a = ts.indicator_symbol(m, 2)
        b = ts.indicator_symbol(n, 2)
        c = ts.convolve(a, b)
        want = ts.indicator_symbol(m + n, 2)
        assert c.length == m + n + 1
        assert np.linalg.norm(c.mats - want.mats) < 1e-15


@given(a=complex_lists, b=complex_lists)
@example(a=[1 + 0j], b=[1 + 0j, 0j])
def test_convolve_matches_polymul(a, b):
    pa = ts.ScalarSymbol(np.array(a))
    pb = ts.ScalarSymbol(np.array(b))
    got = ts.convolve(pa, pb)
    # np.polymul strips zero leading coefficients; convolve keeps the full
    # length len(a) + len(b) - 1, so pad the oracle back to it
    want = np.polymul(np.array(a)[::-1], np.array(b)[::-1])[::-1]
    want = np.pad(want, (0, len(a) + len(b) - 1 - len(want)))
    assert np.linalg.norm(got.coeffs - want) < 1e-9


@given(a=complex_lists, b=complex_lists, c=complex_lists)
def test_scalar_convolution_commutative_associative(a, b, c):
    pa, pb, pc = (ts.ScalarSymbol(np.array(x)) for x in (a, b, c))
    ab = ts.convolve(pa, pb)
    ba = ts.convolve(pb, pa)
    assert np.linalg.norm(ab.coeffs - ba.coeffs) < 1e-9
    one = ts.convolve(ts.convolve(pa, pb), pc)
    two = ts.convolve(pa, ts.convolve(pb, pc))
    assert np.linalg.norm(one.coeffs - two.coeffs) < 1e-7


def test_convolve_dimension_mismatch():
    a = ts.unit_symbol(2)
    b = ts.unit_symbol(3)
    with pytest.raises(DimensionMismatch):
        ts.convolve(a, b)


def test_empty_operator_symbol_is_refused():
    # the Cauchy product writes each index's first term straight into its
    # output, so an empty factor would leave nothing to write
    with pytest.raises(DimensionMismatch, match="length >= 1"):
        ts.OpSymbol(np.zeros((0, 2, 2)))


def test_convolve_with_coeffs_kernel_vector(t2_shift):
    # convolving against a kernel vector's coefficients reads off the symbol
    S, basis = t2_shift
    rng = stable_rng(4, "kernel-readout")
    phi = ts.OpSymbol(rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
    for j in range(basis.dim):
        c = ts.analytic_coeffs(S, basis, basis.vector(j))
        out = ts.convolve_with_coeffs(phi, c)
        e = np.zeros(2)
        e[j] = 1
        for n in range(out.length):
            want = phi.mats[n] @ e if n < phi.length else np.zeros(2)
            assert np.linalg.norm(out.coords[n] - want) < 1e-13


def test_convolve_with_coeffs_double_loop_oracle(t2_shift):
    S, basis = t2_shift
    rng = stable_rng(5, "double-loop")
    phi = ts.OpSymbol(rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
    c = ts.CoeffSeq(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)), 5)
    got = ts.convolve_with_coeffs(phi, c)
    want = np.zeros((9, 2), dtype=np.complex128)
    for n in range(9):
        for k in range(phi.length):
            if 0 <= n - k < c.length:
                want[n] += phi.mats[k] @ c.coords[n - k]
    assert np.linalg.norm(got.coords - want) < 1e-13
    unit = ts.unit_symbol(2)
    again = ts.convolve_with_coeffs(unit, c)
    assert np.linalg.norm(again.coords - c.coords) < 1e-15


def test_convolve_with_coeffs_claims_only_exact_entries():
    # entry n reads c(n - k) for every k with phi(k) != 0; with c exact to 3, a
    # symbol whose first nonzero entry is at k0 makes the product exact to 3 + k0
    tree, weights = ts.generate_example("T2", 10, [0.5])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    f = ts.L2Vector.random(tree, tree.depth, stable_rng(6, "exact-to"))
    c, full = ts.analytic_coeffs(S, basis, f, order=3), ts.analytic_coeffs(S, basis, f)
    cases = [(ts.ScalarSymbol(np.array([1.0, 0.5, 0.25])), 3),
             (ts.ScalarSymbol(np.array([0.0, 0.5, 0.25])), 4),
             (ts.indicator_symbol(2, basis.dim), 5),
             (ts.ScalarSymbol(np.zeros(3)), 5)]
    for phi, exact_to in cases:
        got, want = ts.convolve_with_coeffs(phi, c), ts.convolve_with_coeffs(phi, full)
        assert got.exact_to == exact_to
        misfit = np.linalg.norm(got.coords - want.coords[:got.length], axis=1)
        assert np.all(misfit[:exact_to + 1] < 1e-12)
        assert np.all(misfit[exact_to + 1:] > 1.0)


def test_extract_symbol_identity_and_shift(t2_shift, t2):
    S, basis = t2_shift
    tree, weights = t2
    eye_op = np.eye(tree.n_vertices, dtype=np.complex128)
    phi = ts.extract_symbol(S, basis, eye_op)
    assert np.linalg.norm(phi.mats[0] - np.eye(2)) < 1e-14
    assert np.linalg.norm(phi.mats[1:]) < 1e-14
    smat = oracle_shift_matrix(tree, weights)
    phi_s = ts.extract_symbol(S, basis, smat)
    want = ts.indicator_symbol(1, 2)
    assert np.linalg.norm(phi_s.mats[:2] - want.mats) < 1e-13
    assert np.linalg.norm(phi_s.mats[2:phi_s.exact_to + 1]) < 1e-13


def test_extract_symbol_polynomial(t2_shift, t2):
    S, basis = t2_shift
    tree, weights = t2
    smat = oracle_shift_matrix(tree, weights)
    A = 2.0 * np.eye(tree.n_vertices) + 3.0 * np.linalg.matrix_power(smat, 2)
    phi = ts.extract_symbol(S, basis, A)
    coeffs = {0: 2.0, 2: 3.0}
    for m in range(phi.exact_to + 1):
        want = coeffs.get(m, 0.0) * np.eye(2)
        assert np.linalg.norm(phi.mats[m] - want) < 1e-12, m


def test_extract_symbol_linearity(t2_shift, t2):
    S, basis = t2_shift
    tree, weights = t2
    rng = stable_rng(6, "linearity")
    smat = oracle_shift_matrix(tree, weights)
    A = smat @ smat
    B = np.linalg.matrix_power(smat, 3)
    pa = ts.extract_symbol(S, basis, A)
    pb = ts.extract_symbol(S, basis, B)
    pc = ts.extract_symbol(S, basis, 1.5 * A + (2 - 1j) * B)
    assert np.linalg.norm(pc.mats - 1.5 * pa.mats - (2 - 1j) * pb.mats) < 1e-12


def test_extract_symbol_multiplicativity(t2_shift, t2):
    # commuting A, B: symbol of AB is the convolution of symbols, where exact
    S, basis = t2_shift
    tree, weights = t2
    smat = oracle_shift_matrix(tree, weights)
    A = smat + 0.5 * np.eye(tree.n_vertices)
    B = smat @ smat - np.eye(tree.n_vertices)
    pa = ts.extract_symbol(S, basis, A)
    pb = ts.extract_symbol(S, basis, B)
    pab = ts.extract_symbol(S, basis, A @ B)
    conv = ts.convolve(ts.OpSymbol(pa.mats[:4]), ts.OpSymbol(pb.mats[:4]))
    upto = min(pab.exact_to, 6)
    assert np.linalg.norm(pab.mats[:upto + 1] - conv.mats[:upto + 1]) < 1e-11


def test_commutant_check_polynomials(t2_shift, t2):
    S, basis = t2_shift
    tree, weights = t2
    smat = oracle_shift_matrix(tree, weights)
    rng = stable_rng(7, "commutant")
    eye_op = np.eye(tree.n_vertices, dtype=np.complex128)
    rep = ts.commutant_check(S, basis, eye_op, trials=5)
    assert rep.max_residual < 1e-11
    cube = np.linalg.matrix_power(smat, 3)
    rep3 = ts.commutant_check(S, basis, cube, trials=10)
    assert rep3.max_residual < 1e-10
    assert rep3.details["commutator_norm"] == np.linalg.norm(cube @ smat - smat @ cube)
    coeffs = rng.standard_normal(5)
    poly = sum(c * np.linalg.matrix_power(smat, k) for k, c in enumerate(coeffs))
    repp = ts.commutant_check(S, basis, poly, trials=10)
    assert repp.max_residual < 1e-10


def test_commutant_check_rejects(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    proj = np.zeros((tree.n_vertices, tree.n_vertices), dtype=np.complex128)
    proj[0, 0] = 1.0
    with pytest.raises(NotInCommutant):
        ts.commutant_check(S, basis, proj)


def test_commutant_check_above_dense_size():
    # on a tree of more than 700 vertices too, the gate is the Frobenius norm
    # of AS - SA, an upper bound on the spectral norm
    tree, weights = ts.generate_random_tree(11, 3, 0)
    assert tree.n_vertices > 700
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    smat = oracle_shift_matrix(tree, weights)
    square = smat @ smat
    rep = ts.commutant_check(S, basis, square, trials=5)
    assert rep.max_residual <= 1e-10
    comm = square @ smat - smat @ square
    assert rep.details["commutator_norm"] == np.linalg.norm(comm)
    proj = np.zeros((tree.n_vertices, tree.n_vertices), dtype=np.complex128)
    proj[0, 0] = 1.0
    with pytest.raises(NotInCommutant):
        ts.commutant_check(S, basis, proj)


def test_membership_identity_bounded(t2_shift):
    S, basis = t2_shift
    rep = ts.membership_diagnostic(S, basis, ts.unit_symbol(2), range(1, 13))
    assert rep.verdict == ts.BOUNDED
    assert max(rep.norms) == pytest.approx(1.0, abs=1e-12)


def test_membership_divergent_family(t2_shift):
    S, basis = t2_shift
    alpha = 0.5
    cases = [
        np.array([[1.0, 0.0], [0.0, 0.0]]),   # a != d
        np.array([[1.0, 1.0], [0.0, 1.0]]),   # b != 0
        np.array([[1.0, 0.0], [1.0, 1.0]]),   # c != 0
    ]
    for block in cases:
        sym = ts.two_ray_symbol(basis, alpha, [block])
        rep = ts.membership_diagnostic(S, basis, sym, range(1, 13))
        assert rep.verdict == ts.DIVERGENT, block


def test_membership_admissible_bounded(t2_shift):
    S, basis = t2_shift
    rng = stable_rng(8, "admissible")
    for _ in range(3):
        a0, d0, a1, d1 = rng.standard_normal(4)
        sym = ts.two_ray_admissible_symbol(basis, 0.5, a0, d0, a1, d1)
        rep = ts.membership_diagnostic(S, basis, sym, range(1, 13))
        assert rep.verdict == ts.BOUNDED, (a0, d0, a1, d1)


def test_membership_scalar_constant_identity(t2_shift):
    S, basis = t2_shift
    sym = ts.two_ray_symbol(basis, 0.5, [np.eye(2) * (1.3 - 0.2j)])
    rep = ts.membership_diagnostic(S, basis, sym, range(1, 13))
    assert rep.verdict == ts.BOUNDED


def test_divergence_witness_per_term(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    alpha = 0.5
    a, d = 1.0, 0.0
    sym = ts.two_ray_symbol(basis, alpha, [np.diag([a, d]).astype(complex)])
    witness = ts.two_ray_divergence_witness(tree, alpha, tree.depth - 1)
    conv = ts.convolve_with_coeffs(sym, ts.analytic_coeffs(S, basis, witness))
    keep = conv.coords.copy()
    gen = basis.gen_index
    for n in range(keep.shape[0]):
        keep[n][gen + n > tree.depth] = 0.0
    image = ts.expand_layers(S, basis, ts.CoeffSeq(keep, conv.exact_to))
    per_term = alpha ** 4 * abs(a - d) ** 2 / (alpha ** 2 + 1) ** 2
    running = 0.0
    m = 3
    count = 0
    while m <= tree.depth - 1:
        term = abs(image[(1, m)]) ** 2
        assert abs(term - per_term) < 1e-12
        running += term
        count += 1
        m += 3
    assert abs(running - count * per_term) < 1e-12


def test_product_law(t2_shift):
    S, basis = t2_shift
    rng = stable_rng(9, "product")
    phi = ts.ScalarSymbol(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    psi = ts.ScalarSymbol(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    rep = ts.product_law_check(S, basis, phi, psi, trials=10)
    assert rep.max_residual < 1e-10
    unit = ts.unit_symbol(basis.dim)
    rep2 = ts.product_law_check(S, basis, unit, unit, trials=3)
    assert rep2.max_residual == 0.0


def test_product_law_triple_sum_oracle(t4_shift):
    # brute-force triple sums on the wide tree, scalar symbols
    S, basis = t4_shift
    rng = stable_rng(10, "triple")
    phi = ts.ScalarSymbol(rng.standard_normal(3))
    psi = ts.ScalarSymbol(rng.standard_normal(3))
    f = ts.L2Vector.random(S.tree, S.tree.depth, rng)
    c = ts.analytic_coeffs(S, basis, f)
    nested = ts.convolve_with_coeffs(phi, ts.convolve_with_coeffs(psi, c))
    want = np.zeros_like(nested.coords)
    for n in range(want.shape[0]):
        for j in range(phi.length):
            for k in range(psi.length):
                m = n - j - k
                if 0 <= m < c.length:
                    want[n] += phi.coeffs[j] * psi.coeffs[k] * c.coords[m]
    assert np.linalg.norm(nested.coords - want) < 1e-12


def test_scalar_equivalence(t2_shift):
    S, basis = t2_shift
    rng = stable_rng(11, "equiv")
    for length in (1, 2, 4):
        phi = ts.ScalarSymbol(rng.standard_normal(length) + 1j * rng.standard_normal(length))
        rep = ts.scalar_equivalence_check(S, basis, phi, trials=10)
        assert rep.max_residual < 1e-10


def test_scalar_equivalence_is_shift(t2_shift, t2):
    S, basis = t2_shift
    tree, _ = t2
    rng = stable_rng(12, "equiv-shift")
    phi = ts.ScalarSymbol(np.array([0.0, 1.0]))
    f = ts.L2Vector.random(tree, tree.depth - 2, rng)
    conv = ts.convolve_with_coeffs(phi, ts.analytic_coeffs(S, basis, f, order=tree.depth - 2))
    via_model = ts.reconstruct(S, basis, conv, tree.depth)
    assert (via_model - ts.apply_shift(S, f)).norm() < 1e-11


def test_membership_depth_precondition(t2_shift):
    S, basis = t2_shift
    with pytest.raises(PreconditionFailed):
        ts.membership_diagnostic(S, basis, ts.unit_symbol(2), range(1, S.tree.depth + 2))
    # an explicit grid is checked too: depth 9 of a depth-6 tree would read the
    # depth-6 map, and depth -1 a norm of 0
    tree, weights = ts.generate_example("T2", 6, [0.5])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    for depths in ([9], [-1]):
        with pytest.raises(PreconditionFailed):
            ts.membership_diagnostic(S, basis, ts.unit_symbol(2), depths)


def test_indicator_product_acts_as_cube(t2_shift):
    # chi_1 * chi_2 acts on coefficients the way the cube of the shift does
    S, basis = t2_shift
    tree = S.tree
    rng = stable_rng(14, "cube")
    sym = ts.convolve(ts.indicator_symbol(1, basis.dim), ts.indicator_symbol(2, basis.dim))
    f = ts.L2Vector.random(tree, tree.depth - 3, rng)
    cube = ts.apply_shift(S, ts.apply_shift(S, ts.apply_shift(S, f)))
    want = ts.analytic_coeffs(S, basis, cube)
    got = ts.convolve_with_coeffs(sym, ts.analytic_coeffs(S, basis, f))
    upto = want.length
    assert np.linalg.norm(got.coords[:upto] - want.coords) < 1e-11


def test_scalar_basis_action_every_vertex(t2_shift, t2):
    S, _ = t2_shift
    tree, weights = t2
    phi = ts.ScalarSymbol(np.array([0.7, -0.4 + 0.1j]))
    for u in tree.vertices:
        got = ts.L2Vector(tree, _scalar_mult_array(S, phi, ts.L2Vector.basis(tree, u).data))
        for v, val in got.as_dict().items():
            gap = tree.generation[v] - tree.generation[u]
            lam = oracle_lambda_product(tree, weights, u, v)
            assert 0 <= gap < phi.length
            assert abs(val - lam * phi.coeffs[gap]) < 1e-13


def test_mixed_scalar_op_convolution(t2_shift):
    _, basis = t2_shift
    rng = stable_rng(15, "mixed")
    sa = ts.ScalarSymbol(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    op = ts.OpSymbol(rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    mixed = ts.convolve(sa, op)
    promoted = ts.convolve(ts.OpSymbol(np.stack([c * np.eye(2) for c in sa.coeffs])), op)
    assert np.linalg.norm(mixed.mats - promoted.mats) < 1e-13
    flipped = ts.convolve(op, sa)
    assert np.linalg.norm(flipped.mats - mixed.mats) < 1e-13
    # the scalar-times-operator loop that convolve ran before _convolve_array took it over
    loop = np.zeros((sa.length + op.length - 1, 2, 2), dtype=np.complex128)
    for j, c in enumerate(sa.coeffs):
        loop[j:j + op.length] += c * op.mats
    assert np.array_equal(mixed.mats, loop) and np.array_equal(flipped.mats, loop)


def test_scalar_diagonal_detection():
    eye2 = np.eye(2)
    sym = ts.OpSymbol(np.stack([1.5 * eye2, -0.25j * eye2]))
    assert sym.is_scalar_diagonal()
    assert np.allclose(sym.scalar_part().coeffs, [1.5, -0.25j])
    off = ts.OpSymbol(np.stack([eye2, np.array([[0.0, 1.0], [0.0, 0.0]])]))
    assert not off.is_scalar_diagonal()
    with pytest.raises(DimensionMismatch):
        off.scalar_part()


def _unit_block(tree, d):
    """The unit vectors of V_{<=d} as the columns of one block."""
    return np.eye(_prefix_size(tree, d), dtype=np.complex128)


def _beyond_depth(basis, coords):
    """Mask of the components j of coefficient n whose layer S^n e'_j, in generation
    gen_index[j] + n, passes the tree depth; coords is (length, dim) or a block
    (length, dim, m).  The truncation rule's oracle."""
    over = np.add.outer(np.arange(len(coords)), basis.gen_index) > basis.tree.depth
    return over.reshape(over.shape + (1,) * (coords.ndim - 2))


def _where_dropped_mass(S, basis, phi, d, x):
    """Mass the truncation drops from the convolved coefficients of each column
    of x, a vector or block on V_{<=d}, as a masked norm summed over the
    orders.  A case whose oracle reads above zero drops mass."""
    from treeshift.model import _coeff_array
    from treeshift.multiplier import _convolve_array

    f = np.zeros((S.tree.n_vertices,) + x.shape[1:], dtype=np.complex128)
    f[:len(x)] = x
    conv = _convolve_array(phi, _coeff_array(S, basis, f, d))
    return np.linalg.norm(np.where(_beyond_depth(basis, conv), conv, 0.0), axis=1).sum(axis=0)


def test_compressed_map_matches_literal_reconstruct(t2_shift):
    # dual route: the diagnostic's map columns equal reconstruct applied to
    # the convolved coefficients of each unit vector
    from treeshift.multiplier import _apply_symbol_map

    S, basis = t2_shift
    tree = S.tree
    phi = ts.ScalarSymbol(np.array([1.0, -0.5j, 0.25]))
    d = 4
    units = _unit_block(tree, d)
    mat = _apply_symbol_map(S, basis, phi, d, units)
    assert np.all(_where_dropped_mass(S, basis, phi, d, units) == 0.0)
    for ci, v in enumerate(tree.vertices[:len(units)]):
        c = ts.analytic_coeffs(S, basis, ts.L2Vector.basis(tree, v), order=d)
        conv = ts.convolve_with_coeffs(phi, c)
        g = ts.reconstruct(S, basis, conv,
                           support_depth=d + phi.length - 1 + basis.max_generation)
        assert np.linalg.norm(mat[:, ci] - g.data) < 1e-11


def _power_path_cases():
    # Both cases let the convolution reach past the last generation, so the
    # truncation drops mass on the power path.
    tree, weights = ts.generate_example("T2", 6, [0.5])
    S = ts.ShiftOperator(tree, weights)
    yield S, ts.separated_kernel_basis(S), ts.ScalarSymbol(np.array([1, -0.5j, 0.25, 0.3]))
    tree, weights = ts.generate_random_tree(5, 3, 3)
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    rng = stable_rng(0, "power-path-symbol")
    shape = (3, basis.dim, basis.dim)
    yield S, basis, ts.OpSymbol(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_power_path_maps_are_adjoint():
    from treeshift.multiplier import _apply_symbol_map, _apply_symbol_map_adjoint

    d = 4
    for S, basis, phi in _power_path_cases():
        n_in = sum(len(g) for g in S.tree.generations[:d + 1])
        rng = stable_rng(1, "power-path-adjoint")
        for _ in range(5):
            x = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
            z = rng.standard_normal(S.tree.n_vertices) + 1j * rng.standard_normal(S.tree.n_vertices)
            x /= np.linalg.norm(x)
            z /= np.linalg.norm(z)
            ax = _apply_symbol_map(S, basis, phi, d, x)
            assert _where_dropped_mass(S, basis, phi, d, x) > 0.0
            az = _apply_symbol_map_adjoint(S, basis, phi, d, z)
            assert abs(np.vdot(z, ax) - np.vdot(az, x)) < 1e-12


def test_symbol_map_adjoint_takes_blocks():
    from treeshift.multiplier import _apply_symbol_map, _apply_symbol_map_adjoint

    tree, weights = ts.generate_example("T2", 10, [0.5])
    S = ts.ShiftOperator(tree, weights)
    t2 = (S, ts.separated_kernel_basis(S), ts.ScalarSymbol(np.array([1, 0.5])))
    rng = stable_rng(4, "adjoint-blocks")
    for S, basis, phi in (t2, *_power_path_cases()):
        n = S.tree.n_vertices
        for d in range(S.tree.depth + 1):
            n_in = _prefix_size(S.tree, d)
            x = rng.standard_normal((n_in, 3)) + 1j * rng.standard_normal((n_in, 3))
            z = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            x /= np.linalg.norm(x, axis=0)
            z /= np.linalg.norm(z, axis=0)
            az = _apply_symbol_map_adjoint(S, basis, phi, d, z)
            ax = _apply_symbol_map(S, basis, phi, d, x)
            assert az.shape == (n_in, 3)
            for t in range(3):
                want = _apply_symbol_map_adjoint(S, basis, phi, d, np.ascontiguousarray(z[:, t]))
                if isinstance(phi, ts.ScalarSymbol):
                    assert np.array_equal(az[:, t], want)
                else:
                    assert np.linalg.norm(az[:, t] - want) <= 1e-13 * np.linalg.norm(want)
                assert abs(np.vdot(z[:, t], ax[:, t]) - np.vdot(az[:, t], x[:, t])) < 1e-12


def _loop_symbol_map_adjoint(S, basis, phi, d, z):
    """_apply_symbol_map_adjoint walking S* one L2Vector at a time and zeroing the
    coefficients whose layer passes the depth: the oracle."""
    from treeshift.shift import _left_inverse_adjoint_array

    tree = S.tree
    length = phi.length + d
    v = ts.L2Vector(tree, z.astype(np.complex128))
    ys = np.zeros((length, basis.dim), dtype=np.complex128)
    for m in range(length):
        ys[m] = basis.coords(v)
        v = ts.apply_adjoint(S, v)
    ys[_beyond_depth(basis, ys)] = 0.0
    cprime = np.zeros((d + 1, basis.dim), dtype=np.complex128)
    for k in range(phi.length):
        if isinstance(phi, ts.ScalarSymbol):
            cprime += np.conj(phi.coeffs[k]) * ys[k:k + d + 1]
        else:
            cprime += ys[k:k + d + 1] @ phi.mats[k].conj()
    out = basis._from_coords_array(cprime[d])
    for n in range(d - 1, -1, -1):
        out = _left_inverse_adjoint_array(S, out) + basis._from_coords_array(cprime[n])
    return out[:sum(len(g) for g in tree.generations[:d + 1])]


def test_symbol_map_adjoint_matches_vector_loop():
    from treeshift.multiplier import _apply_symbol_map_adjoint

    # the S* pass needs no mask: it is exactly zero wherever the oracle zeroes
    rng = stable_rng(2, "adjoint-loop")
    for S, basis, phi in (*_power_path_cases(), *_truncation_cases()):
        n = S.tree.n_vertices
        for d in range(S.tree.depth + 1):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.array_equal(_apply_symbol_map_adjoint(S, basis, phi, d, z),
                                  _loop_symbol_map_adjoint(S, basis, phi, d, z))


def _truncation_cases():
    """Trees of several shapes, each with a scalar and an operator symbol whose
    convolution reaches past the last generation."""
    trees = [ts.generate_example("T2", 10, [0.5]), ts.generate_example("T4", 2, []),
             ts.generate_example("UNILATERAL", 7, [1.0 + 0.1 * m for m in range(7)]),
             ts.balanced_double_ray(6, [1.0 + 0.2 * m for m in range(7)])]
    trees += [ts.generate_random_tree(6, 3, seed) for seed in (3, 11, 12, 13)]
    for tree, weights in trees:
        S = ts.ShiftOperator(tree, weights)
        basis = ts.separated_kernel_basis(S)
        rng = stable_rng(3, f"truncation-{tree.n_vertices}")
        shape = (3, basis.dim, basis.dim)
        yield S, basis, ts.ScalarSymbol(np.array([1, -0.5j, 0.25, 0.3]))
        yield S, basis, ts.OpSymbol(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _masked_symbol_map(S, basis, phi, d, x):
    """_apply_symbol_map by the rule stated on coefficients: zero each component
    whose layer passes the depth, then walk with the refusing shift, which the
    mask keeps from raising.  The oracle for the truncating walk."""
    from treeshift.model import _coeff_array, _layer_array
    from treeshift.multiplier import _convolve_array

    f = np.zeros((S.tree.n_vertices,) + x.shape[1:], dtype=np.complex128)
    f[:len(x)] = x
    conv = _convolve_array(phi, _coeff_array(S, basis, f, d))
    return _layer_array(S, basis, np.where(_beyond_depth(basis, conv), 0.0, conv))


def test_symbol_map_truncates_as_the_coefficient_mask():
    from treeshift.multiplier import _apply_symbol_map

    rng = stable_rng(4, "truncation-oracle")
    for S, basis, phi in _truncation_cases():
        for d in range(S.tree.depth + 1):
            n_in = _prefix_size(S.tree, d)
            x = rng.standard_normal((n_in, 3)) + 1j * rng.standard_normal((n_in, 3))
            for xs in (x, x[:, 0]):
                assert np.array_equal(_apply_symbol_map(S, basis, phi, d, xs),
                                      _masked_symbol_map(S, basis, phi, d, xs))


def test_power_path_norm_matches_dense():
    from treeshift._util import dense_spectral_norm, power_norm
    from treeshift.multiplier import _apply_symbol_map, _apply_symbol_map_adjoint

    d = 4
    for S, basis, phi in _power_path_cases():
        units = _unit_block(S.tree, d)
        n_in = len(units)
        mat = _apply_symbol_map(S, basis, phi, d, units)
        assert _where_dropped_mass(S, basis, phi, d, units).sum() > 0.0
        want = dense_spectral_norm(mat)
        got = power_norm(lambda x: _apply_symbol_map(S, basis, phi, d, x),
                         lambda z: _apply_symbol_map_adjoint(S, basis, phi, d, z),
                         n_in, iters=150, rng=stable_rng(0, f"compressed-norm-{d}"))
        assert abs(got - want) <= 1e-8 * want


def test_compressed_map_matches_symbol_map_per_vector():
    # the block pass against the per-vector forward map, one unit vector at a
    # time, for a scalar and an operator symbol that both drop mass
    from treeshift.multiplier import _apply_symbol_map

    d = 4
    for S, basis, phi in _power_path_cases():
        units = _unit_block(S.tree, d)
        mat = _apply_symbol_map(S, basis, phi, d, units)
        assert _where_dropped_mass(S, basis, phi, d, units).sum() > 0.0
        for ci, x in enumerate(units):
            image = _apply_symbol_map(S, basis, phi, d, x)
            assert np.linalg.norm(mat[:, ci] - image) <= 1e-13 * max(1.0, np.linalg.norm(image))


def _per_depth_norms(S, basis, phi, depths, seed=0):
    # the grid one depth at a time: the oracle for the shared column-prefix map
    return [ts.compressed_multiplication_norm(S, basis, phi, d, seed=seed) for d in depths]


def _membership_grid_cases():
    tree, weights = ts.generate_example("T2", 14, [0.5])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    yield S, basis, ts.two_ray_symbol(basis, 0.5, [np.array([[1.0, 0.0], [0.0, 0.0]])]), 12
    yield S, basis, ts.two_ray_admissible_symbol(basis, 0.5, 1.0, 0.5, 0.25, -0.5), 12
    tree, weights = ts.balanced_double_ray(20, [1.0 + 1.0 / (m + 1) for m in range(20)])
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    yield S, basis, ts.indicator_symbol(2, basis.dim, np.array([[0.3, -0.2], [0.1, 0.7]])), 20
    S, basis, phi = list(_power_path_cases())[1]
    yield S, basis, phi, S.tree.depth


def test_membership_grid_matches_per_depth_norms():
    for S, basis, phi, max_depth in _membership_grid_cases():
        depths = list(range(1, max_depth + 1))
        rep = ts.membership_diagnostic(S, basis, phi, depths, seed=3)
        assert rep.norms == _per_depth_norms(S, basis, phi, depths, seed=3)
    # the random operator symbol reaches past the last generation
    assert _where_dropped_mass(S, basis, phi, S.tree.depth,
                               _unit_block(S.tree, S.tree.depth)).sum() > 0.0


def test_membership_grid_mixes_dense_and_power_depths():
    # 826 vertices: V_{<=8} fits the dense rule, V_{<=9} and V_{<=10} do not
    from treeshift.multiplier import _is_dense

    tree, weights = ts.generate_random_tree(10, 3, 14)
    assert tree.n_vertices == 826
    assert [_is_dense(tree, d) for d in range(1, 11)] == [True] * 8 + [False] * 2
    S = ts.ShiftOperator(tree, weights)
    basis = ts.separated_kernel_basis(S)
    phi = ts.ScalarSymbol(np.array([1.0, 0.5, 0.25]))
    rep = ts.membership_diagnostic(S, basis, phi, range(1, 11), seed=4)
    assert rep.norms == _per_depth_norms(S, basis, phi, range(1, 11), seed=4)


def test_membership_grid_takes_any_depth_list(t2_shift):
    S, basis = t2_shift
    phi = ts.ScalarSymbol(np.array([1.0, -0.5j, 0.25]))
    for depths in ([7, 2, 5, 2, 9], [4, 4], [3]):
        rep = ts.membership_diagnostic(S, basis, phi, depths)
        assert rep.depths == depths
        assert rep.norms == _per_depth_norms(S, basis, phi, depths)


def test_membership_empty_grid(t2_shift):
    # an empty grid once gave the verdict BoundedSoFar with no norm behind it
    S, basis = t2_shift
    with pytest.raises(PreconditionFailed, match="grid is empty"):
        ts.membership_diagnostic(S, basis, ts.ScalarSymbol(np.array([1.0, 0.5])), [])


def test_membership_dense_grid_makes_one_coefficient_pass(t2_shift, monkeypatch):
    from treeshift import multiplier

    S, basis = t2_shift
    calls = []
    inner = multiplier._coeff_array

    def counted(*args):
        calls.append(args[3])
        return inner(*args)

    monkeypatch.setattr(multiplier, "_coeff_array", counted)
    ts.membership_diagnostic(S, basis, ts.ScalarSymbol(np.array([1.0, 0.5])), range(1, 13))
    assert calls == [12]


@pytest.fixture(scope="module")
def t2_depth6():
    tree, weights = ts.generate_example("T2", 6, [0.5])
    S = ts.ShiftOperator(tree, weights)
    return S, ts.separated_kernel_basis(S)


def test_commutant_check_rejects_nonfinite_operators(t2_depth6):
    # NaN and infinite commutators compare False against the tolerance; the
    # gate must reject them rather than report NaN residuals
    S, basis = t2_depth6
    n = S.tree.n_vertices
    with np.errstate(invalid="ignore"):
        for A in (np.full((n, n), np.nan), np.eye(n) * np.inf):
            with pytest.raises(NotInCommutant):
                ts.commutant_check(S, basis, A)


@pytest.mark.parametrize("trials", [0, -2])
def test_commutant_check_needs_a_trial(t2_depth6, trials):
    S, basis = t2_depth6
    with pytest.raises(PreconditionFailed):
        ts.commutant_check(S, basis, np.eye(S.tree.n_vertices), trials=trials)


@pytest.mark.parametrize("trials", [0, -2])
def test_product_law_check_needs_a_trial(t2_depth6, trials):
    S, basis = t2_depth6
    phi = ts.ScalarSymbol(np.array([1.0, 0.5]))
    with pytest.raises(PreconditionFailed):
        ts.product_law_check(S, basis, phi, phi, trials=trials)


@pytest.mark.parametrize("trials", [0, -2])
def test_scalar_equivalence_check_needs_a_trial(t2_depth6, trials):
    S, basis = t2_depth6
    with pytest.raises(PreconditionFailed):
        ts.scalar_equivalence_check(S, basis, ts.ScalarSymbol(np.array([1.0])), trials=trials)


@pytest.mark.parametrize("shape", [(3, 3), (15, 14), (15,)])
def test_dense_operator_of_the_wrong_shape(t2_depth6, shape):
    S, basis = t2_depth6
    assert S.tree.n_vertices == 13
    A = np.ones(shape)
    with pytest.raises(DimensionMismatch):
        ts.extract_symbol(S, basis, A)
    with pytest.raises(DimensionMismatch):
        ts.commutant_check(S, basis, A)


@pytest.mark.parametrize("d", [99, 7, -1])
def test_compressed_norm_depth_outside_the_tree(t2_depth6, d):
    S, basis = t2_depth6
    with pytest.raises(PreconditionFailed, match="outside 0..6"):
        ts.compressed_multiplication_norm(S, basis, ts.ScalarSymbol(np.array([1.0, 0.5])), d)


def test_scalar_diagonal_rejects_nan():
    eye2 = np.eye(2)
    for mats in ([np.nan * eye2], [eye2, np.array([[1.0, np.nan], [0.0, 1.0]])]):
        assert not ts.OpSymbol(np.stack(mats)).is_scalar_diagonal()


def test_product_law_check_rejects_nonfinite_symbols(t2_depth6):
    S, basis = t2_depth6
    phi = ts.ScalarSymbol(np.array([1.0, 0.5]))
    for bad in (ts.ScalarSymbol(np.array([1.0, np.nan])),
                ts.OpSymbol(np.stack([np.eye(basis.dim), np.full((basis.dim,) * 2, np.inf)]))):
        with pytest.raises(PreconditionFailed, match="finite"):
            ts.product_law_check(S, basis, phi, bad, trials=2)


def test_indicator_symbol_refuses_a_negative_index():
    with pytest.raises(PreconditionFailed, match="index must be nonnegative, got -1"):
        ts.indicator_symbol(-1, 2)


@pytest.mark.parametrize("tree_weights", [ts.generate_random_tree(6, 3, 17),
                                          ts.generate_example("T4", 2, [])],
                         ids=["random", "T4"])
def test_test_vectors_get_the_sharp_headroom(tree_weights, monkeypatch):
    # kernel vectors reach the last generation, yet length - 1 generations of
    # headroom keep the image inside the truncation; one generation more does not
    from treeshift import harmonics, multiplier

    S = ts.ShiftOperator(*tree_weights)
    basis = ts.separated_kernel_basis(S)
    depth = S.tree.depth
    assert basis.max_generation == depth
    phi = ts.ScalarSymbol(np.array([1.0, 0.5, 0.25]))
    rep = ts.scalar_equivalence_check(S, basis, phi, trials=10)
    assert rep.exactness_depth == depth - 2 and rep.max_residual <= 1e-12
    assert ts.circle_integral_check(S, basis, phi, 1) <= 1e-12
    sharp = multiplier._test_vector_depth
    for module in (multiplier, harmonics):
        monkeypatch.setattr(module, "_test_vector_depth", lambda b, n: sharp(b, n) + 1)
    with pytest.raises(Inconsistent):
        ts.scalar_equivalence_check(S, basis, phi, trials=10)
    with pytest.raises(Inconsistent):
        ts.circle_integral_check(S, basis, phi, 1)
