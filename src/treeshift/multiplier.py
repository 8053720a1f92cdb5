"""Scalar and operator-valued multiplier symbols with Cauchy-type convolution.

A scalar symbol acts on vertex space through weighted ancestor sums; an
operator symbol is a sequence of matrices on ker S* acting on model
coefficients through convolution.  Commutant symbols are extracted by
compressing powers of the left inverse against an operator, given as a dense
matrix or as a block map from (n,) or (n, m) to the same shape, and
membership in the multiplier algebra is probed at desk scale by the growth of
compressed operator norms across support depths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._util import (
    block_width,
    check_dense_entries,
    dense_spectral_norm,
    fit_log_slope,
    power_norm,
    require_nonnegative,
    stable_rng,
    trial_norms,
    worst_of,
)
from .errors import DimensionMismatch, NotInCommutant, PreconditionFailed
from .model import CoeffSeq, _coeff_array, _horner, _layer_array, _reconstruct_array
from .model import analytic_coeffs  # noqa: F401  (perfbench's trace tests read it here)
from .shift import (
    L2Vector,
    SeparatedBasis,
    ShiftOperator,
    _adjoint_array,
    _left_inverse_adjoint_array,
    _random_block,
    _shift_power_map,
)
from .tree import _prefix_size

BOUNDED = "BoundedSoFar"
DIVERGENT = "DivergenceDetected"
SLOPE_THRESHOLD = 0.02
# Relative tolerance of OpSymbol.is_scalar_diagonal.
SCALAR_DIAGONAL_TOL = 1e-12
# Largest ||AS - SA|| that commutant_check accepts.
COMMUTE_TOL = 1e-10
# Spacing of the probed generations of two_ray_divergence_witness.
WITNESS_STRIDE = 3


def _complex_entries(values) -> np.ndarray:
    """values as a complex array, or PreconditionFailed.  NaN and infinite entries
    convert: _require_finite refuses them where a check uses the symbol."""
    try:
        return np.asarray(values, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionFailed(f"symbol entries do not convert to complex: {exc}") from None


@dataclass
class ScalarSymbol:
    """Finite complex coefficient sequence, zero-extended beyond its length."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = _complex_entries(self.coeffs)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise DimensionMismatch("scalar symbol needs a nonempty 1-d coefficient list")

    @property
    def length(self) -> int:
        return int(self.coeffs.shape[0])


@dataclass
class OpSymbol:
    """Sequence of dim(E) x dim(E) matrices in separated-basis coordinates."""

    mats: np.ndarray
    exact_to: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.mats = _complex_entries(self.mats)
        if self.mats.ndim != 3 or self.mats.shape[1] != self.mats.shape[2] or not len(self.mats):
            raise DimensionMismatch("operator symbol needs shape (length, d, d), length >= 1")

    @property
    def length(self) -> int:
        return int(self.mats.shape[0])

    @property
    def dim(self) -> int:
        return int(self.mats.shape[1])

    def is_scalar_diagonal(self) -> bool:
        eye = np.eye(self.dim)
        for m in self.mats:
            # a NaN entry fails the comparison, so it is never scalar-diagonal
            if not np.linalg.norm(m - m[0, 0] * eye) <= SCALAR_DIAGONAL_TOL * max(1.0, abs(m[0, 0])):
                return False
        return True

    def scalar_part(self) -> ScalarSymbol:
        if not self.is_scalar_diagonal():
            raise DimensionMismatch("symbol is not scalar-diagonal")
        return ScalarSymbol(self.mats[:, 0, 0].copy())


def unit_symbol(dim: int) -> OpSymbol:
    """The convolution unit: identity at index 0."""
    return OpSymbol(np.eye(dim, dtype=np.complex128)[None, :, :])


def indicator_symbol(n: int, dim: int, mat: np.ndarray | None = None) -> OpSymbol:
    """Symbol supported at the single index n, with value mat (default identity)."""
    require_nonnegative("index", n)
    mats = np.zeros((n + 1, dim, dim), dtype=np.complex128)
    mats[n] = np.eye(dim) if mat is None else np.asarray(mat, dtype=np.complex128)
    return OpSymbol(mats)


def convolve(a: ScalarSymbol | OpSymbol, b: ScalarSymbol | OpSymbol) -> ScalarSymbol | OpSymbol:
    """Cauchy product (a*b)(k) = sum_{j<=k} a(j) b(k-j), full polynomial length.

    Finite symbols are zero-extensions of infinite sequences, so the product
    has length len(a)+len(b)-1 and the unit law holds exactly.
    """
    if isinstance(a, ScalarSymbol) and isinstance(b, ScalarSymbol):
        return ScalarSymbol(np.convolve(a.coeffs, b.coeffs))
    if isinstance(a, ScalarSymbol):
        return OpSymbol(_convolve_array(a, b.mats))
    if isinstance(b, ScalarSymbol):
        return convolve(b, a)
    if a.dim != b.dim:
        raise DimensionMismatch(f"symbol dimensions {a.dim} and {b.dim} differ")
    out = np.empty((a.length + b.length - 1, a.dim, a.dim), dtype=np.complex128)
    return OpSymbol(_cauchy(a.mats, b.mats, out, np.empty(out.shape[1:], dtype=np.complex128)))


def _cauchy(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Cauchy product of the matrix sequences a (la, d, d) and b (lb, d, d), written
    into out (la + lb - 1, d, d) one index at a time by _cauchy_term."""
    for m in range(len(out)):
        _cauchy_term(a, b, m, out[m], tmp)
    return out


def _cauchy_term(a: np.ndarray, b: np.ndarray, m: int, out: np.ndarray,
                 tmp: np.ndarray) -> np.ndarray:
    """(a * b)(m) = sum_j a(j) b(m - j) written into out (d, d), the terms in
    ascending j.  The first product goes straight into out, so no zero fill is
    needed: 0.0 + x == x, up to the sign of an exact zero.  tmp is a (d, d)
    buffer for each later product."""
    first, stop = max(0, m - len(b) + 1), min(len(a), m + 1)
    np.matmul(a[first], b[m - first], out=out)
    for j in range(first + 1, stop):
        np.matmul(a[j], b[m - j], out=tmp)
        out += tmp
    return out


def _convolution_law_trials(dim: int, rng: np.random.Generator,
                            trials: int) -> tuple[float, float, float]:
    """Worst residuals of the unit law, associativity and scalar commutativity.

    Each trial draws operator symbols a, b, c of lengths 3, 4 and 2 at this
    dimension, then scalar symbols of lengths 4 and 3, and compares a * unit
    with a, (a * b) * c with a * (b * c), and the two scalar products.  The
    draws come from rng in that order, the real part of a symbol before its
    imaginary part, and give the same bits as re + 1j * im.  Every buffer is
    allocated once, 25 dim^2 complex entries (a, b, c 9, unit 1, pair 6, one 7,
    two 1, tmp 1): the draws run through a float view of `one`, which then
    takes the unit law and (a * b) * c, and a * (b * c) is subtracted from it
    one index at a time.  A dimension whose buffers exceed the memory budget
    raises DepthTooLargeForMemory first.
    """
    check_dense_entries(25 * dim * dim,
                        f"convolution-law trials at kernel dimension {dim} need "
                        f"{25 * dim * dim:,} dense entries, above the memory budget")
    shape = (dim, dim)
    a, b, c = (np.empty((n,) + shape, dtype=np.complex128) for n in (3, 4, 2))
    unit = unit_symbol(dim).mats
    pair = np.empty((6,) + shape, dtype=np.complex128)  # a * b, then b * c
    one = np.empty((7,) + shape, dtype=np.complex128)
    # 4 dim^2 floats, the most one symbol's real or imaginary part takes
    real = one.reshape(-1).view(np.float64)[:4 * dim * dim].reshape((4,) + shape)
    two, tmp = np.empty(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128)
    worst_unit = worst_assoc = worst_comm = 0.0
    for _ in range(trials):
        for sym in (a, b, c):
            part = real[:len(sym)]
            sym.real = rng.standard_normal(out=part)
            sym.imag = rng.standard_normal(out=part)
        au = _cauchy(a, unit, one[:len(a)], tmp)
        au -= a
        worst_unit = worst_of(worst_unit, float(np.linalg.norm(au)))
        _cauchy(_cauchy(a, b, pair, tmp), c, one, tmp)
        bc = _cauchy(b, c, pair[:5], tmp)
        for m in range(len(one)):
            one[m] -= _cauchy_term(a, bc, m, two, tmp)
        worst_assoc = worst_of(worst_assoc, float(np.linalg.norm(one)))
        sa = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        worst_comm = worst_of(worst_comm, float(np.linalg.norm(
            np.convolve(sa, sb) - np.convolve(sb, sa))))
    return worst_unit, worst_assoc, worst_comm


def convolve_with_coeffs(phi: ScalarSymbol | OpSymbol, c: CoeffSeq) -> CoeffSeq:
    """(phi * c)(n) = sum_{k<=n} phi(k) c(n-k), out to full length.

    Entry n is exact when every c(n-k) it reads with phi(k) != 0 is, so exact_to
    is c.exact_to plus the index of the first nonzero entry of phi, capped at
    the last index, which a zero symbol reaches.
    """
    out = _convolve_array(phi, c.coords)
    values = phi.coeffs if isinstance(phi, ScalarSymbol) else phi.mats
    first = next((k for k, a in enumerate(values) if np.any(a)), len(out))
    return CoeffSeq(coords=out, exact_to=min(len(out) - 1, c.exact_to + first))


def _convolve_array(phi: ScalarSymbol | OpSymbol, coords: np.ndarray) -> np.ndarray:
    """phi * c for coefficients of shape (length, dim) or a block (length, dim, m)."""
    if isinstance(phi, OpSymbol) and phi.dim != coords.shape[1]:
        raise DimensionMismatch(f"symbol dim {phi.dim} vs coefficient dim {coords.shape[1]}")
    length = len(coords)
    out = np.zeros((phi.length + length - 1,) + coords.shape[1:], dtype=np.complex128)
    if isinstance(phi, ScalarSymbol):
        for k, a in enumerate(phi.coeffs):
            out[k:k + length] += a * coords
    else:
        for k in range(phi.length):
            out[k:k + length] += _dim_axis_product(coords, phi.mats[k].T)
    return out


def _dim_axis_product(coords: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Each row along axis 1 of coords (length, dim) or (length, dim, m) times mat.

    All (n, column) rows go through one matrix product.  For a block, or a
    sequence of two or more rows, that is a matrix-matrix kernel, and each
    column of a block rounds as that column does alone.  A one-row sequence
    takes a vector-matrix kernel, which can round differently in the last
    bits from the same column of a (1, dim, m) block.
    """
    rows = np.moveaxis(coords, 1, -1)
    term = (rows.reshape(-1, coords.shape[1]) @ mat).reshape(rows.shape)
    return np.moveaxis(term, -1, 1)


def _as_block_map(tree, A):
    """The operator A as a block map, (n,) or (n, m) to the same shape.

    A callable is taken as such a map; a dense matrix must be (n, n) and
    becomes x -> A @ x.
    """
    if callable(A):
        return A
    A = np.asarray(A)
    n = tree.n_vertices
    if A.shape != (n, n):
        raise DimensionMismatch(f"operator of shape {A.shape} on a tree of {n} vertices")
    return lambda x: A @ x


def _unit_columns(tree):
    """The columns of the identity in vertex order, in blocks of at most
    MAX_DENSE_ENTRIES entries: (first column, (n, width))."""
    n = tree.n_vertices
    width = block_width(n)
    for start in range(0, n, width):
        cols = np.zeros((n, min(width, n - start)))
        cols[start:start + cols.shape[1]] = np.eye(cols.shape[1])
        yield start, cols


def _unit_column_walk(tree, amap, shift=None) -> tuple[int, float]:
    """The generation raise of the block map A and, given the shift as a block
    map, the Frobenius norm of AS - SA (else 0.0), from one walk over the unit
    columns that maps each block of them, and its shift, through A once."""
    gens = np.repeat(np.arange(tree.depth + 1), np.diff(tree.offsets))
    raises, sq = [], 0.0
    for start, cols in _unit_columns(tree):
        image = amap(cols)
        rows, js = np.nonzero(np.abs(image) > 0)
        if rows.size:
            raises.append(int((gens[rows] - gens[start + js]).max()))
        if shift is not None:
            diff = amap(shift(cols)) - shift(image)
            sq += float(np.vdot(diff, diff).real)
    return max(raises, default=0), float(np.sqrt(sq))


def generation_raise(tree, A) -> int:
    """Largest generation increase the operator A can produce, from the sparsity
    of its images of the unit vectors, taken in blocks.

    A is a dense (n, n) matrix or a block map.  An entry counts when its
    modulus is above 0, so a NaN entry does not.
    """
    return _unit_column_walk(tree, _as_block_map(tree, A))[0]


def extract_symbol(S: ShiftOperator, basis: SeparatedBasis, A) -> OpSymbol:
    """Commutant symbol of an operator: phi(m) = P_E L^m A restricted to E,
    for m = 0..depth.

    A is a dense (n, n) matrix or a block map, applied once to the kernel
    basis block.  Entries are exact for m up to depth minus the largest
    kernel generation the operator can reach; exact_to records the global
    bound depth - max kernel generation - generation raise of A.
    """
    amap = _as_block_map(S.tree, A)
    _check_symbol_budget(S.tree, basis.dim)
    return _symbol_of_map(S, basis, amap, generation_raise(S.tree, amap))


def _check_symbol_budget(tree, dim: int) -> None:
    """DepthTooLargeForMemory when the symbol and the kernel block pass the memory budget."""
    entries = (tree.depth + 1) * dim * dim + tree.n_vertices * dim
    check_dense_entries(entries, f"the symbol at kernel dimension {dim} and depth {tree.depth} "
                                 f"needs {entries:,} dense entries, above the memory budget")


def _symbol_of_map(S: ShiftOperator, basis: SeparatedBasis, amap, r_A: int) -> OpSymbol:
    """extract_symbol for a block map whose generation raise r_A is known."""
    tree, dim = S.tree, basis.dim
    kernel = basis._from_coords_array(np.eye(dim, dtype=np.complex128))
    mats = _coeff_array(S, basis, amap(kernel), tree.depth)
    exact = tree.depth - basis.max_generation - r_A
    return OpSymbol(mats, exact_to=max(-1, exact))


def _require_finite(*symbols: ScalarSymbol | OpSymbol) -> None:
    """Every entry of the symbols is finite."""
    for phi in symbols:
        if not np.all(np.isfinite(phi.coeffs if isinstance(phi, ScalarSymbol) else phi.mats)):
            raise PreconditionFailed("symbol entries must be finite")


def _require_trials(trials: int) -> None:
    """A randomized check runs at least one trial."""
    if trials < 1:
        raise PreconditionFailed(f"a randomized check needs at least one trial, got {trials}")


@dataclass
class VerificationReport:
    """Outcome of a randomized identity check."""

    name: str
    max_residual: float
    trials: int
    exactness_depth: int
    details: dict = field(default_factory=dict)


def commutant_check(S: ShiftOperator, basis: SeparatedBasis, A,
                    trials: int = 20, *, seed: int = 0) -> VerificationReport:
    """Verify that the action of a commuting operator is convolution by its symbol.

    A is a dense (n, n) matrix or a block map.  For random f, compares
    P_E L^n (A f) with the convolution of the extracted symbol against the
    coefficients of f, for all n up to the tree depth.  Rejects operators
    whose commutator with the shift exceeds COMMUTE_TOL or is not finite.
    `commutator_norm` is the Frobenius norm of AS - SA, an upper bound on the
    spectral norm, so an accepted operator never rests on an underestimate.
    """
    _require_trials(trials)
    tree = S.tree
    amap = _as_block_map(tree, A)
    r_A, comm_norm = _unit_column_walk(tree, amap, _shift_power_map(S, 1))
    if not comm_norm <= COMMUTE_TOL:
        raise NotInCommutant(f"||AS - SA|| = {comm_norm:.3e}, not within {COMMUTE_TOL:g}")
    f_depth = tree.depth - 1 - r_A
    if f_depth < 0:
        raise PreconditionFailed(
            f"operator raises generations by {r_A}; no room below depth {tree.depth}")
    _check_symbol_budget(S.tree, basis.dim)
    phi = _symbol_of_map(S, basis, amap, r_A)
    fs = _random_block(tree, f_depth, (stable_rng(seed, f"commutant-{t}") for t in range(trials)))
    lhs = _coeff_array(S, basis, amap(fs), tree.depth)
    rhs = _convolve_array(phi, _coeff_array(S, basis, fs, tree.depth))
    worst = worst_of(0.0, *trial_norms(lhs - rhs[:len(lhs)]))
    return VerificationReport(
        name="commutant-convolution", max_residual=worst, trials=trials,
        exactness_depth=f_depth, details={"commutator_norm": comm_norm})


@dataclass
class MembershipReport:
    """Growth diagnostic for a symbol: compressed norms across support depths.

    The verdict is a slope rule, not a boundedness proof; low_confidence marks
    grids too short for the slope calibration to be meaningful.  The verdict
    compares the slope with SLOPE_THRESHOLD.
    """

    depths: list[int]
    norms: list[float]
    slope: float
    verdict: str
    low_confidence: bool = False


def _apply_symbol_map(S: ShiftOperator, basis: SeparatedBasis,
                      phi: ScalarSymbol | OpSymbol, d: int, x: np.ndarray) -> np.ndarray:
    """Expansion of phi * coeffs(f) for f given on V_{<=d}.

    x holds the entries of f on V_{<=d}, a prefix of the breadth-first vertex
    order: one vector (n_in,) or a block (n_in, m) of column vectors, taken in
    one coefficient, convolution and layer pass, whose truncating gather drops
    each component j of coefficient n whose layer, in generation gen_index[j] + n,
    passes the depth.  On np.eye(n_in) it gives the compressed
    map, whose first _prefix_size(tree, d') columns are, bit for bit, the map
    at d' < d: an input on V_{<=d'} has zero coefficients past order d', so
    the extra orders and Horner layers add exact zeros.
    """
    n_in = _prefix_size(S.tree, d)
    f = np.zeros((S.tree.n_vertices,) + x.shape[1:], dtype=np.complex128)
    f[:n_in] = x
    conv = _convolve_array(phi, _coeff_array(S, basis, f, d))
    return _layer_array(S, basis, conv, _shift_power_map(S, 1))


def _apply_symbol_map_adjoint(S: ShiftOperator, basis: SeparatedBasis,
                              phi: ScalarSymbol | OpSymbol, d: int,
                              z: np.ndarray) -> np.ndarray:
    """Adjoint of _apply_symbol_map, back to coefficients over V_{<=d}: the model's
    coefficient pass with S*, exactly zero where the forward walk drops, the
    correlation with phi, its Horner walk with L*.  z is one vector (n,) or a
    block (n, m) of column vectors."""
    ys = _coeff_array(S, basis, z, phi.length + d - 1, _adjoint_array)
    cprime = np.zeros((d + 1, basis.dim) + z.shape[1:], dtype=np.complex128)
    for k in range(phi.length):
        if isinstance(phi, ScalarSymbol):
            cprime += np.conj(phi.coeffs[k]) * ys[k:k + d + 1]
        else:
            cprime += _dim_axis_product(ys[k:k + d + 1], phi.mats[k].conj())
    walk = _layer_array(S, basis, cprime, lambda x: _left_inverse_adjoint_array(S, x))
    return walk[:_prefix_size(S.tree, d)]


def _is_dense(tree, d: int) -> bool:
    """Whether the compressed map on V_{<=d} is small enough to build and SVD."""
    return tree.n_vertices * _prefix_size(tree, d) <= 400_000


def _compressed_norms(S: ShiftOperator, basis: SeparatedBasis,
                      phi: ScalarSymbol | OpSymbol, depths: list[int], seed: int) -> list[float]:
    """Norms of the compressed multiplication map on V_{<=d}, for each d of depths.

    Depths whose map fits comfortably in memory take the spectral norm of a
    column prefix of one map, built at the deepest of them; the others run
    randomized power iteration on the implicit map and its adjoint.  A depth
    outside 0..depth or a symbol entry that is not finite raises
    PreconditionFailed before any map is built.
    """
    tree = S.tree
    outside = [d for d in depths if not 0 <= d <= tree.depth]
    if outside:
        raise PreconditionFailed(f"depths {outside} lie outside 0..{tree.depth}")
    _require_finite(phi)
    dense = {d for d in depths if _is_dense(tree, d)}
    if dense:
        n_max = _prefix_size(tree, max(dense))
        mat = _apply_symbol_map(S, basis, phi, max(dense), np.eye(n_max, dtype=np.complex128))
    norms = []
    for d in depths:
        n_in = _prefix_size(tree, d)
        if d in dense:
            norms.append(dense_spectral_norm(mat[:, :n_in]))
        else:
            norms.append(power_norm(
                lambda x: _apply_symbol_map(S, basis, phi, d, x),
                lambda z: _apply_symbol_map_adjoint(S, basis, phi, d, z),
                n_in, iters=150, rng=stable_rng(seed, f"compressed-norm-{d}")))
    return norms


def compressed_multiplication_norm(S: ShiftOperator, basis: SeparatedBasis,
                                   phi: ScalarSymbol | OpSymbol, d: int, *,
                                   seed: int = 0) -> float:
    """Operator norm of the compressed multiplication map on V_{<=d}."""
    [norm] = _compressed_norms(S, basis, phi, [d], seed)
    return norm


def membership_diagnostic(S: ShiftOperator, basis: SeparatedBasis,
                          phi: ScalarSymbol | OpSymbol, depths: Iterable[int], *,
                          seed: int = 0) -> MembershipReport:
    """Estimate compressed multiplication norms on V_{<=d} for each d of the grid.

    Divergence is flagged when the least-squares slope of log-norm against
    depth exceeds SLOPE_THRESHOLD.  Grids shorter than eight depths are marked
    low confidence: the threshold is calibrated for depth ranges reaching 12.
    """
    depths = list(depths)
    if not depths:
        raise PreconditionFailed("the depth grid is empty, so there is no norm to judge")
    norms = _compressed_norms(S, basis, phi, depths, seed)
    slope = fit_log_slope(depths, norms)
    verdict = DIVERGENT if slope > SLOPE_THRESHOLD else BOUNDED
    return MembershipReport(
        depths=list(depths), norms=norms, slope=slope, verdict=verdict,
        low_confidence=len(depths) < 8)


def product_law_check(S: ShiftOperator, basis: SeparatedBasis,
                      phi: ScalarSymbol | OpSymbol, psi: ScalarSymbol | OpSymbol,
                      trials: int = 20, *, seed: int = 0) -> VerificationReport:
    """Associativity of convolution against coefficients: phi*(psi*c) = (phi*psi)*c.

    A symbol entry that is not finite raises PreconditionFailed.
    """
    _require_trials(trials)
    _require_finite(phi, psi)
    tree = S.tree
    fs = _random_block(tree, tree.depth,
                       (stable_rng(seed, f"product-law-{t}") for t in range(trials)))
    c = _coeff_array(S, basis, fs, tree.depth)
    one = _convolve_array(phi, _convolve_array(psi, c))
    two = _convolve_array(convolve(phi, psi), c)
    worst = worst_of(0.0, *trial_norms(one - two))
    return VerificationReport(
        name="product-law", max_residual=worst, trials=trials,
        exactness_depth=tree.depth)


def _scalar_mult_array(S: ShiftOperator, phi: ScalarSymbol, x: np.ndarray) -> np.ndarray:
    """The scalar multiplier on a vector x (n,) or a block x (n, m) of columns.

    Weighted ancestor sum: (M f)(v) = sum_k lambda(par^k v | v) phi(k) f(par^k v),
    evaluated as the Horner walk of sum_k phi(k) S^k f with the truncated
    shift, which drops the mass that would leave the last generation.
    """
    return _horner(_shift_power_map(S, 1), (x * c for c in phi.coeffs[::-1]))


def _test_vector_depth(basis: SeparatedBasis, length: int) -> int:
    """Deepest generation a test vector may reach under a symbol of this length.

    For f on V_{<=g}, L^n f lives on V_{<=g-n}, so c_n(f) reads only kernel
    vectors of generation at most g - n, and layer m of phi * c(f) reaches at
    most generation g + length - 1.  So f needs length - 1 generations of
    headroom for the image to stay inside the truncation.  Negative when no
    vector has that headroom.
    """
    return basis.tree.depth - (length - 1)


def scalar_equivalence_check(S: ShiftOperator, basis: SeparatedBasis,
                             phi: ScalarSymbol, trials: int = 20, *,
                             seed: int = 0) -> VerificationReport:
    """Scalar multiplication agrees with the coefficient route phi*I.

    Both paths are applied to random vectors with enough headroom that the
    image stays inside the truncation.
    """
    _require_trials(trials)
    tree = S.tree
    f_depth = _test_vector_depth(basis, phi.length)
    if f_depth < 0:
        raise PreconditionFailed(f"symbol too long for depth {tree.depth}")
    fs = _random_block(tree, f_depth,
                       (stable_rng(seed, f"scalar-equiv-{t}") for t in range(trials)))
    conv = _convolve_array(phi, _coeff_array(S, basis, fs, f_depth))
    via_model = _reconstruct_array(S, basis, conv, tree.depth)
    worst = worst_of(0.0, *trial_norms(_scalar_mult_array(S, phi, fs) - via_model))
    return VerificationReport(
        name="scalar-equivalence", max_residual=worst, trials=trials,
        exactness_depth=f_depth)


# -- two-ray example helpers -------------------------------------------------

def two_ray_symbol(basis: SeparatedBasis, alpha: float,
                   blocks: list[np.ndarray]) -> OpSymbol:
    """Operator symbol on the two-ray tree from 2x2 blocks in the raw pair basis.

    Each block acts on (root indicator, alpha e_(1,1) - e_(2,1)); entries are
    converted to the orthonormal separated-basis coordinates, so the sign and
    normalization conventions of the computed basis are respected.
    """
    if basis.dim != 2:
        raise DimensionMismatch("two-ray symbol needs a 2-dimensional kernel")
    tree = basis.tree
    v0 = L2Vector.basis(tree, (0, 0))
    v1 = L2Vector.from_dict(tree, {(1, 1): alpha, (2, 1): -1.0})
    raw = np.stack([v0.data, v1.data], axis=1)
    raw_coords = basis._coords_array(raw)    # columns: raw vectors in e' coords
    inv = np.linalg.inv(raw_coords)
    mats = []
    for B in blocks:
        mats.append(raw_coords @ np.asarray(B, dtype=np.complex128) @ inv)
    return OpSymbol(np.stack(mats))


def two_ray_admissible_symbol(basis: SeparatedBasis, alpha: float,
                              a0: complex, d0: complex,
                              a1: complex, d1: complex) -> OpSymbol:
    """The bounded two-term family on the two-ray tree.

    In the raw pair basis the blocks are
        B0 = [[a0, 0], [(d1-a1)/alpha, d0]],   B1 = [[a1, (a0-d0)alpha], [0, d1]].
    """
    B0 = np.array([[a0, 0.0], [(d1 - a1) / alpha, d0]])
    B1 = np.array([[a1, (a0 - d0) * alpha], [0.0, d1]])
    return two_ray_symbol(basis, alpha, [B0, B1])


def two_ray_divergence_witness(tree, alpha: float, max_generation: int) -> L2Vector:
    """Probe vector concentrated on the second ray: f(2, m) = alpha^m on multiples
    of WITNESS_STRIDE.  Under a constant symbol with unequal diagonal, its image
    gains equal mass on the first ray at every probed generation.
    """
    entries = {(2, m): alpha ** m
               for m in range(WITNESS_STRIDE, max_generation + 1, WITNESS_STRIDE)}
    return L2Vector.from_dict(tree, entries)
