"""Balanced-shift structure: layer orthogonality, Wold layers, weighted H-infinity.

A shift is balanced when ||S e_u|| depends only on the generation of u.  Such
shifts decompose vectors into orthogonal layers S^n f_n with f_n in ker S*,
and their commutant reduces entrywise to convolution boundedness between
weighted sequence spaces, probed here by largest singular values of weighted
lower-triangular Toeplitz compressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import (
    block_width,
    check_dense_entries,
    dense_spectral_norm,
    fit_log_slope,
    require_nonnegative,
    trial_norms,
    worst_of,
)
from .errors import DimensionMismatch, NotBalanced, PreconditionFailed, WrongGeneration
from .model import _coeff_array, _layer_array
from .multiplier import (
    BOUNDED,
    DIVERGENT,
    MembershipReport,
    OpSymbol,
    ScalarSymbol,
    SLOPE_THRESHOLD,
    _require_finite,
    membership_diagnostic,
)
from .shift import (
    L2Vector,
    SeparatedBasis,
    ShiftOperator,
    _shift_array,
    _shift_power_map,
    apply_shift,
    is_balanced,
)
from .tree import VertexId


@dataclass
class BetaWeights:
    """Finite positive sequence of squared iterate norms defining a weighted l2 space."""

    beta: np.ndarray

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.beta.ndim != 1 or not np.all(np.isfinite(self.beta) & (self.beta > 0)):
            raise DimensionMismatch("beta must be a finite positive 1-d sequence")

    @property
    def length(self) -> int:
        return int(self.beta.shape[0])


def beta_from_orbit(S: ShiftOperator, e: L2Vector, length: int | None = None) -> BetaWeights:
    """beta_n = ||S^n e||^2 along the orbit of a kernel vector (default: root)."""
    depth = S.tree.depth
    start = e.support_depth()
    max_len = depth - max(0, start) + 1
    if length is None:
        length = max_len
    require_nonnegative("length", length)
    if length > max_len:
        raise PreconditionFailed(f"orbit leaves the truncation after {max_len} terms")
    out = np.empty(length)
    cur = e
    for n in range(length):
        out[n] = cur.norm() ** 2
        if n + 1 < length:
            cur = apply_shift(S, cur)
    return BetaWeights(out)


def balanced_inner_product_check(S: ShiftOperator, f: L2Vector, g: L2Vector,
                                 n: int, u_prime: VertexId) -> float:
    """Residual of the balanced pairing identity for single-generation vectors.

    |<S^n f, S^n g> - prod_j ||S e_(par^j u')||^2 <f, g>| for u' in generation
    k + n, where f lives in generation k.
    """
    _require_balanced(S)
    tree = S.tree
    kf = _single_generation(f)
    _single_generation(g)
    if tree.generation[u_prime] != kf + n:
        raise WrongGeneration(
            f"u' sits in generation {tree.generation[u_prime]}, expected {kf + n}")
    sf, sg = f, g
    for _ in range(n):
        sf = apply_shift(S, sf)
        sg = apply_shift(S, sg)
    prod = 1.0
    w = u_prime
    for _ in range(n):
        w = tree.parent[w]
        prod *= S.norm_squares[w]
    lhs = sf.inner(sg)
    rhs = prod * f.inner(g)
    return abs(lhs - rhs)


def _require_balanced(S: ShiftOperator) -> None:
    """Raise NotBalanced, with the witnessing pair of is_balanced, unless S is balanced."""
    ok, witness = is_balanced(S)
    if not ok:
        raise NotBalanced(f"witness pair {witness}")


def _single_generation(f: L2Vector) -> int:
    gens = {f.tree.generation[v] for v in f.as_dict()}
    if len(gens) > 1:
        raise WrongGeneration(f"vector spreads over generations {sorted(gens)}")
    return gens.pop() if gens else 0


@dataclass
class WoldDecomposition:
    """Layer decomposition f = sum_n S^n f_n with kernel parts f_n."""

    parts: list[L2Vector]
    residual: float

    def layer_norms(self, S: ShiftOperator) -> list[float]:
        """Norms ||S^n f_n||, one per part.

        Raises SupportOverflow when a shifted part would leave the truncation.
        """
        if not self.parts:
            return []
        return _layer_norms(S, np.stack([f_n.data for f_n in self.parts], axis=1)[..., None])[0]


def wold_decompose(S: ShiftOperator, basis: SeparatedBasis, f: L2Vector) -> WoldDecomposition:
    """Peel a vector into kernel layers; exact on balanced shifts.

    The parts are the model coefficients f_n = P_E L^n f; for balanced shifts
    the images S^n f_n are mutually orthogonal and Parseval holds.
    """
    parts, miss = _wold_layers(S, basis, f.data)
    return WoldDecomposition(
        parts=[L2Vector(S.tree, parts[:, n].copy()) for n in range(parts.shape[1])],
        residual=float(np.linalg.norm(miss)))


def _wold_layers(S: ShiftOperator, basis: SeparatedBasis,
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wold parts of a vector x (n,) or a block x (n, m), and x minus their expansion.

    Part k of column t is the vertex vector parts[:, k, t] of P_E L^k x[:, t],
    for k = 0..depth: one coefficient pass, one basis pass and one Horner walk.
    """
    _require_balanced(S)
    coords = _coeff_array(S, basis, x, S.tree.depth)
    parts = basis._from_coords_array(np.moveaxis(coords, 0, 1))
    return parts, x - _layer_array(S, basis, coords)


def _layer_norms(S: ShiftOperator, parts: np.ndarray) -> list[list[float]]:
    """Norms ||S^n f_n|| of a block of parts (n, parts, m), one list per column.

    Pass n shifts parts n, n+1, ... once more, so part n has been shifted n
    times; each norm is taken as for that part alone.
    """
    block = parts.copy()
    for n in range(1, block.shape[1]):
        block[:, n:] = _shift_array(S, block[:, n:])
    norms = trial_norms(block.reshape(len(block), -1))
    m = block.shape[2]
    return [norms[t::m] for t in range(m)]


def _check_truncations(truncs: list[int], beta1: np.ndarray, beta2: np.ndarray) -> None:
    """PreconditionFailed unless every truncation is an integer at least 1 and both
    betas reach the largest; DepthTooLargeForMemory when its square passes the
    memory budget."""
    for t in truncs:
        require_nonnegative("truncation", t)
    if min(truncs) < 1:
        raise PreconditionFailed(f"truncations must be at least 1, got {truncs}")
    t = max(truncs)
    if t > min(len(beta1), len(beta2)):
        raise PreconditionFailed(f"beta sequences shorter than truncation {t}")
    check_dense_entries(t * t, f"the weighted Toeplitz matrix at truncation {t} needs "
                               f"{t * t:,} dense entries, above the memory budget")


def weighted_toeplitz_norm(a: np.ndarray, beta1: np.ndarray, beta2: np.ndarray,
                           trunc: int) -> float:
    """Largest singular value of the weighted lower-triangular convolution matrix.

    Entry (n, m) is a[n-m] sqrt(beta2[n]/beta1[m]) for n >= m, the compression
    of b -> a*b between the weighted coordinate charts, once _check_truncations passes,
    every entry of a is finite and both betas are finite and positive up to trunc.
    """
    _check_truncations([trunc], beta1, beta2)
    t = trunc
    _require_finite(ScalarSymbol(a))
    beta1, beta2 = BetaWeights(beta1[:t]).beta, BetaWeights(beta2[:t]).beta
    # Row n of the strided windows reads padded[t - 1 + n - m] at column m:
    # a[n - m] on and below the diagonal, 0 above, with no copy.
    padded = np.zeros(2 * t - 1, dtype=np.complex128)
    padded[t - 1:t - 1 + min(len(a), t)] = a[:t]
    step = padded.itemsize
    windows = np.ndarray((t, t), padded.dtype, padded, (t - 1) * step, (step, -step))
    return dense_spectral_norm(np.sqrt(np.divide.outer(beta2, beta1)) * windows)


def hinf_membership(a: ScalarSymbol, beta1: BetaWeights, beta2: BetaWeights,
                    trunc: int, *, truncs: list[int] | None = None,
                    xs: list[float] | None = None) -> MembershipReport:
    """Growth diagnostic for the convolution map between weighted l2 spaces.

    Norm of b -> a*b from the beta1-space to the beta2-space at doubling
    truncations up to trunc; the slope defaults to a fit against log2 of the
    truncation (one unit per doubling, matching the per-depth calibration).
    Explicit truncation lists and x-coordinates support aligned comparisons;
    xs needs one entry per truncation, and trunc is not read.  A symbol entry
    that is not finite, or a grid that _check_truncations refuses, raises
    before any norm is computed.
    """
    if truncs is not None and not truncs:
        raise PreconditionFailed("the truncation grid is empty, so there is no norm to judge")
    _require_finite(a)
    if truncs is None:
        # compressions below 16 coefficients barely see the symbol and their
        # startup ramp would pollute the slope; the threshold is calibrated
        # for grids reaching at least 12
        truncs = []
        t = min(16, trunc)
        while t < trunc:
            truncs.append(t)
            t *= 2
        truncs.append(trunc)
    _check_truncations(truncs, beta1.beta, beta2.beta)
    if xs is None:
        xs = [float(np.log2(t)) for t in truncs]
    elif len(xs) != len(truncs):
        raise PreconditionFailed(
            f"{len(xs)} x-coordinates for {len(truncs)} truncations")
    norms = [weighted_toeplitz_norm(a.coeffs, beta1.beta, beta2.beta, t) for t in truncs]
    slope = fit_log_slope(xs, norms)
    verdict = DIVERGENT if slope > SLOPE_THRESHOLD else BOUNDED
    return MembershipReport(
        depths=[int(round(x)) for x in xs], norms=norms, slope=slope,
        verdict=verdict, low_confidence=len(truncs) < 4)


@dataclass
class RatioBoundsReport:
    """Iterate-norm ratios between kernel directions against the weight bounds."""

    ok: bool
    max_ratio_excess: float
    pairs_checked: int
    bound_base: float


# Kernel columns per chunk of ratio_bounds_check's walk, within the dense budget.
# A wide tree's kernel lies mostly in its last generation, whose columns are
# read only at step 0, so a wider chunk holds more memory for no gain in time:
# on T4 at depth 3, chunks of 480 columns peaked at 47 MB traced, of 16 at 5.4 MB.
RATIO_CHUNK_COLUMNS = 16


def ratio_bounds_check(S: ShiftOperator, basis: SeparatedBasis) -> RatioBoundsReport:
    """Check ||S^n e'_i|| / ||S^n e'_j|| within (norm/c)^{|k_i - k_j|} bands."""
    _require_balanced(S)
    if S.lower_bound <= 0:
        raise PreconditionFailed("shift is not bounded below")
    tree = S.tree
    base = S.norm_upper / S.lower_bound
    gens = basis.gen_index
    # norms[j][n] = ||S^n e'_j|| for n <= depth - gens[j]; gens is sorted, so the
    # columns still read at step n form a prefix of each chunk
    shift = _shift_power_map(S, 1)
    norms = np.full((basis.dim, tree.depth + 1), np.nan)
    width = min(block_width(tree.n_vertices), RATIO_CHUNK_COLUMNS)
    for start in range(0, basis.dim, width):
        block = basis._vectors(start, min(basis.dim, start + width))
        for n in range(tree.depth + 1):
            if n:
                block = shift(block[:, gens[start:start + block.shape[1]] <= tree.depth - n])
            norms[start:start + block.shape[1], n] = trial_norms(block)
    norms = norms.tolist()
    worst = 0.0
    pairs = 0
    classes: dict[int, list[int]] = {}
    for j, k in enumerate(gens):
        classes.setdefault(int(k), []).append(j)
    ks = sorted(classes)
    for ki in ks:
        for kj in ks:
            span = abs(ki - kj)
            hi = base ** span
            lo = (1.0 / base) ** span
            for n in range(0, tree.depth - max(ki, kj) + 1):
                vi = [norms[j][n] for j in classes[ki]]
                vj = [norms[j][n] for j in classes[kj]]
                rmax = max(vi) / min(vj)
                rmin = min(vi) / max(vj)
                pairs += 1
                worst = worst_of(worst, rmax / hi - 1.0, lo / rmin - 1.0 if rmin > 0 else 0.0)
    return RatioBoundsReport(ok=worst <= 1e-10, max_ratio_excess=worst,
                             pairs_checked=pairs, bound_base=base)


@dataclass
class KomReport:
    """Cross-validation of the two commutant-membership verdicts."""

    multiplication_side: MembershipReport
    entry_side: dict[tuple[int, int], MembershipReport] = field(default_factory=dict)
    agree: bool = True
    low_confidence: bool = False


def kom_characterization_check(S: ShiftOperator, basis: SeparatedBasis,
                               phi: ScalarSymbol | OpSymbol, trunc: int, *,
                               seed: int = 0) -> KomReport:
    """Compare the multiplication-map growth verdict with entrywise convolution growth.

    Side A is the compressed multiplication diagnostic on the tree; side B
    runs the weighted Toeplitz diagnostic on every entry sequence
    <phi(n) e'_j, e'_i> against beta_n = ||S^n root||^2.  Scalar-diagonal
    symbols collapse side B to one sequence.  Verdicts agree when side A
    detects divergence exactly if some entry on side B does.
    """
    _require_balanced(S)
    tree = S.tree
    if trunc > tree.depth + 1:
        raise PreconditionFailed(
            f"truncation {trunc} exceeds computable orbit length {tree.depth + 1}")
    beta = beta_from_orbit(S, L2Vector.basis(tree, tree.root), trunc)
    depths_a = list(range(1, min(tree.depth, trunc - 1) + 1))
    side_a = membership_diagnostic(S, basis, phi, depths_a, seed=seed)
    # side B probes the same scale: truncation d+1 against x-coordinate d
    truncs_b = [d + 1 for d in depths_a]
    xs_b = [float(d) for d in depths_a]
    entries: dict[tuple[int, int], MembershipReport] = {}
    if isinstance(phi, ScalarSymbol) or (isinstance(phi, OpSymbol) and phi.is_scalar_diagonal()):
        seq = phi if isinstance(phi, ScalarSymbol) else phi.scalar_part()
        entries[(0, 0)] = hinf_membership(seq, beta, beta, trunc, truncs=truncs_b, xs=xs_b)
    else:
        if basis.dim > 128:
            raise PreconditionFailed(
                f"entrywise check over {basis.dim}^2 sequences is not desk scale")
        for i in range(basis.dim):
            for j in range(basis.dim):
                seq_ij = phi.mats[:, i, j]
                if not np.any(seq_ij):
                    continue
                entries[(i, j)] = hinf_membership(
                    ScalarSymbol(seq_ij), beta, beta, trunc, truncs=truncs_b, xs=xs_b)
    any_divergent = any(rep.verdict == DIVERGENT for rep in entries.values())
    agree = (side_a.verdict == DIVERGENT) == any_divergent
    low_conf = side_a.low_confidence or any(r.low_confidence for r in entries.values())
    return KomReport(multiplication_side=side_a, entry_side=entries,
                     agree=agree, low_confidence=low_conf)
