"""Rotations by unimodular scalars, Fejér truncation, and circle integrals.

Rotation acts directly on vertex space as f(u) -> w^|u| f(u); the n-th model
coefficient of the rotated vector picks up w^n and the diagonal of generation
phases.  Circle
integrals of symbol rotations against trigonometric monomials are evaluated
by roots-of-unity quadrature, which is exact once the node count exceeds the
degree span, with compensated accumulation for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import check_dense_entries, kahan_mean_vectors, stable_rng, trial_norms, worst_of
from .errors import BadParams, DimensionMismatch, NotUnimodular
from .model import _coeff_array, _reconstruct_array
from .multiplier import (
    OpSymbol,
    ScalarSymbol,
    _convolve_array,
    _test_vector_depth,
    compressed_multiplication_norm,
)
from .shift import L2Vector, SeparatedBasis, ShiftOperator, _column_block, _random_block
from .tree import _prefix_size

UNIMODULAR_TOL = 1e-12
# Seeded test vectors per circle_integral_check.
CIRCLE_TEST_VECTORS = 5


@dataclass
class RotationDiagonal:
    """Diagonal phase operator on the separated basis: e'_j -> w^{k_j} e'_j."""

    w: complex
    phases: np.ndarray


def _require_unimodular(w: complex) -> None:
    """|w| is 1 within UNIMODULAR_TOL; a NaN or infinite w fails the comparison."""
    if not abs(abs(w) - 1.0) <= UNIMODULAR_TOL:
        raise NotUnimodular(f"|w| = {abs(w)!r}")


def rotation_diagonal(basis: SeparatedBasis, w: complex) -> RotationDiagonal:
    _require_unimodular(w)
    phases = np.array([w ** int(k) for k in basis.gen_index], dtype=np.complex128)
    return RotationDiagonal(w=w, phases=phases)


def rotate_vector(tree, f: L2Vector, w: complex) -> L2Vector:
    """(f_w)(u) = w^|u| f(u); preserves the norm."""
    return L2Vector(tree, _rotate_array(tree, f.data, w))


def _rotate_array(tree, x: np.ndarray, w: complex) -> np.ndarray:
    """rotate_vector for a vector x (n,) or a block x (n, m) of column vectors."""
    _require_unimodular(w)
    out = x.copy()
    for g, (lo, hi) in enumerate(zip(tree.offsets, tree.offsets[1:])):
        out[lo:hi] *= w ** g
    return out


@dataclass
class FejerSymbol:
    """Triangular coefficient window: weight 1 - m/(n+1) for m <= n, zero after."""

    n: int
    coeffs: np.ndarray

    def weight(self, m: int) -> float:
        return float(self.coeffs[m]) if m <= self.n else 0.0


def fejer_symbol(n: int) -> FejerSymbol:
    if n < 0:
        raise BadParams(f"Fejér order must be nonnegative, got {n}")
    m = np.arange(n + 1)
    return FejerSymbol(n=n, coeffs=1.0 - m / (n + 1.0))


def fejer_truncate(fej: FejerSymbol, phi: ScalarSymbol) -> ScalarSymbol:
    """Pointwise product of the window with a scalar symbol (zero past the window)."""
    upto = min(fej.n + 1, phi.length)
    out = phi.coeffs[:upto] * fej.coeffs[:upto]
    return ScalarSymbol(out if upto > 0 else np.zeros(1, dtype=np.complex128))


def _as_scalar(phi: ScalarSymbol | OpSymbol) -> ScalarSymbol:
    if isinstance(phi, ScalarSymbol):
        return phi
    return phi.scalar_part()


@dataclass
class ConvergenceRow:
    order: int
    vector_id: int
    error: float


@dataclass
class ConvergenceReport:
    """Errors of window-truncated multiplications against the full symbol."""

    rows: list[ConvergenceRow]
    norm_estimates: dict[int, float]
    full_norm_estimate: float
    working_depth: int

    def errors_for(self, vector_id: int) -> dict[int, float]:
        return {r.order: r.error for r in self.rows if r.vector_id == vector_id}


def cesaro_convergence_experiment(S: ShiftOperator, basis: SeparatedBasis,
                                  phi: ScalarSymbol | OpSymbol, orders: list[int],
                                  test_vectors: list[L2Vector], *,
                                  seed: int = 0) -> ConvergenceReport:
    """Window-truncation errors ||M_(p_n phi) f - M_phi f|| across orders.

    The symbol must be scalar-diagonal.  Both sides are evaluated through
    coefficient convolution and reconstruction; compressed norm estimates at
    the working depth accompany the errors so the window domination
    ||M_(p_n phi)|| <= ||M_phi|| can be inspected.
    """
    scal = _as_scalar(phi)
    tree = S.tree
    f_depth = max(0, _test_vector_depth(basis, scal.length))
    fs = _column_block(tree, [f.data for f in test_vectors])
    deep = np.flatnonzero(np.any(fs[_prefix_size(tree, f_depth):], axis=0))
    if deep.size:
        raise DimensionMismatch(f"test vector {deep[0]} exceeds workable support depth {f_depth}")
    coeffs = _coeff_array(S, basis, fs, f_depth)

    def apply_symbol(sym: ScalarSymbol) -> np.ndarray:
        return _reconstruct_array(S, basis, _convolve_array(sym, coeffs), tree.depth)

    rows: list[ConvergenceRow] = []
    norm_estimates: dict[int, float] = {}
    work_depth = max(1, min(f_depth, max(4, tree.depth // 2)))
    full_norm = compressed_multiplication_norm(S, basis, scal, work_depth, seed=seed)
    targets = apply_symbol(scal)
    for order in orders:
        sym_n = fejer_truncate(fejer_symbol(order), scal)
        norm_estimates[order] = compressed_multiplication_norm(
            S, basis, sym_n, work_depth, seed=seed)
        rows += [ConvergenceRow(order=order, vector_id=vid, error=e)
                 for vid, e in enumerate(trial_norms(apply_symbol(sym_n) - targets))]
    return ConvergenceReport(rows=rows, norm_estimates=norm_estimates,
                             full_norm_estimate=full_norm, working_depth=work_depth)


def circle_integral_check(S: ShiftOperator, basis: SeparatedBasis,
                          phi: ScalarSymbol | OpSymbol, k: int, *,
                          seed: int = 0) -> float:
    """Residual of the quadrature identity averaging rotated multiplications.

    (1/Q) sum_q conj(w_q)^k M_(phi_{w_q}) f recovers M_(p phi) f for the
    monomial p(w) = w^k, exactly once Q exceeds the degree span; the check
    takes Q = length + |k| + 1 nodes.  Returns the maximum residual over
    CIRCLE_TEST_VECTORS seeded test vectors; k < 0 must recover zero.  A node
    count whose block exceeds the memory budget raises DepthTooLargeForMemory.
    """
    scal = _as_scalar(phi)
    Q = scal.length + abs(k) + 1
    tree = S.tree
    f_depth = max(0, _test_vector_depth(basis, scal.length))

    if 0 <= k < scal.length:
        target_coeffs = np.zeros(k + 1, dtype=np.complex128)
        target_coeffs[k] = scal.coeffs[k]
        target_sym: ScalarSymbol | None = ScalarSymbol(target_coeffs)
    else:
        target_sym = None

    # the images of every test vector at every node, and their coefficient stack,
    # padded to the tree depth for reconstruction
    stack_rows = max(f_depth + scal.length, tree.depth + 1) * basis.dim
    entries = CIRCLE_TEST_VECTORS * Q * max(tree.n_vertices, stack_rows)
    check_dense_entries(entries, f"the circle integral at k = {k} takes {Q} nodes and needs "
                                 f"{entries:,} dense entries, above the memory budget")
    nodes = [np.exp(2j * np.pi * q / Q) for q in range(Q)]
    rotated = [ScalarSymbol(scal.coeffs * np.array([w ** n for n in range(scal.length)]))
               for w in nodes]
    fs = _random_block(tree, f_depth, (stable_rng(seed, f"circle-{t}")
                                       for t in range(CIRCLE_TEST_VECTORS)))
    c = _coeff_array(S, basis, fs, f_depth)
    # every test vector at every node in one Wold walk: images[vertex, vector, node]
    convs = np.stack([_convolve_array(sym, c) for sym in rotated], axis=-1)
    images = _reconstruct_array(S, basis, convs, tree.depth)
    avg = kahan_mean_vectors(np.conj(w) ** k * images[..., q] for q, w in enumerate(nodes))
    if target_sym is None:
        target = np.zeros_like(avg)
    else:
        target = _reconstruct_array(S, basis, _convolve_array(target_sym, c), tree.depth)
    return worst_of(0.0, *trial_norms(avg - target))
