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

from ._util import kahan_mean_vectors, stable_rng, worst_of
from .errors import BadParams, DimensionMismatch, NotUnimodular
from .model import _reconstruct_array, analytic_coeffs, reconstruct
from .multiplier import (
    OpSymbol,
    ScalarSymbol,
    _test_vector_depth,
    compressed_multiplication_norm,
    convolve_with_coeffs,
)
from .shift import L2Vector, SeparatedBasis, ShiftOperator

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
    for g, gen in enumerate(tree.generations):
        lo = tree.index[gen[0]]
        out[lo:lo + len(gen)] *= w ** g
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

    def apply_symbol(sym: ScalarSymbol, f: L2Vector) -> L2Vector:
        conv = convolve_with_coeffs(sym, analytic_coeffs(S, basis, f, order=f_depth))
        return reconstruct(S, basis, conv, tree.depth)

    rows: list[ConvergenceRow] = []
    norm_estimates: dict[int, float] = {}
    work_depth = max(1, min(f_depth, max(4, tree.depth // 2)))
    full_norm, _ = compressed_multiplication_norm(S, basis, scal, work_depth, seed=seed)
    targets = [apply_symbol(scal, f) for f in test_vectors]
    for order in orders:
        sym_n = fejer_truncate(fejer_symbol(order), scal)
        norm_estimates[order], _ = compressed_multiplication_norm(
            S, basis, sym_n, work_depth, seed=seed)
        for vid, f in enumerate(test_vectors):
            if f.support_depth() > f_depth:
                raise DimensionMismatch(
                    f"test vector {vid} exceeds workable support depth {f_depth}")
            approx = apply_symbol(sym_n, f)
            rows.append(ConvergenceRow(order=order, vector_id=vid,
                                       error=(approx - targets[vid]).norm()))
    return ConvergenceReport(rows=rows, norm_estimates=norm_estimates,
                             full_norm_estimate=full_norm, working_depth=work_depth)


def circle_integral_check(S: ShiftOperator, basis: SeparatedBasis,
                          phi: ScalarSymbol | OpSymbol, k: int, *,
                          seed: int = 0) -> float:
    """Residual of the quadrature identity averaging rotated multiplications.

    (1/Q) sum_q conj(w_q)^k M_(phi_{w_q}) f recovers M_(p phi) f for the
    monomial p(w) = w^k, exactly once Q exceeds the degree span; the check
    takes Q = length + |k| + 1 nodes.  Returns the maximum residual over
    CIRCLE_TEST_VECTORS seeded test vectors; k < 0 must recover zero.
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

    nodes = [np.exp(2j * np.pi * q / Q) for q in range(Q)]
    rotated = [ScalarSymbol(scal.coeffs * np.array([w ** n for n in range(scal.length)]))
               for w in nodes]
    worst = 0.0
    for t in range(CIRCLE_TEST_VECTORS):
        f = L2Vector.random(tree, f_depth, stable_rng(seed, f"circle-{t}"))
        c = analytic_coeffs(S, basis, f, order=f_depth)
        # the images at all nodes in one Wold walk, one column per node
        convs = np.stack([convolve_with_coeffs(sym, c).coords for sym in rotated], axis=-1)
        images = _reconstruct_array(S, basis, convs, tree.depth).T
        avg = kahan_mean_vectors(np.conj(w) ** k * g for w, g in zip(nodes, images))
        if target_sym is None:
            target = np.zeros_like(avg)
        else:
            target = reconstruct(S, basis, convolve_with_coeffs(target_sym, c),
                                 tree.depth).data
        worst = worst_of(worst, float(np.linalg.norm(avg - target)))
    return worst
