"""Analytic model of the shift: coefficient extraction, reconstruction, kernels.

A vector f maps to the coefficient sequence n -> P_E L^n f, written in the
separated-basis coordinates of E = ker S*.  The model inner product is always
the pullback of the vertex-space inner product through reconstruction, never
a series formula.  Reconstruction is the Wold expansion f = sum_n S^n P_E L^n f
of the analytic model: the Horner walk of expand_layers, cut to the support
bound and certified by mapping the result back to coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._util import check_dense_entries, require_nonnegative
from .errors import Inconsistent, OutsideDisc, SupportOverflow, UnderdeterminedWarning
from .shift import (
    L2Vector,
    SeparatedBasis,
    ShiftOperator,
    _left_inverse_adjoint_array,
    _left_inverse_array,
    _shift_array,
    apply_adjoint,
    apply_left_inverse,
    apply_left_inverse_adjoint,
)
from .tree import _prefix_size

RECONSTRUCT_TOL = 1e-8
SPECTRAL_RADIUS_POWERS = 8


@dataclass
class CoeffSeq:
    """Coefficient sequence of the analytic model, in separated-basis coordinates.

    coords[n] holds the coordinates of the n-th coefficient; exact_to is the
    largest index known to be exact given the provenance of the sequence.
    """

    coords: np.ndarray
    exact_to: int

    @property
    def length(self) -> int:
        return self.coords.shape[0]


def analytic_coeffs(S: ShiftOperator, basis: SeparatedBasis, f: L2Vector,
                    order: int | None = None) -> CoeffSeq:
    """Coefficients n -> P_E L^n f for n = 0..order (default: the tree depth).

    Exact for every n: powers of the left inverse only consume generations
    already stored in the truncation.
    """
    if order is None:
        order = S.tree.depth
    require_nonnegative("order", order)
    return CoeffSeq(coords=_coeff_array(S, basis, f.data, order), exact_to=order)


def _coeff_array(S: ShiftOperator, basis: SeparatedBasis, x: np.ndarray,
                 order: int, step=_left_inverse_array) -> np.ndarray:
    """P_E step^n x for n = 0..order, for a vector x (n,) or a block x (n, m).

    step is L by default; the adjoint of the compressed symbol map passes S*.
    Returns shape (order + 1, dim) or (order + 1, dim, m): entry [n, j] holds
    coordinate j of the n-th coefficient, with the block's columns last.
    """
    coords = np.zeros((order + 1, basis.dim) + x.shape[1:], dtype=np.complex128)
    for n in range(order + 1):
        coords[n] = basis._coords_array(x)
        if n < order:
            x = step(S, x)
    return coords


def expand_layers(S: ShiftOperator, basis: SeparatedBasis, c: CoeffSeq) -> L2Vector:
    """Evaluate sum_n S^n c(n) by a Horner walk down the generations.

    This inverts analytic_coeffs exactly on the truncation.  A nonzero
    coefficient whose layer would leave the stored depth makes the walk shift
    a vector touching the last generation, so the shift step raises
    SupportOverflow.
    """
    return L2Vector(S.tree, _layer_array(S, basis, c.coords))


def _horner(step, terms):
    """sum_n step^n t_n by Horner's rule, for a block map step and terms given last first."""
    terms = iter(terms)
    acc = next(terms)
    for t in terms:
        acc = step(acc) + t
    return acc


def _layer_array(S: ShiftOperator, basis: SeparatedBasis, coords: np.ndarray,
                 step=None) -> np.ndarray:
    """sum_n step^n c(n) from complex zeros, for coefficients laid out as _coeff_array
    returns them; step is a block map, by default S, which refuses the last generation."""
    layers = (basis._from_coords_array(c) for c in coords[::-1])
    zero = np.zeros((S.tree.n_vertices,) + coords.shape[2:], dtype=np.complex128)
    step = step or (lambda x: _shift_array(S, x))
    return _horner(step, chain([zero + next(layers, 0.0)], layers))


class CoefficientSystem:
    """Stacked linear map f -> (P_E L^n f)_{n<=order} on vectors supported in V_{<=d}.

    Nothing is factorised: the map is inverted by the Wold expansion, one
    Horner walk and one coefficient pass, O(order * n).  The columns are the
    unit vectors of V_{<=d}, a prefix of the breadth-first vertex order.  The
    kernel of the map is S^(order+1) V_{<=d-order-1}, so the rank falls below
    the column count exactly when order < d.
    """

    def __init__(self, S: ShiftOperator, basis: SeparatedBasis, support_depth: int,
                 order: int) -> None:
        tree = S.tree
        self.S = S
        self.basis = basis
        self.support_depth = min(support_depth, tree.depth)
        self.order = order
        self.columns = tree.vertices[:_prefix_size(tree, self.support_depth)]
        self.rank = len(self.columns) - _prefix_size(tree, self.support_depth - order - 1)

    def solve(self, stacked: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """sum_n S^n c(n) cut to V_{<=d}, and the norm of its coefficient misfit.

        stacked holds c(0..order) one after the other: a vector
        ((order + 1) * dim,) or a block ((order + 1) * dim, m) of columns,
        each solved on its own; the misfit norm is then one per column.
        Raises SupportOverflow when a layer would leave the truncation.
        """
        S, basis = self.S, self.basis
        coords = stacked.reshape((self.order + 1, basis.dim) + stacked.shape[1:])
        g = _layer_array(S, basis, coords)
        g[len(self.columns):] = 0
        misfit = _coeff_array(S, basis, g, self.order).reshape(stacked.shape) - stacked
        return g[:len(self.columns)], _column_norms(misfit)


def _column_norms(x: np.ndarray) -> float | np.ndarray:
    """Norm of a vector, or the norm of each column of a block."""
    if x.ndim == 1:
        return float(np.linalg.norm(x))
    return np.linalg.norm(x, axis=0)


def reconstruct(S: ShiftOperator, basis: SeparatedBasis, c: CoeffSeq,
                support_depth: int, *, system: CoefficientSystem | None = None) -> L2Vector:
    """Recover g with P_E L^n g = c(n) for all n, supported in V_{<=support_depth}.

    g is the Wold expansion sum_n S^n c(n), cut to the support bound.  Raises
    Inconsistent when the coefficients are not finite, when a layer would
    leave the truncation, or when the coefficients of g miss c beyond
    tolerance.  A system whose order is below the support depth has null
    directions: reconstruct warns and returns the zero extension
    sum_{n<=order} S^n c(n).

    Without a system one is built out to the support depth, so the coefficient
    map is injective and the solution unique whenever the data is consistent.
    """
    return L2Vector(S.tree, _reconstruct_array(S, basis, c.coords, support_depth, system))


def _reconstruct_array(S: ShiftOperator, basis: SeparatedBasis, coords: np.ndarray,
                       support_depth: int,
                       system: CoefficientSystem | None = None) -> np.ndarray:
    """reconstruct for coefficients (length, dim) or a block (length, dim, m).

    Returns g as (n,) or (n, m).  A block is one Horner walk and one
    coefficient pass, and each column passes the residual gate on its own
    scale RECONSTRUCT_TOL * max(1, ||c||).
    """
    if not np.all(np.isfinite(coords)):
        raise Inconsistent("coefficients are not finite")
    if system is None:
        system = CoefficientSystem(S, basis, support_depth,
                                   max(len(coords) - 1, support_depth))
    block = coords.shape[2:]
    stacked = np.zeros(((system.order + 1) * basis.dim,) + block, dtype=np.complex128)
    upto = min(len(coords), system.order + 1)
    stacked[:upto * basis.dim] = coords[:upto].reshape((upto * basis.dim,) + block)
    try:
        x, residual = system.solve(stacked)
    except SupportOverflow as exc:
        raise Inconsistent(
            f"the layers of these coefficients leave the truncation ({exc})") from exc
    scale = np.maximum(1.0, _column_norms(stacked))
    if not np.all(residual <= RECONSTRUCT_TOL * scale):
        raise Inconsistent(
            f"no vector of support depth {support_depth} has these coefficients "
            f"(residual {np.max(residual):.3e})")
    if system.rank < len(system.columns):
        warnings.warn("coefficient system has null directions; zero extension returned",
                      UnderdeterminedWarning)
    out = np.zeros((S.tree.n_vertices,) + block, dtype=np.complex128)
    out[:len(system.columns)] = x
    return out


@dataclass
class KernelEval:
    """Truncated reproducing-kernel value with a geometric tail estimate."""

    z: complex
    lam: complex
    matrix: np.ndarray
    order: int
    tail_bound: float


def spectral_radius_estimate(S: ShiftOperator) -> "SpectralRadiusEstimate":
    """Estimate of the spectral radius of L from ||L^k||^(1/k) on the truncation.

    L^k sends e_v to a multiple of e_{par^k v}, so L^k L^k* is diagonal and
    ||L^k||^2 is the largest entry of its diagonal d_k = L^k L^k* 1.  From
    L^k L^k* = L (L^(k-1) L^(k-1)*) L* follows that d_k is L applied to the
    entrywise product of d_(k-1) and L*1, one vector pass per power, so each
    entry of `norms` is the exact operator norm on the truncation.  The estimate is the maximum of the last five
    root-norms; it is not a certified bound on the spectral radius.
    """
    tree = S.tree
    steps = max(1, min(SPECTRAL_RADIUS_POWERS, tree.depth))
    diag = L2Vector(tree, np.ones(tree.n_vertices, dtype=np.complex128))
    ratio = _left_inverse_adjoint_array(S, diag.data)
    norms: list[float] = []
    roots: list[float] = []
    for k in range(1, steps + 1):
        diag = apply_left_inverse(S, L2Vector(tree, diag.data * ratio))
        norm = float(np.sqrt(np.max(diag.data.real)))
        norms.append(norm)
        roots.append(norm ** (1.0 / k) if norm > 0 else 0.0)
    estimate = max(roots[-5:]) if roots else 0.0
    return SpectralRadiusEstimate(estimate=estimate, norms=norms, roots=roots)


@dataclass
class SpectralRadiusEstimate:
    """Exact norms ||L^k|| for k = 1..len(norms), their k-th roots, and the
    maximum of the last five roots as an uncertified spectral-radius estimate."""

    estimate: float
    norms: list[float]
    roots: list[float]


def kernel_matrix(S: ShiftOperator, basis: SeparatedBasis, z: complex, lam: complex,
                  order: int, *, rho: float) -> KernelEval:
    """Series truncation of the reproducing kernel matrix on E coordinates.

    matrix = sum_{m,n <= order} z^m conj(lam)^n P_E L^m (L*)^n restricted to E,
    assembled as Wz* Wl from one Horner walk of Wz = sum_m conj(z)^m (L*)^m B
    and Wl on the kernel basis block [B | B], so memory does not grow with the
    order.  Requires finite z and lam inside the disc of radius 1/rho, for rho
    an estimate of the spectral radius of L.
    """
    zmax = max(abs(z), abs(lam)) if np.isfinite([z, lam]).all() else np.inf
    if not rho * zmax < 1.0:
        raise OutsideDisc(f"|point| * rho = {rho * zmax:.4f} >= 1")
    require_nonnegative("order", order)
    order = min(order, S.tree.depth - basis.max_generation)
    check_dense_entries(S.tree.n_vertices * basis.dim,
                        "kernel stacks would densify a tree too wide for this evaluation")
    B = basis._from_coords_array(np.eye(basis.dim, dtype=np.complex128))
    BB = np.hstack([B, B])
    scale = np.repeat(np.conj([z, lam]), basis.dim)
    W = _horner(lambda W: scale * _left_inverse_adjoint_array(S, W), [BB] * (order + 1))
    K = W[:, :basis.dim].conj().T @ W[:, basis.dim:]
    q = rho * zmax
    tail = (q ** (order + 1)) / (1.0 - q) if q < 1 else np.inf
    return KernelEval(z=z, lam=lam, matrix=K, order=order, tail_bound=float(tail))


@dataclass
class EigenResidualReport:
    """Relative eigen-equation residual for a truncated kernel section."""

    residual: float
    tail_bound: float
    order: int


def eigenvector_residual(S: ShiftOperator, basis: SeparatedBasis, lam: complex,
                         e_index: int, order: int | None = None, *,
                         rho: float) -> EigenResidualReport:
    """Residual of the adjoint eigen-relation for the kernel section at lam.

    The section kappa = k(., conj(lam)) e'_j is represented by its coefficient
    sequence, reconstructed to vertex space, and tested against
    S* v = lam v there (the model inner product is the pullback).  The stated
    tail bound is |lam|^(order+1) ||(L*)^order e'_j|| / ||v|| plus solver slack.
    The default order is depth - k - 1 for e'_j in generation k, and 0 in the
    last generation.  Requires a finite lam inside the disc of radius 1/rho and
    an index of the basis (PreconditionFailed otherwise).
    """
    if not rho * abs(lam) < 1.0:
        raise OutsideDisc(f"|lam| * rho = {rho * abs(lam):.4f} >= 1")
    w = basis.vector(e_index)
    k_e = int(basis.gen_index[e_index])
    if order is None:
        order = max(0, S.tree.depth - k_e - 1)
    else:
        require_nonnegative("order", order)
    order = min(order, S.tree.depth - k_e)
    acc = power = w
    for k in range(1, order + 1):
        power = apply_left_inverse_adjoint(S, power)
        acc = acc + (lam ** k) * power
    support = min(S.tree.depth, k_e + order)
    # the section carries nonzero coefficients out to its support depth
    kappa_hat = analytic_coeffs(S, basis, acc, support)
    v = reconstruct(S, basis, kappa_hat, support_depth=support)
    nv = v.norm()
    if nv == 0.0:
        return EigenResidualReport(residual=0.0, tail_bound=1e-9, order=order)
    lhs = apply_adjoint(S, v)
    residual = (lhs - lam * v).norm() / nv
    tail = (abs(lam) ** (order + 1)) * power.norm() / nv + 1e-8
    return EigenResidualReport(residual=float(residual), tail_bound=float(tail), order=order)
