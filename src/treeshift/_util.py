"""Small numeric helpers: seeding, compensated sums, operator-norm estimation."""

from __future__ import annotations

import math
import numbers
import zlib

import numpy as np

from .errors import DepthTooLargeForMemory, PreconditionFailed

# The one memory budget: the most complex entries that one dense evaluation
# may hold at once (32 MB).  Larger evaluations raise DepthTooLargeForMemory
# before they allocate anything.
MAX_DENSE_ENTRIES = 2_000_000


def stable_rng(seed: int, label: str) -> np.random.Generator:
    """Generator seeded by (seed, label) in a platform-independent way.

    Each distinct label gets an independent stream, so trials can be split
    deterministically without sharing mutable state.
    """
    mix = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, mix]))


def kahan_mean_vectors(vectors) -> np.ndarray:
    """Compensated elementwise mean of equal-length complex arrays."""
    vectors = list(vectors)
    total = np.zeros_like(vectors[0])
    comp = np.zeros_like(vectors[0])
    for v in vectors:
        y = v - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total / len(vectors)


def check_dense_entries(entries: int, message: str) -> None:
    """Raise DepthTooLargeForMemory(message) when entries exceed MAX_DENSE_ENTRIES."""
    if entries > MAX_DENSE_ENTRIES:
        raise DepthTooLargeForMemory(message)


def require_nonnegative(name: str, value: int) -> None:
    """Raise PreconditionFailed unless an order, length or index is a nonnegative integer."""
    if not isinstance(value, numbers.Integral):
        raise PreconditionFailed(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise PreconditionFailed(f"{name} must be nonnegative, got {value}")


def block_width(height: int) -> int:
    """Columns a block of this height may hold within MAX_DENSE_ENTRIES (at least 1)."""
    return max(1, MAX_DENSE_ENTRIES // height)


def worst_of(*values: float) -> float:
    """Largest of the values, or NaN when any of them is NaN.

    The built-in max keeps its first argument when compared against NaN, so
    a residual accumulator written with it can silently drop a NaN.
    """
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values)


def trial_norms(block: np.ndarray) -> list[float]:
    """Norm of each trial of a block whose last axis runs over the trials.

    Each trial is copied out contiguous, so its norm sums in the same order
    as the norm of that trial's array computed alone.
    """
    return [float(np.linalg.norm(x))
            for x in np.ascontiguousarray(np.moveaxis(block, -1, 0))]


def power_norm(matvec, rmatvec, dim: int, *, iters: int = 120,
               rng: np.random.Generator | None = None) -> float:
    """Largest singular value of an implicitly given map, by power iteration.

    Iterates x <- A*Ax with renormalisation each step; the returned value is
    the best Rayleigh estimate seen.  The start vector is drawn from `rng`
    (default: a fixed stream), so the result is deterministic for a fixed
    generator state.
    """
    if rng is None:
        rng = stable_rng(0, "power-norm")
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return 0.0
    x /= nx
    best = 0.0
    for _ in range(iters):
        y = matvec(x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        best = max(best, float(ny))
        x = rmatvec(y)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return best
        # Rayleigh quotient for A^H A: ||Ax||^2 / ||x||^2 with the pre-step x unit.
        best = max(best, float(np.sqrt(nx)))
        x /= nx
    return best


def dense_spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value of a dense matrix, as sqrt of the top eigenvalue of its Gram
    matrix on the smaller side: real when no entry has an imaginary part, and formed after
    scaling by the power of two that puts the largest |entry| in [0.5, 1), or in [2^-53,
    0.5) when it is subnormal.  PreconditionFailed on an entry that is not finite."""
    if mat.size == 0:
        return 0.0
    if np.iscomplexobj(mat) and not mat.imag.any():
        mat = mat.real
    top = float(np.abs(mat).max())
    if not math.isfinite(top):
        raise PreconditionFailed(f"a dense norm needs finite entries, got {top}")
    exp = max(math.frexp(top)[1], -1021)
    a = mat * 2.0 ** -exp
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    return float(np.ldexp(np.sqrt(np.linalg.eigvalsh(gram)[-1]), exp))


def fit_log_slope(xs, values) -> float:
    """Least-squares slope of log(values) against xs; zero entries are skipped."""
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    if keep.sum() < 2:
        return 0.0
    x = xs[keep]
    y = np.log(values[keep])
    x0 = x - x.mean()
    denom = float(np.dot(x0, x0))
    if denom == 0.0:
        return 0.0
    return float(np.dot(x0, y - y.mean()) / denom)
