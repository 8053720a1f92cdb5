"""The weighted shift on a truncated tree, its adjoint and canonical left inverse.

The shift sends e_u to sum_{v child of u} lambda_v e_v.  On the truncation the
operator is a partial map: applying it to a vector touching the last stored
generation raises SupportOverflow rather than silently dropping mass.  The
left inverse L is computed in closed form from the diagonal of S*S, never by
matrix inversion, and the kernel of S* carries a deterministic orthonormal
basis whose vectors each live in a single generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import NotLeftInvertible, PreconditionFailed, SupportOverflow
from .tree import Tree, VertexId, WeightMap, _prefix_size


@dataclass
class L2Vector:
    """Finitely supported complex function on the vertices of a tree.

    Backed by a dense array aligned with the tree's breadth-first vertex
    order; entries are addressed by vertex id.
    """

    tree: Tree
    data: np.ndarray

    @classmethod
    def zero(cls, tree: Tree) -> "L2Vector":
        return cls(tree, np.zeros(tree.n_vertices, dtype=np.complex128))

    @classmethod
    def basis(cls, tree: Tree, v: VertexId) -> "L2Vector":
        out = cls.zero(tree)
        out.data[_vertex_index(tree, v)] = 1.0
        return out

    @classmethod
    def from_dict(cls, tree: Tree, entries: Mapping[VertexId, complex]) -> "L2Vector":
        out = cls.zero(tree)
        for v, val in entries.items():
            out.data[_vertex_index(tree, v)] = val
        return out

    @classmethod
    def random(cls, tree: Tree, max_generation: int, rng: np.random.Generator) -> "L2Vector":
        """Random unit vector supported in generations <= max_generation.

        Complex Gaussian entries scaled to norm 1; the zero vector when
        max_generation is negative.
        """
        out = cls.zero(tree)
        n = _prefix_size(tree, max_generation)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out.data[:n] = vals
        nrm = out.norm()
        if nrm > 0:
            out.data /= nrm
        return out

    def __getitem__(self, v: VertexId) -> complex:
        return complex(self.data[_vertex_index(self.tree, v)])

    def __add__(self, other: "L2Vector") -> "L2Vector":
        return L2Vector(self.tree, self.data + other.data)

    def __sub__(self, other: "L2Vector") -> "L2Vector":
        return L2Vector(self.tree, self.data - other.data)

    def __mul__(self, scalar: complex) -> "L2Vector":
        return L2Vector(self.tree, self.data * scalar)

    __rmul__ = __mul__

    def inner(self, other: "L2Vector") -> complex:
        """<f, g> = sum f(v) conj(g(v))."""
        return complex(np.vdot(other.data, self.data))

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def support_depth(self) -> int:
        """Largest generation carrying a nonzero entry; -1 for the zero vector."""
        nz = np.nonzero(self.data)[0]
        if nz.size == 0:
            return -1
        v = self.tree.vertices[int(nz[-1])]
        return self.tree.generation[v]

    def as_dict(self) -> dict[VertexId, complex]:
        return {self.tree.vertices[i]: complex(self.data[i])
                for i in np.nonzero(self.data)[0]}

    def copy(self) -> "L2Vector":
        return L2Vector(self.tree, self.data.copy())


def _vertex_index(tree: Tree, v: VertexId) -> int:
    """Position of v in the tree's vertex order; PreconditionFailed when v is not a
    vertex, including when it is not hashable."""
    try:
        return tree.index[v]
    except (KeyError, TypeError):
        raise PreconditionFailed(f"vertex {v!r} is not in the tree") from None


def _random_block(tree: Tree, max_generation: int,
                  rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Block (n, trials) whose columns are L2Vector.random draws, one per rng in turn."""
    return _column_block(tree, [L2Vector.random(tree, max_generation, rng).data for rng in rngs])


def _column_block(tree: Tree, columns: list[np.ndarray]) -> np.ndarray:
    """Block (n, len(columns)) whose columns are the given vertex vectors; (n, 0) when empty."""
    return np.stack(columns, axis=-1) if columns else np.zeros((tree.n_vertices, 0), np.complex128)


@dataclass
class ShiftOperator:
    """Weighted shift on the truncation, with cached structure arrays.

    norm_squares caches ||S e_u||^2 = sum_{v in Chi(u)} lambda_v^2 over
    vertices that still have children in the truncation; lower_bound is the
    square root of its minimum, witnessing boundedness below.
    """

    tree: Tree
    weights: WeightMap
    norm_squares: dict[VertexId, float] = field(init=False)
    lower_bound: float = field(init=False)

    def __post_init__(self) -> None:
        tree = self.tree
        n = tree.n_vertices
        # Breadth-first order puts the root first; every later vertex is a child.
        rest = tree.vertices[1:]
        self._parent_idx = np.array([tree.index[tree.parent[v]] for v in rest], dtype=np.intp)
        self._wvec = np.array([self.weights[v] for v in rest], dtype=np.float64)

        ns = np.zeros(n, dtype=np.float64)
        np.add.at(ns, self._parent_idx, self._wvec ** 2)
        self._ns = ns
        # No vertex above the last generation is a leaf, so these vertices, a
        # prefix of the breadth-first order, are exactly those with ns > 0.
        k = self._n_internal = tree.offsets[tree.depth]
        self.norm_squares = dict(zip(tree.vertices[:k], ns[:k].tolist()))
        self.lower_bound = float(np.sqrt(ns[:k].min())) if k else 0.0

    @property
    def norm_upper(self) -> float:
        """Operator norm of the truncated shift: max_u ||S e_u||."""
        vals = list(self.norm_squares.values())
        return float(np.sqrt(max(vals))) if vals else 0.0


def _rowwise(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w shaped to scale the rows of x, an array of shape (n,) or (n, m)."""
    return w.reshape(w.shape + (1,) * (x.ndim - 1))


def _require_room(S: ShiftOperator, x: np.ndarray) -> None:
    """SupportOverflow when x touches the last generation, which S raises out of the tree."""
    if np.any(x[S._n_internal:]):
        raise SupportOverflow("input touches the last generation")


def _shift_array(S: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """S applied to x, a vector (n,) or a block (n, m) of column vectors."""
    _require_room(S, x)
    out = np.zeros(x.shape, dtype=np.complex128)
    out[1:] = _rowwise(S._wvec, x) * x[S._parent_idx]
    return out


def _shift_power_map(S: ShiftOperator, k: int):
    """Block map of the truncated S^k, for k >= 1, on a vector (n,) or a block (n, m).

    (S^k x)(v) = lambda_v lambda_{par v} ... lambda_{par^(k-1) v} x(par^k v): the
    weight products are taken once, from the vertex up, so each image entry is
    one product, bit for bit M @ x for k = 1 and (M @ M) @ x for k = 2, with M
    the dense matrix of the truncated shift.  Entries in the last k
    generations have no image, as in the dense truncation.
    """
    start = _prefix_size(S.tree, k - 1)
    anc = np.arange(start, S.tree.n_vertices)
    w = np.ones(anc.size)
    # Vertex v > 0 sits at v - 1 in the shift's arrays, and no vertex read here is the root.
    for _ in range(k):
        w = w * S._wvec[anc - 1]
        anc = S._parent_idx[anc - 1]

    def apply(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        out[start:] = _rowwise(w, x) * x[anc]
        return out
    return apply


def _adjoint_array(S: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """S* applied to x, a vector (n,) or a block (n, m) of column vectors."""
    out = np.zeros(x.shape, dtype=np.complex128)
    np.add.at(out, S._parent_idx, _rowwise(S._wvec, x) * x[1:])
    return out


def _left_inverse_array(S: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """L applied to x, a vector (n,) or a block (n, m) of column vectors."""
    if S.lower_bound <= 0:
        raise NotLeftInvertible("shift has no positive lower bound on the truncation")
    out = _adjoint_array(S, x)
    k = S._n_internal
    out[:k] /= _rowwise(S._ns[:k], out)
    return out


def apply_shift(S: ShiftOperator, f: L2Vector) -> L2Vector:
    """(Sf)(v) = lambda_v f(parent v); zero at the root.

    The input must not touch the last stored generation, otherwise the image
    would leave the truncation.
    """
    return L2Vector(S.tree, _shift_array(S, f.data))


def apply_adjoint(S: ShiftOperator, f: L2Vector) -> L2Vector:
    """(S*f)(u) = sum_{v child of u} lambda_v f(v)."""
    return L2Vector(S.tree, _adjoint_array(S, f.data))


def apply_left_inverse(S: ShiftOperator, f: L2Vector) -> L2Vector:
    """(Lf)(u) = ||S e_u||^{-2} sum_{v child of u} lambda_v f(v).

    L inverts S from the left and kills the kernel of S*.
    """
    return L2Vector(S.tree, _left_inverse_array(S, f.data))


def _left_inverse_adjoint_array(S: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """L* applied to x, a vector (n,) or a block (n, m); last-generation entries drop out."""
    if S.lower_bound <= 0:
        raise NotLeftInvertible("shift has no positive lower bound on the truncation")
    out = np.zeros(x.shape, dtype=np.complex128)
    out[1:] = _rowwise(S._wvec, x) * x[S._parent_idx] / _rowwise(S._ns[S._parent_idx], x)
    return out


def apply_left_inverse_adjoint(S: ShiftOperator, f: L2Vector) -> L2Vector:
    """(L*f)(v) = lambda_v f(parent v) / ||S e_{parent v}||^2; a weighted raise."""
    out = _left_inverse_adjoint_array(S, f.data)
    _require_room(S, f.data)
    return L2Vector(S.tree, out)


class SeparatedBasis:
    """Orthonormal basis of ker S*, each vector supported in one generation.

    Vector 0 is the root indicator.  For the children v_0, ..., v_{k-1} of a
    vertex, with weights lambda_i and Lambda_t = sum_{i<t} lambda_i^2, each v_t
    with t >= 1 carries, in the tree's vertex order, the weighted Helmert vector
    (lambda_t lambda_0, ..., lambda_t lambda_{t-1}, -Lambda_t) / sqrt(Lambda_t Lambda_{t+1})
    on v_0, ..., v_t: Gram-Schmidt on lambda_t e_{v_0} - lambda_0 e_{v_t}, same
    order and signs.  gen_index[j] is the generation carrying vector j.
    """

    def __init__(self, S: ShiftOperator) -> None:
        self.tree = S.tree
        # Vertex p > 0 sits at p - 1 in the shift's arrays, which run parent by parent.
        parent = S._parent_idx
        lam = np.concatenate(([0.0], S._wvec))
        kids = np.flatnonzero(np.diff(parent, prepend=-1) == 0) + 1
        # Per vector j: v_t, v_{t-1}, the weight of v_{t-1} and t; the root is vector 0.
        self._pos = np.append(0, kids)
        self._prev = np.append(0, kids - 1)
        self._wprev = lam[self._prev]
        self._rank = np.append(0, kids - 1 - np.searchsorted(parent, parent[kids - 1]))
        # Running sums along a block in log2(size) doubling steps: at step d every
        # vector j of rank t > d adds in the partial sum of vector j - d.
        top = int(self._rank.max())
        self._steps = [(np.flatnonzero(self._rank > d), d)
                       for d in 2 ** np.arange(top.bit_length()) if d < top]
        lam_sq = self._wprev ** 2
        for rows, d in self._steps:
            lam_sq[rows] += lam_sq[rows - d]
        norm = np.sqrt(lam_sq[1:]) * np.sqrt(lam_sq[1:] + lam[kids] ** 2)
        # Running-sum and v_t coefficients stay apart: combining them changes the rounding.
        self._coef = np.append(0.0, lam[kids] / norm)
        self._diag = np.append(1.0, -lam_sq[1:] / norm)
        self.gen_index = np.searchsorted(self.tree.offsets[1:], self._pos, side="right")

    @property
    def dim(self) -> int:
        return self.gen_index.shape[0]

    @property
    def max_generation(self) -> int:
        return int(self.gen_index.max()) if self.dim else 0

    def coords(self, f: L2Vector) -> np.ndarray:
        """Coordinates <f, e'_j> of the kernel projection of f."""
        return self._coords_array(f.data)

    def from_coords(self, c: np.ndarray) -> L2Vector:
        """Assemble sum_j c_j e'_j as a vertex-space vector."""
        return L2Vector(self.tree, self._from_coords_array(np.asarray(c, dtype=np.complex128)))

    def _coords_array(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of x, shape (n,) or (n, m), as (dim,) or (dim, m)."""
        partial = x[self._prev]
        partial *= _rowwise(self._wprev, x)
        for rows, d in self._steps:
            partial[rows] += partial[rows - d]
        partial *= _rowwise(self._coef, x)
        partial += _rowwise(self._diag, x) * x[self._pos]
        return partial

    def _from_coords_array(self, c: np.ndarray) -> np.ndarray:
        """Vertex-space vectors of coordinates c, shape (dim,) or (dim, m)."""
        out = np.zeros((self.tree.n_vertices,) + c.shape[1:], dtype=np.result_type(c, np.float64))
        out[self._pos] = _rowwise(self._diag, c) * c
        tail = _rowwise(self._coef, c) * c
        for rows, d in self._steps:
            tail[rows - d] += tail[rows]
        tail *= _rowwise(self._wprev, c)
        out[self._prev] += tail
        return out

    def vector(self, j: int) -> L2Vector:
        """Kernel vector j; PreconditionFailed unless 0 <= j < dim."""
        if not 0 <= j < self.dim:
            raise PreconditionFailed(f"kernel index {j} lies outside 0..{self.dim - 1}")
        return L2Vector(self.tree, self._vectors(j, j + 1)[:, 0])

    def _vectors(self, start: int, stop: int) -> np.ndarray:
        """Vectors start..stop-1 as the columns of an (n, stop - start) block, each
        column contiguous.  Vector j of rank t carries _diag[j] at _pos[j] and
        _coef[j] * _wprev[i] at _prev[i] for i = j-t+1..j."""
        js = np.arange(start, stop)
        out = np.zeros((len(js), self.tree.n_vertices), dtype=np.complex128)
        out[js - start, self._pos[js]] = self._diag[js]
        t = self._rank[js]
        col = np.repeat(js, t)
        i = col - (np.arange(col.size) - np.repeat(np.cumsum(t) - t, t))
        out[col - start, self._prev[i]] = self._coef[col] * self._wprev[i]
        return out.T


def separated_kernel_basis(S: ShiftOperator) -> SeparatedBasis:
    """Deterministic separated orthonormal basis of ker S* on the truncation."""
    return SeparatedBasis(S)


def project_kernel(S: ShiftOperator, basis: SeparatedBasis, f: L2Vector) -> L2Vector:
    """Orthogonal projection onto ker S*; coincides with (I - S L) f."""
    return basis.from_coords(basis.coords(f))


# Largest spread of ||S e_u|| within one generation that is_balanced accepts.
BALANCED_TOL = 1e-12


def is_balanced(S: ShiftOperator) -> tuple[bool, tuple[VertexId, VertexId] | None]:
    """Whether ||S e_u|| depends only on the generation |u|, up to BALANCED_TOL.

    Returns (True, None) or (False, (u, v)) with a witnessing pair in the
    first violating generation: the first smallest and first largest norm.
    The vertices with children are the generations above the last, so one
    pass over the first _n_internal entries of the cached norms covers them.
    """
    tree = S.tree
    if S._n_internal == 0:
        return True, None
    norms = np.sqrt(S._ns[:S._n_internal])
    starts = tree.offsets[:-2]
    spread = np.maximum.reduceat(norms, starts) - np.minimum.reduceat(norms, starts)
    bad = np.flatnonzero(spread > BALANCED_TOL)
    if bad.size == 0:
        return True, None
    gen, lo = tree.generations[bad[0]], starts[bad[0]]
    seg = norms[lo:lo + len(gen)]
    return False, (gen[int(np.argmin(seg))], gen[int(np.argmax(seg))])
