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
from typing import Iterator, Mapping

import numpy as np
import scipy.sparse as sp

from .errors import NotLeftInvertible, SupportOverflow
from .tree import Tree, VertexId, WeightMap


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
        out.data[tree.index[v]] = 1.0
        return out

    @classmethod
    def from_dict(cls, tree: Tree, entries: Mapping[VertexId, complex]) -> "L2Vector":
        out = cls.zero(tree)
        for v, val in entries.items():
            out.data[tree.index[v]] = val
        return out

    @classmethod
    def random(cls, tree: Tree, max_generation: int, rng: np.random.Generator,
               *, normalize: bool = True) -> "L2Vector":
        """Random complex vector supported in generations <= max_generation."""
        out = cls.zero(tree)
        n = sum(len(g) for g in tree.generations[:max_generation + 1])
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out.data[:n] = vals
        if normalize:
            nrm = out.norm()
            if nrm > 0:
                out.data /= nrm
        return out

    def __getitem__(self, v: VertexId) -> complex:
        return complex(self.data[self.tree.index[v]])

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
        child_idx = np.empty(n - 1, dtype=np.intp) if n > 1 else np.empty(0, dtype=np.intp)
        parent_idx = np.empty_like(child_idx)
        wvec = np.empty(child_idx.shape[0], dtype=np.float64)
        pos = 0
        for v in tree.vertices:
            if v == tree.root:
                continue
            child_idx[pos] = tree.index[v]
            parent_idx[pos] = tree.index[tree.parent[v]]
            wvec[pos] = self.weights[v]
            pos += 1
        self._child_idx = child_idx
        self._parent_idx = parent_idx
        self._wvec = wvec

        ns = np.zeros(n, dtype=np.float64)
        np.add.at(ns, parent_idx, wvec ** 2)
        self._ns = ns
        self.norm_squares = {
            u: float(ns[tree.index[u]])
            for u in tree.vertices if tree.children[u]}
        internal = [ns[tree.index[u]] for u in tree.vertices if tree.children[u]]
        self.lower_bound = float(np.sqrt(min(internal))) if internal else 0.0

    @property
    def norm_upper(self) -> float:
        """Operator norm of the truncated shift: max_u ||S e_u||."""
        vals = list(self.norm_squares.values())
        return float(np.sqrt(max(vals))) if vals else 0.0


def _rowwise(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w shaped to scale the rows of x, an array of shape (n,) or (n, m)."""
    return w.reshape(w.shape + (1,) * (x.ndim - 1))


def _shift_array(S: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """S applied to x, a vector (n,) or a block (n, m) of column vectors."""
    tree = S.tree
    if np.any(x[tree.n_vertices - len(tree.generations[tree.depth]):]):
        raise SupportOverflow("input touches the last generation")
    out = np.zeros(x.shape, dtype=np.complex128)
    out[S._child_idx] = _rowwise(S._wvec, x) * x[S._parent_idx]
    return out


def _adjoint_array(S: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """S* applied to x, a vector (n,) or a block (n, m) of column vectors."""
    out = np.zeros(x.shape, dtype=np.complex128)
    np.add.at(out, S._parent_idx, _rowwise(S._wvec, x) * x[S._child_idx])
    return out


def _left_inverse_array(S: ShiftOperator, x: np.ndarray) -> np.ndarray:
    """L applied to x, a vector (n,) or a block (n, m) of column vectors."""
    if S.lower_bound <= 0:
        raise NotLeftInvertible("shift has no positive lower bound on the truncation")
    out = _adjoint_array(S, x)
    mask = S._ns > 0
    out[mask] /= _rowwise(S._ns[mask], out)
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


def apply_left_inverse_adjoint(S: ShiftOperator, f: L2Vector) -> L2Vector:
    """(L*f)(v) = lambda_v f(parent v) / ||S e_{parent v}||^2; a weighted raise."""
    if S.lower_bound <= 0:
        raise NotLeftInvertible("shift has no positive lower bound on the truncation")
    if f.support_depth() >= S.tree.depth:
        raise SupportOverflow("input touches the last generation")
    out = L2Vector.zero(S.tree)
    out.data[S._child_idx] = S._wvec * f.data[S._parent_idx] / S._ns[S._parent_idx]
    return out


def apply_left_inverse_adjoint_truncating(S: ShiftOperator, f: L2Vector) -> L2Vector:
    """Truncated-matrix power convention for L*: last-generation input is dropped.

    This is the exact adjoint of the truncated L, used inside adjoint chains;
    the strict variant raises instead of dropping.
    """
    if f.support_depth() >= S.tree.depth > 0:
        kept = f.copy()
        n_keep = sum(len(g) for g in S.tree.generations[:S.tree.depth])
        kept.data[n_keep:] = 0.0
        f = kept
    return apply_left_inverse_adjoint(S, f)


class SeparatedBasis:
    """Orthonormal basis of ker S*, each vector supported in one generation.

    Rows of `matrix` (real, sparse) are the basis vectors in the tree's vertex
    order; gen_index[j] is the generation carrying vector j.  Vector 0 is the
    root indicator; every branching vertex u contributes an orthonormal basis
    of the orthogonal complement of its weight vector inside span(Chi(u)),
    obtained by Gram-Schmidt on differences against the first child.
    """

    def __init__(self, tree: Tree, matrix: sp.csr_matrix, gen_index: np.ndarray) -> None:
        self.tree = tree
        self.matrix = matrix
        self.gen_index = gen_index
        self._matrix_t = matrix.T.tocsr()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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
        return self.matrix @ x

    def _from_coords_array(self, c: np.ndarray) -> np.ndarray:
        """Vertex-space vectors of coordinates c, shape (dim,) or (dim, m)."""
        return self._matrix_t @ c

    def vector(self, j: int) -> L2Vector:
        row = np.asarray(self.matrix[j].todense()).ravel()
        return L2Vector(self.tree, row.astype(np.complex128))

    def __iter__(self) -> Iterator[L2Vector]:
        return (self.vector(j) for j in range(self.dim))


def separated_kernel_basis(S: ShiftOperator) -> SeparatedBasis:
    """Deterministic separated orthonormal basis of ker S* on the truncation."""
    tree = S.tree
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    gens: list[int] = [0]
    rows.append(0)
    cols.append(tree.index[tree.root])
    vals.append(1.0)
    j = 1
    for u in tree.vertices:
        kids = tree.children[u]
        if len(kids) < 2:
            continue
        idxs = np.array([tree.index[v] for v in kids], dtype=np.intp)
        lam = np.array([S.weights[v] for v in kids], dtype=np.float64)
        block: list[np.ndarray] = []
        for t in range(1, len(kids)):
            d = np.zeros(len(kids))
            d[0] = lam[t]
            d[t] = -lam[0]
            # two Gram-Schmidt passes keep orthonormality at 1e-14
            for _ in range(2):
                for b in block:
                    d -= np.dot(b, d) * b
            d /= np.linalg.norm(d)
            block.append(d)
            rows.extend([j] * len(kids))
            cols.extend(idxs.tolist())
            vals.extend(d.tolist())
            gens.append(tree.generation[u] + 1)
            j += 1
    matrix = sp.csr_matrix(
        (np.array(vals), (np.array(rows), np.array(cols))),
        shape=(j, tree.n_vertices))
    return SeparatedBasis(tree, matrix, np.array(gens, dtype=np.intp))


def project_kernel(S: ShiftOperator, basis: SeparatedBasis, f: L2Vector) -> L2Vector:
    """Orthogonal projection onto ker S*; coincides with (I - S L) f."""
    return basis.from_coords(basis.coords(f))


def is_balanced(S: ShiftOperator, tol: float = 1e-12) -> tuple[bool, tuple[VertexId, VertexId] | None]:
    """Whether ||S e_u|| depends only on the generation |u|.

    Returns (True, None) or (False, (u, v)) with a witnessing pair in the
    first violating generation.
    """
    tree = S.tree
    for gen in tree.generations:
        internal = [u for u in gen if tree.children[u]]
        if len(internal) < 2:
            continue
        norms = [np.sqrt(S.norm_squares[u]) for u in internal]
        lo, hi = int(np.argmin(norms)), int(np.argmax(norms))
        if norms[hi] - norms[lo] > tol:
            return False, (internal[lo], internal[hi])
    return True, None


def shift_matrix(S: ShiftOperator) -> np.ndarray:
    """Dense matrix of the truncated shift (last-generation columns are zero)."""
    n = S.tree.n_vertices
    out = np.zeros((n, n), dtype=np.complex128)
    out[S._child_idx, S._parent_idx] = S._wvec
    return out


def left_inverse_matrix(S: ShiftOperator) -> np.ndarray:
    """Dense matrix of the left inverse."""
    if S.lower_bound <= 0:
        raise NotLeftInvertible("shift has no positive lower bound on the truncation")
    n = S.tree.n_vertices
    out = np.zeros((n, n), dtype=np.complex128)
    out[S._parent_idx, S._child_idx] = S._wvec / S._ns[S._parent_idx]
    return out

