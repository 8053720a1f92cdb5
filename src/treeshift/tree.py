"""Rooted directed trees truncated at a generation depth, with positive edge weights.

Vertices of generated trees are (generation, index) pairs; trees loaded from
JSON files keep their opaque string labels.  A tree stores parent and ordered
children maps, and every vertex strictly above the truncation depth must have
at least one child (no interior leaves).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, count, repeat
from typing import Hashable, Iterable, Sequence

from ._util import stable_rng
from .errors import (
    BadParams,
    DepthTooLargeForMemory,
    MalformedSpec,
    NonpositiveWeight,
    UnknownExample,
)

VertexId = Hashable

# Hard cap on stored vertices; the quartic example tree explodes past depth 3.
MAX_VERTICES = 200_000


@dataclass(frozen=True)
class TreeSpec:
    """Declarative description of a weighted tree: root, edges, truncation depth."""

    depth: int
    root: VertexId
    edges: tuple[tuple[VertexId, VertexId, float], ...]


class Tree:
    """Immutable rooted tree with ordered children, truncated at `depth` generations.

    Vertices are enumerated breadth first (by generation, then insertion order);
    `index` maps a vertex to its position in that enumeration and `generation`
    gives its distance from the root.  Generation g occupies positions
    offsets[g] to offsets[g + 1] - 1 of that enumeration; offsets[-1] is n.
    """

    def __init__(self, root: VertexId, children: dict[VertexId, Sequence[VertexId]],
                 depth: int) -> None:
        if depth < 0:
            raise MalformedSpec("truncation depth must be nonnegative")
        self.root = root
        self.depth = depth
        self.children: dict[VertexId, tuple[VertexId, ...]] = {}
        self.parent: dict[VertexId, VertexId] = {}

        generations: list[list[VertexId]] = [[root]]
        gen_of: dict[VertexId, int] = {root: 0}
        frontier = [root]
        total = 1
        while frontier:
            nxt: list[VertexId] = []
            for u in frontier:
                kids = tuple(children.get(u, ()))
                self.children[u] = kids
                for v in kids:
                    if v in gen_of:
                        raise MalformedSpec(f"vertex {v!r} has two parents or lies on a cycle")
                    self.parent[v] = u
                    gen_of[v] = gen_of[u] + 1
                    if gen_of[v] > depth:
                        raise MalformedSpec(f"vertex {v!r} exceeds truncation depth {depth}")
                    nxt.append(v)
                    total += 1
                    if total > MAX_VERTICES:
                        raise DepthTooLargeForMemory(
                            f"tree exceeds {MAX_VERTICES} vertices")
            if nxt:
                generations.append(nxt)
            frontier = nxt

        unreachable = set(children) - set(self.children)
        if unreachable:
            raise MalformedSpec(f"unreachable vertices: {sorted(map(repr, unreachable))[:5]}")
        for u, g in gen_of.items():
            if g < depth and not self.children[u]:
                raise MalformedSpec(
                    f"vertex {u!r} at generation {g} has no children above the truncation depth")

        self.generations: tuple[tuple[VertexId, ...], ...] = tuple(map(tuple, generations))
        self.offsets: tuple[int, ...] = tuple(accumulate(map(len, generations), initial=0))
        self.vertices: tuple[VertexId, ...] = tuple(v for gen in generations for v in gen)
        self.index: dict[VertexId, int] = {v: i for i, v in enumerate(self.vertices)}
        self.generation: dict[VertexId, int] = gen_of

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def _prefix_size(tree: Tree, depth: int) -> int:
    """Number of vertices in V_{<=depth}, a prefix of the breadth-first order."""
    return tree.offsets[min(max(0, depth + 1), tree.depth + 1)]


def _usable_weight(w: float) -> bool:
    """Positive, finite and with a finite, nonzero square (S*S holds squared weights)."""
    return w > 0 and math.isfinite(w * w) and w * w > 0


class WeightMap:
    """Positive finite weights on all non-root vertices of a tree: the one place
    where a weight is checked and made a float, since every tree's weights pass
    through here."""

    def __init__(self, tree: Tree, weights: dict[VertexId, float]) -> None:
        self.tree = tree
        self.values: dict[VertexId, float] = {}
        # tree.parent holds the non-root vertices in breadth-first order
        for v, u in tree.parent.items():
            w = weights.get(v)
            if w is None:
                raise MalformedSpec(f"missing weight for vertex {v!r}")
            try:
                self.values[v] = float(w)
            except (TypeError, ValueError, OverflowError) as exc:
                raise NonpositiveWeight(
                    f"weight on edge {u!r} -> {v!r} does not convert to a float: {exc}") from None
            if not _usable_weight(self.values[v]):
                raise NonpositiveWeight(f"weight on edge {u!r} -> {v!r} is {w!r}; a weight "
                                        "and its square must be positive and finite")

    def __getitem__(self, v: VertexId) -> float:
        return self.values[v]


def _check_label(label) -> None:
    """Vertex labels key dictionaries, so a list or an object label is malformed."""
    try:
        hash(label)
    except TypeError:
        raise MalformedSpec(f"vertex label {label!r} is not hashable") from None


def build_tree(spec: TreeSpec) -> tuple[Tree, WeightMap]:
    """Validate a tree specification and assemble the tree plus its weight map.

    Rejects unhashable vertex labels, duplicate edges, vertices with several
    parents, cycles, interior leaves and vertices beyond the stated depth; then
    the weight map rejects weights that are not positive or whose square is not
    finite, so a structural error wins over a bad weight.
    """
    children: dict[VertexId, list[VertexId]] = {}
    weights: dict[VertexId, float] = {}
    seen: set[tuple[VertexId, VertexId]] = set()
    _check_label(spec.root)
    for u, v, w in spec.edges:
        _check_label(u)
        _check_label(v)
        if (u, v) in seen:
            raise MalformedSpec(f"duplicate edge {u!r} -> {v!r}")
        seen.add((u, v))
        if v == spec.root:
            raise MalformedSpec("root cannot have a parent")
        children.setdefault(u, []).append(v)
        children.setdefault(v, [])
        weights[v] = w
    if spec.root not in children and spec.edges:
        raise MalformedSpec("root does not appear in any edge")
    tree = Tree(spec.root, children, spec.depth)
    return tree, WeightMap(tree, weights)


def _json_number(value, kinds: tuple[type, ...], what: str):
    """value if json decoded it as one of kinds (int, float; a boolean is neither)."""
    if type(value) not in kinds:
        kind = "number" if float in kinds else "integer"
        raise TypeError(f"{what} {value!r} is not a JSON {kind}")
    return value


def load_tree_spec(path: str) -> TreeSpec:
    """Read the JSON tree-spec format: {"depth", "root", "edges": [{from,to,weight}]}.

    The depth must be a JSON integer and each weight a JSON number that fits
    a float; booleans and strings are refused, as is any overflow."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        depth = _json_number(raw["depth"], (int,), "depth")
        edges = tuple((e["from"], e["to"], float(_json_number(e["weight"], (int, float), "weight")))
                      for e in raw["edges"])
        return TreeSpec(depth=depth, root=raw["root"], edges=edges)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise MalformedSpec(f"bad tree-spec file {path}: {exc}") from exc


def save_tree_spec(spec: TreeSpec, path: str) -> None:
    """Write a tree spec in the JSON format understood by `load_tree_spec`."""
    payload = {
        "depth": spec.depth,
        "root": spec.root,
        "edges": [{"from": u, "to": v, "weight": w} for u, v, w in spec.edges],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def tree_to_spec(tree: Tree, weights: WeightMap) -> TreeSpec:
    """Serialize a built tree back to a TreeSpec, stringifying tuple labels."""

    def label(v: VertexId):
        if isinstance(v, tuple):
            return ".".join(str(c) for c in v)
        return v

    edges = tuple(
        (label(u), label(v), weights[v])
        for u in tree.vertices for v in tree.children[u])
    return TreeSpec(depth=tree.depth, root=label(tree.root), edges=edges)


# Names generate_example accepts, in any letter case.
EXAMPLES = ("T2", "T4", "UNILATERAL")


def _check_example_size(key: str, depth: int) -> None:
    """Refuse the example named key (upper case) above MAX_VERTICES vertices before it
    is built.  T4's generation m holds 2^(m(m+1)), so m is counted to the cap's bit length."""
    last = min(depth, MAX_VERTICES.bit_length())
    count = {"T2": 2 * depth + 1, "UNILATERAL": depth + 1,
             "T4": sum(2 ** (m * (m + 1)) for m in range(last + 1))}.get(key, 0)
    if count > MAX_VERTICES:
        held = f"at least {count}" if key == "T4" and last < depth else count
        raise DepthTooLargeForMemory(
            f"{key} at depth {depth} holds {held} vertices (cap {MAX_VERTICES})")


def _example_depth(depth) -> int:
    """depth as an int; BadParams when it is not an integer."""
    try:
        return operator.index(depth)
    except TypeError:
        raise BadParams(f"depth must be an integer, got {depth!r}") from None


def _example_floats(values: Sequence[float], what: str) -> list[float]:
    """The parameters made floats once; BadParams when one does not convert."""
    try:
        return [float(x) for x in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParams(f"{what} do not convert to floats: {exc}") from None


def generate_example(name: str, depth: int, params: Sequence[float] = ()) -> tuple[Tree, WeightMap]:
    """Build one of the named example trees.

    T2:         root with two infinite rays; weights 1 on the first ray and
                alpha on the second, params = [alpha] with 0 < alpha < 1.
    T4:         generation m holds 2^(m(m+1)) vertices, each vertex at depth m
                has 2^(2m+2) children, and weights are 2^(-|v|).
    UNILATERAL: a single path; params is the weight list (length = depth).
    """
    key = name.upper()
    depth = _example_depth(depth)
    _check_example_size(key, depth)
    if key == "T2":
        if depth < 1:
            raise BadParams("T2 needs depth >= 1")
        alpha = _example_floats(params, "T2's params")
        if len(alpha) != 1 or not (0 < alpha[0] < 1):
            raise BadParams("T2 needs params=[alpha] with 0 < alpha < 1")
        return _double_ray(depth, [1.0] * depth, alpha * depth)

    if key == "T4":
        if params:
            raise BadParams("T4 takes no parameters")
        return _layered_tree(depth, (repeat([2.0 ** -(m + 1)] * 4 ** (m + 1)) for m in count()))

    if key == "UNILATERAL":
        if len(params) != depth:
            raise BadParams(f"UNILATERAL needs {depth} weights, got {len(params)}")
        return _layered_tree(depth, ([[w]] for w in params))

    raise UnknownExample(f"no example named {name!r}")


def balanced_double_ray(depth: int, generation_norms: Sequence[float]) -> tuple[Tree, WeightMap]:
    """Two rays branching at the root, weighted so every generation-m vertex u
    has ||S e_u|| equal to generation_norms[m].  Useful balanced non-isometry.
    """
    depth = _example_depth(depth)
    if depth < 1:
        raise BadParams("balanced_double_ray needs depth >= 1")
    if len(generation_norms) < depth:
        raise BadParams(f"need {depth} generation norms, got {len(generation_norms)}")
    c = _example_floats(generation_norms, "generation norms")
    ray = [c[0] / 2 ** 0.5] + c[1:depth]
    return _double_ray(depth, ray, ray)


def _double_ray(depth: int, first: Sequence[float],
                second: Sequence[float]) -> tuple[Tree, WeightMap]:
    """The root (0, 0) with two rays (i, 1), ..., (i, depth) for i = 1, 2; the edge
    into (i, j) weighs first[j - 1] on ray 1 and second[j - 1] on ray 2."""
    children: dict[VertexId, list[VertexId]] = {(0, 0): [(1, 1), (2, 1)]}
    weights: dict[VertexId, float] = {}
    for i, ray in ((1, first), (2, second)):
        for j in range(1, depth + 1):
            children[(i, j)] = [(i, j + 1)] if j < depth else []
            weights[(i, j)] = ray[j - 1]
    tree = Tree((0, 0), children, depth)
    return tree, WeightMap(tree, weights)


def _layered_tree(depth: int,
                  layers: Iterable[Iterable[Sequence[float]]]) -> tuple[Tree, WeightMap]:
    """The tree of the given depth labelled (generation, index), built one
    generation at a time: the g-th entry of layers yields, for each vertex of
    generation g in order, the edge weights of its children, so their number is
    its fanout.  An entry is read only as far as its generation is wide."""
    children: dict[VertexId, list[VertexId]] = {}
    weights: dict[VertexId, float] = {}
    frontier = [(0, 0)]
    for g, layer in zip(range(depth), layers):
        nxt: list[VertexId] = []
        for u, ws in zip(frontier, layer):
            children[u] = kids = [(g + 1, len(nxt) + t) for t in range(len(ws))]
            weights.update(zip(kids, ws))
            nxt += kids
        frontier = nxt
    tree = Tree((0, 0), children, depth)
    return tree, WeightMap(tree, weights)


# Odds of 1, 2 and 3 children per vertex in generate_random_tree, and the
# range its edge weights are drawn from.
_BRANCHING_ODDS = (0.55, 0.3, 0.15)
_RANDOM_WEIGHT_RANGE = (0.5, 2.0)


def generate_random_tree(depth: int, max_branching: int, seed: int) -> tuple[Tree, WeightMap]:
    """Random locally finite tree with branching <= max_branching and random weights.

    Branching counts are drawn with probabilities favouring single children so
    the vertex count stays at desk scale; deterministic for a fixed seed.
    max_branching runs from 1 to 3, the length of the odds table.
    """
    if not 1 <= max_branching <= len(_BRANCHING_ODDS):
        raise BadParams(f"max_branching must be between 1 and {len(_BRANCHING_ODDS)}")
    rng = stable_rng(seed, "random-tree")
    counts = list(range(1, max_branching + 1))
    probs = _BRANCHING_ODDS[:max_branching]
    probs = [p / sum(probs) for p in probs]
    lo, hi = _RANDOM_WEIGHT_RANGE
    # one stream for every generation: each vertex draws its branching, then its children's weights
    draws = ([float(rng.uniform(lo, hi)) for _ in range(int(rng.choice(counts, p=probs)))]
             for _ in count())
    return _layered_tree(depth, repeat(draws))
