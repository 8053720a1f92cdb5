from __future__ import annotations

import re

import numpy as np
import pytest

import treeshift as ts
from treeshift import _util
from treeshift._util import stable_rng
from treeshift.errors import (
    BadParams,
    DepthTooLargeForMemory,
    DimensionMismatch,
    MalformedSpec,
    NonpositiveWeight,
    PreconditionFailed,
    TreeShiftError,
    UnknownExample,
)
from treeshift.tree import _prefix_size


def test_build_chain_spec():
    spec = ts.TreeSpec(depth=4, root="r", edges=(
        ("r", "a", 1.0), ("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)))
    tree, weights = ts.build_tree(spec)
    assert tree.n_vertices == 5
    assert [v for v in tree.vertices if not tree.children[v]] == ["d"]
    assert weights["d"] == 1.0


def test_build_rejects_zero_weight():
    spec = ts.TreeSpec(depth=2, root="r", edges=(("r", "a", 0.0), ("a", "b", 1.0)))
    with pytest.raises(NonpositiveWeight):
        ts.build_tree(spec)


@pytest.mark.parametrize("w", [float("inf"), float("nan"), 1e200, 1e-170])
def test_build_rejects_nonfinite_weight(w):
    # 1e200 is finite, but its square, which S*S holds, is not; the square of
    # 1e-170 underflows to 0
    spec = ts.TreeSpec(depth=2, root="r", edges=(("r", "a", 1.0), ("a", "b", w)))
    with pytest.raises(NonpositiveWeight):
        ts.build_tree(spec)
    tree, _ = ts.build_tree(ts.TreeSpec(depth=2, root="r", edges=(
        ("r", "a", 1.0), ("a", "b", 1.0))))
    with pytest.raises(NonpositiveWeight):
        ts.WeightMap(tree, {"a": 1.0, "b": w})


@pytest.mark.parametrize("root, edges", [
    (["r"], ((["r"], "a", 1.0),)),
    ("r", (("r", {"x": 1}, 1.0),)),
    ("r", (("r", "a", 1.0), (["a"], "b", 1.0))),
])
def test_build_rejects_unhashable_label(root, edges):
    # labels from a JSON spec can be lists or objects
    with pytest.raises(MalformedSpec, match="not hashable"):
        ts.build_tree(ts.TreeSpec(depth=2, root=root, edges=edges))


def test_build_rejects_duplicate_edge():
    spec = ts.TreeSpec(depth=2, root="r", edges=(
        ("r", "a", 1.0), ("r", "a", 2.0)))
    with pytest.raises(MalformedSpec):
        ts.build_tree(spec)


def test_build_rejects_cycle():
    spec = ts.TreeSpec(depth=3, root="r", edges=(
        ("r", "a", 1.0), ("a", "b", 1.0), ("b", "a", 1.0)))
    with pytest.raises(MalformedSpec):
        ts.build_tree(spec)


def test_build_rejects_orphan_component():
    spec = ts.TreeSpec(depth=3, root="r", edges=(
        ("r", "a", 1.0), ("a", "b", 1.0), ("b", "c", 1.0), ("x", "y", 1.0)))
    with pytest.raises(MalformedSpec):
        ts.build_tree(spec)


def test_build_rejects_interior_leaf():
    # a stops at generation 1 < depth
    spec = ts.TreeSpec(depth=3, root="r", edges=(
        ("r", "a", 1.0), ("r", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)))
    with pytest.raises(MalformedSpec):
        ts.build_tree(spec)


def test_t2_counts_and_weights():
    tree, weights = ts.generate_example("T2", 6, [0.5])
    assert tree.n_vertices == 13
    tree3, w3 = ts.generate_example("T2", 3, [0.5])
    assert set(tree3.vertices) == {(0, 0)} | {(i, j) for i in (1, 2) for j in (1, 2, 3)}
    assert all(w3[(1, j)] == 1.0 for j in (1, 2, 3))
    assert all(w3[(2, j)] == 0.5 for j in (1, 2, 3))


def test_t2_rejects_bad_alpha():
    with pytest.raises(BadParams):
        ts.generate_example("T2", 4, [1.5])
    with pytest.raises(BadParams):
        ts.generate_example("T2", 4, [])


def test_t4_generation_counts():
    tree, weights = ts.generate_example("T4", 2, [])
    assert [len(g) for g in tree.generations] == [1, 4, 64]
    assert all(weights[v] == 0.5 for v in tree.generations[1])
    assert all(weights[v] == 0.25 for v in tree.generations[2])
    # every generation-1 vertex has 2^(2*1+2) = 16 children
    assert all(len(tree.children[v]) == 16 for v in tree.generations[1])


def test_t4_depth_cap():
    with pytest.raises(DepthTooLargeForMemory):
        ts.generate_example("T4", 4, [])


def test_unilateral():
    tree, weights = ts.generate_example("UNILATERAL", 2, [1.0, 1.0])
    assert tree.n_vertices == 3
    with pytest.raises(BadParams):
        ts.generate_example("UNILATERAL", 3, [1.0])


def test_unknown_example():
    with pytest.raises(UnknownExample):
        ts.generate_example("T9", 3, [])


def test_generation_indexing(t2):
    tree, _ = t2
    for v in tree.vertices:
        if v != tree.root:
            assert tree.generation[tree.parent[v]] == tree.generation[v] - 1


def test_paths_t2_and_t4(t2, t4_depth2):
    # one root-to-leaf chain per leaf, traced up through the parents
    for tree, n_leaves in ((t2[0], 2), (t4_depth2[0], 64)):
        leaves = [v for v in tree.vertices if not tree.children[v]]
        assert len(leaves) == n_leaves
        for leaf in leaves:
            chain = [leaf]
            while chain[-1] != tree.root:
                chain.append(tree.parent[chain[-1]])
            assert len(chain) == tree.generation[leaf] + 1


def test_spec_json_round_trip(tmp_path, t2):
    tree, weights = t2
    spec = ts.tree_to_spec(tree, weights)
    path = tmp_path / "t2.json"
    ts.save_tree_spec(spec, str(path))
    loaded = ts.load_tree_spec(str(path))
    tree2, weights2 = ts.build_tree(loaded)
    assert tree2.n_vertices == tree.n_vertices
    assert tree2.depth == tree.depth
    gens = [len(g) for g in tree2.generations]
    assert gens == [len(g) for g in tree.generations]


def test_balanced_double_ray_norms():
    norms = [1.0 + 1.0 / (m + 1) for m in range(6)]
    tree, weights = ts.balanced_double_ray(6, norms)
    S = ts.ShiftOperator(tree, weights)
    ok, _ = ts.is_balanced(S)
    assert ok
    for u in tree.vertices:
        if tree.children[u]:
            assert np.sqrt(S.norm_squares[u]) == pytest.approx(
                norms[tree.generation[u]], rel=1e-14)


def test_random_tree_rejects_wide_branching():
    # the odds table covers 1 to 3 children
    for bad in (0, 4, 6):
        with pytest.raises(BadParams):
            ts.generate_random_tree(6, bad, 0)


def test_random_tree_reproducible():
    a = ts.generate_random_tree(6, 3, 42)
    b = ts.generate_random_tree(6, 3, 42)
    assert a[0].vertices == b[0].vertices
    assert all(a[1][v] == b[1][v] for v in a[0].vertices if v != a[0].root)


# The generators' own child loops from before the layered builder, kept as
# oracles: every generated tree must serialize to the same spec.

def oracle_t4(depth):
    children, weights = {}, {}
    for m in range(depth + 1):
        fanout = 2 ** (2 * m + 2)
        for n in range(2 ** (m * (m + 1))):
            kids = [(m + 1, k) for k in range(n * fanout, (n + 1) * fanout)] if m < depth else []
            children[(m, n)] = kids
            if m > 0:
                weights[(m, n)] = 2.0 ** (-m)
    tree = ts.Tree((0, 0), children, depth)
    return tree, ts.WeightMap(tree, weights)


def oracle_unilateral(params):
    depth = len(params)
    children = {(k, 0): [(k + 1, 0)] for k in range(depth)}
    children[(depth, 0)] = []
    tree = ts.Tree((0, 0), children, depth)
    return tree, ts.WeightMap(tree, {(k + 1, 0): float(params[k]) for k in range(depth)})


def oracle_random_tree(depth, max_branching, seed):
    rng = stable_rng(seed, "random-tree")
    counts = list(range(1, max_branching + 1))
    probs = [0.55, 0.3, 0.15][:max_branching]
    probs = [p / sum(probs) for p in probs]
    children, weights = {}, {}
    frontier = [(0, 0)]
    for g in range(depth):
        nxt, idx = [], 0
        for u in frontier:
            k = int(rng.choice(counts, p=probs))
            kids = [(g + 1, idx + t) for t in range(k)]
            idx += k
            children[u] = kids
            for v in kids:
                weights[v] = float(rng.uniform(0.5, 2.0))
            nxt.extend(kids)
        frontier = nxt
    for u in frontier:
        children[u] = []
    tree = ts.Tree((0, 0), children, depth)
    return tree, ts.WeightMap(tree, weights)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_t4_matches_oracle(depth):
    assert ts.tree_to_spec(*ts.generate_example("T4", depth)) == ts.tree_to_spec(*oracle_t4(depth))


def test_unilateral_matches_oracle():
    params = [0.5, 2.0, 3.0, 0.7, 1.25]
    got = ts.tree_to_spec(*ts.generate_example("UNILATERAL", len(params), params))
    assert got == ts.tree_to_spec(*oracle_unilateral(params))


@pytest.mark.parametrize("depth, max_branching", [(4, 1), (6, 3), (8, 2), (10, 3)])
def test_random_tree_matches_oracle(depth, max_branching):
    for seed in range(50):
        got = ts.tree_to_spec(*ts.generate_random_tree(depth, max_branching, seed))
        assert got == ts.tree_to_spec(*oracle_random_tree(depth, max_branching, seed)), seed


@pytest.mark.parametrize("build", [
    lambda d: ts.generate_example("T4", d),
    lambda d: ts.generate_random_tree(d, 2, 0),
    lambda d: ts.generate_random_tree(d, 3, 5),
])
@pytest.mark.parametrize("depth", [-1, -3])
def test_negative_depth_is_malformed(build, depth):
    with pytest.raises(MalformedSpec, match="nonnegative"):
        build(depth)


@pytest.mark.parametrize("build, edge", [
    (lambda: ts.generate_example("UNILATERAL", 3, [1.0, float("nan"), 1.0]), "(1, 0) -> (2, 0)"),
    (lambda: ts.generate_example("UNILATERAL", 3, [-1.0, 1.0, 1.0]), "(0, 0) -> (1, 0)"),
    (lambda: ts.balanced_double_ray(3, [1.0, float("nan"), 1.0]), "(1, 1) -> (1, 2)"),
    (lambda: ts.balanced_double_ray(3, [-1.0, 1.0, 1.0]), "(0, 0) -> (1, 1)"),
    (lambda: ts.balanced_double_ray(3, [1.0, 1.0, 0.0]), "(1, 2) -> (1, 3)"),
])
def test_generator_weights_are_checked_by_the_weight_map(build, edge):
    with pytest.raises(NonpositiveWeight, match=f"weight on edge {re.escape(edge)} is"):
        build()


@pytest.mark.parametrize("build, edge", [
    (lambda: ts.build_tree(ts.TreeSpec(1, "r", (("r", "a", 10 ** 400),))), "'r' -> 'a'"),
    (lambda: ts.build_tree(ts.TreeSpec(1, "r", (("r", "a", "heavy"),))), "'r' -> 'a'"),
    (lambda: ts.build_tree(ts.TreeSpec(1, "r", (("r", "a", 1j),))), "'r' -> 'a'"),
    (lambda: ts.generate_example("UNILATERAL", 1, ["x"]), "(0, 0) -> (1, 0)"),
    (lambda: ts.generate_example("UNILATERAL", 2, [1.0, 10 ** 400]), "(1, 0) -> (2, 0)"),
], ids=["overflow", "string", "complex", "unilateral-string", "unilateral-overflow"])
def test_weight_that_is_not_a_float_is_a_nonpositive_weight(build, edge):
    # the weight map makes each weight a float; what does not convert is refused, typed
    with pytest.raises(NonpositiveWeight,
                       match=f"weight on edge {re.escape(edge)} does not convert to a float"):
        build()


def test_build_reports_structure_before_weights():
    # b lies beyond depth 1 and the edge into a has a bad weight: the tree is
    # checked first, then its weights
    spec = ts.TreeSpec(depth=1, root="r", edges=(("r", "a", -1.0), ("a", "b", 1.0)))
    with pytest.raises(MalformedSpec, match="exceeds truncation depth"):
        ts.build_tree(spec)
    with pytest.raises(NonpositiveWeight, match="weight on edge 'r' -> 'a' is -1.0"):
        ts.build_tree(ts.TreeSpec(depth=1, root="r", edges=(("r", "a", -1.0),)))


def test_offsets_and_prefix_sizes(t2, t4_depth2):
    trees = [t2[0], t4_depth2[0], ts.generate_random_tree(8, 3, 4)[0],
             ts.generate_example("UNILATERAL", 0)[0]]
    for tree in trees:
        sizes = [len(g) for g in tree.generations]
        assert tree.offsets == tuple(np.cumsum([0] + sizes).tolist())
        assert tree.offsets[-1] == tree.n_vertices
        for d in range(-2, tree.depth + 3):
            assert _prefix_size(tree, d) == sum(sizes[:max(0, d + 1)])


def _write_spec(path, depth, weight):
    path.write_text('{"depth": %s, "root": "r", "edges": [{"from": "r", "to": "a", "weight": %s}]}'
                    % (depth, weight))
    return str(path)


# JSON texts that the tree-spec reader refuses: a depth that is not an integer
# and weights that are not numbers, or that overflow a float
BAD_SPEC_FIELDS = [("1.7", "1.0"), ("true", "1.0"), ('"1"', "1.0"), ("1e400", "1.0"),
                   ("1", '"2"'), ("1", "true"), ("1", "1" + "0" * 400)]
BAD_SPEC_IDS = ["depth-float", "depth-bool", "depth-string", "depth-overflow",
                "weight-string", "weight-bool", "weight-overflow"]


@pytest.mark.parametrize("depth, weight", BAD_SPEC_FIELDS, ids=BAD_SPEC_IDS)
def test_load_tree_spec_refuses_wrong_json_types(tmp_path, depth, weight):
    with pytest.raises(MalformedSpec, match="bad tree-spec file"):
        ts.load_tree_spec(_write_spec(tmp_path / "spec.json", depth, weight))


def test_load_tree_spec_reads_integer_weights(tmp_path):
    spec = ts.load_tree_spec(_write_spec(tmp_path / "spec.json", "1", "2"))
    assert spec.depth == 1 and spec.edges == (("r", "a", 2.0),)
    assert type(spec.edges[0][2]) is float


_T2_TREE = ts.generate_example("T2", 3, [0.5])[0]
_RAMP, _ONES = 0.5 ** np.arange(8), np.ones(8)
# (call, the memory budget it runs under or None, the error it must raise)
TYPED_REFUSALS = {
    "T2-alpha-string": (lambda: ts.generate_example("T2", 3, ["x"]), None, BadParams),
    "T2-depth-float": (lambda: ts.generate_example("T2", 2.5, [0.5]), None, BadParams),
    "ray-norm-string": (lambda: ts.balanced_double_ray(3, ["x", 1.0, 1.0]), None, BadParams),
    "ray-norm-huge": (lambda: ts.balanced_double_ray(3, [10**400, 1.0, 1.0]), None, BadParams),
    "ray-depth-float": (lambda: ts.balanced_double_ray(2.5, [1.0] * 3), None, BadParams),
    "toeplitz-trunc-0": (lambda: ts.weighted_toeplitz_norm(_RAMP, _ONES, _ONES, 0), None,
                         PreconditionFailed),
    "toeplitz-trunc-negative": (lambda: ts.weighted_toeplitz_norm(_RAMP, _ONES, _ONES, -3),
                                None, PreconditionFailed),
    "toeplitz-trunc-past-beta": (lambda: ts.weighted_toeplitz_norm(_RAMP, _ONES, _ONES, 20),
                                 None, PreconditionFailed),
    "toeplitz-budget": (lambda: ts.weighted_toeplitz_norm(
        0.5 ** np.arange(64), np.ones(64), np.ones(64), 64), 10, DepthTooLargeForMemory),
    "toeplitz-trunc-float": (lambda: ts.weighted_toeplitz_norm(_RAMP, _ONES, _ONES, 2.5), None,
                             PreconditionFailed),
    "toeplitz-symbol-nan": (lambda: ts.weighted_toeplitz_norm(
        np.array([1.0, np.nan]), _ONES, _ONES, 4), None, PreconditionFailed),
    "toeplitz-beta-negative": (lambda: ts.weighted_toeplitz_norm(
        _RAMP, _ONES, np.r_[1.0, -1.0, _ONES[2:]], 4), None, DimensionMismatch),
    "toeplitz-beta-inf": (lambda: ts.weighted_toeplitz_norm(
        _RAMP, np.r_[1.0, np.inf, _ONES[2:]], _ONES, 4), None, DimensionMismatch),
    "dense-norm-nan": (lambda: _util.dense_spectral_norm(np.array([[1.0, np.nan]])), None,
                       PreconditionFailed),
    "dense-norm-inf": (lambda: _util.dense_spectral_norm(np.array([[1j * np.inf], [1.0]])),
                       None, PreconditionFailed),
    "indicator-index-float": (lambda: ts.indicator_symbol(2.5, 2), None, PreconditionFailed),
    "scalar-symbol-string": (lambda: ts.ScalarSymbol(np.array(["a"])), None, PreconditionFailed),
    "op-symbol-string": (lambda: ts.OpSymbol(np.array([[["a"]]])), None, PreconditionFailed),
    "scalar-symbol-huge": (lambda: ts.ScalarSymbol([10**400]), None, PreconditionFailed),
    "basis-unknown-vertex": (lambda: ts.L2Vector.basis(_T2_TREE, (9, 9)), None,
                             PreconditionFailed),
    "basis-unhashable-vertex": (lambda: ts.L2Vector.basis(_T2_TREE, [1]), None,
                                PreconditionFailed),
    "from-dict-unknown-vertex": (lambda: ts.L2Vector.from_dict(_T2_TREE, {(9, 9): 1.0}), None,
                                 PreconditionFailed),
    "getitem-unknown-vertex": (lambda: ts.L2Vector.zero(_T2_TREE)[(9, 9)], None,
                               PreconditionFailed),
}


@pytest.mark.parametrize("name", TYPED_REFUSALS)
def test_malformed_input_is_a_typed_error(name, monkeypatch):
    call, budget, error = TYPED_REFUSALS[name]
    if budget is not None:
        monkeypatch.setattr(_util, "MAX_DENSE_ENTRIES", budget)
    with pytest.raises(TreeShiftError) as caught:
        call()
    assert type(caught.value) is error
