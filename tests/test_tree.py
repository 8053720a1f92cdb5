from __future__ import annotations

import numpy as np
import pytest

import treeshift as ts
from treeshift.errors import (
    BadParams,
    DepthTooLargeForMemory,
    MalformedSpec,
    NonpositiveWeight,
    UnknownExample,
)


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
