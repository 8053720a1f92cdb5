"""Tests of the benchmark itself: the layer trace, the gate and the seeded inputs.

    python3 -m pytest -q perfbench

They run every workload once untraced and twice traced (about two minutes on
a 2-core host).  They are not part of the program's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.pin_environment()

import spans  # noqa: E402
from treeshift import cli  # noqa: E402
from workloads import (  # noqa: E402
    DROPPED, RANDOM_TREE_WIDTHS, SUITE_ALL_RANDOM_VERTICES, SUITE_ALL_SEEDS_PER_SEED,
    WORKLOADS, prepare, random_tree_spec, suite_all_cli_seed)

# Counts that must repeat exactly for a fixed seed.
COUNT_SUFFIXES = (".calls", "_calls", ".builds", ".factorizations", "_share",
                  ".power_iters", ".factorized_entries", ".dense", ".power")
# The layer each workload's rationale names as its main load.
MAIN_LAYER = {"suite-all": "shift", "wide-t4": "shift", "deep-t2": "shift",
              "random-file": "model"}


def _traced(config):
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        text = cli.run(config).to_json_lines()
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    fired = {tracer.names[i] for i in set(tracer.name_id)}
    return text, tracer.metrics(wall), fired


@pytest.fixture(scope="module", params=list(WORKLOADS))
def runs(request, tmp_path_factory):
    """One warm untraced report and two traced ones of a workload at seed 0."""
    kwargs = prepare(WORKLOADS[request.param], 0, tmp_path_factory.mktemp("inputs"))
    config = cli.RunConfig(**kwargs)
    cli.run(config)
    plain = cli.run(config).to_json_lines()
    return request.param, plain, _traced(config), _traced(config)


def test_benchmark_json_names_match_the_code():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w not in DROPPED]
    assert [m["name"] for m in spec["per_layer"]] == spans.metric_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"report_s", "setup_s", "peak_rss_mb"}


def test_named_functions_fire(runs):
    name, _, (_, _, fired), _ = runs
    assert set(WORKLOADS[name].named_spans) <= fired


def test_trace_keeps_report_bytes(runs):
    _, plain, first, second = runs
    assert first[0] == plain
    assert second[0] == plain


def test_counts_repeat_for_a_seed(runs):
    _, _, (_, m1, _), (_, m2, _) = runs
    counts = {k for k in m1 if k.endswith(COUNT_SUFFIXES)}
    assert counts
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}


def test_main_layer_has_largest_self_time(runs):
    name, _, (_, metrics, _), _ = runs
    self_times = {layer: metrics[f"{layer}.self_s"] for layer in spans.LAYERS}
    assert max(self_times, key=self_times.get) == MAIN_LAYER[name]


def test_tracer_restores_every_binding(runs):
    from treeshift import model, multiplier, shift

    assert not hasattr(multiplier.analytic_coeffs, "__wrapped__")
    assert not hasattr(model.apply_left_inverse, "__wrapped__")
    assert not hasattr(shift.SeparatedBasis.coords, "__wrapped__")
    assert not any(hasattr(f, "__wrapped__") for f in vars(cli)["_SUITE_FUNCS"].values())


def test_seed_changes_only_the_tree_and_the_cli_seed(tmp_path):
    for workload in WORKLOADS.values():
        a = prepare(workload, 1, tmp_path / "a")
        b = prepare(workload, 2, tmp_path / "b")
        assert a.pop("seed") != b.pop("seed")
        path_a, path_b = a.pop("tree_path", None), b.pop("tree_path", None)
        assert a == b
        if path_a is not None:
            assert open(path_a).read() != open(path_b).read()
    assert random_tree_spec(5) == random_tree_spec(5)
    assert random_tree_spec(5) != random_tree_spec(6)


def test_suite_all_random_tree_has_the_median_size():
    for seed in range(4):
        cli_seed = suite_all_cli_seed(seed)
        assert seed * SUITE_ALL_SEEDS_PER_SEED <= cli_seed < (seed + 1) * SUITE_ALL_SEEDS_PER_SEED
        trees = {label: tree for label, tree, _ in
                 cli._default_trees(cli.RunConfig(seed=cli_seed))}
        assert len(trees["random"].vertices) in SUITE_ALL_RANDOM_VERTICES


def test_random_tree_has_fixed_widths():
    spec = random_tree_spec(11)
    tree, _ = cli.tr.build_tree(cli.tr.TreeSpec(
        depth=spec["depth"], root=spec["root"],
        edges=tuple((e["from"], e["to"], e["weight"]) for e in spec["edges"])))
    assert tuple(len(g) for g in tree.generations) == RANDOM_TREE_WIDTHS
    assert max(len(k) for k in tree.children.values()) <= 3


def _report(statuses):
    records = [cli._record(name, status, residual=0.0) for name, status in statuses]
    return cli.Report(config={}, records=records)


def test_gate_counts_regressions_but_not_fixes():
    ref_report = _report([("adjoint-pairing", "pass"), ("gram-diagonal", "fail"),
                          ("spectral-radius-record", "diagnostic")])
    reference = {k: s for k, (s, _) in run.record_lines(ref_report.records).items()}

    fixed = run.Checker(reference)
    fixed.check(_report([("adjoint-pairing", "pass"), ("gram-diagonal", "pass"),
                         ("spectral-radius-record", "diagnostic")]))
    assert fixed.violations == 0 and fixed.failed_ops == 0

    kept = run.Checker(reference)
    kept.check(ref_report)
    assert kept.violations == 0 and kept.failed_ops == 1

    broken = run.Checker(reference)
    broken.check(_report([("adjoint-pairing", "fail")]))
    assert broken.violations == 2  # a pass turned fail, a diagnostic went missing
    assert broken.failed_ops == 2 and broken.attempted == 2

    drift = run.Checker(reference)
    drift.check(ref_report)
    drift.check(_report([("adjoint-pairing", "pass"), ("gram-diagonal", "fail"),
                         ("spectral-radius-record", "pass")]))
    assert drift.violations == 1  # differs from the first report of the run


def test_reference_keeps_the_known_failures():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    assert set(ref) == set(WORKLOADS)
    deep = ref["deep-t2"]
    for key in ("shimorin#1", "harmonics#1", "example1-projection#1",
                "commutant-convolution@t2#1", "product-law@t2#1", "scalar-equivalence@t2#1"):
        assert deep[key] == "fail"
    assert ref["random-file"]["multiplier-algebra#1"] == "fail"


def test_reference_needs_the_same_statuses_at_every_seed():
    import reference

    same = [{"a#1": "pass", "b#1": "fail"}] * 3
    assert reference.common_statuses("w", same) == same[0]
    with pytest.raises(ValueError, match="seed 2"):
        reference.common_statuses("w", same[:2] + [{"a#1": "fail", "b#1": "fail"}])


def test_power_path_is_counted():
    import numpy as np
    from treeshift import _util, multiplier

    mat = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.5], [1.0, 0.0, 3.0]])
    args = (lambda x: mat @ x, lambda y: mat.T @ y, 3)
    plain = multiplier.power_norm(*args, iters=7)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert multiplier.power_norm.__wrapped__ is _util.power_norm.__wrapped__
        traced = multiplier.power_norm(*args, iters=7)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0.0)
    assert traced == plain
    assert metrics["util.power_calls"] == 1
    assert metrics["util.power_iters"] == 7


def test_setup_probe_builds_every_workload_tree(tmp_path):
    env = run.pin_environment()
    for workload in WORKLOADS.values():
        kwargs = prepare(workload, 0, tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", run.SETUP_SOURCE + "print('built')", json.dumps(kwargs)],
            env=env, cwd=run.ROOT, capture_output=True, text=True, timeout=120)
        assert proc.stdout == "built\n", proc.stderr


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
