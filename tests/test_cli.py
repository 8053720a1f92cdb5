from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import treeshift as ts
from treeshift import cli, shift
from treeshift import tree as tr
from treeshift.cli import CHECK_REFS, Record, RunConfig, SUITES, main, run
from treeshift.errors import ConfigError, DepthTooLargeForMemory


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_run_core_identities(tmp_path):
    out = tmp_path / "core.jsonl"
    config = RunConfig(suites=("core-identities",), seed=5, out=str(out))
    report = run(config)
    assert not report.failed
    rows = read_jsonl(out)
    summary = rows[-1]
    assert summary["summary"]["fail"] == 0
    names = {r["name"] for r in rows[:-1]}
    assert "left-inverse-identity" in names
    assert all(r["law"] == CHECK_REFS[r["name"]] for r in rows[:-1])


def test_run_example_t2_divergence_record(tmp_path):
    out = tmp_path / "t2.jsonl"
    config = RunConfig(suites=("example-t2",), seed=1, depth=14, alpha=0.5,
                       out=str(out))
    report = run(config)
    rows = read_jsonl(out)
    div = [r for r in rows if r.get("name") == "example1-divergence"]
    assert len(div) == 1 and div[0]["status"] == "pass"
    assert not report.failed


def test_run_deduplicates_suites():
    config = RunConfig(suites=("core-identities", "core-identities"), seed=2)
    report = run(config)
    names = [r.name for r in report.records]
    assert names.count("left-inverse-identity") == len(names) // 5


def test_run_unknown_suite():
    with pytest.raises(ConfigError):
        run(RunConfig(suites=("no-such-suite",)))


def test_run_depth_validation():
    with pytest.raises(ConfigError):
        run(RunConfig(depth=1))


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run(RunConfig(suites=("core-identities", "shimorin"), seed=9, out=str(a)))
    run(RunConfig(suites=("core-identities", "shimorin"), seed=9, out=str(b)))
    assert a.read_bytes() == b.read_bytes()


def test_parallel_flag_is_retired(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--suite", "core-identities", "--parallel"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallel" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tol-alg", "--tol-power", "--slope-threshold"])
def test_gate_flags_are_retired(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", flag, "1e-3"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err


def test_summary_states_the_fixed_gates():
    line = run(RunConfig(suites=("core-identities",))).to_json_lines().splitlines()[-1]
    for gate in ('"slope_threshold":0.02', '"tol_alg":1e-12', '"tol_power":1e-10'):
        assert gate in line
    assert len([f for f in fields(RunConfig) if f.init]) == 7


def test_every_record_name_registered():
    config = RunConfig(suites=("all",), seed=0)
    report = run(config)
    for rec in report.records:
        assert rec.name in CHECK_REFS
        assert rec.law == CHECK_REFS[rec.name]
    # and the converse: no registered name outlives the check that emitted it
    assert set(CHECK_REFS) == {rec.name for rec in report.records}


def test_unregistered_record_rejected():
    from treeshift.cli import _record
    with pytest.raises(ConfigError):
        _record("not-a-check", "pass")


def test_cli_generate_and_load(tmp_path):
    out = tmp_path / "t2spec.json"
    rc = main(["generate", "--example", "T2", "--depth", "5", "--alpha", "0.25",
               "--out", str(out)])
    assert rc == 0
    spec = ts.load_tree_spec(str(out))
    tree, weights = ts.build_tree(spec)
    assert tree.n_vertices == 11
    assert tree.depth == 5


def test_cli_run_on_generated_file(tmp_path, capsys):
    out = tmp_path / "chain.json"
    main(["generate", "--example", "UNILATERAL", "--depth", "8", "--out", str(out)])
    rep = tmp_path / "report.jsonl"
    rc = main(["run", "--tree", str(out), "--suite", "core-identities",
               "--seed", "3", "--out", str(rep)])
    assert rc == 0
    rows = read_jsonl(rep)
    assert rows[-1]["summary"]["fail"] == 0
    assert all(r.get("tree", "file-tree") == "file-tree" for r in rows[:-1])


def test_cli_inspect(capsys):
    rc = main(["inspect", "--example", "T2", "--depth", "4", "--alpha", "0.5"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_dimension"] == 2
    assert payload["vertices"] == 9
    assert payload["balanced"].startswith("no")


def test_cli_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    rc = main(["run", "--tree", str(missing), "--suite", "core-identities"])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["--example", "T9"],
    ["--alpha", "nan"],
    ["--alpha", "inf"],
    ["--alpha=-inf"],
    ["--depth", "1"],
    ["--suite", "no-such-suite"],
    # alpha outside (0, 1) wherever a requested suite builds T2
    ["--alpha", "1.5"],
    ["--alpha", "0", "--suite", "core-identities"],
    ["--alpha", "1", "--example", "t2", "--suite", "harmonics"],
    ["--alpha", "1.5", "--example", "T4", "--suite", "example-t2"],
    # alpha whose square underflows: a weight S*S cannot hold
    ["--alpha", "1e-200", "--suite", "example-t2"],
    # trees above the vertex cap, refused from their depth
    ["--example", "T4", "--depth", "4"],
    ["--depth", "3000000"],
])
def test_cli_rejects_bad_config_before_any_suite(args, capsys, monkeypatch, tmp_path):
    ran = []
    monkeypatch.setattr(cli, "_SUITE_FUNCS", {
        name: (lambda config, trees, records, name=name: ran.append(name)) for name in SUITES})
    out = tmp_path / "report.jsonl"
    rc = main(["run", *args, "--out", str(out)])
    assert rc == 2
    assert ran == []
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ConfigError")


@pytest.mark.parametrize("args, suites", [
    (["--suite", "balanced"], ["balanced"]),
    (["--example", "T4", "--depth", "2", "--suite", "core-identities", "--suite", "harmonics"],
     ["core-identities", "harmonics"]),
    (["--example", "UNILATERAL", "--suite", "shimorin"], ["shimorin"]),
])
def test_cli_alpha_outside_unit_interval_without_t2(args, suites, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_SUITE_FUNCS", {
        name: (lambda config, trees, records, name=name: ran.append(name)) for name in SUITES})
    assert main(["run", "--alpha", "1.5", *args]) == 0
    assert ran == suites
    assert capsys.readouterr().err == ""


def test_cli_rejects_infinite_weight(tmp_path, capsys):
    spec = tmp_path / "inf.json"
    spec.write_text(json.dumps({"depth": 2, "root": "r", "edges": [
        {"from": "r", "to": "a", "weight": 1.0},
        {"from": "a", "to": "b", "weight": float("inf")}]}))
    rc = main(["run", "--tree", str(spec), "--suite", "core-identities"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["run", "inspect"])
@pytest.mark.parametrize("depth, weight", [
    ("1.7", "1.0"), ("true", "1.0"), ('"1"', "1.0"), ("1e400", "1.0"),
    ("1", '"2"'), ("1", "true"), ("1", "1" + "0" * 400)],
    ids=["depth-float", "depth-bool", "depth-string", "depth-overflow",
         "weight-string", "weight-bool", "weight-overflow"])
def test_cli_refuses_spec_fields_of_the_wrong_json_type(command, depth, weight, tmp_path, capsys):
    # a depth must be a JSON integer and a weight a JSON number; an overflow is
    # malformed too, so the run ends in one error line and exit code 2
    spec = tmp_path / "spec.json"
    spec.write_text('{"depth": %s, "root": "r", "edges": [{"from": "r", "to": "a", "weight": %s}]}'
                    % (depth, weight))
    suite = ["--suite", "core-identities"] if command == "run" else []
    rc = main([command, "--tree", str(spec), *suite])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "bad tree-spec file" in lines[0]


def test_cli_rejects_unhashable_label(tmp_path, capsys):
    spec = tmp_path / "list-root.json"
    spec.write_text(json.dumps({"depth": 1, "root": ["r"], "edges": [
        {"from": ["r"], "to": "a", "weight": 1.0}]}))
    rc = main(["run", "--tree", str(spec), "--suite", "core-identities"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("argv", [
    ["run", "--suite", "balanced", "--out"],
    ["generate", "--example", "T2", "--depth", "3", "--out"],
])
def test_cli_unwritable_out_is_config_error(argv, tmp_path, capsys):
    # the report is written after the suites run; a path in a missing
    # directory still ends in one error line and exit code 2
    target = tmp_path / "missing" / "out.json"
    assert main(argv + [str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ConfigError")
    assert str(target) in lines[0]
    assert not target.parent.exists()


def test_record_nonfinite_residual_fails():
    from treeshift.cli import _record

    for resid in (float("nan"), float("inf"), -float("inf")):
        for status in ("pass", "diagnostic"):
            rec = _record("left-inverse-identity", status, residual=resid)
            assert rec.status == "fail"
            assert "not finite" in rec.witness
    kept = _record("left-inverse-identity", "fail", residual=float("nan"), witness="given")
    assert kept.witness == "given"
    assert _record("left-inverse-identity", "pass", residual=1e-15).status == "pass"


def test_record_status_from_tolerance():
    from treeshift.cli import _record

    assert _record("left-inverse-identity", residual=1e-10, tol=1e-10).status == "pass"
    over = _record("left-inverse-identity", residual=2e-10, tol=1e-10)
    assert over.status == "fail" and "beyond tolerance" in over.witness
    for resid in (float("nan"), float("inf")):
        rec = _record("left-inverse-identity", residual=resid, tol=float("inf"))
        assert rec.status == "fail" and "not finite" in rec.witness


def test_seed_comes_only_from_the_flag(tmp_path, monkeypatch):
    # the environment is not a second source of the seed: --seed defaults to 0
    monkeypatch.setenv("TREESHIFT_SEED", "77")
    for args, want in (([], 0), (["--seed", "77"], 77)):
        out = tmp_path / f"seed{want}.jsonl"
        assert main(["run", "--suite", "core-identities", "--out", str(out), *args]) == 0
        assert read_jsonl(out)[-1]["config"]["seed"] == want


def test_record_json_shape():
    rec = Record(name="left-inverse-identity", law=CHECK_REFS["left-inverse-identity"],
                 status="pass", residual=1e-15, exactness_depth=10)
    payload = json.loads(rec.to_json())
    assert payload["status"] == "pass"
    assert payload["residual"] == 1e-15
    assert payload["exactness_depth"] == 10


def test_cli_inspect_from_file(tmp_path, capsys):
    out = tmp_path / "spec.json"
    main(["generate", "--example", "T2", "--depth", "4", "--alpha", "0.5",
          "--out", str(out)])
    rc = main(["inspect", "--tree", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_dimension"] == 2
    assert payload["vertices"] == 9


def _annihilation_specs():
    """Trees whose sibling sets run from 1 to 40 wide, as tree specs."""
    yield "t2", ts.tree_to_spec(*ts.generate_example("T2", 12, [0.5]))
    yield "t4", ts.tree_to_spec(*ts.generate_example("T4", 2))
    yield "chain", ts.tree_to_spec(*ts.generate_example("UNILATERAL", 4, [0.5, 2.0, 3.0, 0.7]))
    weights = np.random.default_rng(3).uniform(0.5, 2.0, size=40)
    yield "star", ts.TreeSpec(depth=1, root="r", edges=tuple(
        ("r", f"c{i}", float(w)) for i, w in enumerate(weights)))
    for seed in (1, 2, 3):
        yield f"random-{seed}", ts.tree_to_spec(*ts.generate_random_tree(6, 3, seed))


def test_kernel_annihilation_rank_passes_match_per_vector(tmp_path):
    for label, spec in _annihilation_specs():
        path = tmp_path / f"{label}.json"
        ts.save_tree_spec(spec, str(path))
        report = run(RunConfig(tree_path=str(path), suites=("core-identities",)))
        got = next(r.residual for r in report.records if r.name == "kernel-annihilation")
        S = ts.ShiftOperator(*ts.build_tree(ts.load_tree_spec(str(path))))
        basis = ts.separated_kernel_basis(S)
        # The per-vector loop the suite used to run, kept as the oracle.
        worst = 0.0
        for j in range(basis.dim):
            worst = max(worst, ts.apply_left_inverse(S, basis.vector(j)).norm())
        assert got == worst, label


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_core_identities_makes_one_left_inverse_pass_per_rank(monkeypatch):
    calls = _count_calls(monkeypatch, shift, "_left_inverse_array")
    report = run(RunConfig(example="T4", depth=3, suites=("core-identities",)))
    assert not report.failed
    # 20 trials with two L passes each, then ranks 0..63 under the 64 children
    # of each generation-2 vertex.
    assert len(calls) == 40 + 64


def test_example_projection_carries_the_left_iterate(monkeypatch):
    calls = _count_calls(monkeypatch, shift, "_left_inverse_array")
    report = run(RunConfig(suites=("example-t2",)))
    assert not report.failed
    # n = 1..13 on the two-ray tree at depth 14: one L pass per power, over
    # the block of all 50 vectors.
    assert len(calls) == 13


def test_memory_error_becomes_a_typed_record(monkeypatch):
    def exhausted(config, trees, records):
        records.append(cli._record("convolution-unit", residual=0.0, tol=cli.TOL_ALG))
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setitem(cli._SUITE_FUNCS, "multiplier-algebra", exhausted)
    report = run(RunConfig(suites=("multiplier-algebra", "balanced")))
    kept, first, *rest = report.records
    # the record made before the error stays, ahead of the typed one
    assert (kept.name, kept.status) == ("convolution-unit", "pass")
    assert (first.name, first.law, first.status) == (
        "multiplier-algebra", "suite execution", "fail")
    assert first.witness == ("DepthTooLargeForMemory: out of memory: "
                             "Unable to allocate 1.00 GiB for an array")
    assert rest and not any(r.status == "fail" for r in rest)


def test_tree_battery_is_built_once_per_run(tmp_path, monkeypatch):
    spec = tmp_path / "random.json"
    ts.save_tree_spec(ts.tree_to_spec(*ts.generate_random_tree(5, 3, 4)), str(spec))
    builds = _count_calls(monkeypatch, cli, "_default_trees")
    loads = _count_calls(monkeypatch, ts.tree, "load_tree_spec")
    bases = _count_calls(monkeypatch, shift, "separated_kernel_basis")
    # one basis per battery tree, plus those of example-t2 and balanced
    for config, n_bases in ((RunConfig(), 3 + 2), (RunConfig(tree_path=str(spec)), 1 + 2)):
        first = run(config).to_json_lines()
        assert len(builds) == 1 and len(loads) == bool(config.tree_path)
        assert len(bases) == n_bases
        # a second run builds its own battery and reports the same bytes
        assert run(config).to_json_lines() == first
        assert len(builds) == 2
        builds.clear()
        loads.clear()
        bases.clear()


def test_a_typed_error_keeps_the_records_made_before_it(tmp_path):
    spec = tmp_path / "random.json"
    # at depth 2, S^2 leaves commutant_check no room for a test vector
    tree, weights = ts.generate_random_tree(2, 3, 0)
    ts.save_tree_spec(ts.tree_to_spec(tree, weights), str(spec))
    report = run(RunConfig(tree_path=str(spec), suites=("multiplier-algebra",)))
    assert [r.name for r in report.records] == [
        "convolution-unit", "convolution-associative", "scalar-commutative", "power-symbol",
        "multiplier-algebra"]
    assert report.records[-1].witness == (
        "PreconditionFailed: operator raises generations by 2; no room below depth 2")
    # power-symbol judges the kernel columns with room below the last generation
    power = report.records[3]
    basis = ts.separated_kernel_basis(ts.ShiftOperator(tree, weights))
    assert power.status == "pass" and basis.max_generation == tree.depth
    assert power.extra["exact_columns"] == np.count_nonzero(basis.gen_index <= tree.depth - 2)


def test_power_symbol_without_exact_columns_fails_typed(tmp_path):
    spec = tmp_path / "star.json"
    ts.save_tree_spec(ts.TreeSpec(depth=1, root="r", edges=(("r", "a", 1.0), ("r", "b", 2.0))),
                      str(spec))
    report = run(RunConfig(tree_path=str(spec), suites=("multiplier-algebra",)))
    [power] = [r for r in report.records if r.name == "power-symbol"]
    assert (power.status, power.extra["exact_columns"]) == ("fail", 0)
    assert power.witness.startswith("PreconditionFailed: no kernel column is exact")


@pytest.mark.parametrize("example", tr.EXAMPLES)
def test_oversized_example_is_refused_before_it_is_built(example, monkeypatch):
    monkeypatch.setattr(tr, "MAX_VERTICES", 10)
    builds, made = [], []
    init = tr.Tree.__init__
    monkeypatch.setattr(tr.Tree, "__init__", lambda self, root, children, depth:
                        builds.append(depth) or init(self, root, children, depth))
    generate = tr.generate_example
    monkeypatch.setattr(tr, "generate_example", lambda name, depth, params=():
                        made.append(depth) or generate(name, depth, params))
    params = {"T2": [0.5], "T4": [], "UNILATERAL": [1.0] * 50}[example]
    with pytest.raises(DepthTooLargeForMemory, match=f"{example} at depth 50 holds"):
        generate(example, 50, params)
    with pytest.raises(ConfigError, match=f"{example} at depth 50 holds"):
        run(RunConfig(example=example, depth=50, suites=("core-identities",)))
    # neither the tree nor, through the CLI, the example's parameters were built
    assert 50 not in builds and 50 not in made


def test_failed_battery_is_refused_before_any_suite(monkeypatch):
    ran = []
    for name, func in list(cli._SUITE_FUNCS.items()):
        monkeypatch.setitem(cli._SUITE_FUNCS, name, lambda config, trees, records, name=name,
                            func=func: ran.append(name) or func(config, trees, records))
    with pytest.raises(ConfigError, match="T4 at depth 4 holds 1052741 vertices"):
        run(RunConfig(example="T4", depth=4, suites=("core-identities", "harmonics", "balanced")))
    assert ran == []
    # a run whose suites do not read the default trees never builds them
    assert main(["run", "--example", "T4", "--depth", "4", "--suite", "balanced"]) == 0
    assert ran == ["balanced"]


def test_library_does_not_import_scipy():
    # scipy is a test dependency only; a report must run without it
    code = ("import sys\n"
            "from treeshift.cli import RunConfig, run\n"
            "run(RunConfig(suites=('core-identities',)))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = str(Path(ts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


BAD_WEIGHTS = (0.0, -1.0, float("inf"), float("nan"), 1e200, 1e-170, "heavy", None)
LABELS = (lambda i: f"v{i}", lambda i: i, lambda i: i + 0.5, lambda i: [i])


@st.composite
def tree_spec_payloads(draw):
    """Tree-spec JSON payloads: random trees, chains and wide stars, with labels
    of several JSON types, and sometimes a bad weight or a wrong stated depth."""
    shape = draw(st.sampled_from(("random", "chain", "star")))
    depth = draw(st.integers(0, 1 if shape == "star" else 4))
    width = draw(st.integers(1, 40)) if shape == "star" else 1
    labels = [draw(st.sampled_from(LABELS[:3] if draw(st.booleans()) else LABELS))]
    edges, frontier, count = [], [0], 1
    for _ in range(depth):
        nxt = []
        for u in frontier:
            k = width if shape == "star" else 1 if shape == "chain" else draw(st.integers(1, 3))
            for v in range(count, count + k):
                labels.append(draw(st.sampled_from(LABELS[:3])))
                weight = draw(st.floats(0.05, 20.0))
                edges.append((u, v, weight))
                nxt.append(v)
            count += k
        frontier = nxt
    if edges and draw(st.booleans()):
        at = draw(st.integers(0, len(edges) - 1))
        u, v, _ = edges[at]
        edges[at] = (u, v, draw(st.sampled_from(BAD_WEIGHTS)))
    stated = depth + draw(st.sampled_from((0, 0, 0, -1, 1)))
    name = [labels[i](i) for i in range(count)]
    return {"depth": stated, "root": name[0],
            "edges": [{"from": name[u], "to": name[v], "weight": w} for u, v, w in edges]}


@given(payload=tree_spec_payloads())
def test_inspect_fuzzed_tree_specs(payload):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["inspect", "--tree", path])
    assert rc in (0, 2)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        return
    kids = collections.Counter(e["from"] for e in spec["edges"])
    info = json.loads(out.getvalue())
    assert info["kernel_dimension"] == 1 + sum(k - 1 for k in kids.values())
