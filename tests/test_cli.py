from __future__ import annotations

import json
import subprocess
import sys

import pytest

import treeshift as ts
from treeshift.cli import CHECK_REFS, Record, RunConfig, SUITES, main, run
from treeshift.errors import ConfigError


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


def test_parallel_flag_is_ignored(tmp_path):
    a, b = tmp_path / "seq.jsonl", tmp_path / "par.jsonl"
    args = ["run", "--suite", "core-identities", "--suite", "harmonics", "--seed", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b), "--parallel"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_every_record_name_registered():
    config = RunConfig(suites=("all",), seed=0)
    report = run(config)
    for rec in report.records:
        assert rec.name in CHECK_REFS
        assert rec.law == CHECK_REFS[rec.name]


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


def test_coefficient_systems_built_once_per_loop(monkeypatch):
    # the round-trip and scalar-equivalence loops share one factorisation
    # each; a per-trial build inside reconstruct would show up there
    import collections

    from treeshift import model

    callers = collections.Counter()
    init = model.CoefficientSystem.__init__

    def counting_init(self, *args, **kwargs):
        callers[sys._getframe(1).f_code.co_name] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.CoefficientSystem, "__init__", counting_init)
    report = run(RunConfig(suites=("shimorin", "multiplier-algebra")))
    assert [r.status for r in report.records if r.name == "scalar-equivalence"] == ["pass"]
    n_trees = 3
    assert callers == {"_suite_shimorin": n_trees,            # model-round-trip
                       "reconstruct": n_trees,                # adjoint-eigenvector
                       "scalar_equivalence_check": 1}


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


def test_cli_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("TREESHIFT_SEED", "77")
    a = tmp_path / "env.jsonl"
    rc = main(["run", "--suite", "core-identities", "--out", str(a)])
    assert rc == 0
    rows = read_jsonl(a)
    assert rows[-1]["config"]["seed"] == 77


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


def test_tolerance_override_fails_run(tmp_path):
    out = tmp_path / "strict.jsonl"
    config = RunConfig(suites=("core-identities",), seed=5, out=str(out),
                       tol_power=0.0)
    report = run(config)
    assert report.failed
    rows = read_jsonl(out)
    fails = [r for r in rows[:-1] if r["status"] == "fail"]
    assert fails and all("witness" in r for r in fails)
