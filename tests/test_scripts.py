"""The scripts under scripts/: the report diff and the benchmark pair driver."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import treeshift as ts
from treeshift.cli import RunConfig, run

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, *args):
    src = str(Path(ts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_diff_reports_flags_a_status_change(tmp_path):
    old, same, flipped = (tmp_path / f"{n}.jsonl" for n in ("old", "same", "flipped"))
    run(RunConfig(suites=("core-identities",), out=str(old)))
    same.write_text(old.read_text())
    rows = [json.loads(line) for line in old.read_text().splitlines()]
    rows[0]["status"] = "fail"
    flipped.write_text("".join(json.dumps(r) + "\n" for r in rows))

    done = _run_script("diff_reports.py", str(old), str(same))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].endswith(" 0 differences")

    done = _run_script("diff_reports.py", str(old), str(flipped))
    assert done.returncode == 1, done.stderr
    key = f"{rows[0]['name']}@{rows[0]['tree']}#1"
    assert done.stdout.splitlines()[0] == f"status {key}: pass -> fail"


def test_bench_pairs_alternates_sides_and_writes_the_bench_layout(tmp_path, capsys):
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    calls = []

    def fake(side, workload, seed):
        calls.append((workload, seed, side))
        value = 1.0 + seed if side == "parent" else 0.5 + seed
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"report_s": {"value": value, "unit": "s"}}}

    out = tmp_path / "BENCH_fake.json"
    assert bench_pairs.main(["abc1234", "--workload", "suite-all", "--workload", "wide-t4",
                             "--pairs", "3", "--out", str(out)], runner=fake) == 0
    order = [("parent", "change"), ("change", "parent"), ("parent", "change")]
    assert calls == [(w, s, side) for w in ("suite-all", "wide-t4")
                     for s in range(3) for side in order[s]]
    payload = json.loads(out.read_text())
    assert payload["parent"] == "abc1234"
    assert [(r["workload"], r["seed"], r["side"]) for r in payload["runs"]] == calls
    assert payload["runs"][0]["result"]["metrics"]["report_s"]["value"] == 1.0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{w} report_s: parent 2 [1, 3]; change 1.5 [0.5, 2.5]; "
                     f"change lower in 3 of 3 pairs" for w in ("suite-all", "wide-t4")]


def test_bench_pairs_copies_the_working_tree_without_ignored_files(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    dest.mkdir()
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "pkg" / "mod.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("y = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(git + ["add", "-A"], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], cwd=repo, check=True)
    (repo / "pkg" / "mod.py").write_text("x = 2\n")
    (repo / "pkg" / "new.py").write_text("z = 1\n")
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.py").unlink()

    assert bench_pairs.copy_worktree(repo, dest) == dest
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "x = 2\n"
