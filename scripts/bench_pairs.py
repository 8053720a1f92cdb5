"""Time a change against a parent commit in alternating perfbench pairs.

The parent is PARENT_REV of this repository, extracted with `git archive` into
a temporary directory.  The change is the working tree: its tracked and
untracked files, ignored ones left out, copied into a second temporary
directory, so that both sides run from a fresh copy.  For each workload,
pair s runs `python3 perfbench/run.py --workload W --seed s --trace 0` once
from each root: the parent first at even s, the change first at odd s.  Each
run's last JSON line goes into OUT, one run a line, in the layout of the
committed BENCH_*.json files, and a summary per workload and metric is
printed: each side's median and quartiles, and the pairs the change won.

Usage: python scripts/bench_pairs.py PARENT_REV --workload W [--workload W2 ...]
           --pairs N --out BENCH_<name>.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def extract(rev: str, dest: Path) -> Path:
    """The committed files of rev, unpacked into dest by `git archive`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def copy_worktree(root: Path, dest: Path) -> Path:
    """The working tree of root, as `git ls-files --cached --others
    --exclude-standard` lists it, copied into dest; files deleted from the
    working tree are skipped."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, check=True,
                            capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)
    return dest


def perfbench_result(root: Path, workload: str, seed: int) -> dict:
    """The result object that perfbench/run.py prints last, run from root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_pairs(workloads: list[str], pairs: int, runner) -> list[dict]:
    """runner(side, workload, seed) for both sides of every pair, in alternating order."""
    runs = []
    for workload in workloads:
        for seed in range(pairs):
            sides = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in sides:
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "result": runner(side, workload, seed)})
    return runs


def summary(runs: list[dict]) -> list[str]:
    """Per workload and metric: medians, quartiles and the pairs the change won."""
    values: dict[tuple[str, str], dict[str, dict[int, float]]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            sides = values.setdefault((run["workload"], name), {"parent": {}, "change": {}})
            sides[run["side"]][run["seed"]] = metric["value"]
    lines = []
    for (workload, name), sides in values.items():
        seeds = sorted(sides["parent"].keys() & sides["change"].keys())
        won = sum(sides["change"][s] < sides["parent"][s] for s in seeds)
        text = []
        for side in ("parent", "change"):
            vals = [sides[side][s] for s in seeds]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            text.append(f"{side} {med:.4g} [{q1:.4g}, {q3:.4g}]")
        lines.append(f"{workload} {name}: {'; '.join(text)}; "
                     f"change lower in {won} of {len(seeds)} pairs")
    return lines


def write(path: Path, parent: str, runs: list[dict]) -> None:
    """OUT with the header fields on their own lines and one run a line."""
    header = {
        "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
        "host": f"{os.cpu_count()}-CPU {platform.system()}, one BLAS thread (set by run.py)",
        "pairs": "alternating: parent first at even seeds, change first at odd seeds",
        "parent": parent,
    }
    body = ",\n".join("  " + json.dumps(r, separators=(",", ":")) for r in runs)
    head = "".join(f" {json.dumps(k)}: {json.dumps(v)},\n" for k, v in header.items())
    path.write_text("{\n" + head + ' "runs": [\n' + body + "\n ]\n}\n", encoding="utf-8")


def main(argv: list[str] | None = None, runner=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_REV")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if runner is None:
        parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout.strip()
        with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as tmp2:
            roots = {"parent": extract(args.parent, Path(tmp)),
                     "change": copy_worktree(ROOT, Path(tmp2))}
            runs = run_pairs(args.workload, args.pairs, lambda side, w, seed: perfbench_result(
                roots[side], w, seed))
    else:
        parent = args.parent
        runs = run_pairs(args.workload, args.pairs, runner)
    write(Path(args.out), parent, runs)
    for line in summary(runs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
