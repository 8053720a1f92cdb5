"""treeshift benchmark: time to a checked report, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload deep-t2 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One run drives `treeshift.cli.run` (the `treeshift run` path) in this process
on one workload, with the BLAS pinned to one thread.  With `--trace 0` it
times untraced reports and prints the end-to-end metrics; with `--trace 1` it
wraps the program's layers from outside (spans.py) and prints per-layer
metrics.  Every report passes a correctness gate: it must be byte-identical to
the first report of the run, and no record that passed in the stored reference
(reference.json) may stop passing or go missing.  The last line of standard
output is one JSON object; the exit code is 0 when the gate held, 1 when it
did not and 2 when the benchmark could not run at all (for example, without
the program's sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
# Everything a run writes (the random-file tree spec, the trace spans).
SCRATCH = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# One BLAS thread: with OpenBLAS's default of one thread per core, a second
# process on this 2-core class of host slowed a report up to 17-fold.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 9
# What each of them runs: import treeshift, then make or load (and so
# validate) the workload's trees the way the CLI's suites get them.  The
# RunConfig keyword arguments arrive as JSON in argv[1].
SETUP_SOURCE = ("import json, sys\n"
                "from treeshift import cli\n"
                "cli._default_trees(cli.RunConfig(**json.loads(sys.argv[1])))\n")
# A run times at least this many reports, even past --seconds.
MIN_REPORTS = 2

STATUS_RANK = {"fail": 0, "diagnostic": 1, "pass": 2}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- correctness gate -------------------------------------------------------

def record_lines(records) -> dict[str, tuple[str, str]]:
    """Key -> (status, JSON line) for a report's records.

    The key is the check name, its tree label when it has one, and a running
    number for repeats, so suites that check several trees stay apart.
    """
    out: dict[str, tuple[str, str]] = {}
    seen: dict[str, int] = {}
    for r in records:
        base = r.name if r.extra.get("tree") is None else f"{r.name}@{r.extra['tree']}"
        seen[base] = seen.get(base, 0) + 1
        out[f"{base}#{seen[base]}"] = (r.status, r.to_json())
    return out


def gate(text: str, lines: dict, first_text: str, first_lines: dict,
         reference: dict[str, str]) -> set[str]:
    """Keys of the records that break the correctness gate.

    A record breaks it when its line differs from the first report's, or when
    the reference has it as `pass` (or `diagnostic`) and it is now worse or
    missing.  Reference failures may turn into anything, or vanish (a suite
    that aborted at the reference may now run its checks).
    """
    bad = {k for k in lines.keys() | first_lines.keys() if lines.get(k) != first_lines.get(k)}
    for key, ref_status in reference.items():
        cur = lines.get(key)
        if cur is None:
            if ref_status != "fail":
                bad.add(key)
        elif STATUS_RANK[cur[0]] < STATUS_RANK[ref_status]:
            bad.add(key)
    if not bad and text != first_text:
        bad.add("(report bytes)")
    return bad


def reference_for(workload: str) -> dict[str, str]:
    """Stored statuses of the workload's records; they hold for every seed."""
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


class Checker:
    """Gate every report of one run against the first and the reference."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.first: tuple[str, dict] | None = None
        self.attempted = 0
        self.violations = 0
        self.failed_ops = 0
        self.records = 0

    def check(self, report) -> None:
        text = report.to_json_lines()
        lines = record_lines(report.records)
        if self.first is None:
            self.first = (text, lines)
        bad = gate(text, lines, *self.first, self.reference)
        fails = {k for k, (status, _) in lines.items() if status == "fail"}
        self.records += len(lines)
        self.attempted += len(lines) + len(bad - lines.keys())
        self.violations += len(bad)
        self.failed_ops += len(fails | bad)


# -- machine ----------------------------------------------------------------

def steal_ticks() -> int | None:
    """CPU ticks stolen by the hypervisor so far (read-only /proc/stat)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def machine(steal_before: int | None) -> dict:
    import numpy as np
    import scipy

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        openblas = "unknown"
    return {"blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": openblas,
            "steal_ticks_before": steal_before, "steal_ticks_after": steal_ticks()}


# -- running ----------------------------------------------------------------

def pin_environment() -> dict[str, str]:
    """Pin BLAS threads here and in children; return the children's env."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "treeshift" / "__init__.py").is_file():
        raise BenchError(f"no treeshift sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program():
    import treeshift
    from treeshift import cli

    if Path(treeshift.__file__).resolve().parent != SRC / "treeshift":
        raise BenchError(f"imported treeshift from {treeshift.__file__}, not {SRC}")
    return cli


def time_setup(config_kwargs: dict, env: dict) -> list[float]:
    """Wall time of fresh interpreters that import treeshift and build the trees."""
    argv = [sys.executable, "-c", SETUP_SOURCE, json.dumps(config_kwargs)]
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        out.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return out


def timed_report(cli, config, checker: Checker) -> float:
    t0 = time.perf_counter()
    report = cli.run(config)
    report.to_json_lines()
    wall = time.perf_counter() - t0
    checker.check(report)
    return wall


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_untraced(cli, config, checker: Checker, seconds: float) -> tuple[list[float], int]:
    """Timed report walls after one discarded warm-up, and their record count."""
    timed_report(cli, config, checker)
    records_before = checker.records
    walls: list[float] = []
    t_end = time.perf_counter() + seconds
    while len(walls) < MIN_REPORTS or time.perf_counter() < t_end:
        walls.append(timed_report(cli, config, checker))
    return walls, checker.records - records_before


def run_traced(cli, config, checker: Checker, seconds: float, workload: str) -> dict:
    """Per-layer metrics: medians over traced reports, each paired with an untraced one."""
    import spans

    timed_report(cli, config, checker)
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    samples: list[dict] = []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        plain.append(timed_report(cli, config, checker))
        tracer.reset()
        tracer.install()
        try:
            traced.append(timed_report(cli, config, checker))
        finally:
            tracer.uninstall()
        samples.append(tracer.metrics(traced[-1]))
    path = SCRATCH / f"spans-{workload}.npz"
    tracer.save(path)
    out = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    out["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1.0
    print(f"trace: {len(traced)} traced and {len(plain)} untraced reports; "
          f"spans of the last traced report in {path}")
    return out


def run_workload(args, spec: dict, env: dict) -> int:
    steal_before = steal_ticks()
    cli = import_program()
    from workloads import WORKLOADS, prepare

    workload = WORKLOADS[args.workload]
    config_kwargs = prepare(workload, args.seed, SCRATCH)
    config = cli.RunConfig(**config_kwargs)
    checker = Checker(reference_for(workload.name))
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")

    if args.trace:
        values = run_traced(cli, config, checker, args.seconds, workload.name)
        wanted = spec["per_layer"]
        for m in wanted:
            print(f"{m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    else:
        setup = time_setup(config_kwargs, env)
        walls, records = run_untraced(cli, config, checker, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fail_share = checker.failed_ops / checker.attempted
        values = {
            "report_s": statistics.median(walls),
            "checks_per_s": records / sum(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb,
        }
        q1, q3 = quartiles(walls)
        s1, s3 = quartiles(setup)
        print(f"report_s     {values['report_s']:.4f} s     n={len(walls)} reports "
              f"q1={q1:.4f} q3={q3:.4f} (after 1 warm-up)")
        print(f"checks_per_s {values['checks_per_s']:.4f} 1/s   n={records} checks "
              f"over {sum(walls):.3f} s of reports")
        print(f"fail_share   {fail_share:.4f} ratio n={checker.attempted} records "
              f"({checker.failed_ops} failed, {checker.violations} of them by the gate)")
        print(f"setup_s      {values['setup_s']:.4f} s     n={len(setup)} fresh "
              f"interpreters q1={s1:.4f} q3={s3:.4f}")
        print(f"peak_rss_mb  {peak_mb:.2f} MB    n=1 process")
        wanted = spec["end_to_end"]
    print("machine " + json.dumps(machine(steal_before), sort_keys=True))

    correct = checker.violations == 0
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.violations,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload of BENCHMARK.json, each in its own process (peak RSS is per process)."""
    from workloads import DROPPED

    for name, why in DROPPED.items():
        print(f"{name}: {why}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {w['name']} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w['name']}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        # Before anything loads numpy, so the BLAS sees the pinned thread count.
        env = pin_environment()
        from workloads import WORKLOADS

        p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        p.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=spec["run_seconds"])
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        args = p.parse_args(argv)
        if args.workload == "all":
            return run_all(args, spec)
        return run_workload(args, spec, env)
    except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
