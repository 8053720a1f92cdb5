"""Write reference.json: the status of every check record, per workload.

    python3 perfbench/reference.py

Runs one report per workload at each seed 0 .. SEEDS-1 and records each
record's status under the key the correctness gate uses (run.record_lines).
A workload's statuses must be the same at every seed, so that one list serves
as the reference whatever seed a run takes; if some seed differs, the script
stops with an error that names it and writes nothing.  Regenerate the file
only when a change is meant to alter which checks pass, and say so where the
change is described.
"""

from __future__ import annotations

import json

import run

SEEDS = 32


def statuses(cli, prepare, workload, seed: int) -> dict[str, str]:
    report = cli.run(cli.RunConfig(**prepare(workload, seed, run.SCRATCH)))
    return {k: status for k, (status, _) in run.record_lines(report.records).items()}


def common_statuses(name: str, per_seed: list[dict[str, str]]) -> dict[str, str]:
    """The statuses every seed shares; an error if some seed has others."""
    for seed, st in enumerate(per_seed):
        if st != per_seed[0]:
            raise ValueError(f"{name}: the statuses at seed {seed} differ from seed 0")
    return per_seed[0]


def main() -> int:
    run.pin_environment()
    cli = run.import_program()
    from workloads import WORKLOADS, prepare

    out = {}
    for name, workload in WORKLOADS.items():
        out[name] = common_statuses(
            name, [statuses(cli, prepare, workload, s) for s in range(SEEDS)])
        print(f"{name}: {len(out[name])} records, "
              f"{sum(v == 'pass' for v in out[name].values())} pass", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
