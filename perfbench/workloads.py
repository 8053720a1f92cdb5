"""The benchmark's workloads: what each one runs, and the inputs made from the seed.

Each workload is one `treeshift run` configuration.  The seed reaches the
program only as the CLI `--seed` (for `suite-all`, one picked from the seed by
`suite_all_cli_seed`) and, for `random-file`, as the tree-spec file written
here; nothing else depends on it.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    # Keyword arguments of treeshift.cli.RunConfig other than the seed.
    config: dict
    # Functions the rationale names as this workload's load; the trace tests
    # require each of them to fire here.
    named_spans: tuple[str, ...]


# Generation widths of the random-file tree: depth 10, branching <= 3, 291
# vertices, kernel dimension 120 (the last width).  Holding them fixed keeps
# the cost of a report steady from seed to seed, while the seed draws which
# vertices branch and every weight.  At this size a report takes about 5 s on
# a 2-core host, so a run times several reports, and the CoefficientSystem
# factorisations still take the largest self time.  The program's own random
# tree at seed 0 (459 vertices, kernel 195) took 12-14 s a report, and with
# two reports a run its report_s spread past 0.25 between runs.
RANDOM_TREE_WIDTHS = (1, 2, 3, 4, 6, 9, 14, 24, 40, 68, 120)
RANDOM_TREE_MAX_BRANCHING = 3
RANDOM_TREE_WEIGHTS = (0.5, 2.0)

# suite-all's default tree battery includes the CLI's random tree (depth 6,
# branching <= 3), drawn from the CLI seed.  Its size runs from 7 to over 100
# vertices from seed to seed, and a report's time with it: 0.54 s with 8
# vertices, 0.86 s with 139, on a 2-core host.  So the benchmark seed picks a
# CLI seed whose random tree has a size near the median over CLI seeds 0-1999
# (37 vertices); about 9 % of CLI seeds qualify.
SUITE_ALL_RANDOM_VERTICES = range(34, 41)
SUITE_ALL_SEEDS_PER_SEED = 256

WORKLOADS = {w.name: w for w in (
    Workload(
        name="suite-all",
        config={},
        named_spans=("model.CoefficientSystem.__init__", "shift.separated_kernel_basis",
                     "multiplier.compressed_multiplication_norm",
                     "balanced.weighted_toeplitz_norm", "util.dense_spectral_norm",
                     "shift.apply_left_inverse"),
    ),
    Workload(
        name="wide-t4",
        config={"example": "T4", "depth": 3, "suites": ("core-identities",)},
        named_spans=("shift.separated_kernel_basis", "shift.SeparatedBasis.vector"),
    ),
    Workload(
        name="deep-t2",
        config={"example": "T2", "alpha": 0.5, "depth": 60, "suites": ("all",)},
        named_spans=("shift.apply_left_inverse", "shift.SeparatedBasis.coords",
                     "shift.apply_shift", "model.analytic_coeffs"),
    ),
    Workload(
        name="random-file",
        config={"suites": ("all",)},
        named_spans=("tree.load_tree_spec", "tree.build_tree",
                     "model.CoefficientSystem.__init__", "model.reconstruct"),
    ),
)}


# Workloads that `run.py --workload <name>` still runs but that BENCHMARK.json
# leaves out, with the reason `--workload all` prints.
DROPPED = {
    "deep-t2": "not in BENCHMARK.json: in two sets of ten 15 s runs its report_s "
               "spread by 0.19 and 0.13 of the median, against 0.15 and 0.21 on "
               "suite-all, so it is not steadier than suite-all in every set; and "
               "at 30 s a run, each run would take about 55 s (a 13 s warm-up and "
               "three 13 s reports), so listing it would lengthen a pass over every "
               "workload by about half.  Its main load, per-vector shift calls and "
               "the multiplier membership check, is also suite-all's.",
}


def random_tree_spec(seed: int) -> dict:
    """Tree-spec JSON payload of the random-file tree for `seed`.

    Every generation has the width in RANDOM_TREE_WIDTHS; the seed decides how
    the children of each generation are spread over its vertices (each vertex
    keeps 1 to RANDOM_TREE_MAX_BRANCHING children) and draws the weights.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(b"perfbench-random-file")])
    lo, hi = RANDOM_TREE_WEIGHTS
    edges = []
    for g, (width, nxt) in enumerate(zip(RANDOM_TREE_WIDTHS, RANDOM_TREE_WIDTHS[1:])):
        kids = np.ones(width, dtype=np.intp)
        # Hand the extra children out one at a time to vertices with room left.
        for _ in range(nxt - width):
            room = np.flatnonzero(kids < RANDOM_TREE_MAX_BRANCHING)
            kids[rng.choice(room)] += 1
        first = np.concatenate(([0], np.cumsum(kids)[:-1]))
        weights = rng.uniform(lo, hi, size=nxt)
        for u in range(width):
            for k in range(first[u], first[u] + kids[u]):
                edges.append({"from": f"{g}.{u}", "to": f"{g + 1}.{k}",
                              "weight": float(weights[k])})
    return {"depth": len(RANDOM_TREE_WIDTHS) - 1, "root": "0.0", "edges": edges}


def prepare(workload: Workload, seed: int, scratch: Path) -> dict:
    """RunConfig keyword arguments for one run.

    Writes the random-file tree spec into `scratch`; the program loads it.
    """
    config = dict(workload.config, seed=seed)
    if workload.name == "suite-all":
        config["seed"] = suite_all_cli_seed(seed)
    if workload.name == "random-file":
        scratch.mkdir(parents=True, exist_ok=True)
        spec_path = str(scratch / f"random-file-{seed}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(random_tree_spec(seed), fh, indent=2, sort_keys=True)
            fh.write("\n")
        config["tree_path"] = spec_path
    return config


def suite_all_cli_seed(seed: int) -> int:
    """The first CLI seed in seed's own block of SUITE_ALL_SEEDS_PER_SEED whose
    random tree, as the CLI builds it, has SUITE_ALL_RANDOM_VERTICES vertices."""
    from treeshift import cli

    first = (seed % 2**24) * SUITE_ALL_SEEDS_PER_SEED
    for cli_seed in range(first, first + SUITE_ALL_SEEDS_PER_SEED):
        trees = {label: tree for label, tree, _ in
                 cli._default_trees(cli.RunConfig(seed=cli_seed))}
        if len(trees["random"].vertices) in SUITE_ALL_RANDOM_VERTICES:
            return cli_seed
    raise ValueError(f"no CLI seed in [{first}, {first + SUITE_ALL_SEEDS_PER_SEED}) "
                     f"gives suite-all's random tree a size in {SUITE_ALL_RANDOM_VERTICES}")
