"""Command-line driver: build trees, run verification suites, emit JSON Lines.

Reports are deterministic for a fixed seed: one JSON object per check record,
followed by a summary object.  Diagnostics never fail a run; the exit code is
1 exactly when a pass/fail check failed, and 2 on a configuration or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import balanced as bal
from . import harmonics as har
from . import model as mod
from . import multiplier as mul
from . import shift as sh
from . import tree as tr
from ._util import stable_rng, trial_norms, worst_of
from .errors import ConfigError, DepthTooLargeForMemory, TreeShiftError

TOL_ALG = 1e-12
TOL_POWER = 1e-10

SUITES = ("core-identities", "shimorin", "multiplier-algebra", "example-t2",
          "harmonics", "balanced")

# Static registry: every record names the identity it checks with one of these
# strings, so report consumers can group residuals by law.
CHECK_REFS = {
    "left-inverse-identity": "L S = identity on vectors clear of the last generation",
    "kernel-projection-identity": "projection onto ker S* equals I - S L",
    "kernel-annihilation": "L kills the separated kernel basis",
    "adjoint-pairing": "<S f, g> equals <f, S* g>",
    "gram-diagonal": "S* S is diagonal with the cached squared norms",
    "model-round-trip": "reconstruction inverts coefficient extraction",
    "kernel-at-origin": "kernel matrix at the origin is the identity",
    "adjoint-eigenvector": "kernel sections are adjoint eigenvectors within tail bounds",
    "spectral-radius-record": "root-norm sequence of left-inverse powers",
    "convolution-unit": "index-zero identity is the convolution unit",
    "convolution-associative": "Cauchy product is associative",
    "scalar-commutative": "scalar symbols commute under convolution",
    "power-symbol": "extracted symbol of a shift power is the shifted identity",
    "commutant-convolution": "commutant action equals convolution by its symbol",
    "noncommutant-rejected": "operators off the commutant are rejected",
    "product-law": "convolution of symbols matches composed multiplications",
    "scalar-equivalence": "ancestor-sum action matches the coefficient route",
    "example1-kernel-basis": "two-ray kernel basis has the closed form",
    "example1-projection": "two-ray kernel projection matches the closed form",
    "example1-divergence": "constant unequal-diagonal symbol diverges on the two ray tree",
    "example1-witness-sums": "divergence witness gains constant per-step mass",
    "example1-admissible": "admissible two-term family stays bounded",
    "rotation-norm": "rotation preserves the vertex-space norm",
    "rotation-coefficients": "rotated coefficients acquire generation phases",
    "circle-integral": "roots-of-unity quadrature recovers the windowed symbol",
    "cesaro-decay": "window truncation error decreases with the order",
    "fejer-domination": "windowed multiplication norms stay dominated",
    "balanced-pairing": "balanced shifts scale single-generation inner products",
    "wold-parseval": "layer norms satisfy Parseval on balanced shifts",
    "ratio-bounds": "kernel-direction iterate norms stay within weight bands",
    "kom-agreement": "multiplication growth agrees with entrywise convolution growth",
    "hinf-oracle": "weighted Toeplitz norms track the analytic multiplier norm",
}


@dataclass
class RunConfig:
    """Everything a run needs; equal configs with equal seeds give equal reports."""

    tree_path: str | None = None
    example: str | None = None
    alpha: float = 0.5
    depth: int = 12
    suites: tuple[str, ...] = SUITES
    seed: int = 0
    out: str | None = None


@dataclass
class Record:
    name: str
    law: str
    status: str
    residual: float | None = None
    exactness_depth: int | None = None
    witness: str | None = None
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"name": self.name, "law": self.law, "status": self.status}
        if self.residual is not None:
            payload["residual"] = self.residual
        if self.exactness_depth is not None:
            payload["exactness_depth"] = self.exactness_depth
        if self.witness is not None:
            payload["witness"] = self.witness
        payload.update(self.extra)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class Report:
    config: dict
    records: list[Record]

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "diagnostic": 0}
        for r in self.records:
            counts[r.status] += 1
        return {"summary": counts, "config": self.config}

    def to_json_lines(self) -> str:
        lines = [r.to_json() for r in self.records]
        lines.append(json.dumps(self.summary(), sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.records)


def _record(name: str, status: str | None = None, residual: float | None = None,
            exactness_depth: int | None = None, witness: str | None = None, *,
            tol: float | None = None, **extra) -> Record:
    """One check record.  With tol the status is pass exactly when
    residual <= tol; a residual that is not finite always fails."""
    if name not in CHECK_REFS:
        raise ConfigError(f"unregistered check name {name!r}")
    if tol is not None:
        status = "pass" if residual <= tol else "fail"
    if residual is not None and not math.isfinite(residual):
        status = "fail"
        witness = witness or f"residual {residual!r} is not finite"
    if status == "fail" and witness is None:
        witness = f"residual {residual!r} beyond tolerance"
    return Record(name=name, law=CHECK_REFS[name], status=status, residual=residual,
                  exactness_depth=exactness_depth, witness=witness, extra=extra)


def _example_tree(name: str, depth: int, alpha: float):
    """Named example tree with the command line's parameters: T2 takes
    [alpha], UNILATERAL unit weights, and T4 nothing."""
    key = name.upper()
    tr._check_example_size(key, depth)
    params = [alpha] if key == "T2" else [1.0] * depth if key == "UNILATERAL" else []
    return tr.generate_example(name, depth, params)


def _default_trees(config: RunConfig):
    """Tree battery for generic suites: configured tree if given, else a mix."""
    if config.tree_path:
        tree, weights = tr.build_tree(tr.load_tree_spec(config.tree_path))
        return [("file-tree", tree, weights)]
    if config.example:
        tree, weights = _example_tree(config.example, config.depth, config.alpha)
        return [(config.example.lower(), tree, weights)]
    out = [
        ("two-ray", *_example_tree("T2", max(8, config.depth), config.alpha)),
        ("chain", *_example_tree("UNILATERAL", 10, config.alpha)),
        ("random", *tr.generate_random_tree(6, 3, config.seed + 17)),
    ]
    return out


def _with_bases(trees):
    """(label, S, basis) for each (label, tree, weights)."""
    shifts = [(label, sh.ShiftOperator(tree, weights)) for label, tree, weights in trees]
    return [(label, S, sh.separated_kernel_basis(S)) for label, S in shifts]


def _battery(config: RunConfig, requested: set[str]) -> dict[str, list]:
    """Suite name -> the (label, S, basis) it runs on, for each requested suite,
    all built before any suite runs.  core-identities and shimorin run on
    _default_trees(config), multiplier-algebra and harmonics on its first tree,
    example-t2 on the two-ray tree and balanced on a balanced double ray.  A
    --tree file is loaded and checked even when no requested suite reads it.
    A tree that cannot be built is a ConfigError with the builder's message."""
    trees = {}
    try:
        if config.tree_path or requested - {"example-t2", "balanced"}:
            battery = _with_bases(_default_trees(config))
            trees = {"core-identities": battery, "shimorin": battery,
                     "multiplier-algebra": battery[:1], "harmonics": battery[:1]}
        if "example-t2" in requested:
            trees["example-t2"] = _with_bases([(
                "two-ray", *_example_tree("T2", max(config.depth, 14), config.alpha))])
        if "balanced" in requested:
            norms = [1.0 + 1.0 / (m + 1) for m in range(20)]
            trees["balanced"] = _with_bases([("balanced", *tr.balanced_double_ray(20, norms))])
    except TreeShiftError as exc:
        raise ConfigError(f"cannot build the trees of this run: {exc}") from exc
    return trees


def _suite_core_identities(config: RunConfig, trees: list, records: list[Record]) -> None:
    for label, S, basis in trees:
        tree = S.tree
        rng = stable_rng(config.seed, f"core-{label}")
        worst_lt = worst_pe = worst_ker = worst_adj = worst_gram = 0.0
        for t in range(20):
            f = sh.L2Vector.random(tree, tree.depth - 1, rng)
            g = sh.L2Vector.random(tree, tree.depth, rng)
            sf = sh.apply_shift(S, f)
            worst_lt = worst_of(worst_lt, (sh.apply_left_inverse(S, sf) - f).norm())
            pe = sh.project_kernel(S, basis, g)
            alt = g - sh.apply_shift(S, sh.apply_left_inverse(S, g))
            worst_pe = worst_of(worst_pe, (pe - alt).norm())
            worst_adj = worst_of(worst_adj, abs(sf.inner(g) - f.inner(sh.apply_adjoint(S, g))))
            ssf = sh.apply_adjoint(S, sf)
            diag = sh.L2Vector(tree, f.data * S._ns)
            worst_gram = worst_of(worst_gram, (ssf - diag).norm())
        # Kernel vectors of one sibling rank sit under distinct parents with disjoint
        # supports, so L of their sum shows each L e'_j alone on its parent.
        for r in range(int(basis._rank.max()) + 1):
            packed = basis.from_coords(basis._rank == r)
            image = sh.apply_left_inverse(S, packed).data
            worst_ker = worst_of(worst_ker, float(np.abs(image).max()))
        checks = [
            ("left-inverse-identity", worst_lt),
            ("kernel-projection-identity", worst_pe),
            ("kernel-annihilation", worst_ker),
            ("adjoint-pairing", worst_adj),
            ("gram-diagonal", worst_gram),
        ]
        for name, resid in checks:
            records.append(_record(name, residual=resid, tol=TOL_POWER,
                                   exactness_depth=tree.depth, tree=label))


def _suite_shimorin(config: RunConfig, trees: list, records: list[Record]) -> None:
    for label, S, basis in trees:
        tree = S.tree
        rng = stable_rng(config.seed, f"shimorin-{label}")
        fs = sh._random_block(tree, tree.depth, [rng] * 10)
        coords = mod._coeff_array(S, basis, fs, tree.depth)
        back = mod._reconstruct_array(S, basis, coords, tree.depth)
        worst_rt = worst_of(0.0, *trial_norms(back - fs))
        records.append(_record("model-round-trip", residual=worst_rt, tol=TOL_POWER,
                               exactness_depth=tree.depth, tree=label))
        est = mod.spectral_radius_estimate(S)
        records.append(_record("spectral-radius-record", "diagnostic",
                               residual=est.estimate, tree=label,
                               roots=[round(r, 12) for r in est.roots]))
        # at z = lam = 0 every term past the first is multiplied by zero
        ker0 = mod.kernel_matrix(S, basis, 0.0, 0.0, order=0, rho=est.estimate)
        resid = float(np.linalg.norm(ker0.matrix - np.eye(basis.dim)))
        records.append(_record("kernel-at-origin", residual=resid, tol=TOL_ALG,
                               tree=label))
        lam = 0.25 / max(est.estimate, 1e-9)
        rep = mod.eigenvector_residual(S, basis, lam, 0, rho=est.estimate)
        records.append(_record("adjoint-eigenvector", residual=rep.residual,
                               tol=rep.tail_bound, tree=label, tail_bound=rep.tail_bound))


def _suite_multiplier_algebra(config: RunConfig, trees: list, records: list[Record]) -> None:
    [(label, S, basis)] = trees
    tree = S.tree
    rng = stable_rng(config.seed, "mult-algebra")
    worst_unit, worst_assoc, worst_comm = mul._convolution_law_trials(basis.dim, rng, 25)
    records.append(_record("convolution-unit", residual=worst_unit, tol=TOL_ALG,
                           tree=label))
    records.append(_record("convolution-associative", residual=worst_assoc, tol=1e-10,
                           tree=label))
    records.append(_record("scalar-commutative", residual=worst_comm, tol=TOL_ALG,
                           tree=label))
    phi = mul.extract_symbol(S, basis, sh._shift_power_map(S, 1))
    # phi(m) is exact on kernel column j while gen_index[j] + m + 1 <= depth
    room = tree.depth - 1 - basis.gen_index
    resid = 0.0
    for m in range(int(room.max()) + 1):
        want = np.eye(basis.dim) if m == 1 else 0.0
        resid = worst_of(resid, float(np.linalg.norm((phi.mats[m] - want)[:, room >= m])))
    del phi  # the commutant checks below extract a symbol of their own
    exact_columns = int(np.count_nonzero(room >= 1))
    witness = None if exact_columns else (
        f"PreconditionFailed: no kernel column is exact at m = 1 below depth {tree.depth}")
    records.append(_record("power-symbol", "fail" if witness else None, residual=resid,
                           tol=None if witness else TOL_POWER,
                           exactness_depth=int(room.max()), witness=witness,
                           exact_columns=exact_columns, tree=label))
    rep = mul.commutant_check(S, basis, sh._shift_power_map(S, 2), seed=config.seed)
    records.append(_record("commutant-convolution", residual=rep.max_residual,
                           tol=TOL_POWER, exactness_depth=rep.exactness_depth,
                           tree=label))
    try:
        mul.commutant_check(S, basis, _root_projection, seed=config.seed)
        records.append(_record("noncommutant-rejected", "fail", witness="projection accepted",
                               tree=label))
    except mul.NotInCommutant:
        records.append(_record("noncommutant-rejected", "pass", tree=label))
    sphi = mul.ScalarSymbol(np.array([1.0, 0.5, 0.25]))
    spsi = mul.ScalarSymbol(np.array([0.5, -0.25]))
    rep = mul.product_law_check(S, basis, sphi, spsi, trials=10, seed=config.seed)
    records.append(_record("product-law", residual=rep.max_residual, tol=TOL_POWER,
                           tree=label))
    rep = mul.scalar_equivalence_check(S, basis, sphi, trials=10, seed=config.seed)
    records.append(_record("scalar-equivalence", residual=rep.max_residual,
                           tol=TOL_POWER, exactness_depth=rep.exactness_depth,
                           tree=label))


def _root_projection(x: np.ndarray) -> np.ndarray:
    """x -> e_root x(root) on a vector (n,) or a block (n, m): no commuting operator."""
    out = np.zeros_like(x)
    out[0] = x[0]
    return out


def _suite_example_t2(config: RunConfig, trees: list, records: list[Record]) -> None:
    [(_, S, basis)] = trees
    tree, depth, alpha = S.tree, S.tree.depth, config.alpha
    scale = float(np.sqrt(alpha ** 2 + 1.0))
    expected = sh.L2Vector.from_dict(tree, {(1, 1): alpha / scale, (2, 1): -1.0 / scale})
    got = basis.vector(1)
    resid = min((got - expected).norm(), (got + expected).norm())
    resid = worst_of(resid, (basis.vector(0) - sh.L2Vector.basis(tree, (0, 0))).norm())
    records.append(_record("example1-kernel-basis", residual=resid, tol=TOL_ALG))
    fs = sh._random_block(tree, depth, [stable_rng(config.seed, "example-t2")] * 50)
    lf = fs
    worst = 0.0
    for n in range(1, depth):
        lf = sh._left_inverse_array(S, lf)
        pe = basis._from_coords_array(basis._coords_array(lf))
        worst = worst_of(worst, *trial_norms(pe - _two_ray_projection(tree, fs, n, alpha)))
    records.append(_record("example1-projection", residual=worst, tol=TOL_ALG * 100))
    div = mul.two_ray_symbol(basis, alpha, [np.array([[1.0, 0.0], [0.0, 0.0]])])
    grid = list(range(1, depth - 1))
    rep = mul.membership_diagnostic(S, basis, div, grid, seed=config.seed)
    records.append(_record("example1-divergence",
                           "pass" if rep.verdict == mul.DIVERGENT else "fail",
                           residual=rep.slope, norms=[round(x, 9) for x in rep.norms]))
    adm = mul.two_ray_admissible_symbol(basis, alpha, 1.0, 0.5, 0.25, -0.5)
    rep2 = mul.membership_diagnostic(S, basis, adm, grid, seed=config.seed)
    records.append(_record("example1-admissible",
                           "pass" if rep2.verdict == mul.BOUNDED else "fail",
                           residual=rep2.slope))
    witness = mul.two_ray_divergence_witness(tree, alpha, depth - 1)
    image = sh.L2Vector(tree, mul._apply_symbol_map(S, basis, div, depth, witness.data))
    per_term = alpha ** 4 / (alpha ** 2 + 1.0) ** 2
    worst_w = 0.0
    for m in range(mul.WITNESS_STRIDE, depth, mul.WITNESS_STRIDE):
        worst_w = worst_of(worst_w, abs(abs(image[(1, m)]) ** 2 - per_term))
    records.append(_record("example1-witness-sums", residual=worst_w, tol=TOL_ALG))


def _two_ray_projection(tree, fs, n, alpha):
    """Closed form of the kernel projection of L^n f on the two-ray tree, for
    the columns f of a block fs (n_vertices, m).

    The real and imaginary parts are divided by alpha^2 + 1 apart, as Python's
    complex / float divides; numpy's complex / real multiplies by the reciprocal.
    """
    a2 = alpha ** 2 + 1.0
    row = {v: fs[tree.index[v]] for v in ((1, n), (2, n), (1, n + 1), (2, n + 1))}
    c_root = row[(1, n)] + alpha ** (2 - n) * row[(2, n)]
    c_pair = alpha * row[(1, n + 1)] - alpha ** (-n) * row[(2, n + 1)]
    for c in (c_root, c_pair):
        c.real /= a2
        c.imag /= a2
    out = np.zeros_like(fs)
    out[tree.index[(0, 0)]] = c_root
    out[tree.index[(1, 1)]] = c_pair * alpha
    out[tree.index[(2, 1)]] = -c_pair
    return out


def _suite_harmonics(config: RunConfig, trees: list, records: list[Record]) -> None:
    [(label, S, basis)] = trees
    tree = S.tree
    rng = stable_rng(config.seed, "harmonics")
    w = np.exp(1j * 0.7)
    fs = sh._random_block(tree, tree.depth, [rng] * 10)
    fws = har._rotate_array(tree, fs, w)
    worst_norm = worst_of(0.0, *(abs(a - b) for a, b in zip(trial_norms(fws), trial_norms(fs))))
    # Trials first: each phase product then runs over one coefficient as it does alone.
    cw, c = (np.ascontiguousarray(np.moveaxis(mod._coeff_array(S, basis, x, tree.depth), -1, 0))
             for x in (fws, fs))
    phases = har.rotation_diagonal(basis, w).phases
    worst_coef = 0.0
    for n in range(c.shape[1]):
        diff = cw[:, n] - (w ** n) * phases * c[:, n]
        worst_coef = worst_of(worst_coef, *(float(np.linalg.norm(d)) for d in diff))
    records.append(_record("rotation-norm", residual=worst_norm, tol=1e-13 * 10, tree=label))
    records.append(_record("rotation-coefficients", residual=worst_coef,
                           tol=TOL_ALG * 10, tree=label))
    phi = mul.ScalarSymbol(np.array([1.0, 0.5, 0.25]))
    resid = worst_of(
        har.circle_integral_check(S, basis, phi, 1, seed=config.seed),
        har.circle_integral_check(S, basis, phi, -2, seed=config.seed))
    records.append(_record("circle-integral", residual=resid, tol=TOL_POWER,
                           tree=label))
    geom = mul.ScalarSymbol(0.5 ** np.arange(min(8, tree.depth)))
    f_depth = max(0, mul._test_vector_depth(basis, geom.length))
    vecs = [sh.L2Vector.basis(tree, tree.root),
            sh.L2Vector.random(tree, f_depth, rng)]
    rep = har.cesaro_convergence_experiment(S, basis, geom, [4, 32], vecs, seed=config.seed)
    ok_decay = all(rep.errors_for(v)[32] < rep.errors_for(v)[4] or
                   rep.errors_for(v)[4] == 0.0 for v in range(len(vecs)))
    rows = [{"order": r.order, "vector": r.vector_id, "error": r.error,
             "norm_estimate": rep.norm_estimates[r.order]} for r in rep.rows]
    records.append(_record("cesaro-decay", "pass" if ok_decay else "fail",
                           residual=worst_of(*(r.error for r in rep.rows)), tree=label,
                           rows=rows))
    dominated = all(n <= rep.full_norm_estimate * 1.05 for n in rep.norm_estimates.values())
    records.append(_record("fejer-domination", "pass" if dominated else "fail",
                           residual=worst_of(*rep.norm_estimates.values()) /
                           max(rep.full_norm_estimate, 1e-30), tree=label))


def _suite_balanced(config: RunConfig, trees: list, records: list[Record]) -> None:
    [(_, S, basis)] = trees
    tree, depth = S.tree, S.tree.depth
    rng = stable_rng(config.seed, "balanced")
    worst_pair = 0.0
    for _ in range(25):
        k = int(rng.integers(0, 3))
        gen = tree.generations[k]
        f = sh.L2Vector.from_dict(tree, {
            v: complex(rng.standard_normal(), rng.standard_normal()) for v in gen})
        g = sh.L2Vector.from_dict(tree, {
            v: complex(rng.standard_normal(), rng.standard_normal()) for v in gen})
        n = int(rng.integers(0, min(4, depth - k)))
        u_prime = tree.generations[k + n][0]
        worst_pair = worst_of(worst_pair, bal.balanced_inner_product_check(S, f, g, n, u_prime))
    records.append(_record("balanced-pairing", residual=worst_pair,
                           tol=TOL_POWER * 100))
    fs = sh._random_block(tree, depth, [rng] * 10)
    parts, miss = bal._wold_layers(S, basis, fs)
    sums = [sum(x ** 2 for x in layers) for layers in bal._layer_norms(S, parts)]
    worst_wold = worst_of(0.0, *trial_norms(miss),
                          *(abs(s - nf ** 2) for s, nf in zip(sums, trial_norms(fs))))
    records.append(_record("wold-parseval", residual=worst_wold,
                           tol=TOL_POWER * 100))
    ratio = bal.ratio_bounds_check(S, basis)
    records.append(_record("ratio-bounds", "pass" if ratio.ok else "fail",
                           residual=ratio.max_ratio_excess,
                           extra_pairs=ratio.pairs_checked))
    sym = mul.indicator_symbol(2, basis.dim, np.array([[0.3, -0.2], [0.1, 0.7]]))
    kom = bal.kom_characterization_check(S, basis, sym, depth + 1, seed=config.seed)
    entry_rows = [{"entry": list(key), "depths": r.depths, "norms": r.norms,
                   "slope": r.slope, "verdict": r.verdict}
                  for key, r in sorted(kom.entry_side.items())]
    records.append(_record("kom-agreement", "pass" if kom.agree else "fail",
                           residual=kom.multiplication_side.slope,
                           verdict=kom.multiplication_side.verdict,
                           entries=entry_rows))
    beta = bal.BetaWeights(np.ones(256))
    rep = bal.hinf_membership(mul.ScalarSymbol(0.5 ** np.arange(256)), beta, beta, 256)
    resid = abs(rep.norms[-1] - 2.0)
    records.append(_record("hinf-oracle",
                           "pass" if resid <= 0.04 and rep.verdict == mul.BOUNDED else "fail",
                           residual=resid, verdict=rep.verdict))


_SUITE_FUNCS = {
    "core-identities": _suite_core_identities,
    "shimorin": _suite_shimorin,
    "multiplier-algebra": _suite_multiplier_algebra,
    "example-t2": _suite_example_t2,
    "harmonics": _suite_harmonics,
    "balanced": _suite_balanced,
}


def run(config: RunConfig) -> Report:
    """Execute the configured suites and assemble the deterministic report."""
    unknown = [s for s in config.suites if s != "all" and s not in _SUITE_FUNCS]
    if unknown:
        raise ConfigError(f"unknown suite {unknown[0]!r}")
    requested = set(SUITES) if "all" in config.suites else set(config.suites)
    if config.depth < 2:
        raise ConfigError("depth must be at least 2")
    if config.example and config.example.upper() not in tr.EXAMPLES:
        raise ConfigError(f"unknown example {config.example!r}; "
                          f"choose one of {', '.join(tr.EXAMPLES)}")
    if not math.isfinite(config.alpha):
        raise ConfigError(f"alpha must be finite, got {config.alpha!r}")
    trees = _battery(config, requested)

    def call(name: str) -> list[Record]:
        """The suite's records; a typed error ends them with a suite execution record."""
        records = []
        try:
            _SUITE_FUNCS[name](config, trees[name], records)
            return records
        except MemoryError as exc:
            error = DepthTooLargeForMemory(f"out of memory: {exc}")
        except TreeShiftError as exc:
            error = exc
        return records + [Record(name=name, law="suite execution", status="fail",
                                 witness=f"{type(error).__name__}: {error}")]

    ordered = sorted(requested, key=SUITES.index)
    records = [rec for name in ordered for rec in call(name)]
    cfg = {
        "alpha": config.alpha, "depth": config.depth, "example": config.example,
        "seed": config.seed, "slope_threshold": mul.SLOPE_THRESHOLD,
        "suites": ordered, "tol_alg": TOL_ALG, "tol_power": TOL_POWER,
        "tree": config.tree_path,
    }
    report = Report(config=cfg, records=records)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(report.to_json_lines())
        except OSError as exc:
            raise ConfigError(f"cannot write report to {config.out}: {exc.strerror}") from exc
    return report


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="treeshift",
                                description="verification suites for weighted shifts on trees")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run verification suites")
    runp.add_argument("--tree", default=None, help="path to a tree-spec JSON file")
    runp.add_argument("--example", default=None, help=" or ".join(tr.EXAMPLES))
    runp.add_argument("--alpha", type=float, default=0.5)
    runp.add_argument("--depth", type=int, default=12)
    runp.add_argument("--suite", action="append", default=None,
                      help="suite name (repeatable); default: all")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--out", default=None, help="report path (JSON lines)")

    genp = sub.add_parser("generate", help="emit an example tree spec as JSON")
    genp.add_argument("--example", required=True)
    genp.add_argument("--alpha", type=float, default=0.5)
    genp.add_argument("--depth", type=int, required=True)
    genp.add_argument("--out", required=True)

    insp = sub.add_parser("inspect", help="print kernel basis and norm data")
    insp.add_argument("--tree", default=None)
    insp.add_argument("--example", default=None)
    insp.add_argument("--alpha", type=float, default=0.5)
    insp.add_argument("--depth", type=int, default=6)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            suites = tuple(args.suite) if args.suite else ("all",)
            config = RunConfig(
                tree_path=args.tree, example=args.example, alpha=args.alpha,
                depth=args.depth, suites=suites, seed=args.seed, out=args.out)
            report = run(config)
            if not args.out:
                sys.stdout.write(report.to_json_lines())
            return 1 if report.failed else 0
        if args.command == "generate":
            tree, weights = _example_tree(args.example, args.depth, args.alpha)
            try:
                tr.save_tree_spec(tr.tree_to_spec(tree, weights), args.out)
            except OSError as exc:
                raise ConfigError(f"cannot write tree spec to {args.out}: {exc.strerror}") from exc
            return 0
        if args.command == "inspect":
            [(_, S, basis)] = _with_bases(_default_trees(RunConfig(
                tree_path=args.tree, example=args.example or "T2", alpha=args.alpha,
                depth=args.depth)))
            tree = S.tree
            balanced, witness = sh.is_balanced(S)
            info = {
                "vertices": tree.n_vertices,
                "depth": tree.depth,
                "kernel_dimension": basis.dim,
                "kernel_generations": [int(k) for k in basis.gen_index],
                "lower_bound": S.lower_bound,
                "norm_upper": S.norm_upper,
                "balanced": "yes" if balanced else f"no (witness {witness})",
                "basis_vectors": [
                    {str(v): [val.real, val.imag] for v, val in basis.vector(j).as_dict().items()}
                    for j in range(min(basis.dim, 16))
                ],
            }
            json.dump(info, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return 0
    except TreeShiftError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
