"""Outside-in layer trace of treeshift: wrap each module's functions, record spans.

Nothing in the program changes.  While a `Tracer` is installed, every public
function of the layer modules, each suite function of the CLI and a few named
methods run through a wrapper that records one span (name, start, end,
parent).  Spans live in flat in-memory arrays and are reduced to per-layer
metrics after the report, so one wrapped call costs a few list appends.

A function object is bound under several names (`from .model import
analytic_coeffs`, the CLI's suite table), so the wrapper replaces it in every
namespace and dict of the package that holds it, and `uninstall` puts each
original back.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Layer name -> module.  The layers are the package's modules.
LAYERS = {
    "tree": "treeshift.tree",
    "shift": "treeshift.shift",
    "model": "treeshift.model",
    "multiplier": "treeshift.multiplier",
    "harmonics": "treeshift.harmonics",
    "balanced": "treeshift.balanced",
    "util": "treeshift._util",
    "cli": "treeshift.cli",
}

# Methods patched on their classes, besides the modules' public functions.
METHODS = {
    "tree": {"Tree": ("__init__",)},
    "shift": {"ShiftOperator": ("__post_init__",),
              "SeparatedBasis": ("coords", "from_coords", "vector")},
    "model": {"CoefficientSystem": ("__init__", "solve")},
}

LEAF_SPANS = ("shift.apply_shift", "shift.apply_adjoint", "shift.apply_left_inverse",
              "shift.apply_left_inverse_adjoint",
              "shift.apply_left_inverse_adjoint_truncating")
SUITE_PREFIX = "cli.suite."
# Spans of the tracer's own bookkeeping (fingerprints, counters); they are
# children of the span they ran in, so no program layer is charged for them.
HOOK_SPAN = "trace.hook"


def _tree_fingerprint(S) -> str:
    """Digest of a shift's tree and weights, read through public attributes."""
    tree, weights = S.tree, S.weights
    rows = [(v, tree.parent.get(v), None if v == tree.root else weights[v])
            for v in tree.vertices]
    return hashlib.blake2b(repr((tree.depth, rows)).encode(), digest_size=16).hexdigest()


class Tracer:
    """Span recorder for one traced report at a time.

    Usage: `install()`, run the report, `uninstall()`, then `metrics(wall)`.
    `reset()` clears the spans between reports.
    """

    def __init__(self) -> None:
        self._patches: list[tuple[object, object, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these buffers.
        for buf in (self.name_id, self.start, self.end, self.parent):
            del buf[:]
        self._stack[:] = [-1]
        self._shift_fps: dict[int, tuple[object, str]] = {}
        self.basis_fps: list[str] = []
        self.system_fps: list[tuple] = []
        self.factorized_entries = 0
        self.power_iters = 0

    # -- wrapping ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record_hook(self, t0: float) -> None:
        self.name_id.append(self._id(HOOK_SPAN))
        self.parent.append(self._stack[-1])
        self.start.append(t0)
        self.end.append(time.perf_counter())

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self._id(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self._stack)
        clock = time.perf_counter

        if before is None and after is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(start)
                name_id.append(nid)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(idx)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()
            return wrapper

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if before is not None:
                t0 = clock()
                args, kwargs = before(signature, args, kwargs)
                self._record_hook(t0)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                t0 = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments)
                self._record_hook(t0)
            return result
        return hooked

    def _shift_fp(self, S) -> str:
        # Keyed by id; the operator is kept alive so the id is not reused.
        hit = self._shift_fps.get(id(S))
        if hit is None:
            hit = self._shift_fps[id(S)] = (S, _tree_fingerprint(S))
        return hit[1]

    def _after_basis(self, arguments) -> None:
        self.basis_fps.append(self._shift_fp(arguments["S"]))

    def _after_system(self, arguments) -> None:
        S, basis = arguments["S"], arguments["basis"]
        depth = min(arguments["support_depth"], S.tree.depth)
        order = arguments["order"]
        self.system_fps.append((self._shift_fp(S), depth, order, arguments.get("rcond")))
        cols = sum(1 for v in S.tree.vertices if S.tree.generation[v] <= depth)
        self.factorized_entries += (order + 1) * basis.dim * cols

    def _before_power(self, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        matvec = bound.arguments["matvec"]

        def counted(x):
            self.power_iters += 1
            return matvec(x)

        bound.arguments["matvec"] = counted
        return bound.args, bound.kwargs

    def _targets(self):
        """(owner, attribute, span name, before, after) for everything wrapped."""
        hooks = {
            "shift.separated_kernel_basis": (None, self._after_basis),
            "model.CoefficientSystem.__init__": (None, self._after_system),
            "util.power_norm": (self._before_power, None),
        }
        out = []
        for layer, modname in LAYERS.items():
            mod = sys.modules[modname]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                if not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                elif layer == "cli" and attr.startswith("_suite_"):
                    name = SUITE_PREFIX + attr[len("_suite_"):].replace("_", "-")
                else:
                    continue
                out.append((mod, attr, name, *hooks.get(name, (None, None))))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    out.append((cls, meth, name, *hooks.get(name, (None, None))))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, name, before, after in self._targets():
            fn = vars(owner)[attr]
            wrapper = self._wrap(fn, name, before, after)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(fn)] = (fn, wrapper)
        # Rebind every name and dict entry in the package that holds a
        # wrapped function, not only the defining module's.
        for modname, mod in list(sys.modules.items()):
            if modname != "treeshift" and not modname.startswith("treeshift."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._patches.append((obj, key, val))
                            obj[key] = hit[1]

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- reduction --------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the spans of the last report as arrays in one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the last report, which took `wall_s` seconds."""
        nid = np.asarray(self.name_id, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        dur = np.asarray(self.end) - np.asarray(self.start)
        n_names = len(self.names)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        calls_by_name = np.bincount(nid, minlength=n_names)
        self_by_name = np.bincount(nid, weights=self_time, minlength=n_names)

        def ids(names):
            return np.array([self._name_ids[n] for n in names if n in self._name_ids],
                            dtype=np.intp)

        def calls(*names) -> int:
            return int(calls_by_name[ids(names)].sum())

        def inclusive(*names) -> float:
            # Time inside the outermost of these spans; a span whose parent
            # is also one of them is already inside its parent's time.
            inside = np.isin(nid, ids(names))
            parent_inside = np.zeros_like(inside)
            parent_inside[has_parent] = inside[parent[has_parent]]
            return float(dur[inside & ~parent_inside].sum())

        out: dict[str, float] = {}
        for layer in LAYERS:
            members = ids([n for n in self.names if n.split(".", 1)[0] == layer])
            out[f"{layer}.self_s"] = float(self_by_name[members].sum())
            out[f"{layer}.calls"] = int(calls_by_name[members].sum())
        for name in self.suite_names():
            out[f"{name}_s"] = inclusive(name)

        out["shift.basis_s"] = inclusive("shift.separated_kernel_basis")
        out["shift.basis_builds"] = len(self.basis_fps)
        out["shift.basis_unique_share"] = _share(len(set(self.basis_fps)), len(self.basis_fps))
        out["shift.vector_calls"] = calls("shift.SeparatedBasis.vector")
        out["shift.leaf_calls"] = calls(*LEAF_SPANS)
        out["shift.leaf_s"] = inclusive(*LEAF_SPANS)
        out["shift.coord_calls"] = calls("shift.SeparatedBasis.coords",
                                         "shift.SeparatedBasis.from_coords")

        out["model.coeff_calls"] = calls("model.analytic_coeffs")
        out["model.factorizations"] = len(self.system_fps)
        out["model.factorization_unique_share"] = _share(len(set(self.system_fps)),
                                                         len(self.system_fps))
        out["model.factorization_s"] = inclusive("model.CoefficientSystem.__init__")
        out["model.factorized_entries"] = self.factorized_entries

        # The norm took the power path exactly when power_norm ran inside it.
        norm_spans = np.isin(nid, ids(["multiplier.compressed_multiplication_norm"]))
        power_spans = np.isin(nid, ids(["util.power_norm"])) & has_parent
        power_parents = np.zeros_like(norm_spans)
        power_parents[parent[power_spans]] = True
        out["multiplier.norm_calls.dense"] = int((norm_spans & ~power_parents).sum())
        out["multiplier.norm_calls.power"] = int((norm_spans & power_parents).sum())
        out["multiplier.membership_s"] = inclusive("multiplier.membership_diagnostic")

        out["util.svd_calls"] = calls("util.dense_spectral_norm")
        out["util.svd_s"] = inclusive("util.dense_spectral_norm")
        out["util.power_calls"] = calls("util.power_norm")
        out["util.power_iters"] = self.power_iters
        out["balanced.toeplitz_calls"] = calls("balanced.weighted_toeplitz_norm")
        out["balanced.toeplitz_s"] = inclusive("balanced.weighted_toeplitz_norm")
        out["tree.builds"] = calls("tree.Tree.__init__")

        out["trace.unattributed_s"] = wall_s - float(dur[~has_parent].sum())
        return out

    @staticmethod
    def suite_names() -> list[str]:
        cli = sys.modules["treeshift.cli"]
        return [SUITE_PREFIX + s for s in cli.SUITES]


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def metric_names() -> list[str]:
    """Every per-layer metric name, in the order `Tracer.metrics` fills them."""
    import treeshift.cli  # noqa: F401  (suite names come from the CLI)

    tracer = Tracer()
    return list(tracer.metrics(0.0)) + ["trace.overhead"]
