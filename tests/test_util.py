from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from treeshift import _util
from treeshift._util import dense_spectral_norm, stable_rng, worst_of


def test_worst_of_keeps_nan():
    assert worst_of(0.0, 2.0, 1.0) == 2.0
    assert worst_of(-1.0) == -1.0
    for args in ((0.0, math.nan), (math.nan, 0.0), (1.0, math.nan, 3.0)):
        assert math.isnan(worst_of(*args))
    assert worst_of(0.0, math.inf) == math.inf


def _norm_battery() -> list[np.ndarray]:
    """Seeded matrices: real, complex and complex with a zero imaginary part; tall,
    wide and 1 x 1; scales from 1e-300 to 1e300; a third with every other column
    1e200 smaller."""
    rng = stable_rng(27, "dense-norm")
    scales = 10.0 ** np.arange(-300, 301, 100)
    out = []
    for k in range(126):
        m, n = (1, 1) if k % 9 == 0 else rng.integers(1, 90, size=2)
        mat = rng.standard_normal((m, n))
        if k % 3 == 1:
            mat = mat + 1j * rng.standard_normal((m, n))
        elif k % 3 == 2:
            mat = mat.astype(np.complex128)
        if k % 6 >= 3:
            mat[:, 1::2] *= 1e-200
        out.append(mat * scales[k % len(scales)])
    return out


def _worst_gap(norm) -> float:
    """Largest relative gap of norm to the SVD's sigma_max over the battery, in units
    of 8 max(m, n) eps; a norm that raises counts as an infinite gap."""
    worst = 0.0
    for mat in _norm_battery():
        want = float(np.linalg.svd(mat, compute_uv=False)[0])
        try:
            got = norm(mat)
        except np.linalg.LinAlgError:
            return math.inf
        bound = 8 * max(mat.shape) * np.finfo(float).eps
        worst = worst_of(worst, abs(got - want) / want / bound)
    return worst


def test_dense_spectral_norm_matches_the_svd(monkeypatch):
    assert _worst_gap(dense_spectral_norm) <= 1.0
    assert dense_spectral_norm(np.zeros((3, 5), dtype=np.complex128)) == 0.0
    assert dense_spectral_norm(np.zeros((0, 4))) == 0.0
    # the battery catches a norm that reads the wrong eigenvalue ...
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: eigvalsh(g)[::-1])
    with np.errstate(invalid="ignore"):
        assert not _worst_gap(dense_spectral_norm) <= 1.0
    monkeypatch.undo()
    # ... and one that skips the power-of-two scaling
    monkeypatch.setattr(_util, "math", SimpleNamespace(**{**vars(math), "frexp": lambda x: (x, 0)}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert not _worst_gap(dense_spectral_norm) <= 1.0
