from __future__ import annotations

import math

from treeshift._util import worst_of


def test_worst_of_keeps_nan():
    assert worst_of(0.0, 2.0, 1.0) == 2.0
    assert worst_of(-1.0) == -1.0
    for args in ((0.0, math.nan), (math.nan, 0.0), (1.0, math.nan, 3.0)):
        assert math.isnan(worst_of(*args))
    assert worst_of(0.0, math.inf) == math.inf
