"""Helpers shared by the test modules."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ffm import select_orders


def _tied_fpca(build, rng, restricted=False, t_obs=200):
    """An FPCA result whose bic values over (2, 2) tie exactly at (J, m) = (1, 2) and (2, 1).

    ``build(scores, second)`` makes the result from (t_obs, 2) scores and
    its second eigenvalue, with no tail beyond J = 2.  Factor 1 is an
    AR(2), so its second lag can pay for its penalty, and both cells carry
    the same J*m penalty.  The second eigenvalue enters the tail of J = 1
    only: it sets the two cells' MSEs equal, walked one ulp at a time
    (additions round monotonically, so the walk cannot step over the
    tie).  Factor 2 is scaled, and redrawn if need be, until the tied
    cells are the least.
    """
    def grid(scores, second):
        result = build(scores, second)
        return result, select_orders(result, 2, 2, ("bic",), restricted)["bic"]

    for _ in range(20):
        shocks = rng.normal(size=(t_obs, 2))
        for t in range(2, t_obs):
            shocks[t, 0] += 0.5 * shocks[t - 2, 0]
        for scale in np.linspace(1.0, 4.0, 61):
            scores = shocks * [1.0, scale]
            _, g = grid(scores, 0.0)
            second = g.mse[1, 0] - g.mse[0, 1]
            result, g = grid(scores, second)
            if g.chosen not in ((1, 2), (2, 1)):
                continue
            step = math.inf if g.mse[0, 1] < g.mse[1, 0] else -math.inf
            while g.mse[0, 1] != g.mse[1, 0]:
                second = math.nextafter(second, step)
                result, g = grid(scores, second)
            if np.sort(g.values.ravel())[0] == g.values[0, 1]:
                return result
    raise AssertionError("no draw put the tie at the minimum")


@pytest.fixture
def tied_fpca():
    """Builder of FPCA results whose selection grid is exactly tied (see ``_tied_fpca``)."""
    return _tied_fpca


@pytest.fixture(scope="session")
def benchmark_inputs():
    """The seeded panel generator of ``perfbench``, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    if not path.exists():
        pytest.skip("no perfbench/inputs.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
