"""Replicated order-selection experiments on simulated curve processes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import map_ranges
from .errors import ConfigError
from .fpca import fpca
from .selection import CRITERIA, _carried, _check_criteria, _stacked_grids
from .simulate import SimSpec, replication_rng, simulate_streams

__all__ = ["McReport", "monte_carlo"]

# the most replications simulated together through one factor recursion
CHUNK = 50


@dataclass(frozen=True, eq=False)
class McReport:
    """Selection outcomes of a replicated experiment.

    ``selections[criterion]`` is a (reps, 2) integer array of the chosen
    (K, p) per replication, in replication order.  Bias and RMSE are
    reported against the true orders of the generating spec.
    """

    spec: SimSpec
    reps: int
    k_max: int
    p_max: int
    criteria: tuple
    restricted: bool
    selections: dict

    def bias(self, criterion: str) -> tuple[float, float]:
        """Mean of (K_hat - K, p_hat - p)."""
        chosen = self.selections[criterion]
        return (
            float(np.mean(chosen[:, 0] - self.spec.k)),
            float(np.mean(chosen[:, 1] - self.spec.p)),
        )

    def rmse(self, criterion: str) -> tuple[float, float]:
        """Root mean squared error of (K_hat, p_hat)."""
        chosen = self.selections[criterion]
        return (
            float(np.sqrt(np.mean((chosen[:, 0] - self.spec.k) ** 2.0))),
            float(np.sqrt(np.mean((chosen[:, 1] - self.spec.p) ** 2.0))),
        )

    def frequencies(self, criterion: str) -> np.ndarray:
        """Share of replications choosing each (K, p) cell; sums to 1."""
        chosen = self.selections[criterion]
        freq = np.zeros((self.k_max, self.p_max))
        for k, p in chosen:
            freq[k - 1, p - 1] += 1.0
        return freq / chosen.shape[0]

    def summary_rows(self) -> list[dict]:
        rows = []
        for criterion in self.criteria:
            bias_k, bias_p = self.bias(criterion)
            rmse_k, rmse_p = self.rmse(criterion)
            rows.append(
                {
                    "model": self.spec.model,
                    "T": self.spec.n_obs,
                    "criterion": criterion,
                    "bias_K": bias_k,
                    "bias_p": bias_p,
                    "rmse_K": rmse_k,
                    "rmse_p": rmse_p,
                    "reps": self.reps,
                }
            )
        return rows


def _replications(spec: SimSpec, k_max: int, p_max: int, criteria, restricted: bool):
    """Range hook: chosen (K, p) per criterion for a range of replications.

    A range, of at most ``CHUNK`` replications, is simulated through one
    factor recursion, and its orders are selected by one stacked kernel
    call, which keeps of each FPCA result only what selection reads.
    """
    def run(reps: range) -> list[dict]:
        rngs = [replication_rng(spec.seed, rep) for rep in reps]
        results = (fpca(sample) for sample in simulate_streams(spec, rngs))
        return [{criterion: grid.chosen for criterion, grid in grids().items()}
                for grids in _stacked_grids(results, k_max, p_max, criteria, restricted,
                                            chosen_only=True)]

    return run


def monte_carlo(spec: SimSpec, reps: int, k_max: int = 8, p_max: int = 8,
                criteria=CRITERIA, restricted: bool = False, jobs: int = 1) -> McReport:
    """Run ``reps`` independent selection replications of ``spec``.

    Replication r always uses the stream derived from (spec.seed, r), and
    its sample does not depend on the replications simulated beside it,
    so results are identical for any ``jobs``; workers only change the
    schedule.  The replications are split into the fewest even
    contiguous ranges of at most ``CHUNK`` that give each of ``jobs``
    workers one, and run through ``ffm._blas.map_ranges`` on one
    OpenBLAS thread per process.  Unlike the backtest's, the worker
    count does not follow the OpenBLAS thread count: it is ``jobs``, a
    positive integer, but 1 inside a daemonic process and from Python
    3.12 on, as for the backtest.

    The report's shape follows (k_max, p_max), so a grid the samples
    cannot carry is refused with a ConfigError before any simulation,
    not clipped.
    """
    if reps < 1:
        raise ConfigError(f"reps must be positive, got {reps}")
    if not (isinstance(jobs, int) and jobs >= 1):
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")
    criteria = _check_criteria(criteria)
    # every replication has n_obs curves and the full FPCA rank
    carried, _ = _carried(min(spec.n_obs - 1, spec.grid.n), spec.n_obs, k_max, p_max)
    if carried != (k_max, p_max):
        raise ConfigError(f"samples of {spec.n_obs} curves on {spec.grid.n} points carry at most "
                          f"k_max={carried[0]} and p_max={carried[1]}, "
                          f"got k_max={k_max}, p_max={p_max}")
    count = max(-(-reps // CHUNK), min(jobs, reps))
    ranges = [range(w * reps // count, (w + 1) * reps // count) for w in range(count)]
    setup = partial(_replications, spec, k_max, p_max, criteria, restricted)
    outcomes = [chosen for part in map_ranges(setup, ranges, jobs) for chosen in part]

    selections = {
        criterion: np.array([outcome[criterion] for outcome in outcomes], dtype=int)
        for criterion in criteria
    }
    return McReport(
        spec=spec,
        reps=reps,
        k_max=k_max,
        p_max=p_max,
        criteria=criteria,
        restricted=restricted,
        selections=selections,
    )
