"""Replicated order-selection experiments on simulated curve processes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .fpca import fpca
from .selection import CRITERIA, _check_criteria, _stacked_grids
from .simulate import SimSpec, replication_rng, simulate_streams

__all__ = ["McReport", "monte_carlo"]

# replications simulated together through one factor recursion
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


def _run_replications(args) -> list[dict]:
    """Chosen (K, p) per criterion for a contiguous range of replications.

    Replications are simulated ``CHUNK`` at a time through one factor
    recursion, and their orders selected by one stacked kernel call, which
    keeps of each FPCA result only what selection reads.  The whole range
    runs on one BLAS thread.
    """
    spec, reps, k_max, p_max, criteria, restricted = args
    outcomes = []
    with one_blas_thread():
        for start in range(reps.start, reps.stop, CHUNK):
            rngs = [replication_rng(spec.seed, rep)
                    for rep in range(start, min(start + CHUNK, reps.stop))]
            results = (fpca(sample) for sample in simulate_streams(spec, rngs))
            for grids in _stacked_grids(results, k_max, p_max, criteria, restricted):
                outcomes.append({criterion: grid.chosen for criterion, grid in grids.items()})
    return outcomes


def monte_carlo(spec: SimSpec, reps: int, k_max: int = 8, p_max: int = 8,
                criteria=CRITERIA, restricted: bool = False, jobs: int = 1) -> McReport:
    """Run ``reps`` independent selection replications of ``spec``.

    Replication r always uses the stream derived from (spec.seed, r), and
    its sample does not depend on the replications simulated beside it,
    so results are identical for any ``jobs``; workers only change the
    schedule.  Each worker takes a contiguous range of replications.
    """
    if reps < 1:
        raise ValueError(f"reps must be positive, got {reps}")
    criteria = _check_criteria(criteria)
    workers = min(max(jobs, 1), reps)
    ranges = [range(w * reps // workers, (w + 1) * reps // workers) for w in range(workers)]
    tasks = [(spec, span, k_max, p_max, criteria, restricted) for span in ranges]
    if workers > 1:
        # imported here so that commands without a pool never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [chosen for part in pool.map(_run_replications, tasks) for chosen in part]
    else:
        outcomes = _run_replications(tasks[0])

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
