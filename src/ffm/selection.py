"""Joint selection of the number of factors and the VAR lag order.

All criteria are built from the simplified one-step mean squared error

    MSE(J, m) = tr(Sigma_eta(J, m)) + sum of eigenvalues beyond J,

evaluated on a (J, m) grid.  bic and hqc penalize its log with J*m
parameter counts; ffpe multiplies the innovation trace by (T + J*m)/T
and adds the eigenvalue tail without any log or additive penalty, which
is why it tends to overshoot.

The innovation traces of a whole grid column come from one triangular
factor.  For lag order m the k_max-factor design X is laid out factor
major: column l*m + k - 1 holds factor l at lag k, so the J-factor design
is the leading J*m columns of X.  The Householder QR of [X Y] is
[[R, Q'Y], [0, R_Y]], where R' is the Cholesky factor of X'X.  The
factor of a leading block of X'X is the leading block of R', so
regressing target i on the first n columns of X leaves exactly the
squares of its column below row n.  Sums from the bottom up then give
every J at once, and no two large sums of squares are subtracted, which
keeps near-exact fits accurate.  The restricted (own-lags) fit is
additive over factors: one univariate fit per (factor, m), summed over
factors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FunctionalSample
from .dynamics import CONDITION_LIMIT, _condition_failure, _dof_failure, fit_var
from .errors import NumericError
from .fpca import FpcaResult

__all__ = [
    "CRITERIA",
    "SelectionGrid",
    "mse_simplified",
    "mse_direct",
    "select_orders",
    "penalty",
    "export_mse_surface",
]

CRITERIA = ("bic", "hqc", "ffpe")


@dataclass(frozen=True, eq=False)
class SelectionGrid:
    """Criterion values over the (J, m) grid and the chosen orders.

    ``mse[J-1, m-1]`` and ``values[J-1, m-1]`` hold the simplified MSE
    and the criterion value for J factors and m lags.  Cells whose VAR
    fit failed hold +inf.  ``chosen`` is the lexicographically smallest
    (J, m) attaining the minimum criterion value.
    """

    criterion: str
    k_max: int
    p_max: int
    mse: np.ndarray
    values: np.ndarray
    chosen: tuple[int, int]
    n_obs: int
    restricted: bool


def penalty(criterion: str, j, m, t_obs: int):
    """Additive penalty of a log-MSE criterion at cell (j, m).

    ``j`` and ``m`` may be integers or broadcastable integer arrays.
    ffpe has no additive penalty (its correction is multiplicative), so
    it returns 0.
    """
    if criterion == "bic":
        return j * m * math.log(t_obs) / t_obs
    if criterion == "hqc":
        return 2.0 * j * m * math.log(math.log(t_obs)) / t_obs
    if criterion == "ffpe":
        return 0.0
    raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")


def _leading_fits(design: np.ndarray, targets: np.ndarray,
                  sizes) -> tuple[np.ndarray, dict[int, str]]:
    """Least-squares fits of targets on every leading block of regressors.

    Returns ``rss`` with ``rss[n-1, i]`` the residual sum of squares of
    target i on the first n columns of ``design``, for each n whose
    block can be fitted, and the reason each block size in ``sizes``
    fails.  As in ``fit_var``, a block fails when it leaves no residual
    degree of freedom, when it is exactly singular, or when the condition
    number of its Gram matrix exceeds CONDITION_LIMIT.  That number is only
    computed for blocks larger than the largest one a shifted Cholesky
    factorization proves well conditioned.
    """
    rows, n_max = design.shape
    # R of [X Y] = [[R_x, Q'Y], [0, R_y]]; R_x' is the Cholesky factor of
    # G = X'X, and target i's residual on the first n regressors is the
    # part of its column below row n, so no sum of squares is subtracted
    r = np.linalg.qr(np.hstack([design, targets]), mode="r")
    below = np.cumsum((r[:0:-1, n_max:]) ** 2, axis=0)[::-1]
    rss = np.vstack([below, np.zeros((1, targets.shape[1]))])
    pivots = np.diagonal(r)[: min(rows, n_max)]
    zero = np.flatnonzero(pivots == 0.0)
    valid = int(zero[0]) if zero.size else pivots.size  # leading blocks of full rank
    fit_max = min(valid, rows - 1)  # largest block of full rank that leaves a residual
    lead = r[:fit_max, :fit_max]
    gram = lead.T @ lead
    traces = np.cumsum(np.diagonal(gram))
    # A Cholesky factor of G_n - 2 tr(G_n) / CONDITION_LIMIT * I proves, by
    # interlacing, lambda_min(G_k) > tr(G_n) / CONDITION_LIMIT >= lambda_max(G_k)
    # / CONDITION_LIMIT for every k <= n; the 2 covers rounding in G and in
    # the factorization.
    cleared = 0
    for n in sorted((n for n in sizes if n <= fit_max), reverse=True):
        try:
            np.linalg.cholesky(gram[:n, :n] - (2.0 * traces[n - 1] / CONDITION_LIMIT) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        cleared = n
        break
    failures = {}
    for n in sizes:
        why = _dof_failure(rows, n)
        if why is None and n > valid:
            why = f"lagged design of {rows} observations has rank below {n} regressors"
        if why is None and n > cleared:
            why = _condition_failure(np.linalg.cond(design[:, :n].T @ design[:, :n]))
        if why is not None:
            failures[n] = why
    return rss, failures


def _innovation_traces(result: FpcaResult, k_max: int, p_max: int,
                       restricted: bool) -> tuple[np.ndarray, dict[tuple[int, int], str]]:
    """tr(Sigma_eta(J, m)) for every grid cell and why each failed cell failed.

    Failed cells hold +inf.
    """
    scores = result.scores[:, :k_max]
    t_obs = scores.shape[0]
    js = np.arange(1, k_max + 1)
    traces = np.full((k_max, p_max), np.inf)
    failures = {}
    for m in range(1, p_max + 1):
        targets = scores[m:]
        # factor-major lagged design: column l*m + k - 1 is factor l at lag k
        design = sliding_window_view(scores, m, axis=0)[: t_obs - m, :, ::-1]
        design = design.reshape(t_obs - m, k_max * m)
        if restricted:
            rss = np.zeros(k_max)
            n_ok = k_max
            for l in range(k_max):
                own, why = _leading_fits(design[:, l * m:(l + 1) * m], targets[:, l:l + 1], (m,))
                if why:
                    # fit_var stops at the first factor that fails
                    failures.update({(j, m): why[m] for j in range(l + 1, k_max + 1)})
                    n_ok = l
                    break
                rss[l] = own[m - 1, 0]
            traces[:n_ok, m - 1] = np.cumsum(rss[:n_ok]) / (t_obs - m)
        else:
            rss, why = _leading_fits(design, targets, range(m, k_max * m + 1, m))
            failures.update({(n // m, m): reason for n, reason in why.items()})
            ok = np.array([j for j in js if j * m not in why], dtype=int)
            cum = np.cumsum(rss, axis=1)
            traces[ok - 1, m - 1] = cum[ok * m - 1, ok - 1] / (t_obs - m)
    return traces, dict(sorted(failures.items()))


def mse_simplified(result: FpcaResult, j: int, m: int, restricted: bool = False) -> float:
    """Simplified one-step MSE at (j, m): innovation trace plus eigenvalue tail.

    ``j = 0`` is the static no-factor case: the full variance sum, with
    no dynamics fitted and ``m`` ignored.
    """
    if j == 0:
        return result.total_variance()
    if not 1 <= j <= result.rank:
        raise ValueError(f"j must be in [0, {result.rank}], got {j}")
    fit = fit_var(result.scores[:, :j], m, restricted)
    return float(np.trace(fit.sigma_eta)) + result.tail_sum(j)


def mse_direct(sample: FunctionalSample, fitted: FunctionalSample, m: int) -> float:
    """Average squared quadrature distance between sample and fitted curves.

    ``fitted`` holds one-step fitted curves for t = m+1..T, either as
    T - m rows or as T rows whose first m are ignored.  ``m = 0``
    averages over the whole sample.
    """
    if not sample.grid.matches(fitted.grid):
        raise ValueError("sample and fitted curves live on different grids")
    if m < 0 or m >= sample.n_curves:
        raise ValueError(f"m must be in [0, {sample.n_curves - 1}], got {m}")
    target = sample.matrix[m:]
    if fitted.n_curves == target.shape[0]:
        diff = target - fitted.matrix
    elif fitted.n_curves == sample.n_curves:
        diff = target - fitted.matrix[m:]
    else:
        raise ValueError(
            f"fitted sample has {fitted.n_curves} rows; expected {target.shape[0]} "
            f"or {sample.n_curves}"
        )
    return float(np.mean(diff**2 @ sample.grid.weights))


def _criterion_values(criterion: str, traces: np.ndarray, tails: np.ndarray,
                      t_obs: int) -> np.ndarray:
    k_max, p_max = traces.shape
    js = np.arange(1, k_max + 1)[:, None]
    ms = np.arange(1, p_max + 1)[None, :]
    if criterion == "ffpe":
        return (t_obs + js * ms) / t_obs * traces + tails[:, None]
    with np.errstate(divide="ignore"):
        logs = np.log(traces + tails[:, None])
    return logs + penalty(criterion, js, ms, t_obs)


def select_orders(result: FpcaResult, k_max: int, p_max: int,
                  criteria=CRITERIA, restricted: bool = False) -> dict[str, SelectionGrid]:
    """Evaluate several criteria on one shared (J, m) MSE grid.

    The VAR fits are done once; each criterion only re-penalizes them.
    """
    if not 1 <= k_max <= result.rank:
        raise ValueError(f"k_max must be in [1, {result.rank}], got {k_max}")
    t_obs = result.n_curves
    if not 1 <= p_max < t_obs:
        raise ValueError(f"p_max must be in [1, {t_obs - 1}], got {p_max}")
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")

    traces, failures = _innovation_traces(result, k_max, p_max, restricted)
    if failures:
        cells = ", ".join(f"(J={j}, m={m})" for j, m in failures)
        warnings.warn(
            f"{len(failures)} selection cells failed and were set to +inf: {cells}; "
            f"first reason: {next(iter(failures.values()))}",
            stacklevel=2,
        )
    tails = np.array([result.tail_sum(j) for j in range(1, k_max + 1)])
    mse = traces + tails[:, None]

    grids = {}
    for criterion in criteria:
        values = _criterion_values(criterion, traces, tails, t_obs)
        values = np.where(np.isfinite(traces), values, np.inf)
        if not np.isfinite(values).any():
            raise NumericError("every selection cell failed; the grid is empty")
        # row-major argmin takes the first minimum, i.e. the smallest (J, m)
        flat = int(np.argmin(values))
        chosen = (flat // p_max + 1, flat % p_max + 1)
        grids[criterion] = SelectionGrid(
            criterion=criterion,
            k_max=k_max,
            p_max=p_max,
            mse=mse,
            values=values,
            chosen=chosen,
            n_obs=t_obs,
            restricted=restricted,
        )
    return grids


def export_mse_surface(grid: SelectionGrid) -> list[dict]:
    """Long-format rows of the selection surface, one dict per (J, m) cell."""
    rows = []
    for j in range(1, grid.k_max + 1):
        for m in range(1, grid.p_max + 1):
            rows.append(
                {
                    "J": j,
                    "m": m,
                    "mse": float(grid.mse[j - 1, m - 1]),
                    "criterion": float(grid.values[j - 1, m - 1]),
                    "chosen": (j, m) == grid.chosen,
                }
            )
    return rows
