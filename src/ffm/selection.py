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
additive over factors, so it is the same full-VAR kernel run on each
factor as a one-factor series, summed over factors.  Only its condition
numbers keep the multi-factor layout: each is taken on the factor's
column block of the series' design, as ``fit_var`` and earlier releases
took it, because ``x.T @ x`` on a contiguous one-factor copy can round
differently and change the number a failure reports.

The kernel takes several score series at once: for each m, the [X Y]
of a stack of series are factored by one batched QR, which LAPACK runs
matrix by matrix.  ``_stacked_grids`` stacks series of one length, such
as a chunk of Monte Carlo replications: no row is padded, so each R,
and so each grid, is bit for bit what the series gets alone, and
``select_orders`` is its one-series call.  A backtest's origins have
different lengths: ``_stacked_choices`` pads their designs with zero
rows to the longest, which changes R only to rounding, and it keeps a
choice only when no near tie can hide that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FunctionalSample
from .dynamics import CONDITION_LIMIT, _condition_failure, _dof_failure, fit_var
from .errors import ConfigError, NumericError
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

# Largest stacked [X Y] of the selection kernel, in bytes.  Series share
# a stack up to this size, which bounds the kernel's working memory.
STACK_BYTES = 256 * 1024

# A stacked series keeps its chosen orders only when the best and the
# second best criterion values differ by more than this, relative to the
# larger of |best| and 1 (see _stacked_choices).
TIE_RTOL = 1e-9


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
    _check_criteria((criterion,))
    if criterion == "bic":
        return j * m * math.log(t_obs) / t_obs
    if criterion == "hqc":
        return 2.0 * j * m * math.log(math.log(t_obs)) / t_obs
    return 0.0


def _check_criteria(criteria) -> None:
    """Raise ConfigError at the first name that is not in CRITERIA."""
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")


def _orders(values: np.ndarray) -> tuple[int, int]:
    """The (J, m) of a grid's minimum; a row-major argmin takes the first, the smallest (J, m)."""
    j, m = divmod(int(np.argmin(values)), values.shape[1])
    return j + 1, m + 1


def _proved(gram: np.ndarray, traces: np.ndarray, sizes) -> int:
    """Largest n in ``sizes`` (descending) whose leading Gram blocks are proved well conditioned.

    A Cholesky factor of G_n - 2 tr(G_n) / CONDITION_LIMIT * I proves, by
    interlacing, lambda_min(G_k) > tr(G_n) / CONDITION_LIMIT >= lambda_max(G_k)
    / CONDITION_LIMIT for every k <= n; the 2 covers rounding in G and in
    the factorization.  Returns 0 when no size is proved.
    """
    for n in sizes:
        try:
            np.linalg.cholesky(gram[:n, :n] - (2.0 * traces[n - 1] / CONDITION_LIMIT) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        return n
    return 0


def _leading_fits(r: np.ndarray, n_max: int, rows: np.ndarray, sizes,
                  design) -> tuple[np.ndarray, list[dict[int, str]]]:
    """Least-squares fits of targets on every leading block of regressors, for a stack.

    ``r`` (S, ., n_max + q) holds the R factors of S regressions [X Y],
    regression s with ``rows[s]`` observations; ``design(s)`` gives its
    own X and is called only where a condition number is needed.  Returns
    ``rss`` with ``rss[s, n-1, i]`` the residual sum of squares of target
    i on the first n columns of regression s, for each n whose block can
    be fitted, and per regression the reason each block size in ``sizes``
    fails.  As in ``fit_var``, a block fails when it leaves no residual
    degree of freedom, when it is exactly singular, or when the condition
    number of its Gram matrix exceeds CONDITION_LIMIT.  That number is
    only computed for blocks larger than the largest one a shifted
    Cholesky factorization proves well conditioned.
    """
    n_stack = r.shape[0]
    # R of [X Y] = [[R_x, Q'Y], [0, R_y]]; R_x' is the Cholesky factor of
    # G = X'X, and target i's residual on the first n regressors is the
    # part of its column below row n, so no sum of squares is subtracted
    below = np.cumsum(r[:, :0:-1, n_max:] ** 2, axis=1)[:, ::-1]
    rss = np.concatenate([below, np.zeros((n_stack, 1, r.shape[2] - n_max))], axis=1)
    failures = [{} for _ in range(n_stack)]
    pivots = np.diagonal(r, axis1=1, axis2=2)[:, :n_max]
    own = np.minimum(rows, n_max)
    # leading blocks of full rank: up to the first zero pivot of the own rows
    zero = (pivots == 0.0) | (np.arange(pivots.shape[1]) >= own[:, None])
    valid = np.where(zero.any(axis=1), zero.argmax(axis=1), pivots.shape[1])
    fit_max = np.minimum(valid, rows - 1)  # largest full-rank block that leaves a residual
    top = max(int(fit_max.max()), 0)
    lead = r[:, :top, :top]
    gram = lead.swapaxes(1, 2) @ lead
    traces = np.cumsum(np.diagonal(gram, axis1=1, axis2=2), axis=1)
    largest = max(sizes)
    if fit_max.min() >= largest:
        # one factorization of the whole stack usually proves every size
        shift = (2.0 * traces[:, largest - 1] / CONDITION_LIMIT)[:, None, None] * np.eye(largest)
        try:
            np.linalg.cholesky(gram[:, :largest, :largest] - shift)
        except np.linalg.LinAlgError:
            pass
        else:
            return rss, failures
    descending = sorted(sizes, reverse=True)
    cleared = [_proved(gram[s], traces[s], [n for n in descending if n <= f])
               for s, f in enumerate(fit_max.tolist())]
    sizes = list(sizes)
    rows_list = rows.tolist()
    for s, i in np.argwhere(np.array(sizes) > np.array(cleared)[:, None]).tolist():
        n = sizes[i]
        why = _dof_failure(rows_list[s], n)
        if why is None and n > valid[s]:
            why = f"lagged design of {rows_list[s]} observations has rank below {n} regressors"
        if why is None:
            x = design(s)[:, :n]
            why = _condition_failure(np.linalg.cond(x.T @ x))
        if why is not None:
            failures[s][n] = why
    return rss, failures


def _innovation_rss(scores: np.ndarray, ends: np.ndarray, p_max: int,
                    design) -> tuple[np.ndarray, list[dict[tuple[int, int], str]]]:
    """Residual sums of squares of the full VAR on every grid cell of W score series.

    As ``_innovation_traces``, but unnormalized and with unsorted
    reasons; ``design(w, m)`` gives the X whose Gram matrix is checked
    when series w's lag order m needs a condition number.
    """
    n_win, _, k_max = scores.shape
    rss = np.empty((n_win, k_max, p_max))
    failures = [{} for _ in range(n_win)]
    js = np.arange(1, k_max + 1)
    for m in range(1, p_max + 1):
        all_rows = ends - m
        n_max = k_max * m
        # lags 1..m of target row i + m; column l*m + k - 1 of a design is
        # factor l at lag k (factor major)
        lagged = sliding_window_view(scores, m, axis=1)[:, :, :, ::-1]
        per_stack = max(1, STACK_BYTES // (8 * int(all_rows.max()) * k_max * (m + 1)))
        for lo in range(0, n_win, per_stack):
            rows = all_rows[lo:lo + per_stack]
            n_stack, length = rows.size, int(rows.max())
            xy = np.empty((n_stack, length, n_max + k_max))
            xy[..., :n_max].reshape(n_stack, length, k_max, m)[...] = lagged[lo:lo + n_stack,
                                                                              :length]
            xy[..., n_max:] = scores[lo:lo + n_stack, m:length + m]
            xy[np.arange(length) >= rows[:, None]] = 0.0
            fits, why = _leading_fits(np.linalg.qr(xy, mode="r"), n_max, rows,
                                      range(m, n_max + 1, m), lambda s, lo=lo: design(lo + s, m))
            cum = np.cumsum(fits, axis=2)
            cells = cum[:, np.minimum(js * m, cum.shape[1]) - 1, js - 1]
            for w, reasons in enumerate(why):
                for n, reason in reasons.items():
                    cells[w, n // m - 1] = np.inf
                    failures[lo + w][(n // m, m)] = reason
            rss[lo:lo + n_stack, :, m - 1] = cells
    return rss, failures


def _innovation_traces(scores: np.ndarray, ends: np.ndarray, p_max: int,
                       restricted: bool) -> tuple[np.ndarray, list[dict[tuple[int, int], str]]]:
    """tr(Sigma_eta(J, m)) on every grid cell of W score series, and why failed cells failed.

    ``scores`` is (W, L, k_max): series w is its first ``ends[w]`` rows,
    and later rows are ignored.  Returns the (W, k_max, p_max)
    traces, +inf where a cell failed, and one sorted {(J, m): reason} per
    series.  For each lag order the series are factored in stacks of at
    most STACK_BYTES of [X Y], each with one design build and one QR; a
    stack pads every design with zero rows to its longest.  A stack of
    equal ``ends`` pads nothing, and each series' traces and failures are
    then bit for bit those of its one-series call.

    The restricted fit is the full one run on the W * k_max one-factor
    series, summed over factors by one cumulative sum, which carries the
    +inf of the first factor that fails (where ``fit_var`` stops) to
    every larger J; that factor's reason names those cells.  A factor's
    condition number is still taken on its column block of the series'
    C-contiguous design, as ``fit_var`` lays it out: ``x.T @ x`` can
    round differently on a contiguous one-factor copy, and so could the
    reported number.
    """
    n_win, _, k_max = scores.shape

    def design(w, m):
        """Series w's lagged design on its own rows, C-contiguous and factor major."""
        rows = ends[w] - m
        return sliding_window_view(scores[w], m, axis=0)[:rows, :, ::-1].reshape(rows, -1)

    if restricted:
        def own_lags(s, m):
            w, l = divmod(s, k_max)
            return design(w, m)[:, l * m:(l + 1) * m]

        single, why = _innovation_rss(scores.transpose(0, 2, 1).reshape(n_win * k_max, -1, 1),
                                      np.repeat(ends, k_max), p_max, own_lags)
        rss = np.cumsum(single.reshape(n_win, k_max, p_max), axis=1)
        failures = [{} for _ in range(n_win)]
        # backward, so the first factor that fails names the cells last
        for s in reversed(range(n_win * k_max)):
            w, l = divmod(s, k_max)
            for (_, m), reason in why[s].items():
                failures[w].update(((j, m), reason) for j in range(l + 1, k_max + 1))
    else:
        rss, failures = _innovation_rss(scores, ends, p_max, design)
    rows = ends[:, None, None] - np.arange(1, p_max + 1)
    return rss / rows, [dict(sorted(f.items())) for f in failures]


def mse_simplified(result: FpcaResult, j: int, m: int, restricted: bool = False) -> float:
    """Simplified one-step MSE at (j, m): innovation trace plus eigenvalue tail.

    ``j = 0`` is the static no-factor case: the full variance sum, with
    no dynamics fitted and ``m`` ignored.
    """
    tail = result.tail_sum(j)
    if j == 0:
        return tail
    return float(np.trace(fit_var(result.scores[:, :j], m, restricted).sigma_eta)) + tail


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


def _tails(result: FpcaResult, k_max: int) -> np.ndarray:
    """Eigenvalue tails beyond J = 1..k_max."""
    return np.array([result.tail_sum(j) for j in range(1, k_max + 1)])


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
    return _stacked_grids([result], k_max, p_max, criteria, restricted, stacklevel=3)[0]


def _grids(traces: np.ndarray, failures: dict[tuple[int, int], str], tails: np.ndarray,
           t_obs: int, criteria, restricted: bool, stacklevel: int) -> dict[str, SelectionGrid]:
    """One sample's grids from its innovation traces, warning once if cells failed.

    The warning is issued at ``stacklevel`` as ``warnings.warn`` counts
    it from this function.
    """
    if failures:
        cells = ", ".join(f"(J={j}, m={m})" for j, m in failures)
        warnings.warn(
            f"{len(failures)} selection cells failed and were set to +inf: {cells}; "
            f"first reason: {next(iter(failures.values()))}",
            stacklevel=stacklevel,
        )
    k_max, p_max = traces.shape
    mse = traces + tails[:, None]

    grids = {}
    for criterion in criteria:
        values = _criterion_values(criterion, traces, tails, t_obs)
        values = np.where(np.isfinite(traces), values, np.inf)
        if not np.isfinite(values).any():
            raise NumericError("every selection cell failed; the grid is empty")
        grids[criterion] = SelectionGrid(
            criterion=criterion,
            k_max=k_max,
            p_max=p_max,
            mse=mse,
            values=values,
            chosen=_orders(values),
            n_obs=t_obs,
            restricted=restricted,
        )
    return grids


def _stacked_grids(results, k_max: int, p_max: int, criteria, restricted: bool,
                   stacklevel: int = 2) -> list[dict[str, SelectionGrid]]:
    """``select_orders`` of several samples with the same curve count, from one kernel call.

    ``results`` is an iterable of FpcaResults, read once: only each one's
    first ``k_max`` score columns and its eigenvalue tails are kept, so a
    caller may pass a generator and hold no whole result.  Equal lengths
    stack with no padding, and every design's R is the one a lone call
    gets (see the module docstring), so each sample's grids, failed-cell
    warning and ``NumericError`` are bit for bit those of
    ``select_orders`` on it alone.  Returns one {criterion: SelectionGrid}
    per sample, in order; raises at the first sample whose cells all
    failed.  Warnings are issued at ``stacklevel`` counted from this
    function, as in ``warnings.warn``.
    """
    _check_criteria(criteria)
    scores, tails = [], []
    for result in results:
        if not 1 <= k_max <= result.rank:
            raise ValueError(f"k_max must be in [1, {result.rank}], got {k_max}")
        t_obs = result.n_curves
        if not 1 <= p_max < t_obs:
            raise ValueError(f"p_max must be in [1, {t_obs - 1}], got {p_max}")
        scores.append(result.scores[:, :k_max].copy())   # a view would keep all the scores
        tails.append(_tails(result, k_max))

    traces, failures = _innovation_traces(np.stack(scores), np.full(len(scores), t_obs),
                                          p_max, restricted)
    # a loop, not a comprehension: before Python 3.12 a comprehension is a
    # frame of its own, which would move the warning's stacklevel
    stack = []
    for surface, failed, tail in zip(traces, failures, tails):
        stack.append(_grids(surface, failed, tail, t_obs, criteria, restricted, stacklevel + 1))
    return stack


def _stacked_choices(results: list[FpcaResult], k_max: int, p_max: int, criterion: str,
                     restricted: bool) -> list[tuple[int, int] | None]:
    """The orders ``select_orders`` chooses for each of several samples, from one kernel call.

    The samples' scores are stacked with zero rows after each one's own.
    Zero padding is not bitwise safe for LAPACK's blocked QR: a padded R
    can differ from the unpadded one in its last bits.  On the seed-7
    ``backtest-bic`` panel of ``perfbench``, stacks of 32 origins changed
    R for 3 of the 1,440 (origin, m) designs (16 to 72 columns of [X Y]
    on an 8 x 8 grid): t = 177, m = 8 (525 entries, up to 4.4e-13
    relative), t = 291, m = 4 (180) and t = 236, m = 7 (4).  So the
    stacked traces agree with ``select_orders``'s only to rounding, and
    a sample keeps the stacked choice only when every cell of its grid
    was fitted, so every design passed the conditioning proof, and its
    two best criterion values differ by more than TIE_RTOL, relative to
    the larger of |best| and 1.  That is a margin, not a bound: on the
    seed-7 and seed-41 ``backtest-bic`` panels of ``perfbench`` the
    stacked traces agreed within 3.9e-16 relative, and the smallest
    relative gap between the best and the second best bic value was
    2.2e-5.  Any other sample gets None and must run ``select_orders``
    itself, which gives its warning, failure and choice.  ``k_max`` is
    at most each sample's rank and ``p_max`` below each one's curve
    count.
    """
    ends = np.array([result.n_curves for result in results])
    scores = np.zeros((len(results), int(ends.max()), k_max))
    for w, result in enumerate(results):
        scores[w, :ends[w]] = result.scores[:, :k_max]
    traces, failures = _innovation_traces(scores, ends, p_max, restricted)
    choices = []
    for result, surface, failed in zip(results, traces, failures):
        values = _criterion_values(criterion, surface, _tails(result, k_max), result.n_curves)
        best, second = np.partition(np.append(values.ravel(), np.inf), 1)[:2]
        if failed or not np.isfinite(best) or not second - best > TIE_RTOL * max(1.0, abs(best)):
            choices.append(None)
            continue
        choices.append(_orders(values))
    return choices


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
