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
factor as a one-factor series, summed over factors.  The kernel and
``fit_var`` build [X Y] with one function (``dynamics._lagged_xy``) and
factor it with another (``dynamics._r_factors``).  A cell is refused
only by ``fit_var``'s own solve (``dynamics._solve``) of its J-factor
series, so exactly when ``fit_var`` refuses it, and with its message.

The kernel takes several score series at once.  For lag order p_max,
the [X Y] of a stack of series are built together, and each series is
factored by a QR of its own rows; every lower lag order is factored
from that R (below).  Nothing is padded, so each R, and so each grid,
is bit for bit what the series gets alone, whatever the lengths beside
it.  ``_stacked_grids`` is the one grid builder, and ``select_orders``
is its one-series call.

Lag order p_max is factored first, and its R serves the whole grid
three times.  Every (J, m) design is a column subset of the p_max design
on the rows [p_max, T), plus the rows [m, p_max).

- So the lag-m [X Y] is, on the rows [p_max, T), the columns C_m of the
  p_max [X Y]: factor l at lags 1..m (columns l*p_max + k - 1), then the
  k_max targets.  With the p_max [X Y] = QR, the lag-m [X Y] has the
  Gram matrix of R[:, C_m] stacked over its own rows [m, p_max).  A QR of
  that block, of at most k_max*p_max + k_max + p_max - 1 rows, gives the
  lag-m R up to the signs of its rows: the QR update of Golub and Van
  Loan (Matrix Computations, section 6.5).  No lag order below p_max
  refactors T - m rows, and no X'X is formed.
- One shifted Cholesky factorization of the p_max Gram matrix proves
  every cell well conditioned (``_certified``), and a series that
  passes needs no condition number; any other series has every cell
  checked by ``dynamics._solve``.
- Since adding regressors or rows never raises a residual sum of
  squares, rss(J, p_max) bounds every shorter lag order from below, as
  in the leaps-and-bounds search of Furnival and Wilson (1974).  A
  caller that keeps only the chosen orders (the backtest and Monte
  Carlo, through ``_stacked_grids``'s ``chosen_only``) has a lag order
  factored only for the certified series whose bound does not rule it
  out (``_needed``).  ``select_orders`` evaluates every cell.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
from .core import FunctionalSample
from .dynamics import CONDITION_LIMIT, _dof_failure, _lagged_xy, _r_factors, _solve, fit_var
from .errors import ConfigError, DataError, NumericError
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
# a stack up to this size, which bounds the kernel's working memory
# beside the p_max R it keeps per series for the lower lag orders, at
# most (k_max*p_max + k_max)^2 doubles: 41 KB at k_max = p_max = 8.
STACK_BYTES = 256 * 1024

# _needed factors a lag order whose lower bound comes within this margin
# of a series' best value, relative to the larger of |best| and 1, so
# that rounding in the bound cannot hide a cell that ties or wins.
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

    ``j``, ``m`` and ``t_obs`` may be integers or broadcastable integer
    arrays.  ffpe has no additive penalty (its correction is
    multiplicative), so it returns 0.
    """
    _check_criteria((criterion,))
    log = math.log if np.ndim(t_obs) == 0 else np.log
    if criterion == "bic":
        return j * m * log(t_obs) / t_obs
    if criterion == "hqc":
        return 2.0 * j * m * log(log(t_obs)) / t_obs
    return 0.0


def _check_criteria(criteria) -> tuple:
    """The names as a tuple; ConfigError for a bare name or a name not in CRITERIA."""
    if isinstance(criteria, str):
        raise ConfigError(f"criteria must be a sequence of names such as ('bic',), "
                          f"got {criteria!r}")
    criteria = tuple(criteria)
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ConfigError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")
    return criteria


def _orders(values: np.ndarray) -> tuple[int, int]:
    """The (J, m) of a grid's minimum; a row-major argmin takes the first, the smallest (J, m)."""
    j, m = divmod(int(np.argmin(values)), values.shape[1])
    return j + 1, m + 1


def _has_cholesky(a: np.ndarray) -> bool:
    """Whether every matrix of ``a`` has a Cholesky factor, so is numerically positive definite."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _leading_rss(r: np.ndarray, n_max: int) -> np.ndarray:
    """Residual sums of squares of the targets on every leading block of regressors, for a stack.

    ``r`` (S, ., n_max + q) holds the R factors of S regressions [X Y];
    ``rss[s, n-1, i]`` is the residual sum of squares of target i on the
    first n columns of regression s.  R of [X Y] = [[R_x, Q'Y], [0, R_y]];
    R_x' is the Cholesky factor of G = X'X, and target i's residual on the
    first n regressors is the part of its column below row n, so no sum
    of squares is subtracted.
    """
    below = np.cumsum(r[:, :0:-1, n_max:] ** 2, axis=1)[:, ::-1]
    return np.concatenate([below, np.zeros((r.shape[0], 1, r.shape[2] - n_max))], axis=1)


def _certified(r: np.ndarray, n_max: int, rows: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Which regressions of a stack of p_max designs prove every grid cell well conditioned.

    Regression s, with ``rows[s]`` observations and R factor ``r[s]``, is
    certified when it leaves a residual degree of freedom for all n_max =
    k_max * p_max regressors and G - floors[s] * I has a Cholesky factor,
    G being its Gram matrix R_x'R_x.  The design of any (J, m) cell is
    a column subset of the p_max design on the rows [p_max, T), plus the
    rows [m, p_max), so its Gram matrix dominates a principal block of G
    and, by interlacing, its least eigenvalue exceeds floors[s].  Each of
    its J*m columns is a stretch of one score column, so its trace is at
    most p_max times the series' sum of squares S.  With floors[s] =
    2 p_max S / CONDITION_LIMIT every cell's condition number is then
    below CONDITION_LIMIT / 2; the 2 covers rounding in G and in the
    factorization.
    """
    certified = np.array([_dof_failure(n, n_max) is None for n in rows.tolist()], dtype=bool)
    if certified.any():
        lead = r[certified, :n_max, :n_max]
        shifted = lead.swapaxes(1, 2) @ lead - floors[certified, None, None] * np.eye(n_max)
        if not _has_cholesky(shifted):
            certified[certified] = [_has_cholesky(g) for g in shifted]
    return certified


def _innovation_rss(scores: np.ndarray, ends: np.ndarray, p_max: int,
                    needed=None) -> tuple[np.ndarray, list[dict[tuple[int, int], str]]]:
    """Residual sums of squares of the full VAR on every grid cell of W score series.

    As ``_innovation_traces``, but unnormalized and with unsorted reasons.

    Lag order p_max is factored first, by a QR of each series' own rows,
    and each series keeps its R, of min(T - p_max, k_max*p_max + k_max)
    rows.  Every lag order m < p_max is then factored from it: a QR of
    that R's lag-m columns stacked over the lag-m [X Y] rows [m, p_max)
    (see the module docstring).  The p_max R certifies the whole grid
    of most series at once (``_certified``): a certified series has no
    failed cell and needs no condition number.  Any other series has
    each cell (J, m) checked by ``dynamics._solve`` on its J-factor
    series, which applies the degrees-of-freedom rule and then the
    condition limit, so a cell fails, with its reason, exactly when
    ``fit_var`` refuses it.  ``needed(rss, m)``, when given, is called
    before each lag order m < p_max, in increasing order, with the sums
    found so far (+inf elsewhere), and says which series need it; only
    those and the uncertified series are factored, and the other
    series' cells at m stay +inf.
    """
    n_win, _, k_max = scores.shape
    rss = np.full((n_win, k_max, p_max), np.inf)
    failures = [{} for _ in range(n_win)]
    js = np.arange(1, k_max + 1)
    floors = 2.0 * p_max * np.einsum("wtk,wtk->w", scores, scores) / CONDITION_LIMIT
    certified = np.zeros(n_win, dtype=bool)
    top = k_max * p_max + k_max   # columns of the p_max [X Y]
    tops = [None] * n_win         # each series' p_max R, on its own rows
    for m in (p_max, *range(1, p_max)):
        if m < p_max and needed is not None and certified.any():
            todo = np.flatnonzero(~certified | needed(rss, m))
        else:
            todo = np.arange(n_win)
        all_rows = ends - m
        n_max = k_max * m
        width = n_max + k_max   # columns of [X Y]
        if m == p_max:
            heights = all_rows
        else:
            heights = np.minimum(ends - p_max, top) + p_max - m
            # the lag-m [X Y] in the p_max one: factor l at lags 1..m, then the targets
            cols = np.concatenate([(np.arange(k_max)[:, None] * p_max + np.arange(m)).ravel(),
                                   np.arange(top - k_max, top)])
        per_stack = max(1, STACK_BYTES // (8 * int(heights.max()) * width))
        for lo in range(0, todo.size, per_stack):
            members = todo[lo:lo + per_stack]
            rows = all_rows[members]
            if m == p_max:
                length = int(rows.max())
                xy = _lagged_xy(scores[members, :length + m], m, length)
                blocks = [xy[s, :n] for s, n in enumerate(rows.tolist())]
            else:
                # its rows [p_max, T) as their p_max R columns, then the rows [m, p_max)
                head = _lagged_xy(scores[members, :p_max], m, p_max - m)
                blocks = [np.concatenate([tops[w][:, cols], head[s]])
                          for s, w in enumerate(members.tolist())]
            r = _r_factors(blocks)
            cum = np.cumsum(_leading_rss(r, n_max), axis=2)
            cells = cum[:, np.minimum(js * m, cum.shape[1]) - 1, js - 1]
            if m == p_max:
                certified[members] = _certified(r, n_max, rows, floors[members])
                for s, w in enumerate(members.tolist()):
                    tops[w] = r[s, :min(rows[s], top)]
            for s in np.flatnonzero(~certified[members]).tolist():
                w = members[s]
                for j in js.tolist():
                    why = _solve(scores[w, :ends[w], :j], m, ends[w:w + 1], False, False)[0][0]
                    if why is not None:
                        cells[s, j - 1] = np.inf
                        failures[w][(j, m)] = why
            rss[members, :, m - 1] = cells
    return rss, failures


def _innovation_traces(scores: np.ndarray, ends: np.ndarray, p_max: int, restricted: bool,
                       needed=None) -> tuple[np.ndarray, list[dict[tuple[int, int], str]]]:
    """tr(Sigma_eta(J, m)) on every grid cell of W score series, and why failed cells failed.

    ``scores`` is (W, L, k_max): series w is its first ``ends[w]`` rows,
    and later rows are ignored.  Returns the (W, k_max, p_max)
    traces, +inf where a cell failed, and one sorted {(J, m): reason} per
    series.  For each lag order the series are factored in stacks of at
    most STACK_BYTES, each with one design build and a QR per series of
    its own rows: of its [X Y] at p_max, and of its p_max R with its own
    leading rows below.  So each series' traces and failures are bit
    for bit those of its one-series call, whatever the ``ends`` beside
    it.  ``needed`` is ``_innovation_rss``'s, for the full fit only:
    cells it leaves out are +inf with no reason.

    The restricted fit is the full one run on the W * k_max one-factor
    series, summed over factors by one cumulative sum, which carries the
    +inf of the first factor that fails (where ``fit_var`` stops) to
    every larger J; that factor's reason names those cells.
    """
    n_win, _, k_max = scores.shape
    if restricted:
        single, why = _innovation_rss(scores.transpose(0, 2, 1).reshape(n_win * k_max, -1, 1),
                                      np.repeat(ends, k_max), p_max)
        rss = np.cumsum(single.reshape(n_win, k_max, p_max), axis=1)
        failures = [{} for _ in range(n_win)]
        # backward, so the first factor that fails names the cells last
        for s in reversed(range(n_win * k_max)):
            w, l = divmod(s, k_max)
            for (_, m), reason in why[s].items():
                failures[w].update(((j, m), reason) for j in range(l + 1, k_max + 1))
    else:
        rss, failures = _innovation_rss(scores, ends, p_max, needed)
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
        raise DataError("sample and fitted curves live on different grids")
    if m < 0 or m >= sample.n_curves:
        raise ConfigError(f"m must be in [0, {sample.n_curves - 1}], got {m}")
    target = sample.matrix[m:]
    if fitted.n_curves == target.shape[0]:
        diff = target - fitted.matrix
    elif fitted.n_curves == sample.n_curves:
        diff = target - fitted.matrix[m:]
    else:
        raise DataError(
            f"fitted sample has {fitted.n_curves} rows; expected {target.shape[0]} "
            f"or {sample.n_curves}"
        )
    return float(np.mean(diff**2 @ sample.grid.weights))


def _tails(result: FpcaResult, k_max: int) -> np.ndarray:
    """Eigenvalue tails beyond J = 1..k_max."""
    return np.array([result.tail_sum(j) for j in range(1, k_max + 1)])


def _criterion_values(criterion: str, traces: np.ndarray, tails: np.ndarray,
                      t_obs) -> np.ndarray:
    """A criterion on a (k_max, p_max) grid of traces, or on a stack of grids, one t_obs each."""
    k_max, p_max = traces.shape[-2:]
    js = np.arange(1, k_max + 1)[:, None]
    ms = np.arange(1, p_max + 1)[None, :]
    if np.ndim(t_obs):
        t_obs = np.asarray(t_obs)[:, None, None]
    if criterion == "ffpe":
        return (t_obs + js * ms) / t_obs * traces + tails[..., None]
    with np.errstate(divide="ignore"):
        logs = np.log(traces + tails[..., None])
    return logs + penalty(criterion, js, ms, t_obs)


def _needed(criteria, tails: np.ndarray, t_obs: np.ndarray, rss: np.ndarray,
            m: int) -> np.ndarray:
    """Which series may have a cell at lag order m within TIE_RTOL of their best so far.

    ``rss`` (W, k_max, p_max) holds the residual sums of squares found
    so far and +inf elsewhere, its lag order p_max column complete.
    Extra regressors and fewer rows never raise a residual sum of
    squares, so rss(J, p_max) / (T - m) bounds the trace of cell (J, m)
    from below, and every criterion value increases with the trace.  A
    series needs lag order m when, for some criterion, some J has that
    bound at most best + TIE_RTOL * max(1, |best|), ``best`` being its
    lowest value so far.  Its cells that are left out then cannot be
    chosen, nor come within TIE_RTOL of the choice.
    """
    rows = t_obs[:, None, None] - np.arange(1, rss.shape[2] + 1)
    floor = rss[:, :, -1:] / rows
    needed = np.zeros(t_obs.size, dtype=bool)
    for criterion in criteria:
        best = _criterion_values(criterion, rss / rows, tails, t_obs).min(axis=(1, 2))
        bound = _criterion_values(criterion, floor, tails, t_obs)[:, :, m - 1]
        with np.errstate(invalid="ignore"):
            margin = best + TIE_RTOL * np.maximum(1.0, np.abs(best))
        # a NaN margin (best = -inf) needs every lag order
        needed |= ~np.all(bound > margin[:, None], axis=1)
    return needed


def _carried(rank: int, n_curves: int, k_max: int, p_max: int) -> tuple[tuple[int, int], list]:
    """The (k_max, p_max) grid a sample of FPCA rank ``rank`` can carry, and why it was clipped.

    A grid holds at most ``rank`` factors and fewer lags than the
    sample's ``n_curves`` curves.  A larger k_max or p_max is clipped to
    that bound, with one message each, k_max's first; a k_max or p_max
    below 1 is refused.  This is the one rule for the size of a grid;
    the rule for each of its cells is ``dynamics._dof_failure``.
    """
    if k_max < 1 or p_max < 1:
        raise ConfigError(f"k_max and p_max must be positive, got {k_max}, {p_max}")
    carried = (min(k_max, rank), min(p_max, n_curves - 1))
    clips = (f"k_max={k_max} exceeds the sample rank {rank}; clipped",
             f"p_max={p_max} is too large for {n_curves} curves; clipped to {n_curves - 1}")
    return carried, [clip for clip, asked, kept in zip(clips, (k_max, p_max), carried)
                     if kept < asked]


def select_orders(result: FpcaResult, k_max: int, p_max: int,
                  criteria=CRITERIA, restricted: bool = False) -> dict[str, SelectionGrid]:
    """Evaluate several criteria on one shared (J, m) MSE grid.

    The VAR fits are done once; each criterion only re-penalizes them.
    A grid larger than the sample can carry is clipped, with a warning
    (``_carried``).
    """
    return _selected(result, k_max, p_max, criteria, restricted)


def _selected(result: FpcaResult, k_max: int, p_max: int, criteria,
              restricted: bool) -> dict[str, SelectionGrid]:
    """``select_orders``, with its warnings at its caller's caller.

    So both ``select_orders`` and ``fit_ffm``, which calls this, warn at
    their own caller.
    """
    (k_max, p_max), clips = _carried(result.rank, result.n_curves, k_max, p_max)
    for message in clips:
        warnings.warn(message, stacklevel=3)
    return _stacked_grids([result], k_max, p_max, criteria, restricted)[0](stacklevel=4)


def _grids(traces: np.ndarray, failures: dict[tuple[int, int], str], tails: np.ndarray,
           t_obs: int, criteria, restricted: bool, stacklevel: int = 2) -> dict[str, SelectionGrid]:
    """One sample's grids from its innovation traces.

    A failed cell is warned about once, at ``stacklevel`` as
    ``warnings.warn`` counts it from this function, and a criterion with
    every cell failed raises.
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
        grids[criterion] = SelectionGrid(criterion=criterion, k_max=k_max, p_max=p_max, mse=mse,
                                         values=values, chosen=_orders(values), n_obs=t_obs,
                                         restricted=restricted)
    return grids


def _stacked_grids(results, k_max: int, p_max: int, criteria, restricted: bool,
                   chosen_only: bool = False) -> list[partial]:
    """``select_orders`` of several samples, from one kernel call.

    ``results`` is an iterable of FpcaResults, read once: only each one's
    first ``k_max`` score columns and its eigenvalue tails are kept, so a
    caller may pass a generator and hold no whole result.  Each sample
    carries the (k_max, p_max) grid (``_carried`` leaves it unclipped),
    which is not checked here.  Returns one grid builder per sample, in
    order: calling it returns the sample's {criterion: SelectionGrid},
    after warning about its failed cells (at the builder's caller unless
    a ``stacklevel`` is given, counted as in ``_grids``), or raises the
    ``NumericError`` of a criterion whose cells all failed.  Every
    design is factored on its own rows (see the module docstring), so
    each builder's grids, warning and error are bit for bit those of
    ``select_orders`` on its sample alone.

    ``chosen_only`` is for a caller that keeps only each grid's chosen
    orders.  The full-VAR kernel then factors a lag order m < p_max only
    for the samples whose p_max fit does not prove that no cell at m can
    come within TIE_RTOL of their best value (``_needed``), and the cells
    it leaves out hold +inf.  A sample whose p_max fit does not certify
    its whole grid (``_certified``) is evaluated in full.  So the chosen
    orders, warnings and ``NumericError`` are those of the full grid,
    and so are the evaluated cells, bit for bit.  The own-lags grid is
    always evaluated in full.
    """
    _check_criteria(criteria)
    scores, tails = [], []
    for result in results:
        scores.append(result.scores[:, :k_max].copy())   # a view would keep all the scores
        tails.append(_tails(result, k_max))

    ends = np.array([len(s) for s in scores])
    stacked = np.zeros((ends.size, int(ends.max()), k_max))
    for w, series in enumerate(scores):
        stacked[w, :ends[w]] = series
    needed = None
    if chosen_only and not restricted:
        needed = partial(_needed, criteria, np.array(tails), ends)
    traces, failures = _innovation_traces(stacked, ends, p_max, restricted, needed)
    return [partial(_grids, surface, failed, tail, t_obs, criteria, restricted)
            for surface, failed, tail, t_obs in zip(traces, failures, tails, ends.tolist())]


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
