"""Least-squares VAR estimation on score series and score forecasting.

Scores produced by FPCA are centered by construction, so the default fit
has no intercept.  The restricted variant fits each coordinate as an
independent univariate autoregression on its own lags, which makes every
lag matrix diagonal.

Every fit is one least-squares routine (``_solve``): a QR of [X Y] on
the fit's own rows, with X laid out factor major as the selection
kernel lays it out (``_lagged_xy``), then one batched condition check,
inverse and product on the R factors.  ``fit_var_windows`` gives the
lag matrices of the row-prefix windows ``scores[:t]`` of one series at
once, for the DNS backtest, and ``fit_var`` is its one-window call.
``forecast_windows`` runs the windows' forecast recursions as one, and
``forecast_scores`` is its one-window call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _frozen
from .errors import ConfigError, DataError, NumericError

__all__ = [
    "VarFit",
    "fit_var",
    "fit_var_windows",
    "forecast_scores",
    "forecast_windows",
    "companion_spectral_radius",
    "coefficient_matrix",
    "max_abs_tstat",
]

# Gram matrices of the lagged design worse conditioned than this are
# rejected instead of silently producing garbage coefficients.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class VarFit:
    """A fitted VAR(m) for a J-dimensional series.

    Attributes
    ----------
    coefficients : ndarray, shape (m, J, J)
        Lag matrices A_1..A_m; diagonal when ``restricted``.
    intercept : ndarray or None
        Constant term, present only when requested at fit time.
    residuals : ndarray, shape (T - m, J)
        One-step residuals for t = m+1..T.
    sigma_eta : ndarray, shape (J, J)
        Residual covariance with divisor T - m.
    stderr : ndarray, shape (m, J, J)
        OLS standard errors per coefficient; entries constrained to zero
        by the restricted fit hold 0.
    restricted : bool
        Whether the diagonal (own-lags-only) variant was fitted.
    n_obs : int
        Length T of the score series used.
    """

    coefficients: np.ndarray
    intercept: np.ndarray | None
    residuals: np.ndarray
    sigma_eta: np.ndarray
    stderr: np.ndarray
    restricted: bool
    n_obs: int

    @property
    def order(self) -> int:
        return self.coefficients.shape[0]

    @property
    def dim(self) -> int:
        return self.coefficients.shape[1]


def _lagged_xy(scores: np.ndarray, m: int, rows: int, intercept: bool = False) -> np.ndarray:
    """[X Y] of the VAR(m) of a (..., L, J) score series, for target rows m..m+rows-1.

    X is factor major: column l*m + k - 1 holds factor l at lag k, so the
    design of the leading J' factors is the leading J'*m columns.  An
    intercept adds a column of ones after X.  Leading axes are a stack of
    series.
    """
    j_dim = scores.shape[-1]
    n_x = j_dim * m
    xy = np.empty(scores.shape[:-2] + (rows, n_x + intercept + j_dim))
    for k in range(1, m + 1):
        xy[..., k - 1:n_x:m] = scores[..., m - k:m - k + rows, :]
    xy[..., n_x:n_x + intercept] = 1.0
    xy[..., n_x + intercept:] = scores[..., m:rows + m, :]
    return xy


def _r_factors(blocks: list) -> np.ndarray:
    """R factors of the QR of each [X Y] in ``blocks`` on its own rows, stacked.

    The blocks share every axis but their rows; an R shorter than the
    tallest one has zero rows below it.  Mode "raw" gives R' with the
    Householder vectors below its diagonal, which one triu of the stack
    clears, instead of mode "r"'s triu per block.
    """
    width = blocks[0].shape[-1]
    height = min(max(b.shape[-2] for b in blocks), width)
    r = np.zeros((len(blocks), *blocks[0].shape[:-2], height, width))
    for s, block in enumerate(blocks):
        rows = min(block.shape[-2], width)
        r[s, ..., :rows, :] = np.linalg.qr(block, mode="raw")[0][..., :rows].swapaxes(-1, -2)
    return np.triu(r)


def _condition_failure(cond) -> str | None:
    """Why a Gram matrix of 2-norm condition ``cond`` is refused, or None."""
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        return (f"lagged design is numerically singular "
                f"(condition {cond:.3e} > {CONDITION_LIMIT:.0e})")
    return None


def _dof_failure(rows: int, regressors: int) -> str | None:
    """Why a fit of ``rows`` observations on ``regressors`` is refused, or None."""
    if rows <= regressors:
        return (f"lagged design of {rows} observations leaves no residual degrees of "
                f"freedom for {regressors} regressors")
    return None


def _solve(scores: np.ndarray, m: int, ends: np.ndarray, restricted: bool,
           intercept: bool) -> tuple:
    """Checks and least-squares solve of the VAR(m) of the windows ``scores[:t]``, t in ``ends``.

    Returns ``(failures, xy, coef, gram_inv_diag)``.  ``failures[i]`` is
    the NumericError message that refuses window i (too few rows, or a
    Gram matrix past the condition limit), or None.  ``xy`` is the [X Y]
    of the longest window, whose leading rows are every shorter window's;
    a restricted fit has one (L, m + 1) regression per coordinate, its
    own lags and itself, stacked first.  ``coef`` and ``gram_inv_diag``
    hold the windows that pass, in order (None when none does).

    Each window's [X Y] is factored by a QR of its own rows, into
    [[R_x, R_xy], [0, R_y]].  The rest is batched over the windows' R_x
    and R_xy, which share one shape: a window is refused when
    cond(R_x)^2 exceeds CONDITION_LIMIT, and the coefficients are
    inv(R_x) @ R_xy.  With X = QR, (X'X)^{-1} = R_x^{-1} R_x^{-T}, so its
    diagonal, for standard errors, holds the squared row norms of
    inv(R_x).  No X'X enters, so near-collinear designs lose only about
    cond(X) * eps.  A non-finite score in the rows the windows read,
    ``scores[:max(ends)]``, is a DataError, raised before any solve.
    """
    if ends.size:
        bad = ~np.isfinite(scores[:ends.max()])
        if bad.any():
            row, col = np.argwhere(bad)[0].tolist()
            raise DataError(f"scores must be finite; row {row} column {col} "
                            f"holds {scores[row, col]}")
    n_reg = m if restricted else scores.shape[1] * m + intercept
    failures = [_dof_failure(t - m, n_reg) for t in ends.tolist()]
    live = [i for i, why in enumerate(failures) if why is None]
    if not live:
        return failures, None, None, None
    rows = (ends[live] - m).tolist()
    # a restricted fit regresses each coordinate, as a one-factor series, on its own lags
    xy = _lagged_xy(scores.T[..., None] if restricted else scores, m, max(rows), intercept)
    r = _r_factors([xy[..., :n, :] for n in rows])[..., :n_reg, :]
    r_x, r_xy = r[..., :n_reg], r[..., n_reg:]
    # X'X = R_x'R_x: its condition number is that of R_x squared, and no X'X is formed
    conds = (np.linalg.cond(r_x) ** 2).reshape(len(live), -1)
    bad = ~(conds <= CONDITION_LIMIT)
    failed = bad.any(axis=1)
    # the restricted fit names its first coordinate that fails
    first = bad.argmax(axis=1)
    for k in np.flatnonzero(failed).tolist():
        failures[live[k]] = _condition_failure(conds[k, first[k]])
    if failed.all():
        return failures, xy, None, None
    r_inv = np.linalg.inv(r_x[~failed])
    coef = r_inv @ r_xy[~failed]
    return failures, xy, coef, np.einsum("...ij,...ij->...i", r_inv, r_inv)


def _lag_matrices(coef: np.ndarray, m: int, j_dim: int, restricted: bool) -> np.ndarray:
    """Lag matrices (W, m, J, J) of solved windows; an intercept row is left out."""
    if restricted:
        lags = np.zeros((coef.shape[0], m, j_dim, j_dim))
        diag = np.arange(j_dim)
        lags[:, :, diag, diag] = coef[..., 0].swapaxes(1, 2)
        return lags
    # row l*m + k - 1 of a window's coefficients holds A_k[:, l]
    return np.ascontiguousarray(
        coef[:, :j_dim * m].reshape(-1, j_dim, m, j_dim).transpose(0, 2, 3, 1))


def fit_var_windows(scores: np.ndarray, m: int, ends,
                    restricted: bool = False) -> tuple[list, np.ndarray]:
    """Lag matrices of the VAR(m) of every window ``scores[:t]``, t in ``ends``, at once.

    Returns ``(failures, lags)``.  ``failures[w]`` is the NumericError
    message that ``fit_var(scores[:ends[w]], m, restricted)`` raises, or
    None; ``lags`` (F, m, J, J) holds that call's lag matrices bit for bit
    for the F windows that fit, in window order.

    ``fit_var`` is the one-window call of the same solve: each window is
    factored on its own rows, and every later step works on each
    window's R factor alone, so no window's numbers depend on the
    windows beside it.  Every window needs more than m rows, and the rows
    ``scores[:max(ends)]`` must be finite (a DataError otherwise); later
    rows are not read.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    j_dim = scores.shape[1]
    failures, _, coef, _ = _solve(scores, m, np.asarray(ends, dtype=int).reshape(-1),
                                  restricted, False)
    if coef is None:
        return failures, np.empty((0, m, j_dim, j_dim))
    return failures, _lag_matrices(coef, m, j_dim, restricted)


def fit_var(scores: np.ndarray, m: int, restricted: bool = False,
            intercept: bool = False) -> VarFit:
    """Conditional least-squares VAR(m) fit on a (T, J) score matrix.

    Parameters
    ----------
    scores : ndarray, shape (T, J)
        Score series; T must exceed m.
    m : int
        Lag order, at least 1.
    restricted : bool
        Fit J independent univariate AR(m) models instead of the full
        VAR, yielding diagonal lag matrices.
    intercept : bool
        Include a constant term (off by default; scores are centered).

    The checks and the solve are those of ``fit_var_windows`` for one
    window.  A bad lag order or option is a ConfigError, a score matrix
    of the wrong shape or length, or with a non-finite entry, a
    DataError, and a design that leaves no residual degree of freedom or
    is too badly conditioned a NumericError.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if scores.ndim != 2:
        raise DataError("scores must be a (T, J) matrix")
    t_obs, j_dim = scores.shape
    if m < 1:
        raise ConfigError(f"lag order must be at least 1, got {m}")
    if t_obs <= m:
        raise DataError(f"need more than m={m} observations, got {t_obs}")
    if restricted and intercept:
        raise ConfigError("intercept is not supported for the restricted fit")
    failures, xy, coef, gram_inv_diag = _solve(scores, m, np.array([t_obs]),
                                               restricted, intercept)
    if failures[0] is not None:
        raise NumericError(failures[0])
    n = t_obs - m
    n_reg = coef.shape[-2]
    resid = xy[..., n_reg:] - xy[..., :n_reg] @ coef[0]
    # a restricted fit has one (n, 1) residual column per coordinate
    residuals = resid[..., 0].T if restricted else resid
    sigma_diag = np.einsum("ti,ti->i", residuals, residuals) / n
    stderr = np.zeros((m, j_dim, j_dim))
    if restricted:
        diag = np.arange(j_dim)
        stderr[:, diag, diag] = np.sqrt(sigma_diag[:, None] * gram_inv_diag[0]).T
    else:
        se = np.sqrt(np.outer(sigma_diag, gram_inv_diag[0, :j_dim * m]))
        stderr[...] = se.reshape(j_dim, j_dim, m).transpose(2, 0, 1)
    return VarFit(
        coefficients=_frozen(_lag_matrices(coef, m, j_dim, restricted)[0]),
        intercept=_frozen(coef[0, -1]) if intercept else None,
        residuals=_frozen(residuals),
        sigma_eta=_frozen(residuals.T @ residuals / n),
        stderr=_frozen(stderr),
        restricted=restricted,
        n_obs=t_obs,
    )


def coefficient_matrix(fit: VarFit) -> np.ndarray:
    """Lag matrices stacked side by side: [A_1 ... A_m], shape (J, J*m)."""
    return np.hstack(list(fit.coefficients))


def forecast_scores(fit: VarFit, history: np.ndarray, h: int) -> np.ndarray:
    """Iterated h-step forecasts of the score series.

    Parameters
    ----------
    fit : VarFit
    history : ndarray, shape (>= m, J)
        Most recent scores, oldest first; only the last m rows are used.
    h : int
        Number of steps ahead, at least 1.

    Returns
    -------
    ndarray, shape (h, J)
        Forecasts for T+1..T+h.
    """
    if h < 1:
        raise ConfigError(f"horizon must be at least 1, got {h}")
    history = np.atleast_2d(np.asarray(history, dtype=float))
    m, j_dim = fit.order, fit.dim
    if history.shape[0] < m or history.shape[1] != j_dim:
        raise DataError(
            f"history must provide at least {m} rows of dimension {j_dim}, "
            f"got shape {history.shape}"
        )
    lags = history[::-1][:m][None].copy()  # a reversed view would change the BLAS path
    intercept = None if fit.intercept is None else fit.intercept[None]
    return forecast_windows(fit.coefficients[None], intercept, lags, h)[0]


def forecast_windows(coefficients: np.ndarray, intercept: np.ndarray | None,
                     lags: np.ndarray, h: int) -> np.ndarray:
    """Iterated h-step forecasts of W fitted VARs at once.

    ``coefficients`` is (W, m, J, J), ``intercept`` (W, J) or None and
    ``lags`` (W, m, J), most recent first; returns (W, h, J).  Window w
    gets ``forecast_scores`` of its fit bit for bit: each step is its
    (J, J*m) @ (J*m,) product on a C-contiguous [A_1 ... A_m], as
    ``coefficient_matrix`` lays it out.
    """
    n_win, m, j_dim, _ = coefficients.shape
    stacked = np.ascontiguousarray(
        coefficients.swapaxes(1, 2).reshape(n_win, j_dim, m * j_dim))
    out = np.empty((n_win, h, j_dim))
    for step in range(h):
        nxt = (stacked @ lags.reshape(n_win, m * j_dim)[..., None])[..., 0]
        if intercept is not None:
            nxt = nxt + intercept
        out[:, step] = nxt
        lags = np.concatenate([nxt[:, None], lags[:, :-1]], axis=1)
    return out


def companion_spectral_radius(coefficients: np.ndarray) -> float:
    """Spectral radius of the companion matrix of lag matrices A_1..A_m.

    Accepts a (m, J, J) stack or a VarFit.  A value below 1 means the
    recursion is stable (stationary).
    """
    if isinstance(coefficients, VarFit):
        coefficients = coefficients.coefficients
    coefficients = np.asarray(coefficients, dtype=float)
    if coefficients.ndim == 2:
        coefficients = coefficients[None]
    return float(np.max(np.abs(np.linalg.eigvals(_companion(coefficients)))))


def _companion(coefficients: np.ndarray) -> np.ndarray:
    """Companion matrix of a (m, J, J) stack A_1..A_m: [A_1 ... A_m] above [I 0]."""
    m, j_dim, _ = coefficients.shape
    comp = np.zeros((m * j_dim, m * j_dim))
    comp[:j_dim] = np.hstack(list(coefficients))
    comp[j_dim:, : (m - 1) * j_dim] = np.eye((m - 1) * j_dim)
    return comp


def max_abs_tstat(fit: VarFit) -> float:
    """Largest |coefficient / standard error| over unconstrained entries.

    A small value (conventionally below 2) indicates the fitted dynamics
    are statistically indistinguishable from noise.
    """
    mask = fit.stderr > 0
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(fit.coefficients[mask] / fit.stderr[mask])))
