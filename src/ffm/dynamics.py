"""Least-squares VAR estimation on score series and score forecasting.

Scores produced by FPCA are centered by construction, so the default fit
has no intercept.  The restricted variant fits each coordinate as an
independent univariate autoregression on its own lags, which makes every
lag matrix diagonal.

``fit_var_windows`` gives the lag matrices of the row-prefix windows
``scores[:t]`` of one series at once, for the DNS backtest: one stacked
condition screen, one stacked QR and one stacked inverse for all
windows, with each window's design padded by zero rows (its docstring
says when that keeps ``fit_var``'s bits).  ``forecast_windows`` runs
their forecast recursions as one.  ``fit_var`` shares the window kernel,
and ``forecast_scores`` is the one-window call of ``forecast_windows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _frozen
from .errors import ConfigError, NumericError

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


def _lagged_design(scores: np.ndarray, m: int) -> np.ndarray:
    """Rows x_{t-1} = (F_{t-1}', ..., F_{t-m}')' for t = m+1..T."""
    t_obs = scores.shape[0]
    blocks = [scores[m - k : t_obs - k] for k in range(1, m + 1)]
    return np.hstack(blocks)


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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a'b for each item of two stacks."""
    return a.swapaxes(-1, -2) @ b


def _over_rows(fn, rows: np.ndarray, *stacks: np.ndarray) -> np.ndarray:
    """``fn(*stacks)`` for stacked windows, on each window's own ``rows`` (axis -2).

    A BLAS kernel's partial sums may depend on the row count, so a stack
    of several windows, padded with zero rows, is summed window by window;
    a stack of one window has no padding.
    """
    if rows.size == 1:
        return fn(*stacks)
    return np.stack([fn(*(s[w, ..., :n, :] for s in stacks)) for w, n in enumerate(rows)])


def _window_stacks(scores: np.ndarray, m: int, rows: np.ndarray,
                   intercept: bool) -> tuple[np.ndarray, np.ndarray]:
    """Lagged designs (W, L, n) and targets (W, L, J) of the windows, zero past ``rows``.

    A single window keeps the layouts ``fit_var`` has always used (its
    targets keep the caller's strides), so each product below takes the
    same BLAS path as before.
    """
    length = max(rows.tolist())
    design = _lagged_design(scores[: length + m], m)
    if intercept:
        design = np.hstack([design, np.ones((length, 1))])
    targets = scores[m : length + m]
    if rows.size == 1:
        return design[None], targets[None]
    designs = np.zeros((rows.size,) + design.shape)
    stacked = np.zeros((rows.size,) + targets.shape)
    for w, n in enumerate(rows.tolist()):
        designs[w, :n] = design[:n]
        stacked[w, :n] = targets[:n]
    return designs, stacked


def _own_lags(design: np.ndarray, targets: np.ndarray,
              m: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (W, J, L, m) and (W, J, L, 1) of each coordinate's own-lag regression."""
    n_win, length, _ = design.shape
    j_dim = targets.shape[-1]
    own = design.reshape(n_win, length, m, j_dim).transpose(0, 3, 1, 2)
    return own, targets.swapaxes(1, 2)[..., None]


def _solve(scores: np.ndarray, m: int, ends: np.ndarray, restricted: bool,
           intercept: bool) -> tuple:
    """Checks and QR solve of the windows ``scores[:t]``, t in ``ends``.

    Returns ``(failures, design, targets, coef, gram_inv_diag)``:
    ``failures[i]`` is the NumericError message that refuses window i
    (too few rows, or a Gram matrix past the condition limit), or None,
    and the stacks hold the windows that pass, in order (all None when
    none does).
    """
    n_reg = m if restricted else scores.shape[1] * m + intercept
    failures = [_dof_failure(t - m, n_reg) for t in ends.tolist()]
    live = [i for i, why in enumerate(failures) if why is None]
    if not live:
        return failures, None, None, None, None
    rows = ends[live] - m
    design, targets = _window_stacks(scores, m, rows, intercept)
    x = _own_lags(design, targets, m)[0] if restricted else design
    conds = np.linalg.cond(_over_rows(_cross, rows, x, x)).reshape(rows.size, -1)
    bad = ~(conds <= CONDITION_LIMIT)
    failed = bad.any(axis=1)
    # the restricted fit names its first coordinate that fails
    first = bad.argmax(axis=1)
    for k in np.flatnonzero(failed).tolist():
        failures[live[k]] = _condition_failure(conds[k, first[k]])
    if failed.all():
        return failures, None, None, None, None
    if failed.any():
        rows = rows[~failed]
        length = max(rows.tolist())
        design, targets = design[~failed, :length], targets[~failed, :length]
    x, y = _own_lags(design, targets, m) if restricted else (design, targets)
    q, r = np.linalg.qr(x)
    r_inv = np.linalg.inv(r)
    # with X = QR, G^{-1} = R^{-1} R^{-T}, so its diagonal (for standard
    # errors) holds the squared row norms of R^{-1}; unlike the normal
    # equations, no X'X enters the solve, so near-collinear designs lose
    # only about cond(X) * eps
    coef = r_inv @ _over_rows(_cross, rows, q, y)
    gram_inv_diag = np.einsum("...ij,...ij->...i", r_inv, r_inv)
    return failures, design, targets, coef, gram_inv_diag


def _lag_matrices(coef: np.ndarray, m: int, j_dim: int, restricted: bool) -> np.ndarray:
    """Lag matrices (W, m, J, J) of solved windows; an intercept row is left out."""
    if restricted:
        lags = np.zeros((coef.shape[0], m, j_dim, j_dim))
        diag = np.arange(j_dim)
        lags[:, :, diag, diag] = coef[..., 0].swapaxes(1, 2)
        return lags
    jm = j_dim * m
    return np.ascontiguousarray(coef[:, :jm].reshape(-1, m, j_dim, j_dim).swapaxes(-1, -2))


def fit_var_windows(scores: np.ndarray, m: int, ends,
                    restricted: bool = False) -> tuple[list, np.ndarray]:
    """Lag matrices of the VAR(m) of every window ``scores[:t]``, t in ``ends``, at once.

    Returns ``(failures, lags)``.  ``failures[w]`` is the NumericError
    message that ``fit_var(scores[:ends[w]], m, restricted)`` raises, or
    None; ``lags`` (F, m, J, J) holds that call's lag matrices bit for bit
    for the F windows that fit, in window order.

    Windows that fail the degrees-of-freedom check are dropped first; the
    others go through one stacked condition screen of their Gram
    matrices, and those that pass through one QR of their lagged designs,
    stacked with zero rows after each window's own, and one inverse of R.
    A restricted fit stacks the J own-lag regressions of every window the
    same way.  Products that sum over rows (X'X and Q'Y) are taken on each
    window's own rows, because BLAS partial sums can depend on the row
    count.

    Only LAPACK's QR sees the padding, and it leaves each window's Q and
    R as its own design gives them for the DNS backtest's designs of 1 to
    3 columns, which the tests check.  That is an observation about the
    LAPACK in use, not a guarantee: wider designs break it (padded by six
    rows, the 72-column lag-8 selection design of the 177-row window of
    the seed-7 ``perfbench`` backtest panel gets an R that differs in 525
    entries, so the selection kernel factors each series on its own
    rows), and one 9-column design with exactly collinear leading rows
    got an R that differs in the last bit once padded by 4 or more rows.  A stack of several windows is
    C-contiguous, so its windows match their one-window calls on
    C-contiguous ``scores``.  Every window needs more than m finite rows:
    a NaN row would poison the stack.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    j_dim = scores.shape[1]
    failures, _, _, coef, _ = _solve(scores, m, np.asarray(ends, dtype=int).reshape(-1),
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
    window, which keeps the caller's layout.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if scores.ndim != 2:
        raise ValueError("scores must be a (T, J) matrix")
    t_obs, j_dim = scores.shape
    if m < 1:
        raise ValueError(f"lag order must be at least 1, got {m}")
    if t_obs <= m:
        raise ValueError(f"need more than m={m} observations, got {t_obs}")
    if restricted and intercept:
        raise ValueError("intercept is not supported for the restricted fit")
    failures, design, targets, coef, gram_inv_diag = _solve(
        scores, m, np.array([t_obs]), restricted, intercept)
    if failures[0] is not None:
        raise NumericError(failures[0])
    lags = _lag_matrices(coef, m, j_dim, restricted)[0]
    x, y, coef, gram_inv_diag = design[0], targets[0], coef[0], gram_inv_diag[0]
    n = t_obs - m
    stderr = np.zeros((m, j_dim, j_dim))
    if restricted:
        x_own, y_own = _own_lags(x[None], y[None], m)
        resid = y_own[0] - x_own[0] @ coef
        residuals = np.empty_like(y)   # laid out like the targets
        residuals[...] = resid[..., 0].T
        own = residuals.T[..., None]
        s2 = _cross(own, own)[:, 0] / n
        diag = np.arange(j_dim)
        stderr[:, diag, diag] = np.sqrt(s2 * gram_inv_diag).T
    else:
        residuals = y - x @ coef
        sigma_diag = np.einsum("ti,ti->i", residuals, residuals) / n
        se_stack = np.sqrt(np.outer(sigma_diag, gram_inv_diag[: j_dim * m]))
        for lag in range(m):
            stderr[lag] = se_stack[:, lag * j_dim : (lag + 1) * j_dim]
    return VarFit(
        coefficients=_frozen(lags),
        intercept=_frozen(coef[-1]) if intercept else None,
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
        raise ValueError(
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
