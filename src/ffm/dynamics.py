"""Least-squares VAR estimation on score series and score forecasting.

Scores produced by FPCA are centered by construction, so the default fit
has no intercept.  The restricted variant fits each coordinate as an
independent univariate autoregression on its own lags, which makes every
lag matrix diagonal.

``fit_var_windows`` fits the row-prefix windows ``scores[:t]`` of one
series at once, for the DNS backtest: one stacked condition screen, one
stacked QR and one stacked inverse for all windows, with each window's
design padded by zero rows.  ``forecast_windows`` runs their forecast
recursions as one.  ``fit_var`` and ``forecast_scores`` are their
one-window cases.  A window of a stack gets the bits of its one-window
call only where LAPACK's QR leaves R unchanged by the padding: the DNS
designs of 1 to 3 columns, where the tests check it.  Wider designs
break it; on the seed-7 ``backtest-bic`` panel of ``perfbench`` the
selection's lagged designs changed R at t = 177, m = 8 (525 entries,
up to 4.4e-13 relative), t = 291, m = 4 (180) and t = 236, m = 7 (4),
which is why the selection stack guards its choices instead
(``selection._stacked_choices``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _frozen
from .errors import NumericError

__all__ = [
    "VarFit",
    "VarWindows",
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


def _solve(scores: np.ndarray, m: int, rows: np.ndarray, restricted: bool,
           intercept: bool) -> tuple:
    """Condition screen and QR solve of windows with ``rows`` observations each.

    Every window must leave residual degrees of freedom.  Returns
    ``(refused, kept, design, targets, coef, gram_inv_diag)``:
    ``refused[i]`` is why window i fails the screen, or None, and the
    stacks hold the windows listed in ``kept``, in that order.
    """
    design, targets = _window_stacks(scores, m, rows, intercept)
    x = _own_lags(design, targets, m)[0] if restricted else design
    conds = np.linalg.cond(_over_rows(_cross, rows, x, x)).reshape(rows.size, -1)
    bad = ~(conds <= CONDITION_LIMIT)
    failed = bad.any(axis=1)
    # the restricted fit names its first coordinate that fails
    first = bad.argmax(axis=1)
    refused = [_condition_failure(conds[i, first[i]]) if why else None
               for i, why in enumerate(failed.tolist())]
    kept = np.flatnonzero(~failed)
    if kept.size < rows.size:
        rows = rows[kept]
        length = max(rows.tolist(), default=0)
        design, targets = design[kept, :length], targets[kept, :length]
    if not kept.size:
        return refused, kept, design, targets, None, None
    x, y = _own_lags(design, targets, m) if restricted else (design, targets)
    q, r = np.linalg.qr(x)
    r_inv = np.linalg.inv(r)
    # with X = QR, G^{-1} = R^{-1} R^{-T}, so its diagonal (for standard
    # errors) holds the squared row norms of R^{-1}; unlike the normal
    # equations, no X'X enters the solve, so near-collinear designs lose
    # only about cond(X) * eps
    coef = r_inv @ _over_rows(_cross, rows, q, y)
    gram_inv_diag = np.einsum("...ij,...ij->...i", r_inv, r_inv)
    return refused, kept, design, targets, coef, gram_inv_diag


def _lag_matrices(coef: np.ndarray, m: int, j_dim: int, restricted: bool,
                  intercept: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Lag matrices (W, m, J, J) and constants (W, J) or None of solved windows."""
    if restricted:
        lags = np.zeros((coef.shape[0], m, j_dim, j_dim))
        diag = np.arange(j_dim)
        lags[:, :, diag, diag] = coef[..., 0].swapaxes(1, 2)
        return lags, None
    jm = j_dim * m
    lags = np.ascontiguousarray(coef[:, :jm].reshape(-1, m, j_dim, j_dim).swapaxes(-1, -2))
    return lags, coef[:, -1] if intercept else None


def _var_fit(x: np.ndarray, y: np.ndarray, coef: np.ndarray, gram_inv_diag: np.ndarray,
             lags: np.ndarray, const: np.ndarray | None, restricted: bool) -> VarFit:
    """A window's fit with its residuals, residual covariance and standard errors.

    ``x`` and ``y`` are the window's own rows: the residual moments sum
    over rows, so they are taken as a one-window fit takes them.
    """
    n, (m, j_dim, _) = x.shape[0], lags.shape
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
        intercept=None if const is None else _frozen(const),
        residuals=_frozen(residuals),
        sigma_eta=_frozen(residuals.T @ residuals / n),
        stderr=_frozen(stderr),
        restricted=restricted,
        n_obs=n + m,
    )


@dataclass(frozen=True, eq=False)
class VarWindows:
    """VAR(m) fits of the row-prefix windows ``scores[:t]``, t in ``ends``, of one series.

    ``failures[w]`` is the NumericError message that
    ``fit_var(scores[:ends[w]], m, ...)`` raises, or None;
    ``coefficients`` (W, m, J, J) and ``intercept`` (W, J) or None hold
    that call's lag matrices and constant bit for bit, NaN where it
    fails.  ``fit(w)`` is that call's whole ``VarFit``.  The remaining
    fields are the stacks of the fitted windows, in the order of their
    indices in ``fitted``.
    """

    m: int
    restricted: bool
    ends: np.ndarray
    failures: list
    coefficients: np.ndarray
    intercept: np.ndarray | None
    fitted: list
    design: np.ndarray | None
    targets: np.ndarray | None
    coef: np.ndarray | None
    gram_inv_diag: np.ndarray | None

    def fit(self, w: int) -> VarFit:
        """Window w's fit with its residuals, residual covariance and standard errors."""
        if self.failures[w] is not None:
            raise NumericError(self.failures[w])
        k, n = self.fitted.index(w), int(self.ends[w]) - self.m
        return _var_fit(self.design[k, :n], self.targets[k, :n], self.coef[k],
                        self.gram_inv_diag[k], self.coefficients[w],
                        None if self.intercept is None else self.intercept[w], self.restricted)


def fit_var_windows(scores: np.ndarray, m: int, ends, restricted: bool = False,
                    intercept: bool = False) -> VarWindows:
    """Least-squares VAR(m) on every window ``scores[:t]``, t in ``ends``, at once.

    Windows that fail the degrees-of-freedom check are dropped first; the
    others go through one stacked condition screen of their Gram
    matrices, and those that pass through one QR of their lagged designs,
    stacked with zero rows after each window's own, and one inverse of R.
    A restricted fit stacks the J own-lag regressions of every window the
    same way.  Products that sum over rows (X'X, Q'Y and, in ``fit``, the
    residual moments) are taken on each window's own rows.

    For the DNS backtest's designs of 1 to 3 columns, the padding leaves
    each window's Q and R as its own design gives them.  That is an
    observation about the LAPACK in use, which the tests check for those
    designs, not a guarantee: wider designs break it (see the module
    docstring), and one 9-column design with exactly collinear leading
    rows got an R that differs in the last bit once padded by 4 or more
    rows.  A stack of several
    windows is C-contiguous, so its windows match their one-window calls
    on C-contiguous ``scores``; a single window keeps the caller's layout,
    as ``fit_var`` always has.  Every window needs more than m finite
    rows: a NaN row would poison the stack.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    j_dim = scores.shape[1]
    ends = np.asarray(ends, dtype=int).reshape(-1)
    n_reg = m if restricted else j_dim * m + intercept
    failures = [_dof_failure(t - m, n_reg) for t in ends.tolist()]
    live = [i for i, why in enumerate(failures) if why is None]
    design = targets = coef = gram_inv_diag = None
    coeffs = np.full((ends.size, m, j_dim, j_dim), np.nan)
    const = np.full((ends.size, j_dim), np.nan) if intercept else None
    if live:
        refused, kept, design, targets, coef, gram_inv_diag = _solve(
            scores, m, ends[live] - m, restricted, intercept)
        for i, why in zip(live, refused):
            failures[i] = why
        live = [live[k] for k in kept.tolist()]
    if live:
        lags, consts = _lag_matrices(coef, m, j_dim, restricted, intercept)
        coeffs[live] = lags
        if intercept:
            const[live] = consts
    return VarWindows(m, restricted, ends, failures, coeffs, const,
                      live, design, targets, coef, gram_inv_diag)


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

    This is the one-window case of ``fit_var_windows``: the same checks
    and solve, without the bookkeeping of a stack.
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
    why = _dof_failure(t_obs - m, m if restricted else j_dim * m + intercept)
    if why is not None:
        raise NumericError(why)
    refused, _, design, targets, coef, gram_inv_diag = _solve(
        scores, m, np.array([t_obs - m]), restricted, intercept)
    if refused[0] is not None:
        raise NumericError(refused[0])
    lags, const = _lag_matrices(coef, m, j_dim, restricted, intercept)
    return _var_fit(design[0], targets[0], coef[0], gram_inv_diag[0], lags[0],
                    None if const is None else const[0], restricted)


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
        raise ValueError(f"horizon must be at least 1, got {h}")
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
    m, j_dim, _ = coefficients.shape
    comp = np.zeros((m * j_dim, m * j_dim))
    comp[:j_dim] = np.hstack(list(coefficients))
    if m > 1:
        comp[j_dim:, : (m - 1) * j_dim] = np.eye((m - 1) * j_dim)
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def max_abs_tstat(fit: VarFit) -> float:
    """Largest |coefficient / standard error| over unconstrained entries.

    A small value (conventionally below 2) indicates the fitted dynamics
    are statistically indistinguishable from noise.
    """
    mask = fit.stderr > 0
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(fit.coefficients[mask] / fit.stderr[mask])))
