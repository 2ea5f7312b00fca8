"""Least-squares VAR estimation on score series and score forecasting.

Scores produced by FPCA are centered by construction, so the default fit
has no intercept.  The restricted variant fits each coordinate as an
independent univariate autoregression on its own lags, which makes every
lag matrix diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _frozen
from .errors import NumericError

__all__ = [
    "VarFit",
    "fit_var",
    "forecast_scores",
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


def _check_conditioning(gram: np.ndarray) -> None:
    """Raise NumericError when ``gram``'s 2-norm condition exceeds CONDITION_LIMIT."""
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericError(
            f"lagged design is numerically singular (condition {cond:.3e} > {CONDITION_LIMIT:.0e})"
        )


def _check_degrees_of_freedom(rows: int, regressors: int) -> None:
    """Raise NumericError when a fit of ``rows`` observations leaves no residual."""
    if rows <= regressors:
        raise NumericError(
            f"lagged design of {rows} observations leaves no residual degrees of "
            f"freedom for {regressors} regressors"
        )


def _solve_ols(design: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS through a QR factorization of the design, with a condition guard.

    Returns the coefficient matrix (regressors x targets) and the
    diagonal of the inverted Gram matrix (for standard errors).  With
    X = QR, G^{-1} = R^{-1} R^{-T}, so that diagonal holds the squared row
    norms of R^{-1}; unlike the normal equations, no product X'X enters
    the solve, so near-collinear designs lose only about cond(X) * eps.
    """
    _check_degrees_of_freedom(*design.shape)
    _check_conditioning(design.T @ design)
    q, r = np.linalg.qr(design)
    r_inv = np.linalg.inv(r)
    coef = r_inv @ (q.T @ targets)
    gram_inv_diag = np.einsum("ij,ij->i", r_inv, r_inv)
    return coef, gram_inv_diag


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
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    if scores.ndim != 2:
        raise ValueError("scores must be a (T, J) matrix")
    t_obs, j_dim = scores.shape
    if m < 1:
        raise ValueError(f"lag order must be at least 1, got {m}")
    if t_obs <= m:
        raise ValueError(f"need more than m={m} observations, got {t_obs}")

    targets = scores[m:]
    design = _lagged_design(scores, m)
    coeffs = np.zeros((m, j_dim, j_dim))
    stderr = np.zeros((m, j_dim, j_dim))
    const = None

    if restricted:
        if intercept:
            raise ValueError("intercept is not supported for the restricted fit")
        residuals = np.empty_like(targets)
        for l in range(j_dim):
            own = design[:, l::j_dim]  # own lags of coordinate l, lags 1..m
            coef, gram_inv_diag = _solve_ols(own, targets[:, l])
            residuals[:, l] = targets[:, l] - own @ coef
            coeffs[:, l, l] = coef
            s2 = residuals[:, l] @ residuals[:, l] / (t_obs - m)
            stderr[:, l, l] = np.sqrt(s2 * gram_inv_diag)
    else:
        full = np.hstack([design, np.ones((t_obs - m, 1))]) if intercept else design
        coef, gram_inv_diag = _solve_ols(full, targets)
        residuals = targets - full @ coef
        stacked = coef[: j_dim * m].T  # (J, J*m), blocks A_1..A_m
        for k in range(m):
            coeffs[k] = stacked[:, k * j_dim : (k + 1) * j_dim]
        if intercept:
            const = _frozen(coef[-1])
        sigma_diag = np.einsum("ti,ti->i", residuals, residuals) / (t_obs - m)
        se_stack = np.sqrt(np.outer(sigma_diag, gram_inv_diag[: j_dim * m]))
        for k in range(m):
            stderr[k] = se_stack[:, k * j_dim : (k + 1) * j_dim]

    sigma_eta = residuals.T @ residuals / (t_obs - m)
    return VarFit(
        coefficients=_frozen(coeffs),
        intercept=const,
        residuals=_frozen(residuals),
        sigma_eta=_frozen(sigma_eta),
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
        raise ValueError(f"horizon must be at least 1, got {h}")
    history = np.atleast_2d(np.asarray(history, dtype=float))
    m, j_dim = fit.order, fit.dim
    if history.shape[0] < m or history.shape[1] != j_dim:
        raise ValueError(
            f"history must provide at least {m} rows of dimension {j_dim}, "
            f"got shape {history.shape}"
        )
    stacked = coefficient_matrix(fit)
    # lags[k] holds the value at T + step - 1 - k, i.e. most recent first
    lags = history[::-1][:m].copy()
    out = np.empty((h, j_dim))
    for step in range(h):
        x = lags.reshape(-1)
        nxt = stacked @ x
        if fit.intercept is not None:
            nxt = nxt + fit.intercept
        out[step] = nxt
        lags = np.vstack([nxt, lags[:-1]])
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
