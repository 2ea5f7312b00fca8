"""Dynamic Nelson-Siegel benchmark for yield curve panels.

The three loadings (level, slope, curvature) are fixed functions of
maturity with a single decay parameter; factor paths come from
cross-sectional least squares date by date on the observed maturities,
and their dynamics from an autoregression without constant on the raw
(not demeaned) factor series.

The fit has two steps.  The cross-section step (``dns_betas``) groups
rows by missingness pattern and takes one SVD per pattern's loading
block, which gives both lstsq's rank test and a 3 x n pseudo-inverse.
Each row's betas are that pseudo-inverse applied to the row in a fixed
order of elementwise products and sums, with no BLAS reduction across
rows, so they depend on the row alone: a panel's leading rows get
bit-for-bit the betas they get inside any longer panel.  The dynamics
step is ``fit_var`` on the betas.

An expanding-window backtest (``backtest.Dns``) therefore solves the
cross-section once and fits the VAR(1) of every origin's leading rows
in chunks of windows (``dynamics.fit_var_windows``): a QR of each
window's own rows, then one batched check and solve per chunk;
``backtest`` says why its forecasts equal ``dns_forecast`` of
``fit_dns`` on each truncated panel bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, _frozen, _patterns
from .dynamics import VarFit, fit_var, forecast_scores
from .errors import ConfigError, DataError
from .pipeline import ForecastResult

__all__ = ["DEFAULT_DECAY", "DnsModel", "dns_loadings", "dns_betas", "fit_dns",
           "dns_forecast"]

# Conventional monthly decay; places the curvature loading's maximum
# near maturity 30 months.
DEFAULT_DECAY = 0.0609


def dns_loadings(maturities, decay: float = DEFAULT_DECAY) -> np.ndarray:
    """Level, slope, and curvature loadings at the given maturities.

    Columns are (1, (1 - e^{-dr})/(dr), (1 - e^{-dr})/(dr) - e^{-dr})
    for maturity r; the slope column tends to 1 and the curvature column
    to 0 as r -> 0, and maturity 0 is mapped to those limits exactly.
    """
    if not 0 < decay < np.inf:
        raise ConfigError(f"decay must be positive and finite, got {decay}")
    r = np.atleast_1d(np.asarray(maturities, dtype=float))
    if np.any(r < 0):
        raise ConfigError("maturities must be nonnegative")
    out = np.ones((r.size, 3))
    pos = r > 0
    x = decay * r[pos]
    slope = -np.expm1(-x) / x
    out[pos, 1] = slope
    out[pos, 2] = slope - np.exp(-x)
    out[~pos, 2] = 0.0
    return out


@dataclass(frozen=True, eq=False)
class DnsModel:
    """Fitted dynamic Nelson-Siegel model.

    ``betas`` holds the per-date factor estimates (T, 3); ``dynamics``
    their first-order autoregression (full or diagonal) without constant.
    """

    decay: float
    betas: np.ndarray
    dynamics: VarFit
    times: tuple

    def beta_rows(self) -> list[dict]:
        """One (time, level, slope, curvature) row per date."""
        rows = []
        for t, beta in zip(self.times, self.betas):
            rows.append({"time": t, "level": beta[0], "slope": beta[1], "curvature": beta[2]})
        return rows


def dns_betas(panel, decay: float = DEFAULT_DECAY) -> tuple[np.ndarray, tuple[int, str] | None]:
    """Cross-section step: least-squares betas of every row of a panel.

    Each row's factors come from its observed values on the three
    loadings at its observed maturities, never from interpolated curves.
    Returns the (T, 3) betas and, when some row has fewer than 3 quotes
    or a rank-deficient loading cross-section, the first such row in row
    order with the reason; rows that cannot be fitted hold NaN.
    """
    loadings = dns_loadings(panel.maturities, decay)
    betas = np.full((panel.n_rows, 3), np.nan)
    bad = {}
    for mask, members in _patterns(~np.isnan(panel.table)):
        first = int(members[0])
        n_obs = int(mask.sum())
        if n_obs < 3:
            bad[first] = f"row {first} has fewer than 3 observed maturities"
            continue
        u, s, vt = np.linalg.svd(loadings[mask], full_matrices=False)
        if s[-1] <= np.finfo(float).eps * n_obs * s[0]:  # lstsq's rcond=None rank test
            bad[first] = f"row {first} has a rank-deficient loading cross-section"
            continue
        solver = (vt.T / s) @ u.T  # (3, n_obs) pseudo-inverse
        values = panel.table[np.ix_(members, mask)]
        coef = values[:, :1] * solver[:, 0]
        for j in range(1, n_obs):
            coef += values[:, j:j + 1] * solver[:, j]
        betas[members] = coef
    first_bad = min(bad) if bad else None
    return _frozen(betas), None if first_bad is None else (first_bad, bad[first_bad])


def fit_dns(panel, decay: float = DEFAULT_DECAY, diagonal: bool = False) -> DnsModel:
    """Fit the benchmark to a discrete panel.

    Every row needs at least 3 observed maturities and a full-rank
    loading cross-section; a DataError names the first row, in row
    order, that lacks either.
    """
    betas, bad = dns_betas(panel, decay)
    if bad is not None:
        raise DataError(bad[1])
    return DnsModel(decay=decay, betas=betas,
                    dynamics=fit_var(betas, 1, restricted=diagonal), times=panel.times)


def dns_forecast(model: DnsModel, maturities, h: int) -> ForecastResult:
    """Curve forecasts 1..h steps ahead at the requested maturities."""
    beta_fc = forecast_scores(model.dynamics, model.betas, h)
    loadings = dns_loadings(maturities, model.decay)
    matrix = beta_fc @ loadings.T
    return ForecastResult(
        grid=Grid(np.asarray(maturities, dtype=float)),
        horizons=tuple(range(1, h + 1)),
        matrix=matrix,
        score_forecasts=beta_fc,
    )
