"""End-to-end factor model workflow: FPCA, order selection, dynamics, forecasts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Curve, FunctionalSample, Grid
from .dynamics import VarFit, fit_var, forecast_scores, max_abs_tstat
from .errors import ConfigError, NumericError
from .fpca import FpcaResult, fpca, reconstruct
from .selection import SelectionGrid, _check_criteria, _selected

__all__ = [
    "FfmConfig",
    "FfmModel",
    "ForecastResult",
    "fit_ffm",
    "fitted_curves",
    "fitted_one_step",
    "forecast",
]

# Below this largest |t| statistic the fitted dynamics are flagged as
# indistinguishable from noise (static curves plus white noise).
TSTAT_FLOOR = 2.0


@dataclass(frozen=True)
class FfmConfig:
    """How to fit a factor model.

    Set ``k`` and ``p`` to pin the orders; leave them None to select both
    by the chosen information criterion over the (k_max, p_max) grid.
    """

    criterion: str = "bic"
    k_max: int = 8
    p_max: int = 8
    k: int | None = None
    p: int | None = None
    restricted: bool = False

    def __post_init__(self):
        _check_criteria((self.criterion,))
        if (self.k is None) != (self.p is None):
            raise ConfigError("set both k and p to fix the orders, or neither")
        if self.k is not None and (self.k < 1 or self.p < 1):
            raise ConfigError(f"fixed orders must be positive, got k={self.k}, p={self.p}")
        if self.k is None and (self.k_max < 1 or self.p_max < 1):
            raise ConfigError(
                f"k_max and p_max must be positive, got {self.k_max}, {self.p_max}"
            )


@dataclass(frozen=True, eq=False)
class FfmModel:
    """A fitted functional factor model.

    ``selection`` is None when the orders were pinned by the config.
    ``degenerate_dynamics`` flags fits whose coefficients are all within
    noise of zero; forecasts then collapse to the mean curve and the
    factor structure should not be trusted.
    """

    fpca: FpcaResult
    selection: SelectionGrid | None
    var_fit: VarFit
    config: FfmConfig
    degenerate_dynamics: bool

    @property
    def k(self) -> int:
        """Number of factors in use."""
        return self.var_fit.dim

    @property
    def p(self) -> int:
        """VAR lag order in use."""
        return self.var_fit.order

    @property
    def grid(self) -> Grid:
        return self.fpca.grid


def fit_ffm(sample: FunctionalSample, config: FfmConfig = FfmConfig()) -> FfmModel:
    """Fit the factor model, selecting (K, p) unless the config pins them.

    Pinned orders the sample cannot carry are refused: K above the FPCA
    rank raises NumericError, and p with no more curves than lags raises
    ``fit_var``'s DataError.  A grid the sample cannot carry is clipped
    as ``select_orders`` clips it, and its warnings point at the caller.
    """
    full = fpca(sample)
    grid = None
    if config.k is None:
        grid = _selected(full, config.k_max, config.p_max, (config.criterion,),
                         config.restricted)[config.criterion]
    return _fit(full, config, grid)


def _fit(full: FpcaResult, config: FfmConfig, grid: SelectionGrid | None) -> FfmModel:
    """``fit_ffm`` on the FPCA ``full`` of its sample and the config's criterion grid on it.

    ``grid`` is the grid ``fit_ffm`` selects on, and None when the config
    pins the orders.
    """
    k, p = (config.k, config.p) if grid is None else grid.chosen
    if k > full.rank:
        raise NumericError(f"k={k} exceeds the sample rank {full.rank}")
    var = fit_var(full.scores[:, :k], p, restricted=config.restricted)
    return FfmModel(
        fpca=full,
        selection=grid,
        var_fit=var,
        config=config,
        degenerate_dynamics=max_abs_tstat(var) < TSTAT_FLOOR,
    )


def fitted_curves(model: FfmModel) -> FunctionalSample:
    """In-sample curves truncated to the model's K components."""
    return reconstruct(model.fpca, model.k)


def fitted_one_step(model: FfmModel) -> FunctionalSample:
    """One-step-ahead fitted curves for t = p+1..T."""
    p, k = model.p, model.k
    scores_hat = model.fpca.scores[p:, :k] - model.var_fit.residuals
    matrix = model.fpca.mean.values + scores_hat @ model.fpca.eigenfunctions[:k]
    return FunctionalSample(model.grid, matrix, times=model.fpca.times[p:])


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """Curve forecasts for horizons 1..h.

    ``matrix[i]`` holds the curve forecast at horizon ``horizons[i]``;
    ``score_forecasts`` the underlying factor forecasts (empty for
    benchmarks without scores).
    """

    grid: Grid
    horizons: tuple
    matrix: np.ndarray
    score_forecasts: np.ndarray

    def curve(self, h: int) -> Curve:
        """Forecast curve at horizon ``h``."""
        return Curve(self.grid, self.matrix[self.horizons.index(h)])

    def rows(self) -> list[dict]:
        """Long-format (horizon, r, value) rows."""
        rows = []
        for h, values in zip(self.horizons, self.matrix):
            for r, v in zip(self.grid.points, values):
                rows.append({"horizon": h, "r": float(r), "value": float(v)})
        return rows


def forecast(model: FfmModel, h: int) -> ForecastResult:
    """MSE-optimal curve forecasts 1..h steps past the sample end.

    Factor forecasts follow the fitted recursion with observed scores
    plugged in where available; curves are the mean plus the loading
    combination of the factor forecasts.
    """
    k = model.k
    history = model.fpca.scores[-model.p:, :k]
    score_fc = forecast_scores(model.var_fit, history, h)
    matrix = model.fpca.mean.values + score_fc @ model.fpca.eigenfunctions[:k]
    return ForecastResult(
        grid=model.grid,
        horizons=tuple(range(1, h + 1)),
        matrix=matrix,
        score_forecasts=score_fc,
    )
