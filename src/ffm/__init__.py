"""Functional factor models for curve time series.

Fit a low-dimensional factor representation of a time series of curves
by functional principal components, select the number of factors and
the factor VAR lag order jointly with an information criterion, and
forecast whole curves.  Includes a simulation lab for replicated
selection experiments, an expanding-window backtest, and a dynamic
Nelson-Siegel benchmark for yield curve panels.
"""

from ._version import __version__
from .backtest import BacktestReport, Dns, FfmCriterion, FfmFixed, rolling_backtest
from .core import (Curve, DiscretePanel, FunctionalSample, Grid, inner_product,
                   make_grid, natural_cubic_spline, norm, panel_to_sample,
                   sample_to_panel)
from .dns import DEFAULT_DECAY, DnsModel, dns_forecast, dns_loadings, fit_dns
from .dynamics import (VarFit, coefficient_matrix, companion_spectral_radius,
                       fit_var, forecast_scores, max_abs_tstat)
from .errors import ConfigError, DataError, FfmError, NetworkError, NumericError
from .fpca import (CovarianceKernel, FpcaResult, fpca, reconstruct,
                   sample_covariance, sample_mean)
from .montecarlo import McReport, monte_carlo
from .pipeline import (FfmConfig, FfmModel, ForecastResult, fit_ffm,
                       fitted_curves, fitted_one_step, forecast)
from .selection import (CRITERIA, SelectionGrid, export_mse_surface, mse_direct,
                        mse_simplified, penalty, select_orders)
from .simulate import (MODELS, PopulationStructure, SimSpec, fourier_basis,
                       population_structure, replication_rng, simulate)

__all__ = [
    "__version__",
    "BacktestReport", "Dns", "FfmCriterion", "FfmFixed", "rolling_backtest",
    "Curve", "DiscretePanel", "FunctionalSample", "Grid", "inner_product",
    "make_grid", "natural_cubic_spline", "norm", "panel_to_sample", "sample_to_panel",
    "DEFAULT_DECAY", "DnsModel", "dns_forecast", "dns_loadings", "fit_dns",
    "VarFit", "coefficient_matrix",
    "companion_spectral_radius", "fit_var", "forecast_scores",
    "max_abs_tstat",
    "ConfigError", "DataError", "FfmError", "NetworkError", "NumericError",
    "CovarianceKernel", "FpcaResult", "fpca", "reconstruct",
    "sample_covariance", "sample_mean",
    "McReport", "monte_carlo",
    "FfmConfig", "FfmModel", "ForecastResult", "fit_ffm", "fitted_curves",
    "fitted_one_step", "forecast",
    "CRITERIA", "SelectionGrid", "export_mse_surface",
    "mse_direct", "mse_simplified", "penalty", "select_orders",
    "MODELS", "PopulationStructure", "SimSpec", "fourier_basis",
    "population_structure", "replication_rng", "simulate",
]
