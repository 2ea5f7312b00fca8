"""Expanding-window pseudo out-of-sample forecast comparison.

Each origin t >= initial_window refits the chosen method on the first t
observations and forecasts h steps ahead; errors are recorded at the
observed maturities.  The headline figure is

    RMSFE = sqrt( mean over origins and maturities of squared errors ),

with origins t = initial_window..T-h, so a complete panel contributes
N * (T - h - initial_window + 1) squared errors.

Each method's ``backtest_steps`` does once the work no origin changes
(splining a panel's rows, the Nelson-Siegel cross-section) and returns
the per-origin fit-and-forecast with the report's summary fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .core import FunctionalSample, Grid, _frozen, panel_to_sample, sample_to_panel
from .dns import DEFAULT_DECAY, dns_betas, dns_loadings, dns_model
from .dynamics import forecast_scores
from .errors import DataError, FfmError, NumericError
from .pipeline import FfmConfig, fit_ffm, forecast
from .selection import CRITERIA

__all__ = ["FfmFixed", "FfmCriterion", "Dns", "BacktestReport", "rolling_backtest"]

DEFAULT_INITIAL_WINDOW = 120


def _ffm_steps(data, h: int, config_at):
    """Per-origin factor-model fit, forecast and fitted (K, p).

    A panel is splined once, on its own maturities; ``config_at(t, n)``
    gives the config for a t-curve window on an n-point grid.
    """
    sample = data if isinstance(data, FunctionalSample) else panel_to_sample(
        data, Grid(data.maturities))

    def step(t):
        train = FunctionalSample(sample.grid, sample.matrix[:t], times=sample.times[:t])
        model = fit_ffm(train, config_at(t, sample.grid.n))
        return forecast(model, h).matrix[h - 1], (model.k, model.p)

    return step


@dataclass(frozen=True)
class FfmFixed:
    """Factor model with pinned orders (K, p)."""

    k: int
    p: int
    restricted: bool = False

    @property
    def label(self) -> str:
        tag = "ar" if self.restricted else "var"
        return f"ffm-fixed({self.k},{self.p},{tag})"

    def backtest_steps(self, data, h: int):
        """Per-origin fit-and-forecast and the report's summary fields."""
        config = FfmConfig(k=self.k, p=self.p, restricted=self.restricted)
        step = _ffm_steps(data, h, lambda t, n: config)
        return step, {"k": self.k, "p": self.p, "dynamics": "ar" if self.restricted else "var"}


@dataclass(frozen=True)
class FfmCriterion:
    """Factor model whose orders are re-selected at every origin."""

    criterion: str = "bic"
    k_max: int = 8
    p_max: int = 8
    restricted: bool = False

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}; expected one of {CRITERIA}")

    @property
    def label(self) -> str:
        tag = "ar" if self.restricted else "var"
        return f"ffm-{self.criterion}({tag})"

    def backtest_steps(self, data, h: int):
        """Per-origin fit-and-forecast and the report's summary fields.

        K and p are re-selected per origin, so the summary leaves them
        None and each step returns the chosen pair.
        """
        def config_at(t, n):
            return FfmConfig(criterion=self.criterion, k_max=min(self.k_max, t - 1, n),
                             p_max=self.p_max, restricted=self.restricted)

        step = _ffm_steps(data, h, config_at)
        return step, {"k": None, "p": None, "dynamics": "ar" if self.restricted else "var"}


@dataclass(frozen=True)
class Dns:
    """Dynamic Nelson-Siegel benchmark."""

    decay: float = DEFAULT_DECAY
    diagonal: bool = False

    @property
    def label(self) -> str:
        return f"dns({'ar' if self.diagonal else 'var'})"

    def backtest_steps(self, data, h: int):
        """Per-origin fit-and-forecast and the report's summary fields.

        Each row's betas depend on that row alone, so the cross-section and
        the loadings are built once for the whole panel and an origin
        refits only the VAR(1) on its leading rows.  Every origin whose
        window holds a row that cannot be fitted fails as ``fit_dns`` would
        on that window.
        """
        panel = sample_to_panel(data)
        betas, bad = dns_betas(panel, self.decay)
        loadings = dns_loadings(panel.maturities, self.decay)

        def step(t):
            if bad is not None and bad[0] < t:
                raise DataError(bad[1])
            model = dns_model(betas[:t], self.decay, self.diagonal, panel.times[:t])
            # dns_forecast's product, on loadings built once per backtest
            matrix = forecast_scores(model.dynamics, model.betas, h) @ loadings.T
            return matrix[h - 1], None

        # the benchmark always carries 3 factors
        return step, {"k": 3, "p": 1, "dynamics": "ar" if self.diagonal else "var"}


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """Out-of-sample errors of one method at one horizon.

    ``errors[i, j]`` is the forecast error at origin ``origins[i]`` and
    maturity ``maturities[j]``; NaN marks cells that could not be
    evaluated (missing realized value, or a failed fit counted in
    ``failures``).  ``selected`` holds the per-origin (K, p) where the
    method selects them, else None; failed origins keep (0, 0) there.
    ``failure_reasons`` holds one (origin, exception class name, message)
    per failed origin, in origin order.
    """

    method: str
    horizon: int
    initial_window: int
    maturities: np.ndarray
    origins: np.ndarray
    errors: np.ndarray
    selected: np.ndarray | None
    failures: int
    k: int | None = None
    p: int | None = None
    dynamics: str = "var"
    failure_reasons: tuple = ()

    @property
    def rmsfe(self) -> float:
        """Root mean squared error over all evaluated origin-maturity cells."""
        return float(np.sqrt(np.nanmean(self.errors**2)))

    def summary_row(self) -> dict:
        """Table row; K and p are None when re-selected per origin."""
        return {
            "method": self.method,
            "K": self.k,
            "p": self.p,
            "dynamics": self.dynamics,
            "horizon": self.horizon,
            "rmsfe": self.rmsfe,
            "initial_window": self.initial_window,
            "origins": int(self.origins.size),
            "failures": self.failures,
        }

    def error_rows(self) -> list[dict]:
        """One (origin, maturity, error) row per evaluated cell."""
        rows = []
        for origin, row in zip(self.origins, self.errors):
            for m, err in zip(self.maturities, row):
                if np.isfinite(err):
                    rows.append({"origin": int(origin), "maturity": float(m), "error": float(err)})
        return rows


def rolling_backtest(data, method, h: int = 1,
                     initial_window: int = DEFAULT_INITIAL_WINDOW) -> BacktestReport:
    """Expanding-window forecast evaluation of one method.

    Parameters
    ----------
    data : FunctionalSample or DiscretePanel
        Full history; forecasts are evaluated against its own later rows
        at the observed maturities (panel holes stay unevaluated).
    method : FfmFixed, FfmCriterion, or Dns
    h : int
        Forecast horizon, at least 1.
    initial_window : int
        First origin (number of observations in the first training set).

    An origin whose window the library refuses (an ``FfmError``: singular
    dynamics, rank below a pinned K, too few quotes) is recorded as a NaN
    row, counted in the report's ``failures`` and explained in its
    ``failure_reasons`` instead of aborting the whole exercise.  Any
    other exception propagates.

    The origin loop runs with OpenBLAS on one thread (``ffm._blas``); the
    previous thread count is restored when it ends.
    """
    if h < 1:
        raise ValueError(f"horizon must be at least 1, got {h}")
    if initial_window < 3:
        raise ValueError(f"initial_window must be at least 3, got {initial_window}")
    panel = sample_to_panel(data)
    step, fields = method.backtest_steps(data, h)
    t_total = panel.n_rows
    if t_total < initial_window + h:
        raise ValueError(
            f"need at least initial_window + h = {initial_window + h} rows, got {t_total}"
        )
    realized = panel.table
    origins = np.arange(initial_window, t_total - h + 1)
    errors = np.full((origins.size, panel.maturities.size), np.nan)
    # orders re-selected per origin (summary K left None) are kept per origin
    selected = np.zeros((origins.size, 2), dtype=int) if fields["k"] is None else None
    reasons = []

    with one_blas_thread():
        for i, t in enumerate(origins):
            try:
                pred, orders = step(int(t))
            except FfmError as exc:
                reasons.append((int(t), type(exc).__name__, str(exc)))
                continue
            if selected is not None:
                selected[i] = orders
            errors[i] = pred - realized[t + h - 1]

    if not np.any(np.isfinite(errors)):
        raise NumericError("every backtest origin failed; nothing was evaluated")
    return BacktestReport(
        method=method.label,
        horizon=h,
        initial_window=initial_window,
        maturities=_frozen(panel.maturities),
        origins=_frozen(origins, dtype=int),
        errors=_frozen(errors),
        selected=None if selected is None else _frozen(selected, dtype=int),
        failures=len(reasons),
        failure_reasons=tuple(reasons),
        **fields,
    )
