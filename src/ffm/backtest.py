"""Expanding-window pseudo out-of-sample forecast comparison.

Each origin t >= initial_window refits the chosen method on the first t
observations and forecasts h steps ahead; errors are recorded at the
observed maturities.  The headline figure is

    RMSFE = sqrt( mean over origins and maturities of squared errors ),

with origins t = initial_window..T-h, so a complete panel contributes
N * (T - h - initial_window + 1) squared errors.

Each method's ``backtest_origins`` does once the work no origin changes
(splining a panel's rows, the Nelson-Siegel cross-section) and returns a
range hook with the report's summary fields.  ``run(start, stop)`` fits
and forecasts origins start..stop-1 and returns one outcome per origin:
``(row, orders)``, or the ``FfmError`` that refused that origin.
``rolling_backtest`` hands out the origins in chunks of ``CHUNK``.

A refused origin is caught in one place, ``_attempt``.  ``FfmFixed``
and ``FfmCriterion`` share one range hook (``_ffm_origins``): FPCA per
origin, one stacked selection kernel call per grid size
(``selection._stacked_grids``), then ``fit_ffm``'s own fit on the FPCA
the origin already ran (``pipeline._fit``) and ``forecast``.  Padding
the stacked designs with zero rows can change their R factors (see
``selection._stacked_grids``), so the stack only vouches for an origin
whose grid fitted every cell and has no near tie; any other origin
selects on its own FPCA, which gives ``select_orders``'s warnings,
refusal and choice.  ``Dns`` fits a chunk's windows in one stacked
least-squares call (``fit_var_windows``, whose docstring says why its
designs keep their bits) and forecasts them in one stacked recursion
(``forecast_windows``); windows that hold a row without betas fail
before stacking, since one NaN would poison the stacked
factorizations.  Two layout rules keep every origin bit for bit equal
to refitting ``fit_dns`` on its window: the lag matrices are made
C-contiguous before the forecast products, as ``coefficient_matrix``
lays them out, and the loadings product keeps ``dns_forecast``'s
(h, 3) @ (3, N) shape per window as a (W, h, 3) @ (3, N) product; a
flat (W, 3) @ (3, N) product differs in the last bit.  The tests
check that reports do not depend on ``CHUNK``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._blas import one_blas_thread
from .core import FunctionalSample, Grid, _frozen, panel_to_sample, sample_to_panel
from .dns import DEFAULT_DECAY, dns_betas, dns_loadings
from .dynamics import fit_var_windows, forecast_windows
from .errors import ConfigError, DataError, FfmError, NumericError
from .fpca import fpca
from .pipeline import FfmConfig, _fit, forecast
from .selection import _check_criteria, _stacked_grids

__all__ = ["FfmFixed", "FfmCriterion", "Dns", "BacktestReport", "rolling_backtest"]

DEFAULT_INITIAL_WINDOW = 120

# Origins per call of a method's range hook.  Reports do not depend on
# it; for the DNS backtest of 180 origins, 16 to 64 ran alike and 8 was
# slower.
CHUNK = 32


def _attempt(fn, *args):
    """``fn(*args)``, or the ``FfmError`` with which the library refuses it."""
    try:
        return fn(*args)
    except FfmError as exc:
        return exc


def _splined(data) -> FunctionalSample:
    """A sample as it is; a panel splined once, on its own maturities."""
    if isinstance(data, FunctionalSample):
        return data
    return panel_to_sample(data, Grid(data.maturities))


def _window(sample: FunctionalSample, t: int) -> FunctionalSample:
    return FunctionalSample(sample.grid, sample.matrix[:t], times=sample.times[:t])


def _ffm_origins(data, h: int, config: FfmConfig):
    """Range hook of a factor-model method: ``fit_ffm`` and ``forecast`` per origin.

    Selected orders are stacked only for origins that share a grid size
    with another origin of the range and whose p_max fits their window:
    a lone origin is not padded, so the stack would warn and raise for
    it as ``select_orders`` does, and ``_fit`` must clip a p_max that
    does not fit, with its warning.
    """
    sample = _splined(data)
    criteria = (config.criterion,)

    def step(full, config, grid):
        model = _fit(full, config, grid)
        return forecast(model, h).matrix[h - 1], (model.k, model.p)

    def run(start, stop):
        results = {t: _attempt(fpca, _window(sample, t)) for t in range(start, stop)}
        configs, groups, grids = {}, {}, {}
        for t, full in results.items():
            if isinstance(full, FfmError) or config.k is not None:
                configs[t] = config
                continue
            # the grid clipped to the window's rank, without fit_ffm's warning
            configs[t] = replace(config, k_max=min(config.k_max, full.rank))
            if config.p_max < t:
                groups.setdefault(configs[t].k_max, []).append(t)
        for k_max, members in groups.items():
            if len(members) > 1:
                stack = _stacked_grids([results[t] for t in members], k_max, config.p_max,
                                       criteria, config.restricted)
                grids.update((t, g and g[config.criterion]) for t, g in zip(members, stack))
        return [full if isinstance(full, FfmError) else
                _attempt(step, full, configs[t], grids.get(t))
                for t, full in results.items()]

    return run


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

    def backtest_origins(self, data, h: int):
        """Range hook and the report's summary fields."""
        config = FfmConfig(k=self.k, p=self.p, restricted=self.restricted)
        return (_ffm_origins(data, h, config),
                {"k": self.k, "p": self.p, "dynamics": "ar" if self.restricted else "var"})


@dataclass(frozen=True)
class FfmCriterion:
    """Factor model whose orders are re-selected at every origin."""

    criterion: str = "bic"
    k_max: int = 8
    p_max: int = 8
    restricted: bool = False

    def __post_init__(self):
        _check_criteria((self.criterion,))

    @property
    def label(self) -> str:
        tag = "ar" if self.restricted else "var"
        return f"ffm-{self.criterion}({tag})"

    def backtest_origins(self, data, h: int):
        """Range hook and the report's summary fields.

        K and p are re-selected per origin, so the summary leaves them
        None and each outcome carries the chosen pair.
        """
        config = FfmConfig(criterion=self.criterion, k_max=self.k_max, p_max=self.p_max,
                           restricted=self.restricted)
        return (_ffm_origins(data, h, config),
                {"k": None, "p": None, "dynamics": "ar" if self.restricted else "var"})


@dataclass(frozen=True)
class Dns:
    """Dynamic Nelson-Siegel benchmark."""

    decay: float = DEFAULT_DECAY
    diagonal: bool = False

    @property
    def label(self) -> str:
        return f"dns({'ar' if self.diagonal else 'var'})"

    def backtest_origins(self, data, h: int):
        """Range hook and the report's summary fields.

        Each row's betas depend on that row alone, so the cross-section and
        the loadings are built once for the whole panel, and a range of
        origins refits only the VAR(1) on its windows of leading rows, in
        one stacked call.  Every origin whose window holds a row that
        cannot be fitted fails as ``fit_dns`` would on that window.
        """
        panel = sample_to_panel(data)
        betas, bad = dns_betas(panel, self.decay)
        loadings = dns_loadings(panel.maturities, self.decay)
        first_bad = panel.n_rows if bad is None else bad[0]

        def run(start, stop):
            ends = np.arange(start, min(stop, first_bad + 1))  # windows without a bad row
            failures, lags = fit_var_windows(betas, 1, ends, restricted=self.diagonal)
            ok = np.array([why is None for why in failures], dtype=bool)
            beta_fc = forecast_windows(lags, None, betas[ends[ok] - 1, None], h)
            curves = iter(beta_fc @ loadings.T)  # dns_forecast's (h, 3) @ (3, N) per window
            outcomes = [(next(curves)[h - 1], None) if why is None else NumericError(why)
                        for why in failures]
            return outcomes + [DataError(bad[1]) for _ in range(ends.size, stop - start)]

        # the benchmark always carries 3 factors
        return run, {"k": 3, "p": 1, "dynamics": "ar" if self.diagonal else "var"}


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
        raise ConfigError(f"horizon must be at least 1, got {h}")
    if initial_window < 3:
        raise ConfigError(f"initial_window must be at least 3, got {initial_window}")
    panel = sample_to_panel(data)
    run, fields = method.backtest_origins(data, h)
    t_total = panel.n_rows
    if t_total < initial_window + h:
        raise ConfigError(
            f"need at least initial_window + h = {initial_window + h} rows, got {t_total}"
        )
    realized = panel.table
    origins = np.arange(initial_window, t_total - h + 1)
    errors = np.full((origins.size, panel.maturities.size), np.nan)
    # orders re-selected per origin (summary K left None) are kept per origin
    selected = np.zeros((origins.size, 2), dtype=int) if fields["k"] is None else None
    reasons = []

    with one_blas_thread():
        for lo in range(0, origins.size, CHUNK):
            chunk = origins[lo:lo + CHUNK]
            outcomes = run(int(chunk[0]), int(chunk[-1]) + 1)
            for i, t, outcome in zip(range(lo, lo + chunk.size), chunk, outcomes, strict=True):
                if isinstance(outcome, FfmError):
                    reasons.append((int(t), type(outcome).__name__, str(outcome)))
                    continue
                pred, orders = outcome
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
