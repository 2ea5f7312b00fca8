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
runs its origins one by one (``_each_origin``).  ``FfmCriterion`` runs
FPCA per origin, selects (K, p) for the whole range in one stacked
kernel call (``selection._stacked_choices``), and then fits and
forecasts each origin as ``fit_ffm`` and ``forecast`` do.  Padding the
stacked designs with zero rows can change their R factors (see
``selection._stacked_choices``), so the stack only vouches for an
origin whose grid fitted every cell and has no near tie, and any other
origin is refitted by ``fit_ffm``, which gives its warnings, refusal
and choice.  ``Dns`` fits a chunk's windows in one stacked
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

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .core import FunctionalSample, Grid, _frozen, panel_to_sample, sample_to_panel
from .dns import DEFAULT_DECAY, dns_betas, dns_loadings
from .dynamics import fit_var_windows, forecast_windows
from .errors import ConfigError, DataError, FfmError, NumericError
from .fpca import fpca
from .pipeline import FfmConfig, _fit_orders, fit_ffm, forecast
from .selection import _check_criteria, _stacked_choices

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


def _each_origin(step):
    """Range hook that runs ``step(t)`` per origin and keeps each refusal as its outcome."""
    return lambda start, stop: [_attempt(step, t) for t in range(start, stop)]


def _splined(data) -> FunctionalSample:
    """A sample as it is; a panel splined once, on its own maturities."""
    if isinstance(data, FunctionalSample):
        return data
    return panel_to_sample(data, Grid(data.maturities))


def _window(sample: FunctionalSample, t: int) -> FunctionalSample:
    return FunctionalSample(sample.grid, sample.matrix[:t], times=sample.times[:t])


def _ffm_step(sample: FunctionalSample, h: int, config_at):
    """Per-origin factor-model fit and forecast: ``step(t)`` gives (row, (K, p))."""
    def step(t):
        model = fit_ffm(_window(sample, t), config_at(t))
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

    def backtest_origins(self, data, h: int):
        """Range hook and the report's summary fields."""
        config = FfmConfig(k=self.k, p=self.p, restricted=self.restricted)
        run = _each_origin(_ffm_step(_splined(data), h, lambda t: config))
        return run, {"k": self.k, "p": self.p, "dynamics": "ar" if self.restricted else "var"}


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
        None and each outcome carries the chosen pair.  A range of origins
        runs FPCA per origin and then selects (K, p) for all of them in
        one stacked kernel call (``selection._stacked_choices``); each
        origin then fits and forecasts as ``fit_ffm`` and ``forecast``
        do.  An origin the stack does not vouch for (a failed cell, a
        near tie, or a grid ``fit_ffm`` would clip) is refitted by
        ``fit_ffm`` itself, with its warnings and refusals.
        """
        sample = _splined(data)

        def forecast_at(full, orders, config):
            return forecast(_fit_orders(full, *orders, config), h).matrix[h - 1], orders

        def run(start, stop):
            origins = range(start, stop)
            results = [_attempt(fpca, _window(sample, t)) for t in origins]
            # each origin's grid as fit_ffm clips it to the rank of its FPCA
            configs = {t: FfmConfig(criterion=self.criterion, k_max=min(self.k_max, full.rank),
                                    p_max=self.p_max, restricted=self.restricted)
                       for t, full in zip(origins, results) if not isinstance(full, FfmError)}
            stacks = {}   # by k_max, the origins whose p_max fit_ffm would not clip
            for t, config in configs.items():
                if self.p_max < t:
                    stacks.setdefault(config.k_max, []).append(t)
            chosen = {}
            for k_max, members in stacks.items():
                picks = _stacked_choices([results[t - start] for t in members], k_max,
                                         self.p_max, self.criterion, self.restricted)
                chosen.update(zip(members, picks))
            step = _ffm_step(sample, h, configs.get)
            outcomes = []
            for t, full in zip(origins, results):
                if isinstance(full, FfmError):
                    outcomes.append(full)
                elif chosen.get(t) is None:
                    outcomes.append(_attempt(step, t))
                else:
                    outcomes.append(_attempt(forecast_at, full, chosen[t], configs[t]))
            return outcomes

        return run, {"k": None, "p": None, "dynamics": "ar" if self.restricted else "var"}


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
