"""Expanding-window pseudo out-of-sample forecast comparison.

Each origin t >= initial_window refits the chosen method on the first t
observations and forecasts h steps ahead; errors are recorded at the
observed maturities.  The headline figure is

    RMSFE = sqrt( mean over origins and maturities of squared errors ),

with origins t = initial_window..T-h, so a complete panel contributes
N * (T - h - initial_window + 1) squared errors.

Each method's ``summary`` holds the report's summary fields, and its
``backtest_origins`` does once the work no origin changes (splining a
panel's rows, the Nelson-Siegel cross-section) and returns a range
hook.  ``run(origins)`` fits and forecasts a range of origins and
returns one outcome per origin: ``(row, orders)``, or the ``FfmError``
that refused that origin.  ``rolling_backtest`` hands out the origins
in ranges of ``CHUNK``.  The factor-model ranges run on a process pool
(``ffm._blas.map_ranges``) of one forked worker per OpenBLAS thread the
caller had, so one per core unless ``OPENBLAS_NUM_THREADS`` says
otherwise, and none from Python 3.12 on (see ``ffm._blas``).  The
range hook is built once, in the caller, and the workers fork with it.
``Dns`` ranges always run in the caller: on 2 cores its whole round of
180 origins took about 15 ms, less than the 20-50 ms a pool of two took
to start its first range.

A refused origin is caught in one place, ``_attempt``.  ``FfmFixed``
and ``FfmCriterion`` share one range hook (``_ffm_origins``): FPCA per
origin, one stacked selection kernel call per grid the windows carry
(``selection._carried``, ``selection._stacked_grids``), then
``fit_ffm``'s own fit on the FPCA the origin already ran
(``pipeline._fit``) and ``forecast``.  The stack factors each origin's
designs on its own rows, so every origin gets ``select_orders``'s clip
warnings, grid, failed-cell warning and refusal bit for bit.  Only the
chosen orders leave a range, so the stack skips the lag orders whose
cells cannot win (``chosen_only``).  ``Dns`` fits a chunk's windows in
one least-squares call (``fit_var_windows``, which factors each window
on its own rows, so each gets ``fit_var``'s lag matrices) and forecasts
them in one stacked recursion (``forecast_windows``); windows that hold
a row without betas fail with ``fit_dns``'s DataError before the call,
which reads no row past its last window, so the NaN betas of later rows
do not reach it.  Two layout rules keep every origin bit for bit equal
to refitting ``fit_dns`` on its window: the lag matrices are made
C-contiguous before the forecast products, as ``coefficient_matrix``
lays them out, and the loadings product keeps ``dns_forecast``'s
(h, 3) @ (3, N) shape per window as a (W, h, 3) @ (3, N) product; a
flat (W, 3) @ (3, N) product differs in the last bit.  The tests check
that reports do not depend on ``CHUNK`` or on the number of worker
processes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._blas import map_ranges
from .core import FunctionalSample, Grid, _frozen, panel_to_sample, sample_to_panel
from .dns import DEFAULT_DECAY, dns_betas, dns_loadings
from .dynamics import fit_var_windows, forecast_windows
from .errors import ConfigError, DataError, FfmError, NumericError
from .fpca import fpca
from .pipeline import FfmConfig, _fit, forecast
from .selection import _carried, _check_criteria, _stacked_grids

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

    Each origin selects on the grid its window carries, clipped as
    ``fit_ffm`` clips it (``selection._carried``), and a range's orders
    are selected by one stacked kernel call per carried grid.  Each
    origin warns its clips and builds its grid in ``step``, so its
    warnings, or its refusal, come in origin order and as ``fit_ffm``
    on its window gives them.
    """
    sample = _splined(data)
    criteria = (config.criterion,)

    def step(full, clips, grids):
        for message in clips:
            warnings.warn(message)
        grid = None if grids is None else grids()[config.criterion]
        model = _fit(full, config, grid)
        return forecast(model, h).matrix[h - 1], (model.k, model.p)

    def run(origins):
        results = {t: _attempt(fpca, _window(sample, t)) for t in origins}
        clips, groups, builders = {}, {}, {}
        for t, full in results.items():
            if not isinstance(full, FfmError) and config.k is None:
                carried, clips[t] = _carried(full.rank, full.n_curves, config.k_max, config.p_max)
                groups.setdefault(carried, []).append(t)
        for (k_max, p_max), members in groups.items():
            stack = _stacked_grids([results[t] for t in members], k_max, p_max, criteria,
                                   config.restricted, chosen_only=True)
            builders.update(zip(members, stack))
        return [full if isinstance(full, FfmError) else
                _attempt(step, full, clips.get(t, ()), builders.get(t))
                for t, full in results.items()]

    return run


@dataclass(frozen=True)
class FfmFixed:
    """Factor model with pinned orders (K, p)."""

    pooled = True   # origins may run in worker processes

    k: int
    p: int
    restricted: bool = False

    @property
    def label(self) -> str:
        tag = "ar" if self.restricted else "var"
        return f"ffm-fixed({self.k},{self.p},{tag})"

    @property
    def summary(self) -> dict:
        """The report's summary fields."""
        return {"k": self.k, "p": self.p, "dynamics": "ar" if self.restricted else "var"}

    def backtest_origins(self, data, h: int):
        """Range hook."""
        return _ffm_origins(data, h, FfmConfig(k=self.k, p=self.p, restricted=self.restricted))


@dataclass(frozen=True)
class FfmCriterion:
    """Factor model whose orders are re-selected at every origin."""

    pooled = True

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

    @property
    def summary(self) -> dict:
        """The report's summary fields.

        K and p are re-selected per origin, so the summary leaves them
        None and each outcome carries the chosen pair.
        """
        return {"k": None, "p": None, "dynamics": "ar" if self.restricted else "var"}

    def backtest_origins(self, data, h: int):
        """Range hook."""
        return _ffm_origins(data, h, FfmConfig(criterion=self.criterion, k_max=self.k_max,
                                               p_max=self.p_max, restricted=self.restricted))


@dataclass(frozen=True)
class Dns:
    """Dynamic Nelson-Siegel benchmark."""

    pooled = False   # a whole round costs less than starting a pool

    decay: float = DEFAULT_DECAY
    diagonal: bool = False

    @property
    def label(self) -> str:
        return f"dns({'ar' if self.diagonal else 'var'})"

    @property
    def summary(self) -> dict:
        """The report's summary fields; the benchmark always carries 3 factors."""
        return {"k": 3, "p": 1, "dynamics": "ar" if self.diagonal else "var"}

    def backtest_origins(self, data, h: int):
        """Range hook.

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

        def run(origins):
            # windows without a bad row
            ends = np.arange(origins.start, min(origins.stop, first_bad + 1))
            failures, lags = fit_var_windows(betas, 1, ends, restricted=self.diagonal)
            ok = np.array([why is None for why in failures], dtype=bool)
            beta_fc = forecast_windows(lags, None, betas[ends[ok] - 1, None], h)
            curves = iter(beta_fc @ loadings.T)  # dns_forecast's (h, 3) @ (3, N) per window
            outcomes = [(next(curves)[h - 1], None) if why is None else NumericError(why)
                        for why in failures]
            return outcomes + [DataError(bad[1]) for _ in range(ends.size, len(origins))]

        return run


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
    other exception propagates with its type.  Warnings raised at an
    origin are re-issued at the caller in origin order.  An
    ``FfmCriterion`` origin whose window cannot carry its (k_max, p_max)
    grid clips it with ``fit_ffm``'s warnings.

    A factor model's origins run, in ranges of ``CHUNK``, on one worker
    process per OpenBLAS thread the caller had, at most one per range:
    1 under ``OPENBLAS_NUM_THREADS=1``, without an OpenBLAS control,
    inside a daemonic process and from Python 3.12 on, where they run
    here (``ffm._blas``); ``Dns`` always runs here.  The report,
    warnings included, does not depend on the number of workers.  Every
    process runs the origins with OpenBLAS on one thread; the caller's
    thread count is restored when the loop ends.
    """
    if h < 1:
        raise ConfigError(f"horizon must be at least 1, got {h}")
    if initial_window < 3:
        raise ConfigError(f"initial_window must be at least 3, got {initial_window}")
    panel = sample_to_panel(data)
    t_total = panel.n_rows
    if t_total < initial_window + h:
        raise ConfigError(
            f"need at least initial_window + h = {initial_window + h} rows, got {t_total}"
        )
    realized = panel.table
    end = t_total - h + 1
    origins = np.arange(initial_window, end)
    ranges = [range(t, min(t + CHUNK, end)) for t in range(initial_window, end, CHUNK)]
    parts = map_ranges(partial(method.backtest_origins, data, h), ranges,
                       None if method.pooled else 1)
    fields = method.summary
    errors = np.full((origins.size, panel.maturities.size), np.nan)
    # orders re-selected per origin (summary K left None) are kept per origin
    selected = np.zeros((origins.size, 2), dtype=int) if fields["k"] is None else None
    reasons = []
    outcomes = (outcome for part in parts for outcome in part)
    for i, (t, outcome) in enumerate(zip(origins.tolist(), outcomes, strict=True)):
        if isinstance(outcome, FfmError):
            reasons.append((t, type(outcome).__name__, str(outcome)))
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
