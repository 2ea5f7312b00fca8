"""Expanding-window forecast evaluation."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import ffm.backtest as backtest_module
import ffm.pipeline as pipeline_module
import ffm.selection as selection_module
from ffm import (BacktestReport, ConfigError, DiscretePanel, Dns, FfmConfig, FfmCriterion,
                 FfmFixed, FfmError, FunctionalSample, NumericError, SimSpec,
                 dns_forecast, dns_loadings, fit_dns, fit_ffm, forecast, make_grid,
                 rolling_backtest, select_orders, simulate)

RMSFE_AUDIT_TOL = 1e-12


def report_with_errors(errors):
    errors = np.asarray(errors, dtype=float)
    return BacktestReport(
        method="stub",
        horizon=1,
        initial_window=3,
        maturities=np.arange(1.0, errors.shape[1] + 1.0),
        origins=np.arange(3, 3 + errors.shape[0]),
        errors=errors,
        selected=None,
        failures=0,
    )


class LoosePanel(DiscretePanel):
    """A panel without the spline floor, so rows may keep fewer than 4 quotes."""

    MIN_KNOTS = 0


def m1_sample(t_obs=60, seed=2):
    return simulate(SimSpec(model="M1", n_obs=t_obs, seed=seed))


class TestRmsfe:
    def test_hand_arithmetic_two_origins(self):
        # one maturity, errors 3 and 4: sqrt((9 + 16) / 2)
        report = report_with_errors([[3.0], [4.0]])
        assert report.rmsfe == pytest.approx(np.sqrt(25.0 / 2.0), rel=1e-15)

    def test_perfect_forecasts_score_zero(self):
        report = report_with_errors(np.zeros((4, 3)))
        assert report.rmsfe == 0.0

    def test_nan_cells_are_excluded(self):
        report = report_with_errors([[3.0, np.nan], [4.0, np.nan]])
        assert report.rmsfe == pytest.approx(np.sqrt(25.0 / 2.0), rel=1e-15)


class TestRolling:
    def test_origin_layout_and_audit(self):
        sample = m1_sample(50)
        report = rolling_backtest(sample, FfmFixed(3, 1), h=1, initial_window=30)
        assert np.array_equal(report.origins, np.arange(30, 50))
        assert report.errors.shape == (20, sample.grid.n)
        assert report.failures == 0
        assert np.all(np.isfinite(report.errors))
        # audit: the scalar must be recomputable from the stored matrix
        flat = report.errors[np.isfinite(report.errors)]
        recomputed = np.sqrt(float(np.sum(flat * flat)) / flat.size)
        assert report.rmsfe == pytest.approx(recomputed, abs=RMSFE_AUDIT_TOL)

    def test_errors_match_manual_refit(self):
        sample = m1_sample(45)
        h = 2
        report = rolling_backtest(sample, FfmFixed(2, 1), h=h, initial_window=35)
        assert np.array_equal(report.origins, np.arange(35, 44))
        t = 38
        train = FunctionalSample(sample.grid, sample.matrix[:t])
        model = fit_ffm(train, FfmConfig(k=2, p=1))
        pred = forecast(model, h).matrix[h - 1]
        i = t - 35
        assert np.allclose(report.errors[i],
                           pred - sample.matrix[t + h - 1], atol=1e-12)

    def test_criterion_method_records_selections(self):
        sample = m1_sample(60)
        method = FfmCriterion(criterion="bic", k_max=4, p_max=2)
        report = rolling_backtest(sample, method, h=1, initial_window=40)
        assert report.selected is not None
        assert report.selected.shape == (report.origins.size, 2)
        assert np.all(report.selected >= 1)
        assert report.method == "ffm-bic(var)"

    def test_dns_method_on_panel_with_holes(self):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        rng = np.random.default_rng(9)
        betas = np.zeros((40, 3))
        a = np.diag([0.95, 0.8, 0.6])
        for t in range(1, 40):
            betas[t] = a @ betas[t - 1] + 0.1 * rng.normal(size=3)
        table = betas @ dns_loadings(maturities).T
        table[10, 2] = np.nan
        table[37, 0] = np.nan  # hole in a realized row: cell unevaluated
        panel = DiscretePanel(maturities, table)
        report = rolling_backtest(panel, Dns(), h=1, initial_window=30)
        assert report.method == "dns(var)"
        assert report.failures == 0
        i = np.where(report.origins == 37)[0][0]
        assert np.isnan(report.errors[i, 0])
        assert np.all(np.isfinite(np.delete(report.errors[i], 0)))

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("short_row", [None, 33])
    def test_dns_matches_per_origin_refits(self, diagonal, short_row):
        # the backtest solves each row's cross-section once for the whole
        # panel; refitting fit_dns on every truncated panel must give the
        # same errors bit for bit, and the same failures where a row with
        # two quotes enters the window
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0, 240.0])
        rng = np.random.default_rng(31)
        betas = np.zeros((48, 3))
        for t in range(1, 48):
            betas[t] = np.diag([0.95, 0.8, 0.6]) @ betas[t - 1] + 0.1 * rng.normal(size=3)
        table = betas @ dns_loadings(maturities).T + 0.01 * rng.normal(size=(48, 6))
        holes = rng.random(table.shape) < 0.2
        holes[:, [0, -1]] = False
        table[holes] = np.nan
        if short_row is not None:
            table[short_row, 1:5] = np.nan
        panel = LoosePanel(maturities, table)
        method = Dns(decay=0.07, diagonal=diagonal)
        report = rolling_backtest(panel, method, h=2, initial_window=25)

        errors = np.full_like(report.errors, np.nan)
        reasons = []
        for i, t in enumerate(report.origins):
            train = LoosePanel(maturities, table[:t])
            try:
                model = fit_dns(train, method.decay, method.diagonal)
            except FfmError as exc:
                reasons.append((int(t), type(exc).__name__, str(exc)))
                continue
            errors[i] = dns_forecast(model, maturities, 2).matrix[1] - table[t + 1]
        assert np.array_equal(report.errors, errors, equal_nan=True)
        assert report.failure_reasons == tuple(reasons)
        assert report.failures == len(reasons)
        if short_row is None:
            assert report.failures == 0
        else:
            assert report.failures == report.origins[-1] - short_row
            assert reasons[0] == (short_row + 1, "DataError",
                                  f"row {short_row} has fewer than 3 observed maturities")
        assert (report.k, report.p) == (3, 1)

    def test_failed_windows_are_counted_not_fatal(self):
        rng = np.random.default_rng(13)
        from ffm import make_grid
        grid = make_grid(0.0, 1.0, 6)
        sample = FunctionalSample(grid, rng.normal(size=(12, 6)))
        # rank of a t-row window is t - 1, so K = 5 is infeasible at the
        # first two origins; at the third (t = 6) a VAR(1) in 5 factors has
        # 5 observations for 5 regressors and no residual degree of freedom
        report = rolling_backtest(sample, FfmFixed(5, 1), h=1, initial_window=4)
        assert report.failures == 3
        assert np.all(np.isnan(report.errors[:3]))
        assert np.all(np.isfinite(report.errors[3:]))
        assert report.failure_reasons == (
            (4, "NumericError", "k=5 exceeds the sample rank 3"),
            (5, "NumericError", "k=5 exceeds the sample rank 4"),
            (6, "NumericError", "lagged design of 5 observations leaves no residual "
                                "degrees of freedom for 5 regressors"),
        )

    def test_programming_errors_propagate(self, monkeypatch):
        # only the library's own refusals (FfmError) count as failed windows
        def broken(full, config, grid=None):
            raise TypeError("bug in the fit")

        monkeypatch.setattr(backtest_module, "_fit", broken)
        with pytest.raises(TypeError, match="bug in the fit"):
            rolling_backtest(m1_sample(40), FfmFixed(2, 1), h=1, initial_window=30)

    def test_bad_config_propagates(self):
        with pytest.raises(ValueError, match="fixed orders must be positive"):
            rolling_backtest(m1_sample(40), FfmFixed(0, 1), h=1, initial_window=30)

    def test_all_windows_failing_is_an_error(self):
        rng = np.random.default_rng(14)
        from ffm import make_grid
        grid = make_grid(0.0, 1.0, 4)
        sample = FunctionalSample(grid, rng.normal(size=(10, 4)))
        with pytest.raises(NumericError, match="every backtest origin"):
            rolling_backtest(sample, FfmFixed(9, 1), h=1, initial_window=5)

    def test_argument_errors_are_config_errors(self):
        sample = m1_sample(20)
        for kwargs in ({"h": 0}, {"h": 1, "initial_window": 2}, {"h": 5, "initial_window": 18}):
            with pytest.raises(ConfigError):
                rolling_backtest(sample, FfmFixed(2, 1), **kwargs)
        with pytest.raises(ConfigError, match="unknown criterion"):
            FfmCriterion("aic")
        with pytest.raises(ConfigError, match="decay"):
            rolling_backtest(sample, Dns(decay=0.0), h=1, initial_window=5)

    def test_validation(self):
        sample = m1_sample(20)
        with pytest.raises(ValueError):
            rolling_backtest(sample, FfmFixed(2, 1), h=0)
        with pytest.raises(ValueError):
            rolling_backtest(sample, FfmFixed(2, 1), h=1, initial_window=2)
        with pytest.raises(ValueError, match="rows"):
            rolling_backtest(sample, FfmFixed(2, 1), h=5, initial_window=18)
        with pytest.raises(TypeError):
            rolling_backtest(np.ones((30, 4)), FfmFixed(2, 1))

    def test_horizon_shrinks_origin_set(self):
        sample = m1_sample(40)
        r1 = rolling_backtest(sample, FfmFixed(2, 1), h=1, initial_window=30)
        r3 = rolling_backtest(sample, FfmFixed(2, 1), h=3, initial_window=30)
        assert r1.origins.size == 10
        assert r3.origins.size == 8
        assert r3.horizon == 3


def mixed_dns_panel():
    """A yield panel whose expanding windows fail in two ways and succeed.

    Rows 0-4 quote zeros, so their betas are exactly zero; rows 5-12 quote
    one curve scaled by powers of two, so their betas are exact multiples
    of one vector.  Windows of those rows fail the condition screen (the
    diagonal fit only on the zero rows).  Row 40 has two quotes, so every
    window that holds it fails as bad data; the windows between succeed.
    """
    maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0, 240.0])
    rng = np.random.default_rng(77)
    betas = np.zeros((60, 3))
    betas[0] = [5.0, -1.0, 0.5]
    for t in range(1, 60):
        betas[t] = 0.9 * betas[t - 1] + 0.2 * rng.normal(size=3)
    loadings = dns_loadings(maturities, 0.07)
    table = betas @ loadings.T + 0.01 * rng.normal(size=(60, 6))
    table[:5] = 0.0
    table[5:13] = 2.0 ** np.arange(8)[:, None] * table[13]
    table[40, 1:5] = np.nan
    return LoosePanel(maturities, table)


def criterion_sample():
    """A sample whose expanding windows fail, select one by one, and stack.

    Rows 0-5 are zero, so a window of them has zero scores and every
    selection cell fails.  The windows just past them lose cells to
    singular designs or to the degrees-of-freedom limit, which sends them
    to ``select_orders`` one by one; later windows fit every cell.
    """
    grid = make_grid(0.0, 1.0, 7)
    rng = np.random.default_rng(17)
    factors = np.zeros((60, 3))
    for t in range(1, 60):
        factors[t] = [0.8, 0.5, -0.4] * factors[t - 1] + rng.normal(size=3) * [1.0, 0.6, 0.3]
    basis = np.array([np.ones(grid.n), np.cos(np.pi * grid.points),
                      np.cos(2.0 * np.pi * grid.points)])
    matrix = 2.0 + factors @ basis + 0.05 * rng.normal(size=(60, grid.n))
    matrix[:6] = 0.0
    return FunctionalSample(grid, matrix)


class TestChunks:
    """Results do not depend on how many origins a range hook takes at once."""

    @staticmethod
    def runs(monkeypatch, data, method, h, initial_window):
        reports = []
        for chunk in (1, 7, backtest_module.CHUNK):
            monkeypatch.setattr(backtest_module, "CHUNK", chunk)
            reports.append(rolling_backtest(data, method, h=h, initial_window=initial_window))
        return reports

    @pytest.mark.parametrize("diagonal", [False, True])
    @pytest.mark.parametrize("h", [1, 3])
    def test_dns(self, monkeypatch, diagonal, h):
        panel = mixed_dns_panel()
        reports = self.runs(monkeypatch, panel, Dns(0.07, diagonal), h, 3)
        first = reports[0]
        kinds = {name for _, name, _ in first.failure_reasons}
        assert kinds == {"NumericError", "DataError"}
        assert np.isfinite(first.errors).any()
        # one origin per call is fit_dns on each truncated panel
        reasons = []
        for i, t in enumerate(first.origins):
            try:
                model = fit_dns(LoosePanel(panel.maturities, panel.table[:t]), 0.07, diagonal)
            except FfmError as exc:
                reasons.append((int(t), type(exc).__name__, str(exc)))
                continue
            pred = dns_forecast(model, panel.maturities, h).matrix[h - 1]
            assert np.array_equal(first.errors[i], pred - panel.table[t + h - 1], equal_nan=True)
        assert first.failure_reasons == tuple(reasons)
        for other in reports[1:]:
            assert np.array_equal(other.errors, first.errors, equal_nan=True)
            assert other.failure_reasons == first.failure_reasons
            assert other.failures == first.failures

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_dns_chunk_without_a_fitted_window(self, monkeypatch, diagonal):
        # rows 0-4 of the panel quote one zero curve, so their betas are
        # constant and every window of them is singular: with 4 origins
        # per call, the first call (origins 3-6) stacks no fitted window
        panel = mixed_dns_panel()
        real = backtest_module.fit_var_windows
        stacked = []

        def spy(*args, **kwargs):
            stacked.append(real(*args, **kwargs))
            return stacked[-1]

        monkeypatch.setattr(backtest_module, "fit_var_windows", spy)
        monkeypatch.setattr(backtest_module, "CHUNK", 4)
        report = rolling_backtest(panel, Dns(0.07, diagonal), h=2, initial_window=3)
        failures, lags = stacked[0]
        assert len(failures) == 4 and None not in failures
        assert lags.shape == (0, 1, 3, 3)
        # one origin at a time is fit_dns and dns_forecast on each truncated panel
        errors = np.full_like(report.errors, np.nan)
        reasons = []
        for i, t in enumerate(report.origins):
            try:
                model = fit_dns(LoosePanel(panel.maturities, panel.table[:t]), 0.07, diagonal)
            except FfmError as exc:
                reasons.append((int(t), type(exc).__name__, str(exc)))
                continue
            errors[i] = dns_forecast(model, panel.maturities, 2).matrix[1] - panel.table[t + 1]
        assert np.array_equal(report.errors, errors, equal_nan=True)
        assert report.failure_reasons == tuple(reasons)
        assert reasons[0][0] == 3 and reasons[3][0] == 6

    def test_ffm_fixed(self, monkeypatch):
        from ffm import make_grid
        sample = FunctionalSample(make_grid(0.0, 1.0, 6),
                                  np.random.default_rng(13).normal(size=(12, 6)))
        reports = self.runs(monkeypatch, sample, FfmFixed(5, 1), 1, 4)
        assert reports[0].failures == 3
        for other in reports[1:]:
            assert np.array_equal(other.errors, reports[0].errors, equal_nan=True)
            assert other.failure_reasons == reports[0].failure_reasons
            assert other.failures == reports[0].failures

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("h", [1, 3])
    def test_ffm_criterion(self, monkeypatch, tied_fpca, restricted, h):
        sample = criterion_sample()
        method = FfmCriterion("bic", 2, 2, restricted)
        # the 30-curve window gets an FPCA whose grid ties exactly at its
        # two best cells, so the stack must hand it to select_orders
        tie_at = 30
        real = backtest_module.fpca
        window = real(FunctionalSample(sample.grid, sample.matrix[:tie_at]))
        tied = tied_fpca(
            lambda scores, second: replace(window, eigenvalues=np.array([10.0, second]),
                                           eigenfunctions=window.eigenfunctions[:2],
                                           scores=scores, tail_eigenvalues=np.array([])),
            np.random.default_rng(5), restricted, tie_at)
        values = np.sort(select_orders(tied, 2, 2, ("bic",), restricted)["bic"].values.ravel())
        assert values[0] == values[1]
        # stacked with a longer window, the tie is padded and the stack gives no grid;
        # alone, nothing is padded and the stack gives select_orders's grid
        longer = real(FunctionalSample(sample.grid, sample.matrix[:tie_at + 5]))
        stacked = selection_module._stacked_grids([tied, longer], 2, 2, ("bic",), restricted)
        assert stacked[0] is None
        alone = selection_module._stacked_grids([tied], 2, 2, ("bic",), restricted)[0]["bic"]
        assert np.array_equal(np.sort(alone.values.ravel()), values)

        def fpca_with_tie(data, k_max=None):
            return tied if data.n_curves == tie_at else real(data, k_max)

        monkeypatch.setattr(backtest_module, "fpca", fpca_with_tie)
        monkeypatch.setattr(pipeline_module, "fpca", fpca_with_tie)
        rerun = []
        fit = backtest_module._fit

        def counted(full, config, grid=None):
            if grid is None:
                rerun.append(full.n_curves)
            return fit(full, config, grid)

        monkeypatch.setattr(backtest_module, "_fit", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports = self.runs(monkeypatch, sample, method, h, 3)
            first = reports[-1]   # CHUNK as shipped
            for budget in (1, 2**30):   # one series per stack, and one stack per chunk
                monkeypatch.setattr(selection_module, "STACK_BYTES", budget)
                reports.insert(0, rolling_backtest(sample, method, h=h, initial_window=3))
            # one origin per call is fit_ffm and forecast on each window
            errors = np.full_like(first.errors, np.nan)
            selected = np.zeros_like(first.selected)
            reasons = []
            for i, t in enumerate(first.origins):
                config = FfmConfig(criterion="bic", k_max=min(2, t - 1, sample.grid.n), p_max=2,
                                   restricted=restricted)
                try:
                    model = fit_ffm(FunctionalSample(sample.grid, sample.matrix[:t]), config)
                except FfmError as exc:
                    reasons.append((int(t), type(exc).__name__, str(exc)))
                    continue
                errors[i] = forecast(model, h).matrix[h - 1] - sample.matrix[t + h - 1]
                selected[i] = (model.k, model.p)
        # each run selected the tied window, and other windows, but not all, on their own
        assert rerun.count(tie_at) == len(reports)
        assert len(set(rerun)) > 1 and len(rerun) < len(reports) * first.origins.size
        assert {name for _, name, _ in first.failure_reasons} == {"NumericError"}
        assert np.isfinite(first.errors).any()
        assert np.array_equal(first.errors, errors, equal_nan=True)
        assert np.array_equal(first.selected, selected)
        assert first.failure_reasons == tuple(reasons)
        for other in reports[:-1]:
            assert np.array_equal(other.errors, first.errors, equal_nan=True)
            assert np.array_equal(other.selected, first.selected)
            assert other.failure_reasons == first.failure_reasons


class TestFpcaPerOrigin:
    def test_fallback_origins_reuse_their_fpca(self, monkeypatch, benchmark_inputs):
        # on this short panel every origin selects on its own (p_max clipped,
        # failed cells, or alone in its grid size), and none may run FPCA twice
        panel = DiscretePanel(benchmark_inputs.MATURITIES, benchmark_inputs.yield_panel(12, 60))
        real = backtest_module.fpca
        windows = []

        def counted(data, k_max=None):
            windows.append(data.n_curves)
            return real(data, k_max)

        monkeypatch.setattr(backtest_module, "fpca", counted)
        monkeypatch.setattr(pipeline_module, "fpca", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = rolling_backtest(panel, FfmCriterion("ffpe"), h=1, initial_window=5)
        assert report.origins.size == 55 and report.failures == 0
        assert windows == report.origins.tolist()
        assert report.rmsfe == 1.1907081295356694


class TestLabelsAndSummary:
    def test_method_labels(self):
        assert FfmFixed(3, 1).label == "ffm-fixed(3,1,var)"
        assert FfmFixed(2, 2, restricted=True).label == "ffm-fixed(2,2,ar)"
        assert FfmCriterion("hqc").label == "ffm-hqc(var)"
        assert FfmCriterion("bic", restricted=True).label == "ffm-bic(ar)"
        assert Dns().label == "dns(var)"
        assert Dns(diagonal=True).label == "dns(ar)"
        with pytest.raises(ValueError):
            FfmCriterion("aic")

    def test_summary_row(self):
        report = report_with_errors([[1.0, 2.0], [2.0, 1.0]])
        row = report.summary_row()
        assert list(row)[:6] == ["method", "K", "p", "dynamics", "horizon", "rmsfe"]
        assert row["method"] == "stub"
        assert row["origins"] == 2
        assert row["failures"] == 0
        assert row["rmsfe"] == pytest.approx(np.sqrt(10.0 / 4.0))

    def test_summary_orders_per_method(self):
        sample = m1_sample(40)
        fixed = rolling_backtest(sample, FfmFixed(2, 1, restricted=True),
                                 h=1, initial_window=30).summary_row()
        assert (fixed["K"], fixed["p"], fixed["dynamics"]) == (2, 1, "ar")
        crit = rolling_backtest(sample, FfmCriterion(k_max=3, p_max=2),
                                h=1, initial_window=30).summary_row()
        assert crit["K"] is None and crit["p"] is None
        assert crit["dynamics"] == "var"
