"""Score VAR estimation and iterated forecasting."""

import numpy as np
import pytest

from ffm import (ConfigError, DataError, DiscretePanel, FunctionalSample, Grid, NumericError,
                 coefficient_matrix, companion_spectral_radius, fit_var, forecast_scores, fpca,
                 max_abs_tstat, panel_to_sample)
from ffm.dynamics import CONDITION_LIMIT, fit_var_windows, forecast_windows

WHITE_NOISE_COEF_BOUND = 0.08


def simulate_var(rng, lag_matrices, t_obs, burn=200, noise=1.0):
    lag_matrices = np.asarray(lag_matrices, dtype=float)
    m, j = lag_matrices.shape[0], lag_matrices.shape[1]
    x = np.zeros((burn + t_obs, j))
    for t in range(1, burn + t_obs):
        for k in range(1, min(m, t) + 1):
            x[t] += lag_matrices[k - 1] @ x[t - k]
        x[t] += noise * rng.normal(size=j)
    return x[burn:]


class TestFit:
    def test_hand_ols_ar1(self):
        # sum(x_t x_{t-1}) / sum(x_{t-1}^2) = 40 / 30 for 1..5
        scores = np.arange(1.0, 6.0)[:, None]
        fit = fit_var(scores, 1)
        assert fit.coefficients[0, 0, 0] == pytest.approx(40.0 / 30.0, rel=1e-14)
        assert fit.order == 1 and fit.dim == 1 and fit.n_obs == 5
        expected_resid = scores[1:, 0] - (40.0 / 30.0) * scores[:-1, 0]
        assert np.allclose(fit.residuals[:, 0], expected_resid, atol=1e-12)
        assert fit.sigma_eta[0, 0] == pytest.approx(
            float(expected_resid @ expected_resid) / 4.0, rel=1e-12)
        # standard error from the classical sandwich-free formula
        se = np.sqrt(fit.sigma_eta[0, 0] / 30.0)
        assert fit.stderr[0, 0, 0] == pytest.approx(se, rel=1e-12)

    def test_matches_dense_normal_equations(self):
        rng = np.random.default_rng(21)
        scores = simulate_var(rng, [np.array([[0.5, 0.1], [-0.2, 0.3]]),
                                    np.array([[0.1, 0.0], [0.0, -0.2]])], 300)
        fit = fit_var(scores, 2)
        # oracle: lstsq on the same design, coefficient layout [A_1 A_2]
        t = scores.shape[0]
        design = np.hstack([scores[1:t - 1], scores[0:t - 2]])
        beta, *_ = np.linalg.lstsq(design, scores[2:], rcond=None)
        assert np.allclose(coefficient_matrix(fit), beta.T, atol=1e-10)
        resid = scores[2:] - design @ beta
        assert np.allclose(fit.residuals, resid, atol=1e-10)
        assert np.allclose(fit.sigma_eta, resid.T @ resid / (t - 2), atol=1e-12)

    def test_matches_scipy_cholesky_reference(self):
        # the reference path fit_var replaced: scipy's cho_factor/cho_solve
        # on the same normal equations, with G^{-1} from cho_solve on I
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(23)
        for m, restricted, intercept in ((1, False, False), (3, False, False),
                                         (2, False, True), (2, True, False)):
            scores = rng.normal(size=(90, 3)) * np.array([1.0, 1e-2, 30.0])
            fit = fit_var(scores, m, restricted=restricted, intercept=intercept)
            t = scores.shape[0]
            design = np.hstack([scores[m - k:t - k] for k in range(1, m + 1)])
            designs = ([design[:, l::3] for l in range(3)] if restricted else
                       [np.hstack([design, np.ones((t - m, 1))]) if intercept else design])
            targets = [scores[m:, [l]] for l in range(3)] if restricted else [scores[m:]]
            for l, (x, y) in enumerate(zip(designs, targets)):
                factor = scipy_linalg.cho_factor(x.T @ x)
                coef = scipy_linalg.cho_solve(factor, x.T @ y)
                gram_inv = scipy_linalg.cho_solve(factor, np.eye(x.shape[1]))
                resid = y - x @ coef
                s2 = np.einsum("ti,ti->i", resid, resid) / (t - m)
                se = np.sqrt(np.outer(s2, np.diag(gram_inv)))
                if restricted:
                    assert np.allclose(fit.coefficients[:, l, l], coef[:, 0], rtol=1e-12, atol=0)
                    assert np.allclose(fit.stderr[:, l, l], se[0], rtol=1e-12, atol=0)
                    assert np.allclose(fit.residuals[:, l], resid[:, 0], rtol=0, atol=1e-12)
                    continue
                lags = coef[:3 * m].T
                assert np.allclose(coefficient_matrix(fit), lags, rtol=1e-12, atol=1e-15)
                assert np.allclose(np.hstack(list(fit.stderr)), se[:, :3 * m],
                                   rtol=1e-12, atol=0)
                assert np.allclose(fit.residuals, resid, rtol=0, atol=1e-12)
                if intercept:
                    assert np.allclose(fit.intercept, coef[-1], rtol=1e-12, atol=1e-15)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=(120, 3))
        fit = fit_var(scores, 2)
        design = np.hstack([scores[1:-1], scores[0:-2]])
        assert np.allclose(design.T @ fit.residuals, 0.0, atol=1e-8)

    def test_white_noise_coefficients_near_zero(self):
        rng = np.random.default_rng(314)
        fit = fit_var(rng.normal(size=(5000, 2)), 1)
        assert np.max(np.abs(fit.coefficients)) < WHITE_NOISE_COEF_BOUND

    def test_recovers_generating_matrix(self):
        rng = np.random.default_rng(99)
        a = np.array([[0.6, -0.2], [0.1, 0.4]])
        scores = simulate_var(rng, [a], 20000)
        fit = fit_var(scores, 1)
        assert np.allclose(fit.coefficients[0], a, atol=0.03)

    def test_intercept_recovery(self):
        rng = np.random.default_rng(4)
        t, a, c = 20000, 0.5, 2.0
        x = np.zeros(t)
        for i in range(1, t):
            x[i] = c + a * x[i - 1] + rng.normal()
        fit = fit_var(x[:, None], 1, intercept=True)
        assert fit.intercept is not None
        assert fit.intercept[0] == pytest.approx(c, abs=0.15)
        assert fit.coefficients[0, 0, 0] == pytest.approx(a, abs=0.03)
        no_const = fit_var(x[:, None], 1)
        assert no_const.intercept is None

    def test_validation(self):
        # options are ConfigErrors (still ValueErrors), scores that cannot
        # carry the fit are DataErrors
        scores = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ConfigError, match="lag order must be at least 1"):
            fit_var(scores, 0)
        with pytest.raises(DataError, match="need more than m=10 observations"):
            fit_var(scores, 10)
        with pytest.raises(ConfigError, match="intercept is not supported"):
            fit_var(scores, 1, restricted=True, intercept=True)
        with pytest.raises(DataError, match=r"scores must be a \(T, J\) matrix"):
            fit_var(scores[None], 1)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_non_finite_score_is_a_data_error(self, restricted):
        # before the check, a NaN reached the condition number's SVD and
        # escaped as numpy's LinAlgError("SVD did not converge")
        scores = np.random.default_rng(0).normal(size=(30, 2))
        for value in (np.nan, np.inf):
            bad = scores.copy()
            bad[17, 1] = value
            with pytest.raises(DataError, match=f"row 17 column 1 holds {value}"):
                fit_var(bad, 1, restricted)

    def test_saturated_design_is_rejected(self):
        # T - m rows for J*m regressors (plus one with an intercept): an
        # exact fit with no residual degree of freedom
        scores = np.random.default_rng(16).normal(size=(8, 3))
        with pytest.raises(NumericError, match="no residual degrees of freedom"):
            fit_var(scores, 2)
        with pytest.raises(NumericError, match="no residual degrees of freedom"):
            fit_var(scores[:5], 1, intercept=True)
        with pytest.raises(NumericError, match="no residual degrees of freedom"):
            fit_var(scores[:4], 2, restricted=True)
        fit_var(scores[:5], 2, restricted=True)

    def test_singular_design_is_rejected(self):
        rng = np.random.default_rng(15)
        base = rng.normal(size=(50, 1))
        scores = np.hstack([base, base])  # perfectly collinear coordinates
        with pytest.raises(NumericError, match="singular"):
            fit_var(scores, 1)


class TestRestricted:
    def test_diagonal_structure_and_univariate_agreement(self):
        rng = np.random.default_rng(55)
        scores = simulate_var(rng, [np.diag([0.7, -0.3])], 400)
        fit = fit_var(scores, 2, restricted=True)
        assert fit.restricted
        for k in range(2):
            off = fit.coefficients[k] - np.diag(np.diag(fit.coefficients[k]))
            assert np.all(off == 0.0)
            off_se = fit.stderr[k] - np.diag(np.diag(fit.stderr[k]))
            assert np.all(off_se == 0.0)
        # coordinate l equals its own univariate AR fit
        for l in range(2):
            uni = fit_var(scores[:, [l]], 2)
            assert np.allclose(fit.coefficients[:, l, l],
                               uni.coefficients[:, 0, 0], atol=1e-12)
            assert fit.sigma_eta[l, l] == pytest.approx(
                uni.sigma_eta[0, 0], rel=1e-12)

    def test_nested_in_full_fit(self):
        rng = np.random.default_rng(56)
        scores = simulate_var(rng, [np.array([[0.5, 0.2], [0.2, 0.1]])], 250)
        full = fit_var(scores, 1)
        diag = fit_var(scores, 1, restricted=True)
        # the full fit minimizes the same sums of squares over a superset
        assert np.trace(full.sigma_eta) <= np.trace(diag.sigma_eta) + 1e-12

    def test_sigma_is_psd(self):
        rng = np.random.default_rng(57)
        for restricted in (False, True):
            fit = fit_var(rng.normal(size=(60, 3)), 2, restricted=restricted)
            vals = np.linalg.eigvalsh(fit.sigma_eta)
            assert vals.min() > -1e-12


class TestForecast:
    def test_scalar_halving(self):
        # fitting a halving series gives a = 0.5 exactly; iterating from
        # F_T = 4 then halves each step: 2, 1, 0.5
        scores = np.array([[16.0], [8.0], [4.0], [2.0]])
        fit = fit_var(scores, 1)
        assert fit.coefficients[0, 0, 0] == pytest.approx(0.5, rel=1e-14)
        out = forecast_scores(fit, np.array([[4.0]]), 3)
        assert np.allclose(out, [[2.0], [1.0], [0.5]], atol=1e-12)

    def test_matches_direct_recursion(self):
        rng = np.random.default_rng(70)
        scores = simulate_var(rng, [np.array([[0.4, -0.2], [0.0, 0.3]]),
                                    np.array([[-0.1, 0.0], [0.1, -0.2]])], 150)
        fit = fit_var(scores, 2)
        h = 5
        out = forecast_scores(fit, scores, h)
        a1, a2 = fit.coefficients
        path = [scores[-2], scores[-1]]
        for _ in range(h):
            path.append(a1 @ path[-1] + a2 @ path[-2])
        assert np.allclose(out, np.array(path[2:]), atol=1e-12)

    def test_one_step_matches_fitted_value(self):
        rng = np.random.default_rng(71)
        scores = rng.normal(size=(80, 2))
        fit = fit_var(scores, 3)
        # residual identity: prediction for the last in-sample time equals
        # the observation minus its residual (different BLAS kernels keep
        # this from being bit-exact, but it holds to machine precision)
        pred = forecast_scores(fit, scores[:-1], 1)[0]
        assert np.allclose(pred, scores[-1] - fit.residuals[-1], atol=1e-13)

    def test_intercept_enters_recursion(self):
        scores = np.array([[1.0], [2.5], [1.5], [3.0], [2.0]])
        fit = fit_var(scores, 1, intercept=True)
        out = forecast_scores(fit, scores, 2)
        a = fit.coefficients[0, 0, 0]
        c = fit.intercept[0]
        assert out[0, 0] == pytest.approx(c + a * 2.0, rel=1e-12)
        assert out[1, 0] == pytest.approx(c + a * out[0, 0], rel=1e-12)

    def test_validation(self):
        fit = fit_var(np.random.default_rng(1).normal(size=(30, 2)), 2)
        with pytest.raises(DataError):
            forecast_scores(fit, np.ones((1, 2)), 1)  # too little history
        with pytest.raises(DataError):
            forecast_scores(fit, np.ones((5, 3)), 1)  # wrong dimension
        with pytest.raises(ConfigError):
            forecast_scores(fit, np.ones((5, 2)), 0)


def window_series(rng, dims=3, t_obs=70, collinear=25, zero=10):
    """A series whose leading windows fail the condition screen.

    Rows 0-5 are zero (a zero design, also for every own-lag regression)
    and rows 6 to ``collinear - 1`` hold a second coordinate exactly twice
    the first (collinear full designs); the third coordinate stays zero up
    to row ``zero - 1``, so restricted fits there fail on it alone.  Later
    rows are generic.
    """
    if dims == 3:
        lag = np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.2], [0.1, 0.0, -0.4]])
    else:
        lag = np.diag(np.linspace(0.6, -0.4, dims)) + 0.1 * np.eye(dims, k=1)
    scores = simulate_var(rng, [lag], t_obs)
    scores[:6] = 0.0
    scores[6:collinear, 1] = 2.0 * scores[6:collinear, 0]
    scores[6:zero, 2] = 0.0
    return scores


class TestWindows:
    """The stacked kernel gives fit_var's lag matrices and refusals, bit for bit."""

    @staticmethod
    def check(scores, m, ends, restricted):
        """Asserts each window's lags or refusal is fit_var's; returns the refusal kinds seen."""
        failures, lags = fit_var_windows(scores, m, ends, restricted)
        assert len(failures) == len(ends)
        fitted = iter(lags)
        reasons = set()
        for w, t in enumerate(ends):
            try:
                fit = fit_var(scores[:t], m, restricted)
            except NumericError as exc:
                assert failures[w] == str(exc), t
                reasons.add("singular" if "numerically singular" in str(exc) else "dof")
                continue
            assert failures[w] is None, t
            assert np.array_equal(next(fitted), fit.coefficients), t
        assert next(fitted, None) is None
        dims = scores.shape[1]
        assert lags.shape == (sum(why is None for why in failures), m, dims, dims)
        return reasons, lags.shape[0]

    @pytest.mark.parametrize("m", [1, 2, 3])
    # ids name (restricted, intercept); the windowed call fits no intercept
    @pytest.mark.parametrize("restricted", [False, True], ids=["False-False", "True-False"])
    @pytest.mark.parametrize("dims", [3, 1])
    def test_every_window_matches_fit_var(self, m, restricted, dims):
        # one series has single-entry products over rows, whose BLAS
        # partial sums depend on the row count
        scores = np.ascontiguousarray(window_series(np.random.default_rng(40 + m))[:, :dims])
        ends = np.arange(m + 1, scores.shape[0] + 1)
        reasons, fitted = self.check(scores, m, ends, restricted)
        # the series reaches both refusals and still fits most windows
        assert reasons == {"dof", "singular"}
        assert fitted > ends.size // 2

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_eight_factors_every_window_matches_fit_var(self, m, restricted):
        # at lag 8 the full design has 64 columns, so the degenerate
        # stretches are longer than the 3-factor series'
        scores = window_series(np.random.default_rng(80 + m), 8, 220, collinear=92, zero=42)
        ends = np.arange(m + 1, scores.shape[0] + 1)
        reasons, fitted = self.check(scores, m, ends, restricted)
        assert reasons == {"dof", "singular"}
        assert fitted > ends.size // 2

    @pytest.mark.parametrize("restricted", [False, True])
    def test_benchmark_panel_lag_eight_windows(self, benchmark_inputs, restricted):
        # eight factors of the seed-7 backtest panel at lag 8 on unequal
        # windows, the 177- and 183-row ones among them: a QR of zero-padded
        # designs changed the R of such a window in 525 entries
        inputs = benchmark_inputs
        panel = DiscretePanel(inputs.MATURITIES, inputs.yield_panel(7, inputs.BACKTEST_ROWS))
        sample = panel_to_sample(panel, Grid(panel.maturities))
        scores = fpca(FunctionalSample(sample.grid, sample.matrix[:183])).scores[:, :8]
        reasons, fitted = self.check(scores, 8, [70, 150, 177, 183], restricted)
        # the 70-row window has 62 rows for the full fit's 64 regressors
        assert (reasons, fitted) == (({"dof"}, 3) if not restricted else (set(), 4))

    @pytest.mark.parametrize("restricted", [False, True])
    def test_rows_past_the_last_window_are_not_read(self, restricted):
        # as the DNS backtest passes betas whose rows past a bad row are NaN
        scores = window_series(np.random.default_rng(6))
        scores[50:] = np.nan
        assert self.check(scores, 2, np.arange(30, 51), restricted)[1] == 21
        with pytest.raises(DataError, match="row 50 column 0 holds nan"):
            fit_var_windows(scores, 2, [40, 51], restricted)
        assert fit_var_windows(scores, 2, [], restricted)[0] == []

    def test_condition_limit_message_is_fit_vars(self):
        scores = window_series(np.random.default_rng(5))
        failures, lags = fit_var_windows(scores, 1, [5, 12, 30])
        assert failures[0].startswith("lagged design is numerically singular")
        assert failures[1].startswith("lagged design is numerically singular")
        assert f"> {CONDITION_LIMIT:.0e})" in failures[1]
        assert failures[2] is None
        assert lags.shape == (1, 1, 3, 3)
        with pytest.raises(NumericError) as exc:
            fit_var(scores[:12], 1)
        assert str(exc.value) == failures[1]

    @pytest.mark.parametrize("m, intercept", [(1, False), (2, False), (3, False), (2, True)])
    def test_stacked_forecasts_match_forecast_scores(self, m, intercept):
        rng = np.random.default_rng(60 + m)
        scores = simulate_var(rng, [np.diag([0.6, 0.3, -0.2]), np.diag([0.1, 0.2, 0.1])], 90)
        ends = np.arange(40, 91, 3)
        fits = [fit_var(scores[:t], m, intercept=intercept) for t in ends]
        if intercept:
            # the windowed fit has no intercept, so stack one-window fits
            lags = np.stack([fit.coefficients for fit in fits])
            const = np.stack([fit.intercept for fit in fits])
        else:
            _, lags = fit_var_windows(scores, m, ends)
            const = None
        history = np.stack([scores[t - m:t][::-1] for t in ends])
        out = forecast_windows(lags, const, history, 4)
        # the recursion lays the lag matrices out itself, whatever it is given
        fortran = forecast_windows(np.asfortranarray(lags), const, history, 4)
        for w, (t, fit) in enumerate(zip(ends, fits)):
            assert np.array_equal(out[w], forecast_scores(fit, scores[:t], 4)), t
            assert np.array_equal(fortran[w], out[w]), t


class TestDiagnostics:
    def test_spectral_radius_scalar(self):
        assert companion_spectral_radius(np.array([[[0.5]]])) == pytest.approx(0.5)
        assert companion_spectral_radius(np.array([[1.2]])) == pytest.approx(1.2)

    def test_spectral_radius_companion_order_two(self):
        # x_t = 0.5 x_{t-1} + 0.24 x_{t-2}: roots of z^2 - 0.5 z - 0.24
        # are 0.8 and -0.3
        stack = np.array([[[0.5]], [[0.24]]])
        assert companion_spectral_radius(stack) == pytest.approx(0.8, rel=1e-12)

    def test_spectral_radius_accepts_fit(self):
        rng = np.random.default_rng(2)
        fit = fit_var(simulate_var(rng, [np.diag([0.6, 0.2])], 500), 1)
        r = companion_spectral_radius(fit)
        assert 0.0 < r < 1.0

    def test_tstat_separates_signal_from_noise(self):
        rng = np.random.default_rng(31415)
        strong = fit_var(simulate_var(rng, [np.array([[0.8]])], 400), 1)
        assert max_abs_tstat(strong) > 10.0
        weak = fit_var(rng.normal(size=(400, 1)), 1)
        assert max_abs_tstat(weak) < 3.0

    def test_tstat_ignores_constrained_zeros(self):
        rng = np.random.default_rng(6)
        scores = simulate_var(rng, [np.diag([0.7, 0.5])], 300)
        fit = fit_var(scores, 1, restricted=True)
        expected = np.max(np.abs(np.diag(fit.coefficients[0]) /
                                 np.diag(fit.stderr[0])))
        assert max_abs_tstat(fit) == pytest.approx(expected, rel=1e-12)
