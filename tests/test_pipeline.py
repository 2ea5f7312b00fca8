"""Fit/select/forecast workflow glue."""

import warnings

import numpy as np
import pytest

from ffm import (DataError, DiscretePanel, FfmConfig, FpcaResult, Grid, NumericError, SimSpec,
                 fit_ffm, fit_var, fitted_curves, fitted_one_step, forecast, forecast_scores,
                 fpca, panel_to_sample, select_orders, simulate)

SIGN_FLIP_TOL = 1e-10


def sim_sample(model="M1", t_obs=300, seed=5):
    return simulate(SimSpec(model=model, n_obs=t_obs, seed=seed))


def flip_signs(result, flips):
    """An equally valid FPCA output with some eigenfunctions negated."""
    s = np.asarray(flips, dtype=float)
    return FpcaResult(
        grid=result.grid,
        mean=result.mean,
        eigenvalues=result.eigenvalues,
        eigenfunctions=result.eigenfunctions * s[:, None],
        scores=result.scores * s[None, :],
        tail_eigenvalues=result.tail_eigenvalues,
        times=result.times,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            FfmConfig(criterion="waic")
        with pytest.raises(ValueError, match="both k and p"):
            FfmConfig(k=2)
        with pytest.raises(ValueError, match="both k and p"):
            FfmConfig(p=1)
        with pytest.raises(ValueError):
            FfmConfig(k=0, p=1)
        with pytest.raises(ValueError):
            FfmConfig(k_max=0)
        FfmConfig(k=2, p=1)  # pinned orders are fine


class TestFit:
    def test_selected_path_records_grid(self):
        sample = sim_sample("M1", 400)
        model = fit_ffm(sample, FfmConfig(criterion="bic", k_max=6, p_max=4))
        assert model.selection is not None
        assert model.selection.chosen == (model.k, model.p)
        assert model.var_fit.dim == model.k
        assert model.var_fit.order == model.p
        # M1 has three strong AR(1) factors; BIC finds them at this length
        assert (model.k, model.p) == (3, 1)
        assert not model.degenerate_dynamics

    def test_pinned_path_skips_selection(self):
        sample = sim_sample("M2", 250)
        model = fit_ffm(sample, FfmConfig(k=2, p=2))
        assert model.selection is None
        assert (model.k, model.p) == (2, 2)
        # identical to fitting the pieces by hand
        full = fpca(sample)
        var = fit_var(full.scores[:, :2], 2)
        assert np.array_equal(model.var_fit.coefficients, var.coefficients)

    def test_limits_are_clipped_with_warning(self):
        # a huge p_max saturates the short design, so besides the clip
        # warning the near-T cells legitimately warn about singular fits;
        # record everything and pick out the clip messages
        import warnings as warnings_module
        sample = sim_sample("M4", 30)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            model = fit_ffm(sample, FfmConfig(k_max=80, p_max=3))
        assert any("clipped" in str(w.message) for w in caught)
        assert model.selection.k_max == min(29, sample.grid.n)
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            clipped = fit_ffm(sample, FfmConfig(k_max=3, p_max=500))
        assert any("clipped" in str(w.message) for w in caught)
        assert clipped.selection.p_max == 29

    def test_pinned_order_bounds(self):
        sample = sim_sample("M4", 20)
        with pytest.raises(NumericError, match="rank"):
            fit_ffm(sample, FfmConfig(k=40, p=1))
        # fit_var refuses the pinned lag order itself, with its own message
        with pytest.raises(DataError) as pinned:
            fit_ffm(sample, FfmConfig(k=1, p=20))
        with pytest.raises(DataError) as direct:
            fit_var(fpca(sample).scores[:, :1], 20)
        assert str(pinned.value) == str(direct.value) == "need more than m=20 observations, got 20"

    def test_selection_warnings_point_at_the_caller(self, benchmark_inputs):
        # 12 curves: both clips, and failed cells on the clipped 11 x 11 grid
        panel = DiscretePanel(benchmark_inputs.MATURITIES, benchmark_inputs.yield_panel(12, 12))
        sample = panel_to_sample(panel, Grid(panel.maturities))
        with warnings.catch_warnings(record=True) as fitted:
            warnings.simplefilter("always")
            fit_ffm(sample, FfmConfig(k_max=20, p_max=20))
        with warnings.catch_warnings(record=True) as selected:
            warnings.simplefilter("always")
            select_orders(fpca(sample), 20, 20, ("bic",))
        messages = [str(w.message) for w in fitted]
        assert messages == [str(w.message) for w in selected]
        assert "clipped" in messages[0] and "clipped" in messages[1]
        assert "selection cells failed" in messages[2]
        assert {w.filename for w in fitted + selected} == {__file__}

    def test_white_noise_is_flagged_degenerate(self):
        rng = np.random.default_rng(17)
        spec = SimSpec(model="M1", n_obs=150)
        from ffm import FunctionalSample
        sample = FunctionalSample(spec.grid, rng.normal(size=(150, spec.grid.n)))
        model = fit_ffm(sample, FfmConfig(k=2, p=1))
        assert model.degenerate_dynamics
        strong = fit_ffm(sim_sample("M1", 300), FfmConfig(k=3, p=1))
        assert not strong.degenerate_dynamics


class TestFittedValues:
    def test_one_step_identity(self):
        model = fit_ffm(sim_sample("M2", 200), FfmConfig(k=2, p=2))
        hat = fitted_one_step(model)
        assert hat.matrix.shape == (198, model.grid.n)
        assert hat.times == model.fpca.times[2:]
        # construction identity, bit for bit
        expected = model.fpca.mean.values + (
            model.fpca.scores[2:, :2] - model.var_fit.residuals
        ) @ model.fpca.eigenfunctions[:2]
        assert np.array_equal(hat.matrix, expected)

    def test_fitted_curves_truncate_reconstruction(self):
        sample = sim_sample("M1", 100)
        model = fit_ffm(sample, FfmConfig(k=3, p=1))
        curves = fitted_curves(model)
        assert curves.matrix.shape == sample.matrix.shape
        # three Fourier components of M1 dominate; truncation keeps most
        # of the sample variance
        resid = sample.matrix - curves.matrix
        assert resid.var() < 0.25 * sample.matrix.var()


class TestForecast:
    def test_matches_manual_recursion(self):
        model = fit_ffm(sim_sample("M3", 220), FfmConfig(k=2, p=4))
        out = forecast(model, 6)
        assert out.horizons == tuple(range(1, 7))
        manual = forecast_scores(model.var_fit, model.fpca.scores[-4:, :2], 6)
        assert np.array_equal(out.score_forecasts, manual)
        expected = model.fpca.mean.values + manual @ model.fpca.eigenfunctions[:2]
        assert np.array_equal(out.matrix, expected)
        curve3 = out.curve(3)
        assert np.array_equal(curve3.values, out.matrix[2])
        with pytest.raises(ValueError):
            out.curve(9)
        with pytest.raises(ValueError):
            forecast(model, 0)

    def test_invariant_to_eigenfunction_signs(self):
        # negating any subset of eigenfunctions (and their scores) is an
        # equally valid factorization; every downstream product must agree
        sample = sim_sample("M2", 180, seed=9)
        base = fpca(sample, k_max=4)
        rng = np.random.default_rng(0)
        for _ in range(5):
            flips = rng.choice([-1.0, 1.0], size=4)
            other = flip_signs(base, flips)
            for p in (1, 2):
                fit_a = fit_var(base.scores[:, :2], p)
                fit_b = fit_var(other.scores[:, :2], p)
                fc_a = forecast_scores(fit_a, base.scores[-p:, :2], 5)
                fc_b = forecast_scores(fit_b, other.scores[-p:, :2], 5)
                curves_a = fc_a @ base.eigenfunctions[:2]
                curves_b = fc_b @ other.eigenfunctions[:2]
                assert np.allclose(curves_a, curves_b, atol=SIGN_FLIP_TOL)

    def test_degenerate_model_forecasts_near_mean(self):
        rng = np.random.default_rng(23)
        from ffm import FunctionalSample, make_grid
        grid = make_grid(0.0, 1.0, 31)
        sample = FunctionalSample(grid, rng.normal(size=(400, 31)))
        model = fit_ffm(sample, FfmConfig(k=2, p=1))
        out = forecast(model, 12)
        # white-noise coefficients shrink the forecasts toward the mean
        # geometrically fast
        gap = np.abs(out.matrix[-1] - model.fpca.mean.values)
        assert gap.max() < 0.05
