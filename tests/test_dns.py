"""Nelson-Siegel loadings, cross-sectional fits, and factor forecasts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffm import (DEFAULT_DECAY, ConfigError, DataError, DiscretePanel, Dns, dns_forecast,
                 dns_loadings, fit_dns, rolling_backtest)
from ffm.dns import dns_betas

# slope and curvature loadings at maturity 30 months with the standard
# decay 0.0609, from an independent 40-digit evaluation
SLOPE_AT_30 = 0.4592799501576595
CURVATURE_AT_30 = 0.2983844190957035

BETA_RECOVERY_TOL = 1e-10
# grouped betas against per-row lstsq, relative to the row's largest beta
KERNEL_RTOL = 1e-12

H15_MATURITIES = np.array([1, 3, 6, 12, 24, 36, 60, 84, 120, 240, 360], dtype=float)


class LoosePanel(DiscretePanel):
    """A panel without the spline floor, so rows may keep fewer than 4 quotes."""

    MIN_KNOTS = 0


def per_row_reference(panel, decay):
    """Betas from one lstsq per row, and the first row that cannot be fitted."""
    loadings = dns_loadings(panel.maturities, decay)
    betas = np.full((panel.n_rows, 3), np.nan)
    first_bad = None
    for t in range(panel.n_rows):
        mask = ~np.isnan(panel.table[t])
        if mask.sum() < 3:
            first_bad = first_bad or (t, f"row {t} has fewer than 3 observed maturities")
            continue
        coef, _, rank, _ = np.linalg.lstsq(loadings[mask], panel.table[t, mask], rcond=None)
        if rank < 3:
            first_bad = first_bad or (t, f"row {t} has a rank-deficient loading cross-section")
            continue
        betas[t] = coef
    return betas, first_bad


def maturity_grid():
    return np.arange(1.0, 121.0)


class TestLoadings:
    def test_limits_at_zero_maturity(self):
        row = dns_loadings([0.0])[0]
        assert np.array_equal(row, [1.0, 1.0, 0.0])

    def test_frozen_values_at_30_months(self):
        row = dns_loadings([30.0])[0]
        assert row[0] == 1.0
        assert row[1] == pytest.approx(SLOPE_AT_30, rel=1e-12)
        assert row[2] == pytest.approx(CURVATURE_AT_30, rel=1e-12)

    def test_matches_naive_formula(self):
        r = np.array([0.5, 3.0, 24.0, 120.0, 360.0])
        x = DEFAULT_DECAY * r
        naive_slope = (1.0 - np.exp(-x)) / x
        out = dns_loadings(r)
        assert np.allclose(out[:, 1], naive_slope, rtol=1e-12)
        assert np.allclose(out[:, 2], naive_slope - np.exp(-x), rtol=1e-11)

    def test_curvature_peaks_near_30_months(self):
        r = maturity_grid()
        curv = dns_loadings(r)[:, 2]
        peak = r[np.argmax(curv)]
        assert abs(peak - 30.0) <= 1.0

    def test_monotone_slope_and_bounds(self):
        out = dns_loadings(maturity_grid())
        assert np.all(np.diff(out[:, 1]) < 0)  # slope loading decays
        assert np.all(out[:, 1] > 0) and np.all(out[:, 1] < 1)
        assert np.all(out[:, 2] >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            dns_loadings([1.0], decay=0.0)
        with pytest.raises(ValueError):
            dns_loadings([-1.0])


class TestFit:
    def test_exact_beta_recovery_from_noiseless_curves(self):
        maturities = np.array([3.0, 6.0, 12.0, 24.0, 60.0, 120.0])
        rng = np.random.default_rng(8)
        betas = np.column_stack([
            4.0 + 0.5 * rng.normal(size=40),
            -1.0 + 0.3 * rng.normal(size=40),
            0.5 * rng.normal(size=40),
        ])
        table = betas @ dns_loadings(maturities).T
        model = fit_dns(DiscretePanel(maturities, table))
        assert np.allclose(model.betas, betas, atol=BETA_RECOVERY_TOL)
        assert model.dynamics.order == 1 and model.dynamics.dim == 3

    def test_holes_use_observed_maturities_only(self):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        rng = np.random.default_rng(44)
        betas = np.array([3.0, -0.8, 1.2]) + 0.2 * rng.normal(size=(6, 3))
        table = betas @ dns_loadings(maturities).T
        table[2, 1] = np.nan  # drop one quote; the rest still pin beta
        model = fit_dns(DiscretePanel(maturities, table))
        assert np.allclose(model.betas, betas, atol=BETA_RECOVERY_TOL)

    def test_diagonal_dynamics(self):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        rng = np.random.default_rng(12)
        betas = rng.normal(size=(50, 3)) + np.array([5.0, -1.0, 0.3])
        table = betas @ dns_loadings(maturities).T
        model = fit_dns(DiscretePanel(maturities, table), diagonal=True)
        a = model.dynamics.coefficients[0]
        assert np.all(a == np.diag(np.diag(a)))
        assert model.dynamics.restricted

    def test_too_few_quotes_is_rejected(self):
        # the panel floor is 4 observed values per row, so build a direct
        # 3-column panel where a hole leaves only 2
        maturities = np.array([3.0, 24.0, 120.0])

        class Bare:
            def __init__(self, table):
                self.maturities = maturities
                self.table = table
                self.n_rows = table.shape[0]
                self.times = tuple(range(1, table.shape[0] + 1))

        table = np.ones((4, 3))
        table[1, 0] = np.nan
        with pytest.raises(DataError, match="row 1"):
            fit_dns(Bare(table))

    def test_rank_deficient_row_is_rejected(self):
        # three maturities within 3e-6 of zero give a numerically rank-2
        # loading block (lstsq reports rank 2), even with four quotes
        maturities = np.array([0.0, 1e-6, 2e-6, 3e-6, 12.0, 60.0])
        table = np.ones((5, 6))
        table[3, 4:] = np.nan
        panel = DiscretePanel(maturities, table)
        assert per_row_reference(panel, DEFAULT_DECAY)[1][0] == 3
        with pytest.raises(DataError, match="row 3 has a rank-deficient"):
            fit_dns(panel)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 40),
           hole_share=st.floats(0.0, 0.85), log_scale=st.floats(-2.0, 2.0),
           decay=st.floats(0.03, 0.1))
    def test_grouped_kernel_matches_per_row_lstsq(self, seed, n_rows, hole_share,
                                                  log_scale, decay):
        # one solve per missingness pattern must match one lstsq per row,
        # name the same first bad row, and give every prefix panel
        # exactly the full panel's leading rows
        rng = np.random.default_rng(seed)
        table = (rng.normal(size=(n_rows, H15_MATURITIES.size)) + 3.0) * 10.0**log_scale
        table[rng.random(table.shape) < hole_share] = np.nan
        panel = LoosePanel(H15_MATURITIES, table)
        betas, bad = dns_betas(panel, decay)
        expected, expected_bad = per_row_reference(panel, decay)
        assert bad == expected_bad
        fitted = ~np.isnan(expected[:, 0])
        assert np.array_equal(np.isnan(betas[:, 0]), ~fitted)
        scale = np.max(np.abs(expected[fitted]), axis=1, keepdims=True)
        assert np.all(np.abs(betas[fitted] - expected[fitted]) <= KERNEL_RTOL * scale)
        if bad is not None:
            with pytest.raises(DataError) as exc:
                fit_dns(panel, decay)
            assert str(exc.value) == bad[1]
        elif n_rows > 4:  # a VAR(1) in 3 factors needs 4 lagged rows
            assert np.array_equal(fit_dns(panel, decay).betas, betas)
        for t in range(1, n_rows):
            prefix, prefix_bad = dns_betas(LoosePanel(H15_MATURITIES, table[:t]), decay)
            assert np.array_equal(prefix, betas[:t], equal_nan=True)
            assert prefix_bad == (bad if bad is not None and bad[0] < t else None)

    def test_custom_decay_is_used(self):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        rng = np.random.default_rng(45)
        betas = np.array([2.0, -0.5, 0.8]) + 0.3 * rng.normal(size=(5, 3))
        decay = 0.1
        table = betas @ dns_loadings(maturities, decay).T
        model = fit_dns(DiscretePanel(maturities, table), decay=decay)
        assert model.decay == decay
        assert np.allclose(model.betas, betas, atol=1e-10)
        # refitting with the default decay must disagree
        other = fit_dns(DiscretePanel(maturities, table))
        assert not np.allclose(other.betas, betas, atol=1e-6)


class TestForecast:
    def test_iterated_ar_path(self):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        rng = np.random.default_rng(3)
        betas = np.zeros((80, 3))
        a = np.diag([0.9, 0.7, 0.5])
        for t in range(1, 80):
            betas[t] = a @ betas[t - 1] + 0.1 * rng.normal(size=3)
        table = betas @ dns_loadings(maturities).T
        model = fit_dns(DiscretePanel(maturities, table))
        out = dns_forecast(model, maturities, 4)
        assert out.matrix.shape == (4, 5)
        # oracle: iterate the fitted lag matrix by hand
        a_hat = model.dynamics.coefficients[0]
        path = model.betas[-1]
        for h in range(4):
            path = a_hat @ path
            expected = dns_loadings(maturities) @ path
            assert np.allclose(out.matrix[h], expected, atol=1e-12)

    def test_zero_dynamics_give_zero_curves(self):
        # with no constant in the autoregression, zero factor history
        # propagates to identically zero forecasts
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        rng = np.random.default_rng(5)
        betas = rng.normal(size=(30, 3))
        table = betas @ dns_loadings(maturities).T
        model = fit_dns(DiscretePanel(maturities, table))
        zeroed = DnsModelPatch(model)
        out = dns_forecast(zeroed, maturities, 3)
        assert np.array_equal(out.matrix, np.zeros((3, 5)))

    def test_horizon_validation(self):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        betas = np.random.default_rng(1).normal(size=(20, 3))
        model = fit_dns(DiscretePanel(maturities, betas @ dns_loadings(maturities).T))
        with pytest.raises(ValueError):
            dns_forecast(model, maturities, 0)

    def test_argument_errors_are_config_errors(self):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        betas = np.random.default_rng(1).normal(size=(20, 3))
        panel = DiscretePanel(maturities, betas @ dns_loadings(maturities).T)
        with pytest.raises(ConfigError, match="decay must be positive"):
            fit_dns(panel, decay=-1.0)
        model = fit_dns(panel)
        with pytest.raises(ConfigError, match="horizon"):
            dns_forecast(model, maturities, 0)
        with pytest.raises(ConfigError, match="nonnegative"):
            dns_forecast(model, [-1.0, 12.0], 1)

    @pytest.mark.parametrize("decay", [np.inf, -np.inf, np.nan])
    def test_non_finite_decay_is_a_config_error(self, decay):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        betas = np.random.default_rng(1).normal(size=(20, 3))
        panel = DiscretePanel(maturities, betas @ dns_loadings(maturities).T)
        message = "decay must be positive and finite"
        with pytest.raises(ConfigError, match=message):
            dns_loadings(maturities, decay)
        with pytest.raises(ConfigError, match=message):
            fit_dns(panel, decay=decay)
        with pytest.raises(ConfigError, match=message):
            rolling_backtest(panel, Dns(decay=decay), initial_window=10)


class DnsModelPatch:
    """A DnsModel stand-in whose factor history is identically zero."""

    def __init__(self, model):
        self.decay = model.decay
        self.betas = np.zeros_like(model.betas)
        self.dynamics = model.dynamics
        self.times = model.times
