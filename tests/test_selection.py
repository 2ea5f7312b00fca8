"""Order-selection criteria over the factor/lag grid."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffm import (CRITERIA, ConfigError, Curve, DataError, DiscretePanel, FpcaResult,
                 FunctionalSample, Grid, NumericError, SimSpec, export_mse_surface, fit_var, fpca,
                 make_grid, mse_direct, mse_simplified, panel_to_sample, penalty,
                 reconstruct, replication_rng, select_orders)
from ffm.montecarlo import CHUNK
import ffm.selection as selection_module
from ffm.dynamics import _lagged_xy
from ffm.selection import (STACK_BYTES, TIE_RTOL, _criterion_values, _innovation_rss,
                           _innovation_traces, _leading_rss, _needed, _stacked_grids)
from ffm.simulate import simulate_streams

IDENTITY_RTOL = 1e-12
KERNEL_RTOL = 1e-10
# A backward-stable least-squares solve fixes a residual sum to about
# cond(X) * eps relative; two such solves agree within this many units of it
BACKWARD_STABLE_UNITS = 2.0


def ar_sample(rng, t_obs=200, n=41, a=0.8, sigma_idio=0.05):
    """Single dominant factor with AR(1) scores plus small rough noise."""
    grid = make_grid(0.0, 1.0, n)
    shape = 1.0 + 0.3 * np.cos(np.pi * grid.points)
    psi = shape / np.sqrt(np.dot(grid.weights, shape ** 2))
    f = np.zeros(t_obs)
    for t in range(1, t_obs):
        f[t] = a * f[t - 1] + rng.normal()
    matrix = np.outer(f, psi) + sigma_idio * rng.normal(size=(t_obs, n))
    return FunctionalSample(grid, matrix)


def reference_surface(result, k_max, p_max, restricted=False):
    """MSE surface from one fit_var call per cell; +inf where the fit fails."""
    mse = np.full((k_max, p_max), np.inf)
    for j in range(1, k_max + 1):
        for m in range(1, p_max + 1):
            try:
                fit = fit_var(result.scores[:, :j], m, restricted)
            except NumericError:
                continue
            mse[j - 1, m - 1] = float(np.trace(fit.sigma_eta)) + result.tail_sum(j)
    return mse


def scores_result(scores, tail, eigenvalues=None):
    """An FpcaResult carrying the given scores and one tail eigenvalue (none if None)."""
    grid = make_grid(0.0, 1.0, 3)
    k = scores.shape[1]
    return FpcaResult(
        grid=grid,
        mean=Curve(grid, np.zeros(grid.n)),
        eigenvalues=np.mean(scores**2, axis=0) if eigenvalues is None else eigenvalues,
        eigenfunctions=np.zeros((k, grid.n)),
        scores=scores,
        tail_eigenvalues=np.array([] if tail is None else [tail]),
        times=tuple(range(1, scores.shape[0] + 1)),
    )


class TestPenalty:
    def test_formulas(self):
        t = 200
        assert penalty("bic", 3, 2, t) == pytest.approx(6.0 * math.log(t) / t, rel=1e-14)
        assert penalty("hqc", 3, 2, t) == pytest.approx(
            12.0 * math.log(math.log(t)) / t, rel=1e-14)
        assert penalty("ffpe", 3, 2, t) == 0.0
        with pytest.raises(ValueError, match="unknown criterion"):
            penalty("aicc", 1, 1, t)

    def test_monotone_in_parameter_count(self):
        t = 150
        for crit in ("bic", "hqc"):
            vals = [penalty(crit, j, m, t) for j, m in [(1, 1), (1, 2), (2, 2), (3, 4)]]
            assert np.all(np.diff(vals) > 0)


class TestMse:
    def test_simplified_equals_trace_plus_tail(self):
        rng = np.random.default_rng(42)
        result = fpca(ar_sample(rng))
        for j, m in [(1, 1), (2, 1), (2, 3), (3, 2)]:
            fit = fit_var(result.scores[:, :j], m)
            expected = float(np.trace(fit.sigma_eta)) + result.tail_sum(j)
            assert mse_simplified(result, j, m) == pytest.approx(expected, rel=IDENTITY_RTOL)

    def test_j_zero_is_total_variance(self):
        rng = np.random.default_rng(43)
        result = fpca(ar_sample(rng, t_obs=60))
        assert mse_simplified(result, 0, 1) == pytest.approx(
            result.total_variance(), rel=IDENTITY_RTOL)
        with pytest.raises(ValueError):
            mse_simplified(result, result.rank + 1, 1)

    def test_direct_zero_for_perfect_fit(self):
        rng = np.random.default_rng(44)
        sample = ar_sample(rng, t_obs=30)
        assert mse_direct(sample, sample, 0) == 0.0
        assert mse_direct(sample, sample, 3) == 0.0

    def test_direct_mean_predictor_equals_variance_sum(self):
        # predicting every curve by the sample mean leaves exactly the
        # total variance (trace identity), for m = 0
        rng = np.random.default_rng(45)
        sample = ar_sample(rng, t_obs=80)
        result = fpca(sample)
        flat = reconstruct(result, 0)
        assert mse_direct(sample, flat, 0) == pytest.approx(
            result.total_variance(), rel=1e-8)

    def test_direct_accepts_trimmed_or_full_rows(self):
        rng = np.random.default_rng(46)
        sample = ar_sample(rng, t_obs=20)
        fitted = FunctionalSample(sample.grid, rng.normal(size=(20, sample.grid.n)))
        trimmed = FunctionalSample(sample.grid, fitted.matrix[2:])
        m = 2
        assert mse_direct(sample, fitted, m) == pytest.approx(
            mse_direct(sample, trimmed, m), rel=1e-14)
        with pytest.raises(DataError, match="rows"):
            mse_direct(sample, FunctionalSample(sample.grid, fitted.matrix[3:]), m)
        other = FunctionalSample(make_grid(0.0, 2.0, sample.grid.n), fitted.matrix)
        with pytest.raises(DataError, match="grids"):
            mse_direct(sample, other, m)
        with pytest.raises(ConfigError, match=r"m must be in \[0, 19\], got -1"):
            mse_direct(sample, fitted, -1)

    def test_simplified_tracks_direct_one_step_error(self):
        # the simplified expression drops only cross terms that vanish in
        # expectation, so at a moderate T the two routes agree closely
        rng = np.random.default_rng(47)
        sample = ar_sample(rng, t_obs=500)
        result = fpca(sample)
        j, m = 2, 1
        fit = fit_var(result.scores[:, :j], m)
        fitted_scores = result.scores[m:, :j] - fit.residuals
        fitted = FunctionalSample(
            sample.grid,
            result.mean.values + fitted_scores @ result.eigenfunctions[:j])
        direct = mse_direct(sample, fitted, m)
        simplified = mse_simplified(result, j, m)
        assert simplified == pytest.approx(direct, rel=0.01)


class TestSelectOrders:
    def test_dominant_ar1_factor_selects_1_1(self):
        rng = np.random.default_rng(48)
        result = fpca(ar_sample(rng, t_obs=500))
        grids = select_orders(result, k_max=4, p_max=4)
        assert set(grids) == set(CRITERIA)
        assert grids["bic"].chosen == (1, 1)
        assert grids["hqc"].chosen == (1, 1)

    def test_criterion_identity(self):
        # exp(value - penalty) recovers the mse cell for the log criteria
        rng = np.random.default_rng(49)
        result = fpca(ar_sample(rng, t_obs=120))
        grids = select_orders(result, 3, 3)
        t = result.n_curves
        for crit in ("bic", "hqc"):
            g = grids[crit]
            for j in range(1, 4):
                for m in range(1, 4):
                    back = math.exp(g.values[j - 1, m - 1] - penalty(crit, j, m, t))
                    assert back == pytest.approx(g.mse[j - 1, m - 1], rel=1e-10)
        f = grids["ffpe"]
        for j in range(1, 4):
            for m in range(1, 4):
                trace = f.mse[j - 1, m - 1] - result.tail_sum(j)
                expected = (t + j * m) / t * trace + result.tail_sum(j)
                assert f.values[j - 1, m - 1] == pytest.approx(expected, rel=1e-12)

    def test_shared_mse_across_criteria(self):
        rng = np.random.default_rng(50)
        result = fpca(ar_sample(rng, t_obs=90))
        grids = select_orders(result, 3, 2)
        assert np.array_equal(grids["bic"].mse, grids["hqc"].mse)
        assert np.array_equal(grids["bic"].mse, grids["ffpe"].mse)

    def test_tie_break_takes_smallest_orders(self):
        rng = np.random.default_rng(51)
        result = fpca(ar_sample(rng, t_obs=80))
        g = select_orders(result, 3, 3, ("bic",))["bic"]
        ties = np.argwhere(g.values == g.values.min()) + 1
        lexic = sorted(map(tuple, ties))[0]
        assert g.chosen == tuple(lexic)

    def test_validation(self):
        rng = np.random.default_rng(52)
        result = fpca(ar_sample(rng, t_obs=40))
        with pytest.raises(ConfigError, match="k_max and p_max must be positive, got 0, 2"):
            select_orders(result, 0, 2)
        with pytest.raises(ConfigError, match="k_max and p_max must be positive, got 2, 0"):
            select_orders(result, 2, 0)
        # a grid beyond the 40 curves of rank 39 is clipped, with fit_ffm's warning
        for asked, carried, clip in [((40, 2), (39, 2), "k_max=40 exceeds the sample rank 39; "
                                                        "clipped"),
                                     ((2, 40), (2, 39), "p_max=40 is too large for 40 curves; "
                                                        "clipped to 39")]:
            got, caught = outcome(lambda: select_orders(result, *asked))
            want, alone = outcome(lambda: select_orders(result, *carried))
            assert caught == [(clip, __file__)] + alone
            assert_same_grids(got, want)
        with pytest.raises(ValueError, match="unknown criterion"):
            select_orders(result, 2, 2, criteria=("bic", "aic"))

    def test_bare_criterion_name_is_refused(self):
        # a string is a sequence of letters; it must not be read as ('b', 'i', 'c')
        result = fpca(ar_sample(np.random.default_rng(52), t_obs=40))
        with pytest.raises(ConfigError, match=r"criteria must be a sequence of names such as "
                                              r"\('bic',\), got 'bic'"):
            select_orders(result, 3, 2, criteria="bic")

    def test_failed_cell_warns_and_is_inf(self):
        # duplicated factor scores make J = 2 designs singular; those
        # cells must warn and be skipped, not crash the grid
        rng = np.random.default_rng(53)
        grid = make_grid(0.0, 1.0, 21)
        f = np.zeros(60)
        for t in range(1, 60):
            f[t] = 0.7 * f[t - 1] + rng.normal()
        psi1 = np.ones(grid.n)
        psi2 = np.sqrt(2.0) * np.cos(np.pi * grid.points)
        matrix = np.outer(f, psi1) + np.outer(f, psi2) * 0.5
        result = fpca(FunctionalSample(grid, matrix), k_max=2)
        with pytest.warns(UserWarning, match=r"\(J=2"):
            grids = select_orders(result, 2, 2)
        g = grids["bic"]
        assert np.all(np.isinf(g.values[1]))
        assert np.all(np.isfinite(g.values[0]))
        assert g.chosen[0] == 1

    def test_saturated_cell_fails_and_bic_picks_a_finite_cell(self):
        # 20 curves on 30 points have rank 19, and the cell (J, m) = (19, 1)
        # has 19 observations for 19 regressors: an exact fit with MSE 0,
        # which bic (log MSE) would choose at -inf
        rng = np.random.default_rng(3)
        curves = np.cumsum(rng.standard_normal((20, 30)), axis=0)
        result = fpca(FunctionalSample(make_grid(0.0, 1.0, 30), curves))
        assert result.rank == 19
        with pytest.warns(UserWarning, match=r"1 selection cells failed.*\(J=19, m=1\).*"
                                             r"no residual degrees of freedom"):
            g = select_orders(result, 19, 1)["bic"]
        assert np.isinf(g.mse[18, 0]) and np.isinf(g.values[18, 0])
        assert np.all(np.isfinite(g.values[:18]))
        assert np.isfinite(g.values[g.chosen[0] - 1, g.chosen[1] - 1])
        with pytest.raises(NumericError, match="no residual degrees of freedom"):
            fit_var(result.scores, 1)

    def test_rank_deficient_panel_warns_once(self):
        # eleven maturities splined onto 100 points span at most eleven
        # dimensions, so every cell with J >= 12 is singular
        rng = np.random.default_rng(55)
        maturities = np.array([1, 3, 6, 12, 24, 36, 60, 84, 120, 240, 360], dtype=float)
        panel = DiscretePanel(maturities, rng.normal(size=(150, maturities.size)))
        result = fpca(panel_to_sample(panel, make_grid(1.0, 360.0, 100)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grids = select_orders(result, 20, 8)
        assert len(caught) == 1
        message = str(caught[0].message)
        assert message.startswith("72 selection cells failed")
        assert "(J=12, m=1)" in message and "(J=20, m=8)" in message
        failed = {tuple(c) for c in np.argwhere(np.isinf(grids["bic"].mse)) + 1}
        assert failed == {(j, m) for j in range(12, 21) for m in range(1, 9)}
        expected = reference_surface(result, 20, 8)
        assert np.array_equal(np.isinf(expected), np.isinf(grids["bic"].mse))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), p_max=st.integers(1, 4),
           spare=st.integers(-3, 6), duplicate=st.booleans(), restricted=st.booleans(),
           log_scales=st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
           tail_share=st.floats(1e-6, 1.0))
    def test_surface_matches_fit_var_reference(self, seed, k, p_max, spare, duplicate,
                                               restricted, log_scales, tail_share):
        # T - p_max sits near k * p_max, so the largest cells run short
        # of observations; a duplicated column makes every cell that
        # holds both copies singular
        t_obs = max(p_max + 2, (k + 1) * p_max + spare)
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(t_obs, k)) * 10.0 ** np.array(log_scales[:k])
        if duplicate and k > 1:
            scores[:, k - 1] = scores[:, 0]
        result = scores_result(scores, tail_share * np.mean(scores**2))
        expected = reference_surface(result, k, p_max, restricted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mse = select_orders(result, k, p_max, restricted=restricted)["bic"].mse
        assert np.array_equal(np.isinf(mse), np.isinf(expected))
        finite = np.isfinite(expected)
        assert np.allclose(mse[finite], expected[finite], rtol=KERNEL_RTOL, atol=0.0)

    def test_final_fit_matches_lstsq_and_cell_near_collinearity(self):
        # the second score equals the first up to a relative gap of 1e-6 to
        # 1e-4, so cond(X) reaches about 1e6.  fit_var's QR solve stays
        # within 2 cond(X) eps of an lstsq reference and of the selection
        # cell; the normal equations it replaced missed both by up to
        # 47 cond(X) eps (1e-8 relative)
        rng = np.random.default_rng(120)
        eps = np.finfo(float).eps
        compared = 0
        for _ in range(300):
            gap = 10.0 ** rng.uniform(-6.0, -4.0)
            t_obs, m = int(rng.integers(13, 33)), int(rng.integers(1, 3))
            scores = rng.normal(size=(t_obs, 2))
            scores[:, 1] = scores[:, 0] * (1.0 + gap * rng.normal(size=t_obs))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cell = select_orders(scores_result(scores, 0.0), 2, m)["bic"].mse[1, m - 1]
            try:
                fit = fit_var(scores, m)
            except NumericError:
                assert np.isinf(cell)
                continue
            design = np.hstack([scores[m - k:t_obs - k] for k in range(1, m + 1)])
            coef = np.linalg.lstsq(design, scores[m:], rcond=None)[0]
            resid = scores[m:] - design @ coef
            reference = float(np.sum(resid * resid)) / (t_obs - m)
            trace = float(np.trace(fit.sigma_eta))
            bound = BACKWARD_STABLE_UNITS * eps * np.linalg.cond(design)
            assert abs(trace - reference) <= bound * reference
            assert abs(trace - cell) <= bound * cell
            compared += 1
        assert compared >= 200

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), p_max=st.integers(1, 4),
           log_gap=st.floats(-8.5, -4.5))
    def test_failed_cells_match_fit_var_near_the_condition_limit(self, seed, k, p_max,
                                                                 log_gap):
        # a column equal to another up to a small relative gap puts the
        # condition numbers of the cells holding both around CONDITION_LIMIT;
        # the screen that skips fit_var's exact test must skip no failing
        # cell.  Values are not compared: the normal-equation reference
        # loses about cond * eps of its accuracy here.
        rng = np.random.default_rng(seed)
        t_obs = int(rng.integers((k + 1) * p_max + 2, 200))
        scores = rng.normal(size=(t_obs, k))
        scores[:, k - 1] = scores[:, 0] * (1.0 + 10.0**log_gap * rng.normal(size=t_obs))
        result = scores_result(scores, 0.1)
        expected = reference_surface(result, k, p_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mse = select_orders(result, k, p_max)["bic"].mse
        assert np.array_equal(np.isinf(mse), np.isinf(expected))

    def test_restricted_flag_propagates(self):
        rng = np.random.default_rng(54)
        result = fpca(ar_sample(rng, t_obs=100))
        g = select_orders(result, 2, 2, ("bic",), restricted=True)["bic"]
        assert g.restricted
        fit = fit_var(result.scores[:, :2], 2, restricted=True)
        expected = float(np.trace(fit.sigma_eta)) + result.tail_sum(2)
        assert g.mse[1, 1] == pytest.approx(expected, rel=1e-12)


class TestExport:
    def test_surface_rows(self):
        rng = np.random.default_rng(60)
        result = fpca(ar_sample(rng, t_obs=70))
        g = select_orders(result, 2, 3, ("hqc",))["hqc"]
        rows = export_mse_surface(g)
        assert len(rows) == 6
        assert [(r["J"], r["m"]) for r in rows] == [
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        marked = [(r["J"], r["m"]) for r in rows if r["chosen"]]
        assert marked == [g.chosen]
        for r in rows:
            assert r["mse"] == pytest.approx(g.mse[r["J"] - 1, r["m"] - 1])


def tied_result(tied_fpca, rng, restricted):
    """Two factors on a 3-point grid whose bic grid over (2, 2) is exactly tied."""
    return tied_fpca(lambda scores, second: scores_result(scores, None, np.array([10.0, second])),
                     rng, restricted)


def outcome(build):
    """``build()``, or the NumericError it raised, and its warnings' messages and files."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            grids = build()
        except NumericError as exc:
            grids = exc
    return grids, [(str(w.message), w.filename) for w in caught]


def assert_same_grids(got, want):
    """Two {criterion: SelectionGrid} are bit for bit equal."""
    assert list(got) == list(want)
    for criterion, grid in want.items():
        assert got[criterion].mse.tobytes() == grid.mse.tobytes()
        assert got[criterion].values.tobytes() == grid.values.tobytes()
        assert (got[criterion].chosen, got[criterion].k_max, got[criterion].p_max,
                got[criterion].n_obs, got[criterion].restricted) == \
            (grid.chosen, grid.k_max, grid.p_max, grid.n_obs, grid.restricted)


class TestStackedChoices:
    """Samples of any lengths stacked in one kernel call get select_orders's outcome bit for bit."""

    @staticmethod
    def check(results, k_max, p_max, criteria, restricted):
        """Asserts each builder gives select_orders's outcome; counts those that warned, raised."""
        builders = _stacked_grids(results, k_max, p_max, criteria, restricted)
        assert len(builders) == len(results)
        counts = np.zeros(2, dtype=int)
        for result, build in zip(results, builders):
            want, alone = outcome(lambda: select_orders(result, k_max, p_max, criteria,
                                                        restricted))
            got, caught = outcome(build)
            assert caught == alone
            assert all(filename == __file__ for _, filename in caught)
            if isinstance(want, NumericError):
                assert isinstance(got, NumericError) and str(got) == str(want)
            else:
                assert_same_grids(got, want)
            counts += [bool(caught), isinstance(want, NumericError)]
        return counts

    def test_random_stacks_of_unequal_lengths(self, tied_fpca):
        # short samples leave cells without residual degrees of freedom,
        # a copied column makes every cell that holds both copies singular,
        # a nearly copied one puts them near the condition limit, and a
        # zero sample fails every cell
        rng = np.random.default_rng(90)
        totals = np.zeros(2, dtype=int)
        for _ in range(120):
            k_max, p_max = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            criterion, restricted = str(rng.choice(CRITERIA)), bool(rng.integers(2))
            results = []
            for _ in range(int(rng.integers(2, 10))):
                t_obs = int(rng.integers(p_max + 2, 120))
                scores = np.zeros((t_obs, k_max))
                shocks = rng.normal(size=(t_obs, k_max)) * 10.0 ** rng.uniform(-2, 2, size=k_max)
                for t in range(t_obs):
                    scores[t] = 0.6 * scores[t - 1] + shocks[t] if t else shocks[t]
                if k_max > 1 and rng.random() < 0.3:
                    gap = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-9, -4)
                    scores[:, -1] = scores[:, 0] * (1.0 + gap * rng.normal(size=t_obs))
                if rng.random() < 0.05:
                    scores[:] = 0.0
                results.append(scores_result(scores, rng.uniform(1e-3, 1.0)))
            if k_max == 2 and p_max == 2 and criterion == "bic":
                at = int(rng.integers(len(results) + 1))
                results.insert(at, tied_result(tied_fpca, rng, restricted))
            totals += self.check(results, k_max, p_max, (criterion,), restricted)
        assert totals[0] > 50 and totals[1] > 10   # 107 warned and 34 raised when written

    @pytest.mark.parametrize("restricted", [False, True])
    def test_exact_tie_keeps_select_orders_grid(self, tied_fpca, restricted):
        rng = np.random.default_rng(91)
        others = [scores_result(rng.normal(size=(60 + 9 * s, 2)), 0.1) for s in range(3)]
        tied = tied_result(tied_fpca, rng, restricted)
        assert self.check(others[:2] + [tied] + others[2:], 2, 2, ("bic",),
                          restricted).tolist() == [0, 0]
        values = np.sort(_stacked_grids([tied, others[2]], 2, 2, ("bic",),
                                        restricted)[0]()["bic"].values.ravel())
        assert values[0] == values[1]

    def test_padded_benchmark_window(self, benchmark_inputs):
        # the 177-row window of the seed-7 backtest panel beside the 183-row
        # one: padded with six zero rows, its m = 8 design gets an R that
        # differs from its own in 525 entries (up to 4.4e-13 relative)
        inputs = benchmark_inputs
        panel = DiscretePanel(inputs.MATURITIES, inputs.yield_panel(7, inputs.BACKTEST_ROWS))
        sample = panel_to_sample(panel, Grid(panel.maturities))
        results = [fpca(FunctionalSample(sample.grid, sample.matrix[:t])) for t in (177, 183)]
        scores = np.zeros((2, 183, 8))
        for w, result in enumerate(results):
            scores[w, :result.n_curves] = result.scores[:, :8]
        traces, failures = _innovation_traces(scores, np.array([177, 183]), 8, False)
        assert failures == [{}, {}]
        for result, surface in zip(results, traces):
            grid = select_orders(result, 8, 8, ("bic",))["bic"]
            tails = np.array([result.tail_sum(j) for j in range(1, 9)])
            assert np.array_equal(surface + tails[:, None], grid.mse)
        assert self.check(results, 8, 8, ("bic",), False).tolist() == [0, 0]


class TestStackedGrids:
    """Equal-length samples selected in one kernel call get select_orders's grids bit for bit."""

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_matches_select_orders(self, model, restricted):
        t_obs, k_max, p_max = 120, 4, 3
        # at m = 1 a stack holds fewer than CHUNK samples, so a chunk spans several stacks
        assert STACK_BYTES // (8 * (t_obs - 1) * k_max * 2) < CHUNK
        spec = SimSpec(model=model, n_obs=t_obs, seed=17)
        rngs = [replication_rng(spec.seed, rep) for rep in range(CHUNK)]
        results = [fpca(sample) for sample in simulate_streams(spec, rngs)]
        alone = [select_orders(result, k_max, p_max, CRITERIA, restricted) for result in results]
        for size in (1, 7, CHUNK):
            stack = _stacked_grids(results[:size], k_max, p_max, CRITERIA, restricted)
            assert len(stack) == size
            for grids, expected in zip([build() for build in stack], alone):
                for criterion in CRITERIA:
                    got, want = grids[criterion], expected[criterion]
                    assert np.array_equal(got.mse, want.mse)
                    assert np.array_equal(got.values, want.values)
                    assert got.chosen == want.chosen
                    assert (got.k_max, got.p_max, got.n_obs, got.restricted) == \
                        (want.k_max, want.p_max, want.n_obs, want.restricted)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_failed_cells_warn_for_their_sample_only(self, restricted):
        rng = np.random.default_rng(92)
        results = [scores_result(rng.normal(size=(80, 2)), 0.1) for _ in range(4)]
        copied = rng.normal(size=(80, 2))
        copied[:, 1] = copied[:, 0] if not restricted else 0.0
        results[2] = scores_result(copied, 0.1)
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            expected = [select_orders(result, 2, 2, ("bic",), restricted) for result in results]
        assert len(alone) == 1 and alone[0].filename == __file__
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stack = [build() for build in _stacked_grids(results, 2, 2, ("bic",), restricted)]
        assert [str(w.message) for w in caught] == [str(alone[0].message)]
        assert caught[0].filename == __file__
        assert np.all(np.isinf(stack[2]["bic"].values[1]))
        for grids, want in zip(stack, expected):
            assert np.array_equal(grids["bic"].values, want["bic"].values)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_sample_with_every_cell_failed_raises(self, restricted):
        rng = np.random.default_rng(93)
        results = [scores_result(rng.normal(size=(50, 2)), 0.1),
                   scores_result(np.zeros((50, 2)), 0.1),
                   scores_result(rng.normal(size=(50, 2)), 0.1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericError, match="every selection cell failed"):
                select_orders(results[1], 2, 2, ("bic",), restricted)
            stack = _stacked_grids(results, 2, 2, ("bic",), restricted)
            stack[0]()
            with pytest.raises(NumericError, match="every selection cell failed"):
                stack[1]()


class TestRestrictedKernel:
    """The own-lags grid is the full-VAR kernel per factor, summed over factors."""

    @pytest.mark.parametrize("ends", [[50, 50, 50], [50, 41, 47]], ids=["equal", "padded"])
    def test_first_failed_factor_names_restricted_cells(self, ends):
        # factors: a fine AR(1), an exactly zero one (singular for every m)
        # and an exactly geometric one (numerically singular for m >= 2);
        # every J >= 2 cell fails at the zero factor, so its reason names them
        rng = np.random.default_rng(94)
        p_max = 4
        scores = np.zeros((len(ends), max(ends), 3))
        for w, t_obs in enumerate(ends):
            fine = np.zeros(t_obs)
            shocks = rng.normal(size=t_obs)
            for t in range(1, t_obs):
                fine[t] = 0.6 * fine[t - 1] + shocks[t]
            scores[w, :t_obs] = np.column_stack([fine, np.zeros(t_obs), 0.9 ** np.arange(t_obs)])
        ends = np.array(ends)
        traces, failures = _innovation_traces(scores, ends, p_max, True)
        geometric = _innovation_traces(scores[:, :, 2:], ends, p_max, True)[1]
        for w, t_obs in enumerate(ends.tolist()):
            assert set(geometric[w]) == {(1, m) for m in range(2, p_max + 1)}
            assert all("numerically singular" in why for why in geometric[w].values())
            refused = {}
            for j in range(1, 4):
                for m in range(1, p_max + 1):
                    try:
                        fit_var(scores[w, :t_obs, :j], m, restricted=True)
                    except NumericError as exc:
                        refused[(j, m)] = str(exc)
            assert set(refused) == {(j, m) for j in (2, 3) for m in range(1, p_max + 1)}
            assert failures[w] == refused
            assert ({(j + 1, m + 1) for j, m in np.argwhere(np.isinf(traces[w])).tolist()}
                    == set(refused))


def refusals(scores, k_max, p_max):
    """{(J, m): message} of every fit_var call on the grid that raises NumericError."""
    refused = {}
    for j in range(1, k_max + 1):
        for m in range(1, p_max + 1):
            try:
                fit_var(scores[:, :j], m)
            except NumericError as exc:
                refused[(j, m)] = str(exc)
    return refused


def factor_major_design(scores, m):
    """The kernel's lagged design of a series: column l*m + k - 1 is factor l at lag k."""
    t_obs = scores.shape[0]
    return np.column_stack([scores[m - k:t_obs - k, l] for l in range(scores.shape[1])
                            for k in range(1, m + 1)])


class TestBoundedGrids:
    """``chosen_only`` grids skip lag orders that cannot win, and change no choice."""

    @staticmethod
    def compare(results, k_max, p_max, criteria):
        """Bounded against full stacked grids; returns the bounded grids and the cells skipped."""
        bounded = [build() for build in
                   _stacked_grids(results, k_max, p_max, criteria, False, chosen_only=True)]
        full = [build() for build in _stacked_grids(results, k_max, p_max, criteria, False)]
        skipped = 0
        for b, f in zip(bounded, full, strict=True):
            for criterion in criteria:
                got, want = b[criterion], f[criterion]
                assert got.chosen == want.chosen
                done = np.isfinite(got.values)
                assert np.array_equal(done, np.isfinite(got.mse))
                assert np.array_equal(got.values[done], want.values[done])
                assert np.array_equal(got.mse[done], want.mse[done])
                # a skipped cell lies beyond the tie margin of the choice
                best = want.values.min()
                assert np.all(want.values[~done] > best + TIE_RTOL * max(1.0, abs(best)))
                skipped += int((~done).sum())
        return bounded, skipped

    @pytest.mark.parametrize("seed", [7, 41])
    def test_backtest_origins_match_select_orders(self, benchmark_inputs, seed):
        inputs = benchmark_inputs
        panel = DiscretePanel(inputs.MATURITIES, inputs.yield_panel(seed, inputs.BACKTEST_ROWS))
        sample = panel_to_sample(panel, Grid(panel.maturities))
        results = [fpca(FunctionalSample(sample.grid, sample.matrix[:t]))
                   for t in range(120, panel.n_rows)]
        alone = [select_orders(result, 8, 8) for result in results]
        for criterion in CRITERIA:
            skipped = 0
            for lo in range(0, len(results), CHUNK):
                stack, count = self.compare(results[lo:lo + CHUNK], 8, 8, (criterion,))
                skipped += count
                for grids, expected in zip(stack, alone[lo:lo + CHUNK]):
                    assert grids[criterion].chosen == expected[criterion].chosen
            if criterion != "ffpe":   # its multiplicative penalty rarely prunes
                assert skipped > 8 * 8 * len(results) // 4

    @pytest.mark.parametrize("t_obs", [60, 100, 500])
    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_replications_keep_their_evaluated_cells(self, model, t_obs):
        spec = SimSpec(model=model, n_obs=t_obs, seed=23)
        rngs = [replication_rng(spec.seed, rep) for rep in range(12)]
        results = [fpca(sample) for sample in simulate_streams(spec, rngs)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for criteria in (("bic",), ("hqc",), CRITERIA):
                self.compare(results, 8, 8, criteria)

    def test_near_collinear_series_keeps_the_conditioning_path(self, monkeypatch):
        # the third factor copies the first up to 1e-7: every cell holding
        # both is refused, as fit_var refuses it, and with its own condition number
        rng = np.random.default_rng(95)
        scores = rng.normal(size=(150, 3))
        scores[:, 2] = scores[:, 0] * (1.0 + 1e-7 * rng.normal(size=150))
        results = [scores_result(scores, 0.1), scores_result(rng.normal(size=(150, 3)), 0.1)]
        verdicts = []
        real = selection_module._certified

        def spy(*args):
            verdict = real(*args)
            verdicts.append(verdict.tolist())
            return verdict

        monkeypatch.setattr(selection_module, "_certified", spy)
        traces, failures = _innovation_traces(scores[None], np.array([150]), 4, False)
        assert verdicts == [[False]]
        assert failures[0] == refusals(scores, 3, 4)
        assert set(failures[0]) == {(3, m) for m in range(1, 5)}
        assert np.all(np.isinf(traces[0, 2])) and np.all(np.isfinite(traces[0, :2]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bounded = [build() for build in
                       _stacked_grids(results, 3, 4, ("bic",), False, chosen_only=True)]
        with warnings.catch_warnings(record=True) as full_caught:
            warnings.simplefilter("always")
            full = [build() for build in _stacked_grids(results, 3, 4, ("bic",), False)]
        assert [str(w.message) for w in caught] == [str(w.message) for w in full_caught]
        assert len(caught) == 1
        # the refused series is evaluated in full, the certified one need not be
        assert np.array_equal(bounded[0]["bic"].values, full[0]["bic"].values)
        assert bounded[1]["bic"].chosen == full[1]["bic"].chosen

    def test_lag_order_within_the_tie_margin_is_factored(self):
        # one factor, p_max = 3: lag orders 3 and 1 are known, and lag order
        # 2's bound lies just above or just beyond the best value, at m = 1
        t_obs, tails = np.array([100]), np.zeros((1, 1))
        rss = np.full((1, 1, 3), np.inf)
        rss[0, 0, 2] = 4.0
        bound = _criterion_values("bic", np.full((1, 1, 3), 4.0 / 98.0), tails, t_obs)[0, 0, 1]
        for gap, needed in ((0.5, True), (0.99, True), (1.01, False), (2.0, False)):
            best = bound - gap * TIE_RTOL * max(1.0, abs(bound))
            # the rss at m = 1 that puts cell (1, 1) at ``best``
            rss[0, 0, 0] = 99.0 * math.exp(best - penalty("bic", 1, 1, 100))
            values = _criterion_values("bic", rss / (100 - np.arange(1, 4)), tails, t_obs)
            assert values[0, 0, 0] == pytest.approx(best, rel=1e-15, abs=0.0)
            assert _needed(("bic",), tails, t_obs, rss, 2).tolist() == [needed]
            # a criterion that still needs the lag order keeps it
            assert _needed(("bic", "ffpe"), tails, t_obs, rss, 2).tolist() == [True]

    def test_best_of_minus_infinity_needs_every_lag_order(self):
        rss = np.array([[[0.0, np.inf, 1.0]]])
        assert _needed(("bic",), np.zeros((1, 1)), np.array([50]), rss, 2).tolist() == [True]


# tr(Sigma_eta) of fit_var and the surface's cell solve one regression from
# two factorizations (the J-factor design and the k_max-factor one); they
# agree within this relative gap (5.4e-15 at worst when written)
TRACE_RTOL = 1e-13


class TestFitVarAgreement:
    """fit_var and the selection kernel fit one regression, and refuse it alike."""

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("seed, rows", [(0, 200), (1, 200), (2, 200), (12, 60)])
    def test_trace_plus_tail_is_the_surface_cell(self, benchmark_inputs, seed, rows,
                                                 restricted):
        # the 60-row panel is the corpus's p60, whose largest cells leave
        # no residual degree of freedom
        inputs = benchmark_inputs
        panel = DiscretePanel(inputs.MATURITIES, inputs.yield_panel(seed, rows))
        result = fpca(panel_to_sample(panel, Grid(panel.maturities)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mse = select_orders(result, 8, 8, ("bic",), restricted)["bic"].mse
        refused = set()
        for j in range(1, 9):
            for m in range(1, 9):
                try:
                    fit = fit_var(result.scores[:, :j], m, restricted)
                except NumericError:
                    refused.add((j, m))
                    continue
                cell = float(np.trace(fit.sigma_eta)) + result.tail_sum(j)
                assert cell == pytest.approx(mse[j - 1, m - 1], rel=TRACE_RTOL, abs=0.0)
        assert refused == {(j + 1, m + 1) for j, m in np.argwhere(np.isinf(mse)).tolist()}
        assert bool(refused) == (rows == 60 and not restricted)

    @pytest.mark.parametrize("copied", [1, 2])
    def test_near_collinear_cells_are_refused_as_fit_var_refuses_them(self, copied):
        # factor `copied` copies the first up to 1e-7, so every J > copied is
        # refused; J = 2 < k_max needs fit_var's own J-factor condition number
        rng = np.random.default_rng(95)
        scores = rng.normal(size=(150, 3))
        scores[:, copied] = scores[:, 0] * (1.0 + 1e-7 * rng.normal(size=150))
        failures = _innovation_traces(scores[None], np.array([150]), 4, False)[1][0]
        assert set(failures) == {(j, m) for j in range(copied + 1, 4) for m in range(1, 5)}
        assert failures == refusals(scores, 3, 4)

    @pytest.mark.parametrize("zero", [1, 2])
    @pytest.mark.parametrize("ends", [[60], [60, 47]], ids=["alone", "stacked"])
    def test_exactly_zero_factor_is_refused_as_fit_var_refuses_it(self, zero, ends):
        # factor `zero` is exactly 0, so every J > zero design is singular
        rng = np.random.default_rng(96)
        scores = rng.normal(size=(len(ends), 60, 3))
        scores[:, :, zero] = 0.0
        ends = np.array(ends)
        traces, failures = _innovation_traces(scores, ends, 2, False)
        for w, t_obs in enumerate(ends.tolist()):
            assert set(failures[w]) == {(j, m) for j in range(zero + 1, 4) for m in (1, 2)}
            assert failures[w] == refusals(scores[w, :t_obs], 3, 2)
            assert np.all(np.isinf(traces[w, zero:])) and np.all(np.isfinite(traces[w, :zero]))

    def test_near_collinear_design_reports_its_condition_number(self, monkeypatch):
        # the third factor copies the first up to 1e-7; the condition number
        # of X'X is read from R, within 1e-6 of cond(X)^2, where np.linalg.cond
        # of a formed X'X misses by 4-18%
        import ffm.dynamics as dynamics_module
        rng = np.random.default_rng(95)
        scores = rng.normal(size=(150, 3))
        scores[:, 2] = scores[:, 0] * (1.0 + 1e-7 * rng.normal(size=150))
        reported = []
        real = dynamics_module._condition_failure
        monkeypatch.setattr(dynamics_module, "_condition_failure",
                            lambda cond: reported.append(cond) or real(cond))
        for m in range(1, 5):
            reported.clear()
            with pytest.raises(NumericError) as exc:
                fit_var(scores, m)
            assert len(reported) == 1 and str(exc.value) == real(reported[0])
            x = factor_major_design(scores, m)
            exact = np.linalg.cond(x) ** 2
            assert reported[0] == pytest.approx(exact, rel=1e-6)
            assert abs(np.linalg.cond(x.T @ x) / exact - 1.0) > 1e-2


# each lag order below p_max is factored from the p_max R; a QR of its own
# [X Y] gives the same sums within this relative gap (3.9e-15 at worst
# when written)
UPDATE_RTOL = 1e-13


def direct_rss(scores, p_max, restricted=False):
    """(k, p_max) residual sums and {(J, m): reason} of one series, one QR per lag order.

    Every lag order's [X Y] is factored on its own rows.  The cells
    ``fit_var`` refuses hold +inf, and the reasons are its messages.  The
    restricted grid sums the one-factor grids of the factors so far.
    """
    t_obs, k = scores.shape
    if restricted:
        rss = np.cumsum([direct_rss(scores[:, l:l + 1], p_max)[0][0] for l in range(k)], axis=0)
    else:
        rss = np.empty((k, p_max))
        js = np.arange(1, k + 1)
        for m in range(1, p_max + 1):
            r = np.linalg.qr(_lagged_xy(scores, m, t_obs - m), mode="r")
            cum = np.cumsum(_leading_rss(r[None], k * m), axis=2)[0]
            rss[:, m - 1] = cum[np.minimum(js * m, cum.shape[0]) - 1, js - 1]
    refused = {}
    for j in range(1, k + 1):
        for m in range(1, p_max + 1):
            try:
                fit_var(scores[:, :j], m, restricted)
            except NumericError as exc:
                refused[(j, m)] = str(exc)
                rss[j - 1, m - 1] = np.inf
    return rss, refused


class TestLagOrderUpdates:
    """Lag orders below p_max, factored from the p_max R, match a QR of their own [X Y]."""

    @staticmethod
    def check(series, p_max, restricted=False):
        """Stacks the series in one kernel call and compares each with ``direct_rss``."""
        ends = np.array([len(x) for x in series])
        scores = np.zeros((len(series), ends.max(), series[0].shape[1]))
        for w, x in enumerate(series):
            scores[w, :len(x)] = x
        if restricted:
            traces, failures = _innovation_traces(scores, ends, p_max, True)
            rss = traces * (ends[:, None, None] - np.arange(1, p_max + 1))
        else:
            rss, failures = _innovation_rss(scores, ends, p_max)
        refused = 0
        for x, got, why in zip(series, rss, failures, strict=True):
            want, reasons = direct_rss(x, p_max, restricted)
            assert dict(sorted(why.items())) == reasons
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert np.allclose(got[finite], want[finite], rtol=UPDATE_RTOL, atol=0.0)
            refused += len(reasons)
        return refused

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("t_obs", [60, 100, 500])
    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_replications(self, model, t_obs, restricted):
        spec = SimSpec(model=model, n_obs=t_obs, seed=27)
        rngs = [replication_rng(spec.seed, rep) for rep in range(4)]
        series = [fpca(sample).scores[:, :8] for sample in simulate_streams(spec, rngs)]
        refused = self.check(series, 8, restricted)
        # at T = 60 the largest cells of the full VAR leave no residual degree of freedom
        assert (refused > 0) == (t_obs == 60 and not restricted)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_p_max_r_shorter_than_wide(self, restricted):
        # T - p_max rows for the k_max * p_max + k_max = 28 columns of
        # [X Y]: 24, 20 and 27 rows, so each p_max R is shorter than wide
        rng = np.random.default_rng(96)
        series = [rng.normal(size=(t_obs, 4)) * [1.0, 0.3, 3.0, 0.01] for t_obs in (30, 26, 33)]
        refused = self.check(series, 6, restricted)
        assert (refused > 0) == (not restricted)

    def test_near_collinear_series(self):
        # seed 95's third factor copies the first up to 1e-7: the series is
        # not certified, and every cell holding both is refused
        rng = np.random.default_rng(95)
        scores = rng.normal(size=(150, 3))
        scores[:, 2] = scores[:, 0] * (1.0 + 1e-7 * rng.normal(size=150))
        assert self.check([scores, rng.normal(size=(120, 3))], 4) == 4
