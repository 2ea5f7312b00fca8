"""Order-selection criteria over the factor/lag grid."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffm import (CRITERIA, ConfigError, Curve, DiscretePanel, FpcaResult, FunctionalSample,
                 Grid, NumericError, SimSpec, export_mse_surface, fit_var, fpca,
                 make_grid, mse_direct, mse_simplified, panel_to_sample, penalty,
                 reconstruct, replication_rng, select_orders)
from ffm.montecarlo import CHUNK
from ffm.selection import STACK_BYTES, TIE_RTOL, _innovation_traces, _stacked_grids
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
        with pytest.raises(ValueError, match="rows"):
            mse_direct(sample, FunctionalSample(sample.grid, fitted.matrix[3:]), m)
        other = FunctionalSample(make_grid(0.0, 2.0, sample.grid.n), fitted.matrix)
        with pytest.raises(ValueError, match="grids"):
            mse_direct(sample, other, m)
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            select_orders(result, 0, 2)
        with pytest.raises(ValueError):
            select_orders(result, result.rank + 1, 2)
        with pytest.raises(ValueError):
            select_orders(result, 2, 0)
        with pytest.raises(ValueError):
            select_orders(result, 2, 40)
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


class TestStackedChoices:
    """Samples selected in one stacked kernel call keep select_orders's choice or are rerun."""

    @staticmethod
    def reference(result, k_max, p_max, criterion, restricted):
        """select_orders's choice, and whether it has a failed cell or a near tie."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                grid = select_orders(result, k_max, p_max, (criterion,), restricted)[criterion]
            except NumericError:
                return None, True
        best = np.sort(grid.values.ravel())[:2]
        near_tie = best.size > 1 and not best[1] - best[0] > TIE_RTOL * max(1.0, abs(best[0]))
        return grid.chosen, bool(caught) or near_tie

    def check(self, results, k_max, p_max, criterion, restricted):
        """Number of samples the stack accepted and of those it sent to a rerun."""
        choices = [grids and grids[criterion].chosen for grids in
                   _stacked_grids(results, k_max, p_max, (criterion,), restricted)]
        assert len(choices) == len(results)
        counts = [0, 0]
        for result, choice in zip(results, choices):
            chosen, rerun = self.reference(result, k_max, p_max, criterion, restricted)
            if rerun:
                assert choice is None
            if choice is not None:
                assert choice == chosen
            counts[choice is None] += 1
        return counts

    def test_random_stacks_of_unequal_lengths(self, tied_fpca):
        # short samples leave cells without residual degrees of freedom,
        # a copied column makes every cell that holds both copies singular,
        # and a nearly copied one puts them near the condition limit
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
                results.append(scores_result(scores, rng.uniform(1e-3, 1.0)))
            if k_max == 2 and p_max == 2 and criterion == "bic":
                at = int(rng.integers(len(results) + 1))
                results.insert(at, tied_result(tied_fpca, rng, restricted))
            totals += self.check(results, k_max, p_max, criterion, restricted)
        assert totals.min() > 50

    @pytest.mark.parametrize("restricted", [False, True])
    def test_exact_tie_is_rerun(self, tied_fpca, restricted):
        rng = np.random.default_rng(91)
        others = [scores_result(rng.normal(size=(60 + 9 * s, 2)), 0.1) for s in range(3)]
        results = others[:2] + [tied_result(tied_fpca, rng, restricted)] + others[2:]
        assert self.check(results, 2, 2, "bic", restricted) == [3, 1]

    def test_padded_benchmark_window(self, benchmark_inputs):
        # the 177-row window of the seed-7 backtest panel, stacked with the
        # 183-row window, is padded by six zero rows; at m = 8 LAPACK then
        # returned an R that differs from the unpadded one in 525 entries
        # (up to 4.4e-13 relative), which only moves the traces by rounding
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
            assert np.allclose(surface + tails[:, None], grid.mse, rtol=1e-12, atol=0.0)
        assert self.check(results, 8, 8, "bic", False) == [2, 0]


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
            for grids, expected in zip(stack, alone):
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
            stack = _stacked_grids(results, 2, 2, ("bic",), restricted)
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
            with pytest.raises(NumericError, match="every selection cell failed"):
                _stacked_grids(results, 2, 2, ("bic",), restricted)


class TestRestrictedKernel:
    """The own-lags grid is the full-VAR kernel per factor, summed over factors."""

    @pytest.mark.parametrize("ends", [[50, 50, 50], [50, 41, 47]], ids=["equal", "padded"])
    def test_first_failed_factor_names_restricted_cells(self, ends):
        # factors: a fine AR(1), an exactly zero one (rank below m) and an
        # exactly geometric one (numerically singular for m >= 2); every
        # J >= 2 cell fails at the zero factor, so its reason names them
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
            refused = set()
            for j in range(1, 4):
                for m in range(1, p_max + 1):
                    try:
                        fit_var(scores[w, :t_obs, :j], m, restricted=True)
                    except NumericError:
                        refused.add((j, m))
            assert refused == {(j, m) for j in (2, 3) for m in range(1, p_max + 1)}
            assert set(failures[w]) == refused
            assert {(j + 1, m + 1) for j, m in np.argwhere(np.isinf(traces[w])).tolist()} == refused
            for (j, m), why in failures[w].items():
                assert why == (f"lagged design of {t_obs - m} observations has rank below "
                               f"{m} regressors")
