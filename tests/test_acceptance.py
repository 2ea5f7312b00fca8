"""Shipping gate: one test per release criterion.

Each test prints a single ``acceptance N (<label>): PASS|FAIL ...`` line
with the measured numbers, outside pytest's capture so the lines show up
in a plain run.  Tolerances are pinned here and not imported from the
library under test.
"""

import time

import numpy as np
import pytest

from ffm import (
    BacktestReport,
    DiscretePanel,
    Dns,
    FfmConfig,
    FfmCriterion,
    FfmModel,
    FfmFixed,
    FpcaResult,
    FunctionalSample,
    Grid,
    SimSpec,
    coefficient_matrix,
    dns_loadings,
    fit_dns,
    fit_ffm,
    fit_var,
    fitted_curves,
    forecast,
    fpca,
    make_grid,
    monte_carlo,
    natural_cubic_spline,
    panel_to_sample,
    population_structure,
    reconstruct,
    rolling_backtest,
    sample_covariance,
    simulate,
)

ORTHO_TOL = 1e-8
TRACE_TOL = 1e-6
LINK_TOL = 1e-8
PARSEVAL_TOL = 1e-8
DECOMP_TOL = 1e-8
SIGN_TOL = 1e-10
BETA_TOL = 1e-10
AUDIT_TOL = 1e-12
KNOT_TOL = 1e-10
AFFINE_TOL = 1e-12
ORACLE_TOL = 1e-12

BIAS_K_MAX = 0.02
RMSE_K_MAX = 0.10
BIAS_P_MAX = 0.05
OVERSELECT_MIN = 0.15
RATE_LO, RATE_HI = 1.4, 2.9
UNDER_FLOOR = 0.1

# The paper's yield-curve finding: more than three factors.  The panels
# of perfbench/inputs.py carry five; these seeds were fixed before the
# first run and differ from those measured when the criterion was set.
YIELD_SEEDS = (11, 23, 37)
YIELD_ROWS = 300
YIELD_K_MIN = 4
YIELD_ORIGIN_SHARE = 0.5


def _report(capsys, number, label, measured, checks):
    failed = [name for name, ok in checks.items() if not ok]
    status = "FAIL" if failed else "PASS"
    parts = []
    for key, value in measured.items():
        parts.append(f"{key}={value:.4g}" if isinstance(value, float) else f"{key}={value}")
    tail = f" [{', '.join(failed)}]" if failed else ""
    with capsys.disabled():
        print(f"acceptance {number} ({label}): {status} {' '.join(parts)}{tail}")
    assert not failed, f"criterion {number} failed: {failed}"


def test_fpca_invariants(capsys):
    """Orthonormality, ordering, trace, score link and cutoff identity."""
    start = time.perf_counter()
    rng = np.random.default_rng(516)
    worst = {"ortho": 0.0, "trace": 0.0, "link": 0.0, "parseval": 0.0}
    ordered = True
    for _ in range(50):
        t_obs = int(rng.integers(10, 51))
        n = int(rng.integers(8, 65))
        grid = make_grid(0.0, 1.0, n)
        sample = FunctionalSample(grid, rng.normal(size=(t_obs, n)))
        res = fpca(sample)

        gram = (res.eigenfunctions * grid.weights) @ res.eigenfunctions.T
        worst["ortho"] = max(worst["ortho"], float(np.abs(gram - np.eye(res.rank)).max()))
        ordered = ordered and bool(np.all(np.diff(res.eigenvalues) <= 0.0))
        ordered = ordered and bool(np.all(res.eigenvalues >= 0.0))

        total = float(res.eigenvalues.sum() + res.tail_eigenvalues.sum())
        trace = sample_covariance(sample).trace_integral()
        worst["trace"] = max(worst["trace"], abs(total - trace) / trace)

        score_var = np.mean(res.scores**2, axis=0)
        worst["link"] = max(
            worst["link"],
            float(np.abs(score_var - res.eigenvalues).max() / res.eigenvalues[0]),
        )

        cutoff = max(1, res.rank // 2)
        resid = sample.matrix - reconstruct(res, cutoff).matrix
        lhs = float(np.mean((resid * resid) @ grid.weights))
        rhs = float(res.eigenvalues[cutoff:].sum() + res.tail_eigenvalues.sum())
        worst["parseval"] = max(worst["parseval"], abs(lhs - rhs) / total)
    elapsed = time.perf_counter() - start
    measured = dict(worst, seconds=elapsed)
    _report(capsys, 1, "fpca invariants, 50 samples", measured, {
        "orthonormality": worst["ortho"] <= ORTHO_TOL,
        "ordering": ordered,
        "trace": worst["trace"] <= TRACE_TOL,
        "score_link": worst["link"] <= LINK_TOL,
        "parseval": worst["parseval"] <= PARSEVAL_TOL,
        "runtime": elapsed < 10.0,
    })


def test_forecast_error_decomposition(capsys):
    """Functional one-step error norm splits into innovation and tail scores."""
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    grid = make_grid(0.0, 1.0, 24)
    t_obs = 60
    sample = FunctionalSample(grid, rng.normal(size=(t_obs, 24)))
    res = fpca(sample)
    worst = 0.0
    for j in range(1, 6):
        for m in range(1, 4):
            fit = fit_var(res.scores[:, :j], m)
            fitted = res.scores[m:, :j] - fit.residuals
            for i, t in enumerate(range(m, t_obs)):
                curve = res.mean.values + fitted[i] @ res.eigenfunctions[:j]
                diff = sample.matrix[t] - curve
                direct = float(diff @ (grid.weights * diff))
                split = float(fit.residuals[i] @ fit.residuals[i]
                              + res.scores[t, j:] @ res.scores[t, j:])
                worst = max(worst, abs(direct - split) / direct)
    elapsed = time.perf_counter() - start
    _report(capsys, 2, "per-period error decomposition", {
        "worst_rel": worst, "seconds": elapsed,
    }, {
        "identity": worst <= DECOMP_TOL,
        "runtime": elapsed < 5.0,
    })


_SWEEP: dict = {}


def _selection_sweep() -> dict:
    """1000-rep selection study over every model and both sample sizes,
    computed once and shared by the tests below."""
    if not _SWEEP:
        start = time.perf_counter()
        for i, model in enumerate(("M1", "M2", "M3", "M4")):
            for j, t_obs in enumerate((200, 500)):
                spec = SimSpec(model=model, n_obs=t_obs, seed=1000 + 10 * i + j)
                _SWEEP[model, t_obs] = monte_carlo(spec, 1000, 8, 8, ("bic", "ffpe"))
        _SWEEP["seconds"] = time.perf_counter() - start
    return _SWEEP


def test_selection_bias_benchmarks(capsys):
    """Order selection at desk scale: small bias where it should be small,
    visible overselection where the criterion has no consistency penalty."""
    sweep = _selection_sweep()
    bias_k, _ = sweep["M1", 500].bias("bic")
    rmse_k, _ = sweep["M1", 500].rmse("bic")
    _, bias_p = sweep["M4", 500].bias("bic")
    _, bias_p_over = sweep["M4", 500].bias("ffpe")
    bias_over, _ = sweep["M1", 200].bias("ffpe")
    elapsed = sweep["seconds"]
    _report(capsys, 3, "selection bias, 1000 reps", {
        "bias_K": bias_k, "rmse_K": rmse_k, "bias_p": bias_p,
        "overselect_K": bias_over, "overselect_p": bias_p_over,
        "seconds": elapsed,
    }, {
        "bias_K": abs(bias_k) <= BIAS_K_MAX,
        "rmse_K": rmse_k <= RMSE_K_MAX,
        "bias_p": abs(bias_p) <= BIAS_P_MAX,
        "overselection_K": bias_over >= OVERSELECT_MIN,
        "overselection_p": bias_p_over > 1.0,
        "runtime": elapsed < 900.0,
    })


def test_criterion_rmse_ordering(capsys):
    """The penalized criteria never lose to the unpenalized one by more
    than noise, for any model and either sample size."""
    sweep = _selection_sweep()
    worst = -np.inf
    for model in ("M1", "M2", "M3", "M4"):
        for t_obs in (200, 500):
            report = sweep[model, t_obs]
            rk_bic, rp_bic = report.rmse("bic")
            rk_ffpe, rp_ffpe = report.rmse("ffpe")
            worst = max(worst, rk_bic - rk_ffpe, rp_bic - rp_ffpe)
    _report(capsys, "3b", "criterion ordering, 8 designs", {
        "worst_margin": float(worst),
    }, {
        "ordering": worst <= 0.05,
    })


def _m1_errors(t_obs: int, seed: int, pop) -> tuple[float, float]:
    sample = simulate(SimSpec(model="M1", n_obs=t_obs, seed=seed))
    res = fpca(sample, 3)
    w = sample.grid.weights
    signs = np.sign(np.sum(res.eigenfunctions[:3] * w * pop.loadings, axis=1))
    aligned = res.eigenfunctions[0] * signs[0]
    psi_err = float(np.sqrt((aligned - pop.loadings[0]) ** 2 @ w))
    a_hat = coefficient_matrix(fit_var(res.scores[:, :3], 1))
    s = np.diag(signs)
    a_err = float(np.linalg.norm(s @ a_hat @ s - pop.lag_matrices[0], 2))
    return psi_err, a_err


def test_estimation_error_rate(capsys):
    """Median loading and coefficient errors shrink like a root-T rate."""
    start = time.perf_counter()
    pop = population_structure(SimSpec(model="M1"))
    reps = 200
    med = {}
    for t_obs in (250, 1000):
        pairs = [_m1_errors(t_obs, 40_000 + r, pop) for r in range(reps)]
        med[t_obs] = np.median(np.asarray(pairs), axis=0)
    psi_ratio = float(med[250][0] / med[1000][0])
    a_ratio = float(med[250][1] / med[1000][1])
    elapsed = time.perf_counter() - start
    _report(capsys, 4, "error decay T=250 to T=1000", {
        "psi_ratio": psi_ratio, "A_ratio": a_ratio, "seconds": elapsed,
    }, {
        "psi_rate": RATE_LO <= psi_ratio <= RATE_HI,
        "A_rate": RATE_LO <= a_ratio <= RATE_HI,
        "runtime": elapsed < 300.0,
    })


def test_forced_underselection_floor(capsys):
    """Fitting one lag to second-order dynamics leaves a persistent gap."""
    start = time.perf_counter()
    pop = population_structure(SimSpec(model="M2"))
    truth = np.hstack([pop.lag_matrices[0], pop.lag_matrices[1]])
    short_errs, full_errs = [], []
    for r in range(50):
        sample = simulate(SimSpec(model="M2", n_obs=2000, seed=50_000 + r))
        res = fpca(sample, 2)
        w = sample.grid.weights
        signs = np.sign(np.sum(res.eigenfunctions[:2] * w * pop.loadings, axis=1))
        s = np.diag(signs)

        a1 = coefficient_matrix(fit_var(res.scores[:, :2], 1))
        short = np.hstack([s @ a1 @ s, np.zeros((2, 2))])
        short_errs.append(np.linalg.norm(short - truth, 2))

        fit = fit_var(res.scores[:, :2], 2)
        full = np.hstack([s @ fit.coefficients[0] @ s, s @ fit.coefficients[1] @ s])
        full_errs.append(np.linalg.norm(full - truth, 2))
    med_short = float(np.median(short_errs))
    med_full = float(np.median(full_errs))
    elapsed = time.perf_counter() - start
    _report(capsys, 5, "forced lag truncation", {
        "median_short": med_short, "median_full": med_full, "seconds": elapsed,
    }, {
        "gap_persists": med_short > UNDER_FLOOR,
        "full_converges": med_full < UNDER_FLOOR,
        "runtime": elapsed < 120.0,
    })


def _flip(res: FpcaResult, signs: np.ndarray) -> FpcaResult:
    return FpcaResult(
        grid=res.grid,
        mean=res.mean,
        eigenvalues=res.eigenvalues,
        eigenfunctions=res.eigenfunctions * signs[:, None],
        scores=res.scores * signs[None, :],
        tail_eigenvalues=res.tail_eigenvalues,
        times=res.times,
    )


def test_sign_flip_invariance(capsys):
    """Component orientation is arbitrary; fits and forecasts must not move."""
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    models = ("M1", "M2", "M4")
    worst_fit = 0.0
    worst_fc = 0.0
    for case in range(20):
        name = models[case % 3]
        t_obs = int(rng.integers(60, 121))
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        sample = simulate(SimSpec(model=name, n_obs=t_obs, seed=70_000 + case))
        res = fpca(sample)
        signs = rng.choice([-1.0, 1.0], size=res.rank)
        flipped = _flip(res, signs)
        config = FfmConfig(k=k, p=p)
        pair = []
        for r in (res, flipped):
            model = FfmModel(fpca=r, selection=None,
                             var_fit=fit_var(r.scores[:, :k], p),
                             config=config, degenerate_dynamics=False)
            pair.append((fitted_curves(model).matrix, forecast(model, 6).matrix))
        worst_fit = max(worst_fit, float(np.abs(pair[0][0] - pair[1][0]).max()))
        worst_fc = max(worst_fc, float(np.abs(pair[0][1] - pair[1][1]).max()))
    elapsed = time.perf_counter() - start
    _report(capsys, 6, "sign-flip invariance, 20 cases", {
        "fit_dev": worst_fit, "forecast_dev": worst_fc, "seconds": elapsed,
    }, {
        "fitted": worst_fit <= SIGN_TOL,
        "forecasts": worst_fc <= SIGN_TOL,
    })


def test_yield_loadings_and_beta_recovery(capsys):
    """Loading limits at zero maturity, curvature peak location, and exact
    coefficient recovery on noiseless three-factor panels."""
    limits = dns_loadings(np.array([0.0]))[0]
    limits_ok = limits[0] == 1.0 and limits[1] == 1.0 and limits[2] == 0.0

    months = np.arange(1.0, 361.0)
    curvature = dns_loadings(months)[:, 2]
    peak = float(months[np.argmax(curvature)])

    rng = np.random.default_rng(31)
    maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
    betas = np.array([5.0, -1.5, 1.0]) + rng.normal(size=(12, 3))
    table = betas @ dns_loadings(maturities).T
    model = fit_dns(DiscretePanel(maturities, table))
    beta_err = float(np.abs(model.betas - betas).max())

    _report(capsys, 7, "parametric yield loadings", {
        "peak_month": peak, "beta_err": beta_err,
    }, {
        "zero_limits": limits_ok,
        "curvature_peak": abs(peak - 30.0) <= 1.0,
        "beta_recovery": beta_err <= BETA_TOL,
    })


def _hand_report(errors: np.ndarray) -> BacktestReport:
    n = errors.shape[0]
    return BacktestReport(
        method="hand", horizon=1, initial_window=10,
        maturities=np.arange(errors.shape[1], dtype=float),
        origins=np.arange(10, 10 + n),
        errors=errors, selected=np.zeros((n, 2), dtype=int), failures=0,
    )


def test_backtest_audit_and_ordering(capsys):
    """The summary statistic is an audit of the stored errors, and the
    correctly sized model wins the horse race it should win."""
    start = time.perf_counter()
    zero = _hand_report(np.zeros((2, 3))).rmsfe

    hand = _hand_report(np.array([[3.0], [4.0]])).rmsfe
    hand_dev = abs(hand - np.sqrt(25.0 / 2.0))

    sample = simulate(SimSpec(model="M1", n_obs=60, seed=7))
    report = rolling_backtest(sample, FfmFixed(3, 1), h=1, initial_window=40)
    total, count = 0.0, 0
    for row in report.errors:
        for e in row:
            if np.isfinite(e):
                total += e * e
                count += 1
    audit_dev = abs(report.rmsfe - np.sqrt(total / count))

    correct, under = [], []
    for r in range(50):
        s = simulate(SimSpec(model="M1", n_obs=100, seed=90_000 + r))
        correct.append(rolling_backtest(s, FfmFixed(3, 1), h=1, initial_window=70).rmsfe)
        under.append(rolling_backtest(s, FfmFixed(1, 1), h=1, initial_window=70).rmsfe)
    med_correct = float(np.median(correct))
    med_under = float(np.median(under))
    elapsed = time.perf_counter() - start
    _report(capsys, 8, "backtest audit and ordering", {
        "zero": zero, "hand_dev": hand_dev, "audit_dev": audit_dev,
        "median_correct": med_correct, "median_under": med_under,
        "seconds": elapsed,
    }, {
        "zero_case": zero == 0.0,
        "hand_case": hand_dev <= AUDIT_TOL,
        "recompute": audit_dev <= AUDIT_TOL,
        "ordering": med_correct < med_under,
    })


def _oracle_second_derivatives(xs, ys):
    n = xs.size
    h = np.diff(xs)
    a = np.zeros((n, n))
    b = np.zeros(n)
    a[0, 0] = 1.0
    a[-1, -1] = 1.0
    for i in range(1, n - 1):
        a[i, i - 1] = h[i - 1] / 6.0
        a[i, i] = (h[i - 1] + h[i]) / 3.0
        a[i, i + 1] = h[i] / 6.0
        b[i] = (ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1]
    return np.linalg.solve(a, b)


def test_spline_suite(capsys):
    """Interpolation, affine reproduction, and agreement with a dense solve."""
    xs = np.array([0.0, 1.0, 2.5, 4.0, 5.0])
    ys = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    spline = natural_cubic_spline(xs, ys)
    knot_err = float(np.abs(spline(xs) - ys).max())

    dense = np.linspace(0.0, 5.0, 301)
    affine = natural_cubic_spline(xs, 0.7 * xs - 1.2)
    affine_err = float(np.abs(affine(dense) - (0.7 * dense - 1.2)).max())

    oracle = _oracle_second_derivatives(xs, ys)
    oracle_err = float(np.abs(spline.second_derivatives() - oracle).max())

    _report(capsys, 9, "spline suite", {
        "knot_err": knot_err, "affine_err": affine_err, "oracle_err": oracle_err,
    }, {
        "knots": knot_err <= KNOT_TOL,
        "affine": affine_err <= AFFINE_TOL,
        "oracle": oracle_err <= ORACLE_TOL,
    })


@pytest.mark.parametrize("seed", YIELD_SEEDS)
def test_more_than_three_yield_factors(capsys, benchmark_inputs, seed):
    """bic and hqc find more than three factors on a five-factor yield
    panel, on the whole panel and at most backtest origins; the RMSFE of
    the bic model and of DNS is printed, with no bound."""
    start = time.perf_counter()
    inputs = benchmark_inputs
    panel = DiscretePanel(inputs.MATURITIES, inputs.yield_panel(seed, YIELD_ROWS))
    sample = panel_to_sample(panel, Grid(panel.maturities))
    measured, checks = {}, {}
    for criterion in ("bic", "hqc"):
        model = fit_ffm(sample, FfmConfig(criterion=criterion, k_max=8, p_max=8))
        report = rolling_backtest(panel, FfmCriterion(criterion, 8, 8), h=1, initial_window=120)
        share = float(np.mean(report.selected[:, 0] >= YIELD_K_MIN))
        measured[f"K_{criterion}"] = model.k
        measured[f"share_{criterion}"] = share
        checks[f"panel_{criterion}"] = model.k >= YIELD_K_MIN
        checks[f"origins_{criterion}"] = share > YIELD_ORIGIN_SHARE
    for h in (1, 6, 12):
        for label, method in (("ffm_bic", FfmCriterion("bic", 8, 8)), ("dns", Dns())):
            measured[f"{label}_h{h}"] = rolling_backtest(panel, method, h=h,
                                                         initial_window=120).rmsfe
    measured["seconds"] = time.perf_counter() - start
    _report(capsys, 10, f"more than three yield factors, seed {seed}", measured, checks)
