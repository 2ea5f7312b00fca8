"""Independent numpy-only reference for the benchmark's correctness checks.

Nothing here imports ``ffm``: each step is written out from its
definition.

* Curves: natural cubic splines through each row's observed quotes,
  second derivatives from a tridiagonal (Thomas) solve, trapezoid
  quadrature weights.
* FPCA: eigendecomposition of W^1/2 C W^1/2 with divisor-T covariance C.
* Selection: OLS by ``lstsq`` for every (J, m) cell and
  MSE(J, m) = tr Sigma_eta(J, m) + sum of eigenvalues beyond J, with
  bic = log MSE + J m log T / T and ffpe = (T + J m) / T tr Sigma_eta + tail.
  The chosen cell is the first minimum in row-major (J, m) order.
* Forecasts: the VAR recursion, mapped back through the eigenfunctions.
  Eigenfunction signs are arbitrary, so callers compare curves and
  orders, never raw scores.
* Dynamic Nelson-Siegel loadings, per-date betas by ``lstsq`` on the
  observed maturities and a VAR(1) without constant on the betas.
* The M1 and M3 simulation designs, rebuilt from a replication's
  Philox stream with their own factor recursion.
"""

from __future__ import annotations

import numpy as np

CRITERIA = ("bic", "ffpe")

# Lag matrices of the M1 (K, p) = (3, 1) and M3 (K, p) = (2, 4) designs.
DESIGNS = {
    "M1": (
        np.array([[-0.05, -0.23, 0.76], [0.80, -0.05, 0.04], [0.04, 0.76, 0.23]]),
    ),
    "M3": (
        np.array([[0.4, -0.2], [0.0, 0.3]]),
        np.array([[-0.1, -0.1], [0.0, -0.1]]),
        np.array([[0.15, 0.15], [0.00, 0.15]]),
        np.array([[0.3, -0.4], [0.0, 0.6]]),
    ),
}
FOURIER_SIZE = 10
SIM_POINTS = 51
SIM_BURN_IN = 200


def true_orders(design: str) -> tuple[int, int]:
    lags = DESIGNS[design]
    return lags[0].shape[0], len(lags)


# ---------------------------------------------------------------------------
# quadrature and splines


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoid weights: half of each neighbouring gap."""
    w = np.zeros_like(points)
    gaps = points[1:] - points[:-1]
    w[:-1] += gaps / 2.0
    w[1:] += gaps / 2.0
    return w


def spline_second_derivatives(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline through (xs, ys).

    Interior knot i satisfies
    h[i-1]/6 M[i-1] + (h[i-1] + h[i])/3 M[i] + h[i]/6 M[i+1]
    = (y[i+1] - y[i])/h[i] - (y[i] - y[i-1])/h[i-1], with M = 0 at both
    ends; the tridiagonal system is solved by forward elimination and
    back substitution.
    """
    n = xs.size
    h = xs[1:] - xs[:-1]
    slopes = (ys[1:] - ys[:-1]) / h
    sub = h[:-1] / 6.0
    diag = (h[:-1] + h[1:]) / 3.0
    sup = h[1:] / 6.0
    rhs = slopes[1:] - slopes[:-1]
    m = n - 2
    c = np.empty(m)
    d = np.empty(m)
    c[0] = sup[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, m):
        denom = diag[i] - sub[i] * c[i - 1]
        c[i] = sup[i] / denom
        d[i] = (rhs[i] - sub[i] * d[i - 1]) / denom
    out = np.zeros(n)
    out[m] = d[m - 1]
    for i in range(m - 2, -1, -1):
        out[i + 1] = d[i] - c[i] * out[i + 2]
    return out


def spline_eval(xs: np.ndarray, ys: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (xs, ys) evaluated at points in [xs[0], xs[-1]]."""
    m2 = spline_second_derivatives(xs, ys)
    i = np.clip(np.searchsorted(xs, points, side="right") - 1, 0, xs.size - 2)
    x0, x1 = xs[i], xs[i + 1]
    h = x1 - x0
    left, right = x1 - points, points - x0
    return (m2[i] * left**3 / (6.0 * h) + m2[i + 1] * right**3 / (6.0 * h)
            + (ys[i] / h - m2[i] * h / 6.0) * left
            + (ys[i + 1] / h - m2[i + 1] * h / 6.0) * right)


def panel_curves(maturities: np.ndarray, table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Each row's spline through its observed quotes, evaluated at points."""
    rows = np.empty((table.shape[0], points.size))
    for t, row in enumerate(table):
        seen = ~np.isnan(row)
        rows[t] = spline_eval(maturities[seen], row[seen], points)
    return rows


# ---------------------------------------------------------------------------
# FPCA, selection and forecasts


def fpca(curves: np.ndarray, weights: np.ndarray):
    """Mean, descending eigenvalues (full rank), eigenfunctions (rows), scores."""
    t_obs, n = curves.shape
    mean = curves.mean(axis=0)
    centered = curves - mean
    cov = centered.T @ centered / t_obs
    root = np.sqrt(weights)
    vals, vecs = np.linalg.eigh(root[:, None] * cov * root[None, :])
    rank = min(t_obs - 1, n)
    vals = np.clip(vals[::-1][:rank], 0.0, None)
    psi = (vecs[:, ::-1][:, :rank] / root[:, None]).T
    scores = centered @ (psi * weights).T
    return mean, vals, psi, scores


def lagged(scores: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Targets F_t and regressors (F_{t-1}, ..., F_{t-m}) for t = m+1..T."""
    t_obs = scores.shape[0]
    design = np.hstack([scores[m - k:t_obs - k] for k in range(1, m + 1)])
    return scores[m:], design


def var_ols(scores: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """VAR(m) coefficients (J m, J) by lstsq and tr Sigma_eta (divisor T - m)."""
    targets, design = lagged(scores, m)
    coef = np.linalg.lstsq(design, targets, rcond=None)[0]
    resid = targets - design @ coef
    return coef, float(np.sum(resid**2)) / targets.shape[0]


def criterion_values(criterion: str, traces: np.ndarray, tails: np.ndarray,
                     t_obs: int) -> np.ndarray:
    js = np.arange(1, traces.shape[0] + 1)[:, None]
    ms = np.arange(1, traces.shape[1] + 1)[None, :]
    if criterion == "bic":
        return np.log(traces + tails[:, None]) + js * ms * np.log(t_obs) / t_obs
    if criterion == "ffpe":
        return (t_obs + js * ms) / t_obs * traces + tails[:, None]
    raise ValueError(f"no reference for criterion {criterion!r}")


def select(vals: np.ndarray, scores: np.ndarray, k_max: int, p_max: int,
           criteria=CRITERIA) -> dict[str, tuple[int, int]]:
    """Chosen (K, p) per criterion: first minimum in row-major (J, m) order."""
    traces = np.array([[var_ols(scores[:, :j], m)[1] for m in range(1, p_max + 1)]
                       for j in range(1, k_max + 1)])
    tails = np.array([vals[j:].sum() for j in range(1, k_max + 1)])
    chosen = {}
    for criterion in criteria:
        flat = int(np.argmin(criterion_values(criterion, traces, tails, scores.shape[0])))
        chosen[criterion] = (flat // p_max + 1, flat % p_max + 1)
    return chosen


def var_forecast(coef: np.ndarray, history: np.ndarray, m: int, h: int) -> np.ndarray:
    """Iterate F_t = sum_k A_k F_{t-k} h steps past the last row of history."""
    lags = [history[-k] for k in range(1, m + 1)]   # most recent first
    out = []
    for _ in range(h):
        nxt = np.concatenate(lags) @ coef
        out.append(nxt)
        lags = [nxt] + lags[:-1]
    return np.array(out)


def ffm_forecast(curves: np.ndarray, weights: np.ndarray, k_max: int, p_max: int,
                 h: int, criterion: str = "bic"):
    """Select (K, p), fit the score VAR and forecast curves 1..h ahead."""
    mean, vals, psi, scores = fpca(curves, weights)
    k, p = select(vals, scores, k_max, p_max, (criterion,))[criterion]
    coef, _ = var_ols(scores[:, :k], p)
    fc = var_forecast(coef, scores[:, :k], p, h)
    return (k, p), mean + fc @ psi[:k]


# ---------------------------------------------------------------------------
# dynamic Nelson-Siegel


def ns_loadings(maturities: np.ndarray, decay: float) -> np.ndarray:
    """(M, 3) level, slope and curvature loadings at positive maturities."""
    x = decay * maturities
    slope = (1.0 - np.exp(-x)) / x
    return np.column_stack([np.ones_like(x), slope, slope - np.exp(-x)])


def dns_betas(maturities: np.ndarray, table: np.ndarray, decay: float) -> np.ndarray:
    loadings = ns_loadings(maturities, decay)
    betas = np.empty((table.shape[0], 3))
    for t, row in enumerate(table):
        seen = ~np.isnan(row)
        betas[t] = np.linalg.lstsq(loadings[seen], row[seen], rcond=None)[0]
    return betas


def dns_forecast(maturities: np.ndarray, table: np.ndarray, decay: float,
                 h: int) -> np.ndarray:
    """Curves at the maturities 1..h ahead from a VAR(1) on the betas."""
    betas = dns_betas(maturities, table, decay)
    coef, _ = var_ols(betas, 1)
    return var_forecast(coef, betas, 1, h) @ ns_loadings(maturities, decay).T


# ---------------------------------------------------------------------------
# simulation designs


def fourier_basis(points: np.ndarray) -> np.ndarray:
    """1, sqrt2 sin(2 pi r), sqrt2 cos(2 pi r), sqrt2 sin(4 pi r), ... (rows)."""
    out = [np.ones_like(points)]
    for j in range(1, FOURIER_SIZE // 2 + 1):
        out.append(np.sqrt(2.0) * np.sin(2.0 * np.pi * j * points))
        out.append(np.sqrt(2.0) * np.cos(2.0 * np.pi * j * points))
    return np.array(out[:FOURIER_SIZE])


def sim_points() -> np.ndarray:
    return np.linspace(0.0, 1.0, SIM_POINTS)


def simulate(design: str, n_obs: int, master_seed: int, replication: int) -> np.ndarray:
    """Curves (n_obs, 51) of one replication, from its own Philox stream.

    Coordinate l of the Fourier system receives N(0, 1/l^2) shocks; the
    first K carry VAR(p) factors started from zero and run through the
    burn-in, the rest stay white noise.
    """
    lags = DESIGNS[design]
    k, p = lags[0].shape[0], len(lags)
    seq = np.random.SeedSequence(master_seed, spawn_key=(replication,))
    rng = np.random.Generator(np.random.Philox(seq))
    total = SIM_BURN_IN + n_obs
    shocks = rng.standard_normal((total, FOURIER_SIZE)) / np.arange(1, FOURIER_SIZE + 1)
    coords = shocks.copy()
    for t in range(total):
        for i in range(1, min(p, t) + 1):
            coords[t, :k] += lags[i - 1] @ coords[t - i, :k]
    return coords[SIM_BURN_IN:] @ fourier_basis(sim_points())


def mc_choices(design: str, n_obs: int, master_seed: int, replication: int,
               k_max: int, p_max: int, criteria=CRITERIA) -> dict[str, tuple[int, int]]:
    curves = simulate(design, n_obs, master_seed, replication)
    _, vals, _, scores = fpca(curves, trapezoid_weights(sim_points()))
    return select(vals, scores, k_max, p_max, criteria)
