"""Eigenstructure invariants and constructed-factor recovery."""

import numpy as np
import pytest

from ffm import (ConfigError, CovarianceKernel, Curve, DataError, DiscretePanel, FunctionalSample,
                 Grid, SimSpec, fpca, make_grid, panel_to_sample, reconstruct, sample_covariance,
                 sample_mean, simulate)
from ffm.fpca import SIGN_TOLERANCE, _sign_flips

ORTHO_TOL = 1e-8
SCORE_TOL = 1e-8
TRACE_RTOL = 1e-8
RECOVERY_TOL = 1e-8


def random_sample(rng, t_obs=None, n=None, uniform=True):
    t_obs = int(rng.integers(5, 40)) if t_obs is None else t_obs
    n = int(rng.integers(5, 50)) if n is None else n
    if uniform:
        grid = make_grid(0.0, 1.0, n)
    else:
        points = np.sort(rng.uniform(0.0, 2.0, n))
        points += np.arange(n) * 1e-6
        grid = Grid(points)
    return FunctionalSample(grid, rng.normal(size=(t_obs, n)))


class TestInvariants:
    def test_random_samples(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            sample = random_sample(rng, uniform=bool(rng.integers(2)))
            result = fpca(sample)
            w = sample.grid.weights
            t_obs, n = sample.matrix.shape

            assert result.rank == min(t_obs - 1, n)

            # eigenfunctions orthonormal under the quadrature inner product
            gram = (result.eigenfunctions * w) @ result.eigenfunctions.T
            assert np.allclose(gram, np.eye(result.rank), atol=ORTHO_TOL)

            # nonnegative, descending spectrum
            assert np.all(result.eigenvalues >= 0.0)
            assert np.all(np.diff(result.eigenvalues) <= 1e-12)

            # scores are centered and reproduce the eigenvalues with
            # divisor T
            assert np.allclose(result.scores.mean(axis=0), 0.0, atol=SCORE_TOL)
            assert np.allclose((result.scores ** 2).mean(axis=0),
                               result.eigenvalues, rtol=1e-8, atol=1e-12)

            # the spectrum carries the full pointwise variance mass
            kernel = sample_covariance(sample)
            assert result.total_variance() == pytest.approx(
                kernel.trace_integral(), rel=TRACE_RTOL, abs=1e-12)

            # every eigenfunction is oriented to a nonnegative integral
            integrals = result.eigenfunctions @ w
            assert np.all(integrals > -1e-8)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(77)
        sample = random_sample(rng, t_obs=12, n=9)
        result = fpca(sample)
        rebuilt = reconstruct(result)
        assert np.allclose(rebuilt.matrix, sample.matrix, atol=1e-10)

        # j = 0 keeps only the mean
        flat = reconstruct(result, 0)
        assert np.allclose(flat.matrix, result.mean.values[None, :], atol=0)

        # truncation error is monotone in j
        w = sample.grid.weights
        errs = []
        for j in range(result.rank + 1):
            diff = sample.matrix - reconstruct(result, j).matrix
            errs.append(float(((diff ** 2) * w).sum()))
        assert np.all(np.diff(errs) <= 1e-10)

        with pytest.raises(ConfigError):
            reconstruct(result, result.rank + 1)


class TestConstructedFactors:
    def test_rank_one_recovery(self):
        rng = np.random.default_rng(5150)
        points = np.sort(rng.uniform(0.0, 1.0, 41))
        points += np.arange(41) * 1e-9
        grid = Grid(points)
        shape = 1.0 + np.cos(np.pi * grid.points)
        psi = shape / np.sqrt(np.dot(grid.weights, shape ** 2))
        a = rng.normal(0.0, 2.0, 60)
        sample = FunctionalSample(grid, 3.0 + np.outer(a, psi))

        result = fpca(sample)
        centered = a - a.mean()
        assert result.eigenvalues[0] == pytest.approx(
            float((centered ** 2).mean()), rel=1e-10)
        assert np.allclose(result.eigenvalues[1:], 0.0, atol=1e-12)
        assert np.allclose(result.eigenfunctions[0], psi, atol=RECOVERY_TOL)
        assert np.allclose(result.scores[:, 0], centered, atol=1e-8)
        assert np.allclose(result.mean.values, 3.0 + a.mean() * psi, atol=1e-10)

    def test_two_factor_fourier_recovery(self):
        grid = make_grid(0.0, 1.0, 201)
        b1 = np.ones(grid.n)
        b2 = np.sqrt(2.0) * np.sin(2.0 * np.pi * grid.points)
        rng = np.random.default_rng(99)
        f1 = rng.normal(0.0, 3.0, 400)
        f2 = rng.normal(0.0, 1.0, 400)
        sample = FunctionalSample(grid, np.outer(f1, b1) + np.outer(f2, b2))

        result = fpca(sample, k_max=2)
        # independent oracle: in the (b1, b2) coordinates the problem is a
        # plain 2x2 eigendecomposition of the score covariance; quadrature
        # error on 201 points limits the agreement to ~1e-3
        scores2 = np.column_stack([f1 - f1.mean(), f2 - f2.mean()])
        c2 = scores2.T @ scores2 / scores2.shape[0]
        lam, u = np.linalg.eigh(c2)
        lam, u = lam[::-1], u[:, ::-1]
        u *= np.sign(u[0])  # orient so the b1 component is positive
        assert np.allclose(result.eigenvalues, lam, rtol=1e-3)
        expected = np.outer(u[0], b1) + np.outer(u[1], b2)
        assert np.allclose(result.eigenfunctions, expected, atol=5e-3)

    def test_sign_fallback_is_deterministic(self):
        # a pure sine has quadrature integral ~ 1e-17, far below the sign
        # tolerance, so orientation falls back to the first sizable
        # coordinate; both orientations of the data give one eigenfunction
        grid = make_grid(0.0, 1.0, 101)
        psi = np.sqrt(2.0) * np.sin(2.0 * np.pi * grid.points)
        rng = np.random.default_rng(3)
        a = rng.normal(size=30)
        up = fpca(FunctionalSample(grid, np.outer(a, psi)))
        down = fpca(FunctionalSample(grid, np.outer(a, -psi)))
        assert np.allclose(up.eigenfunctions[0], down.eigenfunctions[0], atol=1e-10)
        first = up.eigenfunctions[0][np.abs(up.eigenfunctions[0]) > 1e-9][0]
        assert first > 0


def per_column_signs(integrals, psi):
    """The sign rule written out one column at a time."""
    flips = np.ones(psi.shape[1])
    for l in range(psi.shape[1]):
        if abs(integrals[l]) > SIGN_TOLERANCE:
            flips[l] = np.sign(integrals[l])
            continue
        big = np.nonzero(np.abs(psi[:, l]) > SIGN_TOLERANCE)[0]
        if big.size:
            flips[l] = np.sign(psi[big[0], l])
    return flips


def covariance_fpca(sample, k_max):
    """fpca through sample_covariance, the weighted B, eigh and per-column signs."""
    t_obs, n = sample.matrix.shape
    full_rank = min(t_obs - 1, n)
    rank = full_rank if k_max is None else min(k_max, full_rank)
    sqrt_w = np.sqrt(sample.grid.weights)
    b = sqrt_w[:, None] * sample_covariance(sample).values * sqrt_w[None, :]
    vals, vecs = np.linalg.eigh((b + b.T) / 2.0)
    vals = np.clip(vals[::-1][:full_rank], 0.0, None)
    vecs = vecs[:, ::-1][:, :rank]
    vecs = vecs * per_column_signs(sqrt_w @ vecs, vecs / sqrt_w[:, None])
    eigenfunctions = (vecs / sqrt_w[:, None]).T
    mean = sample.matrix.mean(axis=0)
    scores = (sample.matrix - mean) @ (eigenfunctions * sample.grid.weights).T
    return {"mean": mean, "eigenvalues": vals[:rank], "eigenfunctions": eigenfunctions,
            "scores": scores, "tail_eigenvalues": vals[rank:]}


BITWISE_CASES = ([f"{model}-{t_obs}" for model in ("M1", "M2", "M3", "M4")
                  for t_obs in (12, 60, 200, 500)]
                 + [f"panel{seed}-{grid}" for seed in (7, 41) for grid in ("100", "maturities")]
                 + ["copies-3", "copies-5", "copies-6", "zeros-8"])


def bitwise_case(name, inputs):
    kind, arg = name.split("-")
    if kind.startswith("M"):
        return simulate(SimSpec(model=kind, n_obs=int(arg), seed=int(arg)))
    if kind.startswith("panel"):
        panel = DiscretePanel(inputs.MATURITIES,
                              inputs.yield_panel(int(kind[5:]), inputs.BACKTEST_ROWS))
        a, b = panel.maturities[0], panel.maturities[-1]
        grid = make_grid(a, b, 100) if arg == "100" else Grid(panel.maturities)
        return panel_to_sample(panel, grid)
    grid = make_grid(0.0, 1.0, 51)
    if kind == "zeros":
        return FunctionalSample(grid, np.zeros((int(arg), grid.n)))
    curve = np.exp(-grid.points) + np.sin(3.0 * grid.points)
    return FunctionalSample(grid, np.tile(curve, (int(arg), 1)))


class TestSigns:
    def test_vectorized_rule_matches_the_per_column_rule(self):
        # columns: a sizable integral of each sign; a negligible integral
        # with a sizable negative first coordinate; negligible integrals
        # with no sizable coordinate at all, one whose first coordinate is
        # negative, which keep +1; and values exactly at the tolerance,
        # which count as negligible
        tiny, tol = SIGN_TOLERANCE / 10.0, SIGN_TOLERANCE
        psi = np.array([
            [0.5, 0.5, -tiny, tiny, -tiny, 0.0, -tol, -0.3],
            [-0.2, 0.3, -0.4, tiny, tiny, 0.0, 0.2, 0.1],
            [0.1, -0.9, 0.7, -0.6, -tiny, 0.0, -0.1, 0.1],
        ])
        integrals = np.array([0.3, -0.3, tiny, -tiny, -tiny, 0.0, tiny, tol])
        flips = _sign_flips(integrals, psi)
        assert np.array_equal(flips, per_column_signs(integrals, psi))
        assert np.array_equal(flips, [1.0, -1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0])

    @pytest.mark.parametrize("name", BITWISE_CASES)
    def test_fpca_equals_the_covariance_computation_bit_for_bit(self, benchmark_inputs, name):
        sample = bitwise_case(name, benchmark_inputs)
        for k_max in (None, 1, 3):
            result = fpca(sample, k_max)
            expected = covariance_fpca(sample, k_max)
            for field, values in expected.items():
                got = getattr(result, field)
                got = got.values if field == "mean" else got
                assert got.shape == values.shape, (field, k_max)
                assert got.tobytes() == values.tobytes(), (field, k_max)


class TestScipyReference:
    @pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
    def test_leading_eigenpairs_match_scipy_eigh(self, model):
        # the reference fpca replaced: scipy.linalg.eigh of W^1/2 C W^1/2
        scipy_linalg = pytest.importorskip("scipy.linalg")
        sample = simulate(SimSpec(model=model, n_obs=200, seed=17))
        result = fpca(sample)
        sqrt_w = np.sqrt(sample.grid.weights)
        kernel = sample_covariance(sample).values
        vals, vecs = scipy_linalg.eigh(sqrt_w[:, None] * kernel * sqrt_w[None, :])
        lead = 6
        vals, vecs = vals[::-1][:lead], vecs[:, ::-1][:, :lead]
        assert np.allclose(result.eigenvalues[:lead], vals, rtol=1e-12, atol=0)
        psi = (vecs / sqrt_w[:, None]).T
        signs = np.sign(np.sum(psi * result.eigenfunctions[:lead], axis=1))
        assert np.allclose(result.eigenfunctions[:lead], signs[:, None] * psi,
                           rtol=0, atol=1e-11)
        centered = sample.matrix - sample.matrix.mean(axis=0)
        scores = centered @ (psi * sample.grid.weights).T
        assert np.allclose(result.scores[:, :lead], scores * signs, rtol=0, atol=1e-11)


class TestTruncation:
    def test_tail_preserves_variance(self):
        rng = np.random.default_rng(11)
        sample = random_sample(rng, t_obs=25, n=15)
        full = fpca(sample)
        cut = fpca(sample, k_max=3)
        assert cut.rank == 3
        assert cut.tail_eigenvalues.size == full.rank - 3
        assert np.allclose(cut.eigenvalues, full.eigenvalues[:3], rtol=1e-12)
        assert cut.total_variance() == pytest.approx(full.total_variance(), rel=1e-12)
        for j in range(4):
            assert cut.tail_sum(j) == pytest.approx(full.tail_sum(j), rel=1e-10, abs=1e-14)

    def test_k_max_is_capped_at_full_rank(self):
        rng = np.random.default_rng(12)
        sample = random_sample(rng, t_obs=6, n=20)
        result = fpca(sample, k_max=50)
        assert result.rank == 5
        assert result.tail_eigenvalues.size == 0

    def test_validation(self):
        grid = make_grid(0.0, 1.0, 5)
        with pytest.raises(DataError, match="two curves"):
            fpca(FunctionalSample(grid, np.ones((1, 5))))
        sample = FunctionalSample(grid, np.random.default_rng(0).normal(size=(4, 5)))
        with pytest.raises(ConfigError):
            fpca(sample, k_max=0)
        result = fpca(sample)
        with pytest.raises(ConfigError):
            result.tail_sum(result.rank + 1)


class TestKernel:
    def test_divisor_is_t(self):
        grid = Grid(np.array([0.0, 1.0, 2.0]))
        matrix = np.array([[1.0, 0.0, 2.0], [3.0, 4.0, 0.0]])
        kernel = sample_covariance(FunctionalSample(grid, matrix))
        x = matrix - matrix.mean(axis=0)
        assert np.array_equal(kernel.values, x.T @ x / 2.0)

    def test_symmetrized_and_trace(self):
        grid = Grid(np.array([0.0, 1.0]))
        kernel = CovarianceKernel(grid, np.array([[2.0, 1.0], [0.0, 4.0]]))
        assert np.array_equal(kernel.values, [[2.0, 0.5], [0.5, 4.0]])
        assert kernel.trace_integral() == pytest.approx(0.5 * 2.0 + 0.5 * 4.0)

    def test_shape_check(self):
        grid = Grid(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(DataError, match="does not match grid"):
            CovarianceKernel(grid, np.ones((2, 2)))

    def test_mean_curve(self):
        grid = Grid(np.array([0.0, 1.0]))
        sample = FunctionalSample(grid, np.array([[1.0, 2.0], [3.0, 6.0]]))
        assert np.array_equal(sample_mean(sample).values, [2.0, 4.0])
