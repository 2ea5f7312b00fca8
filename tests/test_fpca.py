"""Eigenstructure invariants and constructed-factor recovery."""

import numpy as np
import pytest

from ffm import (ConfigError, CovarianceKernel, Curve, DataError, FunctionalSample, Grid,
                 SimSpec, fpca, make_grid, reconstruct, sample_covariance, sample_mean, simulate)

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
