"""Synthetic factor-driven curve processes and their population structure."""

import importlib

import numpy as np
import pytest

from ffm import (MODELS, NumericError, SimSpec, companion_spectral_radius, fourier_basis,
                 fpca, make_grid, population_structure, replication_rng,
                 simulate)
from ffm.simulate import BASIS_SIZE, _stationary_covariance, simulate_streams

MOMENT_RTOL = 0.05
# the module itself: ffm.simulate is the function the package exports
SIMULATE_MODULE = importlib.import_module("ffm.simulate")


def per_step_simulate(spec, rng):
    """Curves from the one-stream, one-step-at-a-time recursion.

    A frozen copy of the loop ``simulate`` ran before streams were
    batched; the batched recursion must reproduce it bit for bit.
    """
    k, p = spec.k, spec.p
    total = spec.burn_in + spec.n_obs
    sigmas = spec.noise_scale / np.arange(1, BASIS_SIZE + 1)
    shocks = rng.standard_normal((total, BASIS_SIZE)) * sigmas
    factors = np.zeros((total, k))
    lags = spec.lag_matrices
    for t in range(total):
        f = shocks[t, :k].copy()
        for i in range(1, min(p, t) + 1):
            f += lags[i - 1] @ factors[t - i]
        factors[t] = f
    basis = fourier_basis(spec.grid.points)
    curves = factors[spec.burn_in:] @ basis[:k]
    if k < BASIS_SIZE:
        curves = curves + shocks[spec.burn_in:, k:] @ basis[k:]
    return curves


CUSTOM_LAGS = (
    np.array([[0.3, 0.1, 0.0, 0.0], [0.0, 0.2, 0.1, 0.0],
              [0.0, 0.0, 0.1, 0.05], [0.1, 0.0, 0.0, 0.2]]),
    0.1 * np.eye(4),
    np.array([[0.0, -0.1, 0.0, 0.0], [0.05, 0.0, 0.0, 0.0],
              [0.0, 0.0, -0.2, 0.0], [0.0, 0.0, 0.1, 0.1]]),
)
PINNED_SPECS = [
    *(SimSpec(model=name, n_obs=90, seed=17) for name in sorted(MODELS)),
    SimSpec(model="custom", lag_matrices=CUSTOM_LAGS, n_obs=60, seed=4,
            grid=make_grid(0.0, 1.0, 23)),
    SimSpec(model="custom", lag_matrices=(0.5 * np.eye(BASIS_SIZE),), n_obs=40, seed=2),
    SimSpec(model="M3", n_obs=30, seed=5, burn_in=0),
    SimSpec(model="M2", n_obs=25, seed=6, noise_scale=0.0),
]


class TestBasis:
    def test_layout_and_values(self):
        r = np.array([0.0, 0.25, 0.5])
        b = fourier_basis(r)
        assert b.shape == (10, 3)
        assert np.array_equal(b[0], [1.0, 1.0, 1.0])
        s2 = np.sqrt(2.0)
        assert np.allclose(b[1], s2 * np.sin(2 * np.pi * r), atol=1e-15)
        assert np.allclose(b[2], s2 * np.cos(2 * np.pi * r), atol=1e-15)
        assert np.allclose(b[3], s2 * np.sin(4 * np.pi * r), atol=1e-14)
        assert np.allclose(b[4], s2 * np.cos(4 * np.pi * r), atol=1e-14)

    def test_orthonormal_under_quadrature(self):
        grid = make_grid(0.0, 1.0, 401)
        b = fourier_basis(grid.points)
        gram = (b * grid.weights) @ b.T
        assert np.allclose(gram, np.eye(10), atol=1e-4)


class TestSpec:
    def test_named_models(self):
        for name, (k, p) in {"M1": (3, 1), "M2": (2, 2), "M3": (2, 4), "M4": (1, 4)}.items():
            spec = SimSpec(model=name)
            assert (spec.k, spec.p) == (k, p)
            assert companion_spectral_radius(np.stack(spec.lag_matrices)) < 1.0

    def test_custom_model(self):
        spec = SimSpec(model="custom", lag_matrices=(np.array([[0.5]]),))
        assert (spec.k, spec.p) == (1, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown model"):
            SimSpec(model="M9")
        with pytest.raises(ValueError, match="needs lag_matrices"):
            SimSpec(model="custom")
        with pytest.raises(ValueError, match="only accepted"):
            SimSpec(model="M1", lag_matrices=(np.eye(3) * 0.1,))
        with pytest.raises(ValueError, match="unstable"):
            SimSpec(model="custom", lag_matrices=(np.array([[1.01]]),))
        with pytest.raises(ValueError):
            SimSpec(n_obs=0)
        with pytest.raises(ValueError):
            SimSpec(burn_in=-1)
        with pytest.raises(ValueError):
            SimSpec(noise_scale=-0.5)

    @pytest.mark.parametrize("lags", [
        (np.array(5.0),),
        (np.array([0.5]),),
        (np.array([[0.5]]), np.array(0.1)),
        (np.array([[np.nan]]),),
        (np.array([[0.2, np.inf], [0.0, 0.1]]),),
    ], ids=["0-d", "1-d", "0-d-second", "nan", "inf"])
    def test_malformed_lag_matrices_are_refused(self, lags):
        with pytest.raises(ValueError, match="lag matrices must be finite 2-D arrays"):
            SimSpec(model="custom", lag_matrices=lags)

    def test_default_grid(self):
        spec = SimSpec()
        assert spec.grid.n == 51
        assert spec.grid.a == 0.0 and spec.grid.b == 1.0


class TestSimulate:
    def test_deterministic_given_seed(self):
        spec = SimSpec(model="M2", n_obs=50, seed=123)
        a = simulate(spec)
        b = simulate(spec)
        assert np.array_equal(a.matrix, b.matrix)
        c = simulate(SimSpec(model="M2", n_obs=50, seed=124))
        assert not np.array_equal(a.matrix, c.matrix)

    def test_replication_streams_are_independent_of_scheduling(self):
        spec = SimSpec(model="M1", n_obs=40, seed=7)
        direct = simulate(spec, replication_rng(7, 5))
        # drawing other replications first must not change replication 5
        for r in (0, 1, 2):
            simulate(spec, replication_rng(7, r))
        again = simulate(spec, replication_rng(7, 5))
        assert np.array_equal(direct.matrix, again.matrix)
        other = simulate(spec, replication_rng(7, 6))
        assert not np.array_equal(direct.matrix, other.matrix)

    def test_zero_noise_scale_gives_zero_sample(self):
        sample = simulate(SimSpec(model="M3", n_obs=30, noise_scale=0.0))
        assert np.array_equal(sample.matrix, np.zeros_like(sample.matrix))

    def test_shapes_and_grid(self):
        grid = make_grid(0.0, 1.0, 21)
        sample = simulate(SimSpec(model="M4", n_obs=17, grid=grid))
        assert sample.matrix.shape == (17, 21)
        assert sample.grid is grid

    def test_idiosyncratic_variances_decay_like_inverse_squares(self):
        # coordinates beyond the factors are white noise with sd 1/l;
        # project a long sample back onto the basis and check the moments
        spec = SimSpec(model="M4", n_obs=100000, seed=11, burn_in=50)
        sample = simulate(spec)
        basis = fourier_basis(sample.grid.points)
        w = sample.grid.weights
        coords = sample.matrix @ (basis * w).T  # quadrature projections
        var = coords.var(axis=0)
        for l in range(2, 11):  # noise coordinates, sd 1/l
            assert var[l - 1] == pytest.approx(1.0 / l ** 2, rel=MOMENT_RTOL)

    def test_factor_autocovariance_matches_lyapunov_solution(self):
        spec = SimSpec(model="M1", n_obs=200000, seed=13, burn_in=300)
        pop = population_structure(spec)
        sample = simulate(spec)
        basis = fourier_basis(sample.grid.points)[: spec.k]
        w = sample.grid.weights
        factors = sample.matrix @ (basis * w).T
        gamma0_hat = np.cov(factors.T, bias=True)
        assert np.allclose(gamma0_hat, pop.gamma0, atol=0.03)
        # lag-1 autocovariance of M1: Gamma_1 = A_1 Gamma_0
        x0, x1 = factors[:-1], factors[1:]
        gamma1_hat = (x1 - factors.mean(0)).T @ (x0 - factors.mean(0)) / len(x0)
        gamma1 = MODELS["M1"][0] @ pop.gamma0
        assert np.allclose(gamma1_hat, gamma1, atol=0.03)


def scaled_custom_spec(radius, seed, k=10, p=8):
    """A random K x K VAR(p) spec whose companion has the given spectral radius.

    Scaling lag i by c^i scales every companion eigenvalue by c.
    """
    lags = np.random.default_rng(seed).standard_normal((p, k, k)) / np.sqrt(k * p)
    c = radius / companion_spectral_radius(lags)
    return SimSpec(model="custom", lag_matrices=tuple(lags[i] * c ** (i + 1) for i in range(p)))


def companion_system(spec):
    """Companion matrix A and innovation covariance Q of the factor recursion."""
    k, p = spec.k, spec.p
    comp = np.zeros((k * p, k * p))
    comp[:k] = np.hstack(spec.lag_matrices)
    comp[k:, :k * (p - 1)] = np.eye(k * (p - 1))
    innov = np.zeros((k * p, k * p))
    innov[:k, :k] = np.diag((spec.noise_scale / np.arange(1, k + 1)) ** 2)
    return comp, innov


def spec_id(spec):
    return f"{spec.model}-k{spec.k}-p{spec.p}-b{spec.burn_in}-s{spec.noise_scale:g}"


class TestRecursionPin:
    @pytest.mark.parametrize("spec", PINNED_SPECS,
                             ids=spec_id)
    def test_simulate_matches_per_step_loop(self, spec):
        default_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
        assert np.array_equal(simulate(spec).matrix, per_step_simulate(spec, default_rng))
        for rep in (0, 9):
            assert np.array_equal(simulate(spec, replication_rng(spec.seed, rep)).matrix,
                                  per_step_simulate(spec, replication_rng(spec.seed, rep)))

    @pytest.mark.parametrize("spec", PINNED_SPECS,
                             ids=spec_id)
    @pytest.mark.parametrize("streams", [2, 13])
    def test_streams_match_per_step_loop(self, spec, streams):
        samples = simulate_streams(spec, [replication_rng(spec.seed, r) for r in range(streams)])
        for rep, sample in enumerate(samples):
            assert sample.grid is spec.grid
            assert np.array_equal(sample.matrix,
                                  per_step_simulate(spec, replication_rng(spec.seed, rep)))
        assert rep == streams - 1


class TestPopulationStructure:
    def test_eigen_decomposition_consistency(self):
        for name in MODELS:
            spec = SimSpec(model=name)
            pop = population_structure(spec)
            k = spec.k
            assert pop.eigenvalues.shape == (k,)
            assert np.all(np.diff(pop.eigenvalues) <= 1e-12)
            # rotation diagonalizes gamma0
            d = pop.rotation.T @ pop.gamma0 @ pop.rotation
            assert np.allclose(d, np.diag(pop.eigenvalues), atol=1e-10)
            # loadings orthonormal in quadrature up to grid error
            gram = (pop.loadings * spec.grid.weights) @ pop.loadings.T
            assert np.allclose(gram, np.eye(k), atol=1e-3)
            integrals = pop.loadings @ spec.grid.weights
            tiny = np.abs(integrals) < 1e-9
            assert np.all(integrals[~tiny] > 0)

    def test_rotated_dynamics_reproduce_companion_radius(self):
        # an orthogonal change of coordinates leaves the spectrum alone
        spec = SimSpec(model="M2")
        pop = population_structure(spec)
        raw = companion_spectral_radius(np.stack(spec.lag_matrices))
        rot = companion_spectral_radius(pop.lag_matrices)
        assert rot == pytest.approx(raw, rel=1e-10)

    def test_matches_long_sample_fpca(self):
        spec = SimSpec(model="M2", n_obs=100000, seed=21, burn_in=300,
                       grid=make_grid(0.0, 1.0, 101))
        pop = population_structure(spec)
        result = fpca(simulate(spec), k_max=2)
        # the two leading sample eigenvalues and eigenfunctions approach
        # the population ones (idiosyncratic mass perturbs them a little,
        # hence the loose tolerances)
        assert np.allclose(result.eigenvalues[:2], pop.eigenvalues, rtol=0.1)
        for l in range(2):
            dot = np.dot(result.eigenfunctions[l] * result.grid.weights,
                         pop.loadings[l])
            assert abs(dot) > 0.99

    def test_negligible_integral_takes_the_estimators_sign(self):
        # loading 2 is a sine whose quadrature integral is rounding noise,
        # so fpca's fallback (the first coordinate of non-negligible size)
        # sets its sign, and the population loading must follow it
        spec = SimSpec(model="custom", lag_matrices=(np.diag([0.5, 0.3]),), n_obs=2000, seed=3)
        pop = population_structure(spec)
        integrals = pop.loadings @ spec.grid.weights
        assert integrals[0] > 0.5 and abs(integrals[1]) < 1e-9
        result = fpca(simulate(spec), k_max=2)
        for l in range(2):
            assert np.dot(result.eigenfunctions[l] * spec.grid.weights, pop.loadings[l]) > 0.9
        # the rotation and the rotated lag matrices carry the same flips
        assert np.allclose(pop.rotation.T @ fourier_basis(spec.grid.points)[:2], pop.loadings,
                           atol=1e-12)
        assert np.allclose(pop.lag_matrices[0],
                           pop.rotation.T @ spec.lag_matrices[0] @ pop.rotation, atol=1e-15)

    @pytest.mark.parametrize("spec", [
        *(pytest.param(SimSpec(model=name), id=name) for name in sorted(MODELS)),
        *(pytest.param(scaled_custom_spec(radius, seed), id=f"k10-p8-r{radius}-seed{seed}")
          for radius in (0.96, 0.999) for seed in (0, 1)),
    ])
    def test_gamma0_matches_scipy_lyapunov_oracle(self, spec):
        # the solver the doubling replaced: scipy's solve_discrete_lyapunov
        scipy_linalg = pytest.importorskip("scipy.linalg")
        comp, innov = companion_system(spec)
        oracle = scipy_linalg.solve_discrete_lyapunov(comp, innov)[:spec.k, :spec.k]
        oracle = (oracle + oracle.T) / 2.0
        gamma0 = population_structure(spec).gamma0
        np.testing.assert_allclose(gamma0, oracle, rtol=1e-12,
                                   atol=1e-12 * np.abs(oracle).max())
        full = _stationary_covariance(comp, innov)
        block = full[:spec.k, :spec.k]
        assert np.array_equal(gamma0, (block + block.T) / 2.0)
        residual = full - comp @ full @ comp.T - innov
        assert np.abs(residual).max() <= 10 * np.finfo(float).eps * np.abs(full).max()

    def test_unsettled_doubling_is_a_numeric_error(self, monkeypatch):
        # M3 (radius 0.98) needs 12 doubling steps to settle
        monkeypatch.setattr(SIMULATE_MODULE, "_DOUBLING_STEPS", 2)
        with pytest.raises(NumericError, match="did not settle in 2 steps"):
            population_structure(SimSpec(model="M3"))

    def test_m4_variance_matches_yule_walker_oracle(self):
        spec = SimSpec(model="M4")
        pop = population_structure(spec)
        assert pop.rotation.shape == (1, 1)
        assert abs(pop.rotation[0, 0]) == pytest.approx(1.0)
        assert np.allclose(np.ravel(pop.lag_matrices), [0.2, 0.0, 0.0, 0.7])
        # independent oracle: Yule-Walker system of x_t = a1 x_{t-1} +
        # a4 x_{t-4} + e_t with unit innovation variance, using the
        # symmetry g_{-k} = g_k; unknowns are g0..g4
        a1, a4 = 0.2, 0.7
        a = np.array([
            [1.0, -a1, 0.0, 0.0, -a4],   # g0 = a1 g1 + a4 g4 + 1
            [-a1, 1.0, 0.0, -a4, 0.0],   # g1 = a1 g0 + a4 g3
            [0.0, -a1, 1.0 - a4, 0.0, 0.0],  # g2 = a1 g1 + a4 g2
            [0.0, -a4, -a1, 1.0, 0.0],   # g3 = a1 g2 + a4 g1
            [-a4, 0.0, 0.0, -a1, 1.0],   # g4 = a1 g3 + a4 g0
        ])
        b = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        g = np.linalg.solve(a, b)
        assert pop.gamma0[0, 0] == pytest.approx(g[0], rel=1e-10)
        assert pop.eigenvalues[0] == pytest.approx(g[0], rel=1e-10)
