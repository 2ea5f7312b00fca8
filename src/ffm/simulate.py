"""Synthetic curve time series driven by a finite factor VAR.

Curves are built on a 10-function Fourier system on [0, 1]:

    v_1 = 1,  v_{2j} = sqrt(2) sin(2 pi j r),  v_{2j+1} = sqrt(2) cos(2 pi j r).

The first K coordinates carry VAR(p) factors, the remaining ones hold
independent noise with standard deviation 1/l in coordinate l, so the
population eigenvalues decay like l^-2 beyond the factors.  Four named
model specifications (M1..M4) cover the (K, p) combinations used in the
selection experiments.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import FunctionalSample, Grid, _frozen, make_grid
from .dynamics import _companion, companion_spectral_radius
from .errors import NumericError

__all__ = [
    "BASIS_SIZE",
    "MODELS",
    "SimSpec",
    "PopulationStructure",
    "fourier_basis",
    "default_sim_grid",
    "replication_rng",
    "simulate",
    "simulate_streams",
    "population_structure",
]

BASIS_SIZE = 10

# Cap on the doubling steps of the stationary covariance solve.
_DOUBLING_STEPS = 64

# Lag matrices of the named models: (K, p) = (3, 1), (2, 2), (2, 4), (1, 4).
MODELS: dict[str, tuple[np.ndarray, ...]] = {
    "M1": (
        np.array([[-0.05, -0.23, 0.76], [0.80, -0.05, 0.04], [0.04, 0.76, 0.23]]),
    ),
    "M2": (
        np.array([[0.8, -0.8], [0.1, -0.5]]),
        np.array([[-0.3, -0.3], [-0.2, 0.3]]),
    ),
    "M3": (
        np.array([[0.4, -0.2], [0.0, 0.3]]),
        np.array([[-0.1, -0.1], [0.0, -0.1]]),
        np.array([[0.15, 0.15], [0.00, 0.15]]),
        np.array([[0.3, -0.4], [0.0, 0.6]]),
    ),
    "M4": (
        np.array([[0.2]]),
        np.array([[0.0]]),
        np.array([[0.0]]),
        np.array([[0.7]]),
    ),
}


def fourier_basis(points: np.ndarray, size: int = BASIS_SIZE) -> np.ndarray:
    """First ``size`` Fourier functions evaluated at ``points``, one per row."""
    points = np.asarray(points, dtype=float)
    out = np.empty((size, points.size))
    out[0] = 1.0
    for l in range(2, size + 1):
        j = l // 2
        phase = 2.0 * np.pi * j * points
        out[l - 1] = np.sqrt(2.0) * (np.sin(phase) if l % 2 == 0 else np.cos(phase))
    return out


def default_sim_grid() -> Grid:
    """51 uniform points on [0, 1]."""
    return make_grid(0.0, 1.0, 51)


@dataclass(frozen=True, eq=False)
class SimSpec:
    """Configuration of one synthetic curve process.

    Attributes
    ----------
    model : str
        One of M1..M4, or "custom" together with ``lag_matrices``.
    n_obs : int
        Sample length T.
    seed : int
        Master seed; replications derive independent streams from it.
    grid : Grid or None
        Evaluation grid, default 51 uniform points on [0, 1].
    burn_in : int
        Recursion steps discarded before the sample starts (from a zero
        initial state).
    noise_scale : float
        Multiplier on every innovation standard deviation; 0 gives an
        identically zero sample.
    lag_matrices : tuple of ndarray, optional
        Custom (K, K) lag matrices; required when model == "custom".
    """

    model: str = "M1"
    n_obs: int = 200
    seed: int = 0
    grid: Grid | None = None
    burn_in: int = 200
    noise_scale: float = 1.0
    lag_matrices: tuple = None

    def __post_init__(self):
        if self.n_obs < 1:
            raise ValueError(f"n_obs must be positive, got {self.n_obs}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be nonnegative, got {self.burn_in}")
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be nonnegative, got {self.noise_scale}")
        if self.model == "custom":
            if not self.lag_matrices:
                raise ValueError("custom model needs lag_matrices")
            lags = tuple(_frozen(a) for a in self.lag_matrices)
        elif self.model in MODELS:
            if self.lag_matrices is not None:
                raise ValueError("lag_matrices are only accepted with model='custom'")
            lags = tuple(_frozen(a) for a in MODELS[self.model])
        else:
            raise ValueError(f"unknown model {self.model!r}; expected one of "
                             f"{sorted(MODELS)} or 'custom'")
        if any(a.ndim != 2 or not np.isfinite(a).all() for a in lags):
            raise ValueError("lag matrices must be finite 2-D arrays")
        k = lags[0].shape[0]
        if any(a.shape != (k, k) for a in lags):
            raise ValueError("lag matrices must all be square and of equal size")
        if not 1 <= k <= BASIS_SIZE:
            raise ValueError(f"factor dimension must be in [1, {BASIS_SIZE}], got {k}")
        radius = companion_spectral_radius(np.stack(lags))
        if radius >= 1.0:
            raise ValueError(f"unstable lag polynomial: companion spectral radius {radius:.4f}")
        object.__setattr__(self, "lag_matrices", lags)
        if self.grid is None:
            object.__setattr__(self, "grid", default_sim_grid())

    @property
    def k(self) -> int:
        """Number of factors."""
        return self.lag_matrices[0].shape[0]

    @property
    def p(self) -> int:
        """VAR lag order."""
        return len(self.lag_matrices)


def replication_rng(master_seed: int, replication: int) -> np.random.Generator:
    """Independent counter-based stream for one replication.

    The stream depends only on (master_seed, replication), so replication
    r draws the same numbers whether the study runs sequentially or
    split across processes.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(seq))


def simulate(spec: SimSpec, rng: np.random.Generator | None = None) -> FunctionalSample:
    """Draw one sample path of the curve process described by ``spec``."""
    if rng is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    return next(simulate_streams(spec, [rng]))


def simulate_streams(spec: SimSpec, rngs) -> Iterator[FunctionalSample]:
    """Sample paths of ``spec``, one per generator, through one factor recursion.

    Sample j is bit for bit ``simulate(spec, rngs[j])``: every stream
    draws its own shocks, and the recursion's lag products are per-stream
    ``np.matmul`` items, so the number of streams run together changes no
    bit.  Each sample's curves are built only when the iterator reaches
    it.
    """
    k, p = spec.k, spec.p
    total = spec.burn_in + spec.n_obs
    sigmas = spec.noise_scale / np.arange(1, BASIS_SIZE + 1)
    shocks = [rng.standard_normal((total, BASIS_SIZE)) * sigmas for rng in rngs]

    # (total, streams, k, 1): each step adds its lag terms in lag order
    factors = np.stack([s[:, :k] for s in shocks], axis=1)[..., None]
    lags = spec.lag_matrices
    for t in range(1, total):
        for i in range(1, min(p, t) + 1):
            factors[t] += np.matmul(lags[i - 1], factors[t - i])

    basis = fourier_basis(spec.grid.points)
    for j, stream_shocks in enumerate(shocks):
        curves = np.ascontiguousarray(factors[spec.burn_in:, j, :, 0]) @ basis[:k]
        if k < BASIS_SIZE:
            curves = curves + stream_shocks[spec.burn_in:, k:] @ basis[k:]
        yield FunctionalSample(spec.grid, curves)


@dataclass(frozen=True, eq=False)
class PopulationStructure:
    """Identified population quantities implied by a simulation spec.

    The stationary factor covariance Gamma_0 is generally not diagonal,
    so the population eigenfunctions are rotations of the Fourier
    functions.  ``eigenvalues`` are the leading K population eigenvalues
    (descending), ``loadings`` the matching eigenfunctions on the spec
    grid, ``lag_matrices`` the factor dynamics expressed in the rotated
    coordinates, and ``rotation`` the orthogonal K x K matrix mapping raw
    factors to identified ones (columns ordered by eigenvalue).
    """

    eigenvalues: np.ndarray
    loadings: np.ndarray
    lag_matrices: np.ndarray
    rotation: np.ndarray
    gamma0: np.ndarray


def _stationary_covariance(comp: np.ndarray, innov: np.ndarray) -> np.ndarray:
    """Solve S = A S A' + Q by doubling: S <- S + A S A', A <- A A.

    After step j, S sums A^i Q A'^i over i < 2^j, so for a stable A the
    tail left out shrinks like radius^(2^j) and a step soon leaves S
    unchanged, where the loop stops.  Raises NumericError if S still
    changes after _DOUBLING_STEPS steps.
    """
    s, a = innov, comp
    for _ in range(_DOUBLING_STEPS):
        step = s + a @ s @ a.T
        if np.array_equal(step, s):
            return s
        s, a = step, a @ a
    raise NumericError(f"the Lyapunov doubling did not settle in {_DOUBLING_STEPS} steps")


def population_structure(spec: SimSpec) -> PopulationStructure:
    """Solve the stationary factor covariance and rotate to identified form.

    Gamma_0 is the leading K x K block of the companion recursion's
    stationary covariance.  SimSpec refuses a spectral radius of 1 or
    more, so its doubling solve settles in a few steps: 8 to 12 on
    M1..M4, 16 on K = 10, p = 8 companions of radius 0.999.  The step
    cap only turns a sum that never settles, such as one whose powers
    overflow, into a NumericError.
    """
    k, p = spec.k, spec.p
    innov = np.zeros((k * p, k * p))
    innov[:k, :k] = np.diag((spec.noise_scale / np.arange(1, k + 1)) ** 2)
    gamma0 = _stationary_covariance(_companion(np.stack(spec.lag_matrices)), innov)[:k, :k]
    gamma0 = (gamma0 + gamma0.T) / 2.0

    vals, q = np.linalg.eigh(gamma0)
    vals = vals[::-1]
    q = q[:, ::-1]

    basis = fourier_basis(spec.grid.points)[:k]
    loadings = q.T @ basis
    # same sign convention as the estimator: positive quadrature integral
    integrals = loadings @ spec.grid.weights
    flips = np.where(integrals < 0, -1.0, 1.0)
    loadings = loadings * flips[:, None]
    q = q * flips[None, :]
    rotated = np.stack([q.T @ np.asarray(a) @ q for a in spec.lag_matrices])

    return PopulationStructure(
        eigenvalues=_frozen(vals),
        loadings=_frozen(loadings),
        lag_matrices=_frozen(rotated),
        rotation=_frozen(q),
        gamma0=_frozen(gamma0),
    )
