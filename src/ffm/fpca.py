"""Functional principal component analysis on a quadrature grid.

The sample covariance kernel uses divisor T.  ``fpca`` forms it as
C = X_c' X_c / T from the centered curves X_c it also scores, and
computes eigenpairs from the weighted matrix B = W^{1/2} C W^{1/2} (W
the diagonal matrix of quadrature weights), whose symmetric
eigendecomposition yields quadrature-orthonormal eigenfunctions
psi = W^{-1/2} v.  Scores are quadrature inner products of the centered
curves with the eigenfunctions.

An eigenfunction's sign is fixed by one rule: the sign of its integral
when that exceeds ``SIGN_TOLERANCE``; otherwise the sign of its first
coordinate above that tolerance; otherwise +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Curve, FunctionalSample, Grid, _frozen
from .errors import ConfigError, DataError, NumericError

__all__ = [
    "CovarianceKernel",
    "FpcaResult",
    "sample_mean",
    "sample_covariance",
    "fpca",
    "reconstruct",
]

# Eigenvalues of the weighted covariance matrix this far below zero are
# rounding noise and get clamped; anything lower means a broken kernel.
EIGENVALUE_FLOOR = -1e-10

# Quadrature integrals and coordinates of an eigenfunction no larger than
# this are treated as zero when fixing signs.
SIGN_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class CovarianceKernel:
    """Sample covariance kernel evaluated on a grid.

    ``values[i, j]`` holds c(r_i, r_j); the matrix is symmetrized on
    construction and is positive semidefinite up to rounding error.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n, self.grid.n):
            raise DataError(
                f"kernel shape {values.shape} does not match grid of {self.grid.n} points"
            )
        values = (values + values.T) / 2.0
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def trace_integral(self) -> float:
        """Quadrature value of the integral of c(r, r) over the domain."""
        return float(np.dot(self.grid.weights, np.diag(self.values)))


def sample_mean(sample: FunctionalSample) -> Curve:
    """Pointwise mean curve of the sample."""
    return Curve(sample.grid, sample.matrix.mean(axis=0))


def sample_covariance(sample: FunctionalSample) -> CovarianceKernel:
    """Sample covariance kernel with divisor T (not T-1)."""
    x = sample.matrix - sample.matrix.mean(axis=0)
    return CovarianceKernel(sample.grid, x.T @ x / sample.n_curves)


@dataclass(frozen=True, eq=False)
class FpcaResult:
    """Eigenstructure and scores of a curve sample.

    Attributes
    ----------
    grid : Grid
        Grid shared by the mean and the eigenfunctions.
    mean : Curve
        Sample mean curve.
    eigenvalues : ndarray, shape (rank,)
        Leading eigenvalues, descending, all nonnegative.
    eigenfunctions : ndarray, shape (rank, n)
        Row l holds the l-th eigenfunction; rows are orthonormal in the
        quadrature inner product and sign-fixed (positive integral).
    scores : ndarray, shape (T, rank)
        Quadrature inner products of centered curves with eigenfunctions.
    tail_eigenvalues : ndarray
        Positive spectrum beyond ``rank`` (empty when the full rank was
        requested).  Kept so variance tail sums never lose mass when a
        caller asks for few components.
    times : tuple
        Time labels carried over from the sample.
    """

    grid: Grid
    mean: Curve
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    scores: np.ndarray
    tail_eigenvalues: np.ndarray
    times: tuple

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

    @property
    def n_curves(self) -> int:
        return self.scores.shape[0]

    def eigenfunction(self, l: int) -> Curve:
        """Eigenfunction ``l`` (0-based) as a curve."""
        return Curve(self.grid, self.eigenfunctions[l])

    def total_variance(self) -> float:
        """Sum of the full positive spectrum."""
        return self.tail_sum(0)

    def tail_sum(self, j: int) -> float:
        """Variance mass beyond the leading ``j`` components.

        Summed over the joined spectrum, so the value does not depend on
        where the kept components end and ``tail_eigenvalues`` begins.
        """
        if not 0 <= j <= self.rank:
            raise ConfigError(f"j must be in [0, {self.rank}], got {j}")
        return float(np.concatenate([self.eigenvalues[j:], self.tail_eigenvalues]).sum())

    def tables(self) -> dict[str, list[dict]]:
        """CSV tables: mean, eigenvalues (kept, then tail), eigenfunctions, scores."""
        points = self.grid.points
        spectrum = np.concatenate([self.eigenvalues, self.tail_eigenvalues])
        psi = [f"psi{l + 1}" for l in range(self.rank)]
        factors = [f"f{l + 1}" for l in range(self.rank)]
        return {
            "mean": [{"r": r, "mean": v} for r, v in zip(points, self.mean.values)],
            "eigenvalues": [{"component": l + 1, "eigenvalue": v, "kept": int(l < self.rank)}
                            for l, v in enumerate(spectrum)],
            "eigenfunctions": [{"r": r, **dict(zip(psi, column))}
                               for r, column in zip(points, self.eigenfunctions.T)],
            "scores": [{"time": t, **dict(zip(factors, row))}
                       for t, row in zip(self.times, self.scores)],
        }


def _sign_flips(integrals: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Signs (+1 or -1) that give each eigenfunction column a positive integral.

    ``integrals[l]`` is the quadrature integral of the eigenfunction in
    column l of ``psi``.  When that is negligible, the column's first
    non-negligible coordinate is made positive instead; a column with no
    such coordinate keeps its sign.
    """
    big = np.abs(psi) > SIGN_TOLERANCE
    first = psi[big.argmax(axis=0), np.arange(psi.shape[1])]
    fallback = np.where(big.any(axis=0), np.sign(first), 1.0)
    return np.where(np.abs(integrals) > SIGN_TOLERANCE, np.sign(integrals), fallback)


def fpca(sample: FunctionalSample, k_max: int | None = None) -> FpcaResult:
    """Functional PCA of a curve sample.

    Parameters
    ----------
    sample : FunctionalSample
        At least two curves.
    k_max : int, optional
        Number of components to keep.  Defaults to the full rank
        min(T-1, n); larger requests are capped there.  Eigenvalues
        beyond the kept components remain available in
        ``tail_eigenvalues``.
    """
    t_obs, n = sample.matrix.shape
    if t_obs < 2:
        raise DataError("need at least two curves")
    full_rank = min(t_obs - 1, n)
    if k_max is None:
        k_max = full_rank
    if k_max < 1:
        raise ConfigError(f"k_max must be at least 1, got {k_max}")
    rank = min(k_max, full_rank)

    mean = sample.matrix.mean(axis=0)
    centered = sample.matrix - mean
    sqrt_w = np.sqrt(sample.grid.weights)
    b = sqrt_w[:, None] * (centered.T @ centered / t_obs) * sqrt_w[None, :]
    b = (b + b.T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on symmetric rarely fails
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1][:full_rank]
    vecs = vecs[:, ::-1][:, :full_rank]
    if vals.size and vals.min() < EIGENVALUE_FLOOR:
        raise NumericError(
            f"covariance kernel has eigenvalue {vals.min():.3e} below {EIGENVALUE_FLOOR:.0e}"
        )
    vals = np.clip(vals, 0.0, None)

    vecs = vecs[:, :rank]
    psi = vecs / sqrt_w[:, None]
    eigenfunctions = (psi * _sign_flips(sqrt_w @ vecs, psi)).T
    scores = centered @ (eigenfunctions * sample.grid.weights).T

    return FpcaResult(
        grid=sample.grid,
        mean=Curve(sample.grid, mean),
        eigenvalues=_frozen(vals[:rank]),
        # row-major like a reloaded model's, so products with it round the same
        eigenfunctions=_frozen(np.ascontiguousarray(eigenfunctions)),
        scores=_frozen(scores),
        tail_eigenvalues=_frozen(vals[rank:]),
        times=sample.times,
    )


def reconstruct(result: FpcaResult, j: int | None = None) -> FunctionalSample:
    """Rank-``j`` reconstruction mean + sum of score-weighted eigenfunctions.

    ``j = 0`` returns the mean repeated; ``j = rank`` reproduces the
    sample up to quadrature rounding.
    """
    if j is None:
        j = result.rank
    if not 0 <= j <= result.rank:
        raise ConfigError(f"j must be in [0, {result.rank}], got {j}")
    matrix = result.mean.values + result.scores[:, :j] @ result.eigenfunctions[:j]
    return FunctionalSample(result.grid, matrix, times=result.times)
