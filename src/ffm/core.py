"""Grids, curves, curve samples, and discretely observed panels.

A curve is represented by its values on a fixed quadrature grid; every
inner product and norm in the package is the trapezoid approximation on
that grid.  Panels (tables observed at arbitrary maturities, possibly
with holes) are turned into curve samples by natural cubic spline
interpolation; rows sharing a missingness pattern share their knots and
are interpolated together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "Grid",
    "Curve",
    "FunctionalSample",
    "DiscretePanel",
    "SplineFunction",
    "make_grid",
    "inner_product",
    "norm",
    "natural_cubic_spline",
    "panel_to_sample",
    "sample_to_panel",
]


def _frozen(values, dtype=float) -> np.ndarray:
    """Owned, read-only array copy of ``values``."""
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Composite trapezoid quadrature weights for strictly increasing points.

    The weights are positive and sum exactly (in exact arithmetic) to the
    domain length ``points[-1] - points[0]``.
    """
    gaps = np.diff(points)
    w = np.empty_like(points)
    w[0] = gaps[0] / 2.0
    w[-1] = gaps[-1] / 2.0
    w[1:-1] = (points[2:] - points[:-2]) / 2.0
    return w


@dataclass(frozen=True, eq=False)
class Grid:
    """Evaluation points on an interval together with quadrature weights.

    Attributes
    ----------
    points : ndarray, shape (n,)
        Strictly increasing, finite evaluation points.  The domain is
        ``[points[0], points[-1]]``.
    weights : ndarray, shape (n,)
        Trapezoid weights; positive, summing to the domain length.
    """

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        points = _frozen(self.points)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(points) <= 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", _frozen(trapezoid_weights(points)))

    @property
    def n(self) -> int:
        return self.points.size

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    def __len__(self) -> int:
        return self.points.size

    def matches(self, other: "Grid") -> bool:
        """Whether both grids have identical points."""
        return self is other or np.array_equal(self.points, other.points)


def make_grid(a: float, b: float, n: int = 100) -> Grid:
    """Uniform grid of ``n`` points on ``[a, b]``.

    Requires ``a < b`` and ``n >= 2``.
    """
    if not n >= 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    return Grid(np.linspace(a, b, n))


@dataclass(frozen=True, eq=False)
class Curve:
    """A single curve: values on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        if values.shape != (self.grid.n,):
            raise ValueError(
                f"curve has {values.shape} values for a grid of {self.grid.n} points"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", values)


def _check_same_grid(x: Curve, y: Curve) -> None:
    if not x.grid.matches(y.grid):
        raise ValueError("curves live on different grids; resample explicitly first")


def inner_product(x: Curve, y: Curve) -> float:
    """Trapezoid approximation of the L2 inner product of two curves.

    Both curves must live on the same grid; there is no implicit
    resampling.
    """
    _check_same_grid(x, y)
    return float(np.dot(x.grid.weights, x.values * y.values))


def norm(x: Curve) -> float:
    """Quadrature L2 norm of a curve."""
    return float(np.sqrt(inner_product(x, x)))


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """A time series of curves on a common grid.

    Attributes
    ----------
    grid : Grid
        Common evaluation grid.
    matrix : ndarray, shape (T, n)
        Row t holds the values of the curve observed at time t.
    times : tuple, length T
        Observation labels; defaults to 1..T.
    """

    grid: Grid
    matrix: np.ndarray
    times: tuple = None

    def __post_init__(self):
        matrix = _frozen(np.atleast_2d(self.matrix))
        if matrix.ndim != 2 or matrix.shape[1] != self.grid.n:
            raise ValueError(
                f"matrix shape {matrix.shape} does not match grid of {self.grid.n} points"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError("sample values must be finite")
        times = self.times
        if times is None:
            times = tuple(range(1, matrix.shape[0] + 1))
        else:
            times = tuple(times)
            if len(times) != matrix.shape[0]:
                raise ValueError("number of time labels does not match number of curves")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "times", times)

    @property
    def n_curves(self) -> int:
        return self.matrix.shape[0]

    def curve(self, t: int) -> Curve:
        """Curve at row index ``t`` (0-based)."""
        return Curve(self.grid, self.matrix[t])


@dataclass(frozen=True, eq=False)
class DiscretePanel:
    """Curves observed discretely at fixed maturities, with optional holes.

    Attributes
    ----------
    maturities : ndarray, shape (M,)
        Strictly increasing observation points shared by all rows.
    table : ndarray, shape (T, M)
        Observed values; NaN marks a missing cell.  Every row must keep
        at least ``MIN_KNOTS`` non-missing entries so it can support a
        natural cubic spline.
    times : tuple, length T
        Observation labels; defaults to 1..T.
    """

    MIN_KNOTS = 4

    maturities: np.ndarray
    table: np.ndarray
    times: tuple = None

    def __post_init__(self):
        maturities = _frozen(self.maturities)
        if maturities.ndim != 1 or maturities.size < 2:
            raise DataError("panel needs at least two maturities")
        if not np.all(np.isfinite(maturities)):
            raise DataError("maturities must be finite")
        if np.any(np.diff(maturities) <= 0):
            raise DataError("maturities must be strictly increasing")
        table = _frozen(np.atleast_2d(self.table))
        if table.ndim != 2 or table.shape[1] != maturities.size:
            raise DataError(
                f"table shape {table.shape} does not match {maturities.size} maturities"
            )
        infinite = np.argwhere(np.isinf(table))
        if infinite.size:
            row, col = infinite[0]
            raise DataError(
                f"row {row}, maturity {maturities[col]:g} holds {table[row, col]}; "
                f"cells must be finite or NaN (missing)"
            )
        counts = np.sum(~np.isnan(table), axis=1)
        bad = np.nonzero(counts < self.MIN_KNOTS)[0]
        if bad.size:
            raise DataError(
                f"rows {bad.tolist()} have fewer than {self.MIN_KNOTS} observed values"
            )
        times = self.times
        if times is None:
            times = tuple(range(1, table.shape[0] + 1))
        else:
            times = tuple(times)
            if len(times) != table.shape[0]:
                raise DataError("number of time labels does not match number of rows")
        object.__setattr__(self, "maturities", maturities)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "times", times)

    @property
    def n_rows(self) -> int:
        return self.table.shape[0]

    def row_knots(self, t: int) -> np.ndarray:
        """Maturities observed (non-missing) in row ``t``."""
        return self.maturities[~np.isnan(self.table[t])]

    def is_complete(self) -> bool:
        return not np.any(np.isnan(self.table))


def sample_to_panel(data) -> DiscretePanel:
    """View a sample as a complete panel observed at its grid points.

    A panel is returned as it is, so a caller taking either needs no check.
    """
    if isinstance(data, DiscretePanel):
        return data
    if not isinstance(data, FunctionalSample):
        raise TypeError(f"expected FunctionalSample or DiscretePanel, got {type(data).__name__}")
    return DiscretePanel(data.grid.points, data.matrix, times=data.times)


def _spline_moments(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Second derivatives at the knots of the natural cubic splines through ``ys``.

    ``ys`` holds one spline per column, shape (M, S); the (M - 2) x (M - 2)
    tridiagonal system is solved once for all columns.  Both end rows are
    zero (the natural boundary conditions).
    """
    h = np.diff(xs)
    slopes = np.diff(ys, axis=0) / h[:, None]
    moments = np.zeros(ys.shape)
    if xs.size > 2:
        a = np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1)
        moments[1:-1] = np.linalg.solve(a, 6.0 * np.diff(slopes, axis=0))
    return moments


def _spline_values(xs: np.ndarray, ys: np.ndarray, moments: np.ndarray,
                   r: np.ndarray) -> np.ndarray:
    """Evaluate the splines of ``_spline_moments`` at points ``r`` inside the knot span.

    Returns shape (r.size, S).  On [x_i, x_{i+1}] the value is
    a y_i + b y_{i+1} + ((a^3 - a) M_i + (b^3 - b) M_{i+1}) h_i^2 / 6 with
    a = (x_{i+1} - r) / h_i and b = (r - x_i) / h_i, so at a knot a or b
    is exactly 0 or 1 and the knot value comes back exactly.
    """
    i = np.clip(np.searchsorted(xs, r, side="right") - 1, 0, xs.size - 2)
    h = xs[i + 1] - xs[i]
    a = ((xs[i + 1] - r) / h)[:, None]
    b = ((r - xs[i]) / h)[:, None]
    curvature = ((a**3 - a) * moments[i] + (b**3 - b) * moments[i + 1]) * (h**2 / 6.0)[:, None]
    return a * ys[i] + b * ys[i + 1] + curvature


class SplineFunction:
    """Natural cubic spline through given knots.

    Interpolates the data exactly, has zero second derivative at both end
    knots, and refuses to extrapolate.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs = _frozen(xs)
        self.ys = _frozen(ys)
        self._moments = _spline_moments(self.xs, self.ys[:, None])

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if np.any(r < self.xs[0]) or np.any(r > self.xs[-1]):
            raise ValueError(
                f"evaluation outside the knot span [{self.xs[0]}, {self.xs[-1]}]"
            )
        values = _spline_values(self.xs, self.ys[:, None], self._moments, r.reshape(-1))
        return values.reshape(r.shape)

    def second_derivatives(self) -> np.ndarray:
        """Second derivative at each knot (zero at both ends by construction)."""
        return self._moments[:, 0].copy()


def natural_cubic_spline(xs, ys, min_knots: int = DiscretePanel.MIN_KNOTS) -> SplineFunction:
    """Natural cubic spline through ``(xs, ys)``.

    Parameters
    ----------
    xs : array_like
        Strictly increasing knots, at least ``min_knots`` of them.
    ys : array_like
        Values at the knots.
    min_knots : int
        Floor on the number of knots.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise ValueError("xs and ys must be one-dimensional and of equal length")
    if xs.size < min_knots:
        raise ValueError(f"need at least {min_knots} knots, got {xs.size}")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("knots must be strictly increasing")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("knots and values must be finite")
    return SplineFunction(xs, ys)


def _patterns(observed: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(mask, rows) for each distinct row of a boolean table, in ``np.unique`` order."""
    patterns, group = np.unique(observed, axis=0, return_inverse=True)
    group = group.reshape(-1)
    return [(mask, np.flatnonzero(group == g)) for g, mask in enumerate(patterns)]


def panel_to_sample(panel: DiscretePanel, grid: Grid,
                    min_knots: int = DiscretePanel.MIN_KNOTS) -> FunctionalSample:
    """Interpolate every panel row onto ``grid`` with natural cubic splines.

    Each row uses only its own observed maturities as knots; rows with
    the same missingness pattern share them and are splined in one solve.
    The grid must lie inside every row's knot span; the first row (in row
    order) that has too few knots or cannot cover it is rejected with its
    index named.  Rows observed exactly on the grid are copied, so a
    complete panel whose maturities equal the grid points round-trips bit
    for bit.
    """
    observed = ~np.isnan(panel.table)
    counts = observed.sum(axis=1)
    first = panel.maturities[np.argmax(observed, axis=1)]
    last = panel.maturities[::-1][np.argmax(observed[:, ::-1], axis=1)]
    bad = np.flatnonzero((counts < min_knots) | (grid.a < first) | (grid.b > last))
    if bad.size:
        t = int(bad[0])
        if counts[t] < min_knots:
            raise DataError(f"row {t} has fewer than {min_knots} observed values")
        raise DataError(
            f"row {t}: grid [{grid.a}, {grid.b}] exceeds the observed span "
            f"[{first[t]}, {last[t]}]"
        )

    rows = np.empty((panel.n_rows, grid.n))
    for mask, members in _patterns(observed):
        if mask.all() and np.array_equal(panel.maturities, grid.points):
            rows[members] = panel.table[members]
            continue
        knots = panel.maturities[mask]
        values = panel.table[np.ix_(members, mask)].T
        moments = _spline_moments(knots, values)
        rows[members] = _spline_values(knots, values, moments, grid.points).T
    return FunctionalSample(grid, rows, times=panel.times)
