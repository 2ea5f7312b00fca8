"""Grids, quadrature, splines, and panel ingestion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffm import (Curve, DataError, DiscretePanel, FunctionalSample, Grid,
                 inner_product, make_grid, natural_cubic_spline, norm,
                 panel_to_sample)


def tridiagonal_second_derivatives(xs, ys):
    """Independent oracle: dense solve of the standard natural-spline system."""
    n = len(xs)
    h = np.diff(xs)
    a = np.zeros((n - 2, n - 2))
    b = np.zeros(n - 2)
    for row, i in enumerate(range(1, n - 1)):
        if row > 0:
            a[row, row - 1] = h[i - 1]
        a[row, row] = 2.0 * (h[i - 1] + h[i])
        if row < n - 3:
            a[row, row + 1] = h[i]
        b[row] = 6.0 * ((ys[i + 1] - ys[i]) / h[i] - (ys[i] - ys[i - 1]) / h[i - 1])
    m = np.zeros(n)
    m[1:-1] = np.linalg.solve(a, b)
    return m


class TestGrid:
    def test_three_point_uniform_weights(self):
        grid = make_grid(0.0, 1.0, 3)
        assert np.array_equal(grid.points, [0.0, 0.5, 1.0])
        assert np.array_equal(grid.weights, [0.25, 0.5, 0.25])

    def test_weights_positive_and_sum_to_domain_length(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = rng.integers(2, 40)
            points = np.sort(rng.uniform(-3.0, 7.0, n))
            points += np.arange(n) * 1e-6  # enforce strict increase
            grid = Grid(points)
            assert np.all(grid.weights > 0)
            assert np.isclose(grid.weights.sum(), points[-1] - points[0], rtol=1e-12)

    def test_default_size_is_100(self):
        assert make_grid(0.0, 1.0).n == 100

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            make_grid(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, np.nan, 1.0]))

    def test_grids_are_immutable(self):
        grid = make_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            grid.points[0] = -1.0


class TestInnerProduct:
    def test_fourier_pair_against_adaptive_quadrature(self):
        # oracle: scipy.integrate.quad gives 0.0 (at 7e-15) for the mixed
        # product and 1.0 for the squared one on [0, 1]
        grid = make_grid(0.0, 1.0, 100)
        s = Curve(grid, np.sqrt(2.0) * np.sin(2.0 * np.pi * grid.points))
        c = Curve(grid, np.sqrt(2.0) * np.cos(2.0 * np.pi * grid.points))
        assert inner_product(s, c) == pytest.approx(0.0, abs=2e-3)
        assert inner_product(s, s) == pytest.approx(1.0, abs=2e-3)
        assert norm(s) == pytest.approx(1.0, abs=1e-3)

    def test_exact_for_products_of_affine_curves(self):
        # trapezoid integrates quadratics with O(h^2) error; affine * constant
        # is integrated exactly
        grid = Grid(np.array([0.0, 0.3, 1.1, 2.0]))
        x = Curve(grid, 2.0 * grid.points + 1.0)
        one = Curve(grid, np.ones(grid.n))
        assert inner_product(x, one) == pytest.approx(2.0 * 2.0 + 2.0, rel=1e-14)

    def test_rejects_mismatched_grids(self):
        x = Curve(make_grid(0.0, 1.0, 5), np.ones(5))
        y = Curve(make_grid(0.0, 1.0, 6), np.ones(6))
        with pytest.raises(DataError, match="different grids"):
            inner_product(x, y)

    def test_curve_validation(self):
        grid = make_grid(0.0, 1.0, 4)
        with pytest.raises(DataError):
            Curve(grid, np.ones(3))
        with pytest.raises(DataError):
            Curve(grid, np.array([1.0, np.nan, 0.0, 2.0]))


class TestNaturalCubicSpline:
    XS = np.array([0.0, 1.0, 2.5, 4.0, 5.0])
    YS = np.array([1.0, 3.0, 2.0, 5.0, 4.0])

    def test_interpolates_at_knots(self):
        spline = natural_cubic_spline(self.XS, self.YS)
        assert np.allclose(spline(self.XS), self.YS, atol=1e-12, rtol=0)

    def test_second_derivatives_match_tridiagonal_oracle(self):
        spline = natural_cubic_spline(self.XS, self.YS)
        oracle = tridiagonal_second_derivatives(self.XS, self.YS)
        # frozen oracle output for this dataset
        assert np.allclose(oracle, [0.0, -4.74117647058823, 5.13725490196078,
                                    -5.14117647058824, 0.0], atol=1e-10)
        assert np.allclose(spline.second_derivatives(), oracle, atol=1e-12)

    def test_natural_boundary_conditions(self):
        spline = natural_cubic_spline(self.XS, self.YS)
        second = spline.second_derivatives()
        assert abs(second[0]) < 1e-12
        assert abs(second[-1]) < 1e-12

    def test_reproduces_affine_data_exactly(self):
        xs = np.array([-1.0, 0.5, 2.0, 3.5, 6.0])
        ys = 3.0 * xs - 2.0
        spline = natural_cubic_spline(xs, ys)
        r = np.linspace(-1.0, 6.0, 113)
        assert np.allclose(spline(r), 3.0 * r - 2.0, atol=1e-12, rtol=0)

    def test_random_oracle_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = rng.integers(4, 12)
            xs = np.sort(rng.uniform(0.0, 10.0, n))
            xs += np.arange(n) * 1e-3
            ys = rng.normal(size=n)
            spline = natural_cubic_spline(xs, ys)
            assert np.allclose(spline.second_derivatives(),
                               tridiagonal_second_derivatives(xs, ys),
                               atol=1e-9)

    def test_refuses_extrapolation(self):
        spline = natural_cubic_spline(self.XS, self.YS)
        with pytest.raises(DataError, match="outside"):
            spline(-0.1)
        with pytest.raises(DataError, match="outside"):
            spline(5.01)

    def test_knot_floor_and_validation(self):
        with pytest.raises(DataError, match="at least 4"):
            natural_cubic_spline([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        # the floor is configurable
        natural_cubic_spline([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], min_knots=3)
        with pytest.raises(DataError):
            natural_cubic_spline([0.0, 1.0, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError):
            natural_cubic_spline([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


class TestDiscretePanel:
    def test_row_observation_floor(self):
        maturities = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        table = np.ones((3, 5))
        table[1, 0] = np.nan
        DiscretePanel(maturities, table)  # 4 observed in row 1 is allowed
        table[1, 1] = np.nan  # now only 3 remain
        with pytest.raises(DataError, match=r"rows \[1\]"):
            DiscretePanel(maturities, table)

    def test_rejects_infinite_cells(self):
        maturities = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        table = np.ones((3, 5))
        table[0, 1] = np.nan  # NaN is a missing value, not an error
        table[2, 3] = -np.inf
        with pytest.raises(DataError, match=r"row 2, maturity 4 holds -inf"):
            DiscretePanel(maturities, table)

    def test_rejects_unsorted_maturities(self):
        with pytest.raises(DataError, match="strictly increasing"):
            DiscretePanel(np.array([1.0, 3.0, 2.0, 4.0]), np.ones((1, 4)))


class TestPanelToSample:
    def test_complete_panel_on_matching_grid_is_exact(self):
        maturities = np.array([1.0, 2.0, 4.0, 7.0, 11.0])
        rng = np.random.default_rng(5)
        table = rng.normal(size=(6, 5))
        panel = DiscretePanel(maturities, table)
        sample = panel_to_sample(panel, Grid(maturities))
        assert np.array_equal(sample.matrix, table)
        assert sample.times == panel.times

    def test_missing_cells_use_row_knots_only(self):
        maturities = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        full = np.array([1.0, 2.0, 0.5, 3.0, 2.5])
        table = np.vstack([full, full])
        table[1, 2] = np.nan
        panel = DiscretePanel(maturities, table)
        grid = Grid(maturities)
        sample = panel_to_sample(panel, grid)
        # row 0 is complete: copied
        assert np.array_equal(sample.matrix[0], full)
        # row 1: value at the hole comes from the spline through the 4
        # remaining knots (independent oracle below)
        keep = [0, 1, 3, 4]
        oracle = natural_cubic_spline(maturities[keep], full[keep])(2.0)
        assert sample.matrix[1, 2] == pytest.approx(float(oracle), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_knots=st.integers(4, 14),
           n_rows=st.integers(1, 40), hole_rate=st.floats(0.0, 0.7),
           n_points=st.integers(2, 60), log_scale=st.floats(-3.0, 3.0))
    def test_grouped_rows_match_per_row_and_scipy_splines(self, seed, n_knots, n_rows,
                                                          hole_rate, n_points, log_scale):
        # rows sharing a missingness pattern are splined in one solve; each
        # row must still equal its own spline, and that spline scipy's
        scipy_interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(seed)
        maturities = np.cumsum(rng.uniform(0.1, 10.0, n_knots))
        table = rng.normal(size=(n_rows, n_knots)).cumsum(axis=1) * 10.0**log_scale
        holes = rng.random(table.shape) < hole_rate
        holes[:, [0, -1]] = False  # every row spans the grid
        holes[holes.sum(axis=1) > n_knots - DiscretePanel.MIN_KNOTS] = False
        table[holes] = np.nan
        grid = make_grid(maturities[0], maturities[-1], n_points)
        sample = panel_to_sample(DiscretePanel(maturities, table), grid)
        for t in range(n_rows):
            knots, values = maturities[~holes[t]], table[t, ~holes[t]]
            scale = np.abs(values).max()
            own = natural_cubic_spline(knots, values)(grid.points)
            assert np.allclose(sample.matrix[t], own, rtol=0, atol=1e-13 * scale)
            oracle = scipy_interpolate.CubicSpline(knots, values, bc_type="natural")
            assert np.allclose(own, oracle(grid.points), rtol=0, atol=1e-12 * scale)

    def test_first_bad_row_in_row_order_is_named(self):
        maturities = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        table = np.ones((4, 6))
        table[1, 1:3] = np.nan  # 4 knots: too few for min_knots=5
        table[2, 0] = np.nan  # span starts at 1.0
        grid = Grid(maturities)
        with pytest.raises(DataError, match=r"^row 1 has fewer than 5"):
            panel_to_sample(DiscretePanel(maturities, table), grid, min_knots=5)
        swapped = DiscretePanel(maturities, table[[0, 2, 1, 3]])
        with pytest.raises(DataError, match=r"^row 1: grid \[0.0, 5.0\] exceeds"):
            panel_to_sample(swapped, grid, min_knots=5)

    def test_grid_beyond_row_span_is_rejected_with_row_index(self):
        maturities = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        table = np.ones((2, 5))
        table[1, 0] = np.nan  # row 1 span starts at 1.0
        panel = DiscretePanel(maturities, table)
        with pytest.raises(DataError, match="row 1"):
            panel_to_sample(panel, Grid(maturities))

    def test_sample_validation(self):
        grid = make_grid(0.0, 1.0, 4)
        with pytest.raises(DataError):
            FunctionalSample(grid, np.ones((2, 3)))
        with pytest.raises(DataError):
            FunctionalSample(grid, np.ones((2, 4)), times=(1,))
        sample = FunctionalSample(grid, np.ones((2, 4)))
        assert sample.times == (1, 2)
        with pytest.raises(ValueError):
            sample.matrix[0, 0] = 2.0
