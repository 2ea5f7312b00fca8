"""Seeded inputs for the benchmark workloads.

The yield-like panel is built from three dynamic Nelson-Siegel factors
and two further persistent factors on smooth loadings, plus iid
measurement noise.  Holes are placed only at interior maturities, so
every row still spans the shortest and the longest maturity and keeps
at least nine of its eleven quotes.  Nothing here imports ``ffm``.
"""

from __future__ import annotations

import csv

import numpy as np

# Monthly Treasury constant-maturity tenors, in months.
MATURITIES = np.array([1, 3, 6, 12, 24, 36, 60, 84, 120, 240, 360], dtype=float)
NS_DECAY = 0.0609

# level, slope, curvature, long-end hump, short-end hump
FACTOR_MEAN = np.array([5.0, -1.5, 0.5, 0.0, 0.0])
FACTOR_AR = np.array([0.99, 0.97, 0.93, 0.90, 0.85])
FACTOR_SD = np.array([0.15, 0.20, 0.30, 0.12, 0.10])
NOISE_SD = 0.02
BURN_IN = 200

# Share of rows with one and with two interior holes.
ONE_HOLE_SHARE = 0.20
TWO_HOLE_SHARE = 0.10

CLI_ROWS = 600
BACKTEST_ROWS = 300


def factor_loadings(maturities: np.ndarray) -> np.ndarray:
    """(M, 5) loadings: Nelson-Siegel level/slope/curvature and two humps."""
    x = NS_DECAY * maturities
    slope = -np.expm1(-x) / x
    log_r = np.log(maturities)
    return np.column_stack([
        np.ones_like(maturities),
        slope,
        slope - np.exp(-x),
        np.exp(-(((log_r - np.log(120.0)) / 0.6) ** 2)),
        np.exp(-(((log_r - np.log(6.0)) / 0.5) ** 2)),
    ])


def yield_panel(seed: int, n_rows: int) -> np.ndarray:
    """(n_rows, 11) yield table in percent; NaN marks a hole."""
    rng = np.random.default_rng([seed, n_rows])
    total = BURN_IN + n_rows
    shocks = rng.standard_normal((total, FACTOR_AR.size)) * FACTOR_SD
    dev = np.zeros(FACTOR_AR.size)
    factors = np.empty((total, FACTOR_AR.size))
    for t in range(total):
        dev = FACTOR_AR * dev + shocks[t]
        factors[t] = FACTOR_MEAN + dev
    table = factors[BURN_IN:] @ factor_loadings(MATURITIES).T
    table += NOISE_SD * rng.standard_normal(table.shape)

    interior = np.arange(1, MATURITIES.size - 1)
    draws = rng.random(n_rows)
    for t in range(n_rows):
        holes = 2 if draws[t] < TWO_HOLE_SHARE else (
            1 if draws[t] < TWO_HOLE_SHARE + ONE_HOLE_SHARE else 0)
        if holes:
            table[t, rng.choice(interior, size=holes, replace=False)] = np.nan
    return table


def write_wide_csv(table: np.ndarray, path) -> None:
    """Wide panel CSV (``time,<maturity>,...``) with exact float text."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [repr(float(m)) for m in MATURITIES])
        for t, row in enumerate(table, start=1):
            writer.writerow([str(t)] + ["" if np.isnan(v) else repr(float(v)) for v in row])
