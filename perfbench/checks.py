"""Output checks of the benchmark workloads.

Each function returns a list of problems; an empty list means the
outputs passed.  Expected values come from ``reference``, never from
``ffm``.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# Absolute tolerance on forecast curves, in yield percentage points or
# curve units.  The reference agrees with ffm to about 1e-13 on these
# inputs, so a 1e-6 change in one value is caught.
FORECAST_TOL = 1e-9

# Relative tolerance between a reported RMSFE and the one recomputed from
# the reported errors; both are the same sum, so only rounding differs.
RMSFE_RTOL = 1e-12

# bic must choose the true (K, p) in at least this share of the
# replications of each design in a round (1.0 was measured on 50).
BIC_TRUE_SHARE_FLOOR = 0.8


def cli_forecast_problems(manifest: dict, forecast_csv: str, ref_orders: tuple,
                          ref_points: np.ndarray, ref_curves: np.ndarray) -> list[str]:
    """Chosen (K, p) in manifest.json and the curves in forecast.csv."""
    problems = []
    results = manifest.get("results", {})
    orders = (results.get("K"), results.get("p"))
    if orders != tuple(ref_orders):
        problems.append(f"manifest (K, p) = {orders}, reference chose {tuple(ref_orders)}")
    rows = list(csv.DictReader(io.StringIO(forecast_csv)))
    horizons, n = ref_curves.shape
    if len(rows) != horizons * n:
        return problems + [f"forecast.csv has {len(rows)} rows, expected {horizons * n}"]
    got_h = np.array([int(row["horizon"]) for row in rows])
    got_r = np.array([float(row["r"]) for row in rows])
    got_v = np.array([float(row["value"]) for row in rows])
    if not np.array_equal(got_h, np.repeat(np.arange(1, horizons + 1), n)):
        problems.append("forecast.csv horizons are not 1..h in blocks of the grid")
    if not np.array_equal(got_r, np.tile(ref_points, horizons)):
        problems.append("forecast.csv points are not the default 100-point grid")
    dev = float(np.max(np.abs(got_v - ref_curves.ravel())))
    if not dev <= FORECAST_TOL:
        problems.append(f"forecast curves deviate from the reference by {dev:.3e}")
    return problems


def identical_problems(first: dict[str, bytes], later: dict[str, bytes],
                       call: int) -> list[str]:
    """Every output file of a later call equals the first call's, byte for byte."""
    if sorted(first) != sorted(later):
        return [f"call {call} wrote {sorted(later)}, the first call {sorted(first)}"]
    return [f"call {call}: {name} differs from the first call's"
            for name in sorted(first) if first[name] != later[name]]


def mc_problems(selections: dict, ref_choices: dict, true_orders: dict) -> list[str]:
    """Chosen (K, p) per replication against the reference, and bic's hit rate.

    ``selections[design][criterion]`` lists ffm's (K, p) per replication;
    ``ref_choices[design][rep][criterion]`` holds the reference choice
    for every replication that was rebuilt.
    """
    problems = []
    for design, by_criterion in selections.items():
        for rep, ref in ref_choices[design].items():
            for criterion, chosen in ref.items():
                got = tuple(by_criterion[criterion][rep])
                if got != tuple(chosen):
                    problems.append(f"{design} rep {rep} {criterion}: ffm chose {got}, "
                                    f"reference {tuple(chosen)}")
        bic = by_criterion["bic"]
        share = sum(tuple(c) == tuple(true_orders[design]) for c in bic) / len(bic)
        if share < BIC_TRUE_SHARE_FLOOR:
            problems.append(f"{design}: bic chose the true orders in {share:.2f} of "
                            f"replications, below {BIC_TRUE_SHARE_FLOOR}")
    return problems


def backtest_problems(result: dict, table: np.ndarray, h: int, ref: dict) -> list[str]:
    """RMSFE, evaluated cells and sampled origins of one backtest.

    ``ref`` maps an origin's row index to the reference forecast at the
    panel maturities and, for methods that select, the reference (K, p).
    """
    problems = []
    origins = np.array(result["origins"])
    errors = np.array(result["errors"], dtype=float)
    recomputed = float(np.sqrt(np.nanmean(errors**2)))
    if not abs(recomputed - result["rmsfe"]) <= RMSFE_RTOL * recomputed:
        problems.append(f"rmsfe {result['rmsfe']!r} but the stored errors give {recomputed!r}")
    realized = table[origins + h - 1]
    observed = ~np.isnan(realized)
    if not np.all(np.isfinite(errors[observed])):
        problems.append(f"{int(np.sum(~np.isfinite(errors[observed])))} observed cells "
                        "have no finite error")
    if not np.all(np.isnan(errors[~observed])):
        problems.append("cells with an unobserved realized value carry an error")
    for i, (pred, orders) in ref.items():
        seen = observed[i]
        dev = float(np.max(np.abs(errors[i, seen] - (pred[seen] - realized[i, seen]))))
        if not dev <= FORECAST_TOL:
            problems.append(f"origin {origins[i]}: forecast deviates from the reference "
                            f"by {dev:.3e}")
        if orders is not None and tuple(result["selected"][i]) != tuple(orders):
            problems.append(f"origin {origins[i]}: selected {tuple(result['selected'][i])}, "
                            f"reference {tuple(orders)}")
    return problems
