"""The benchmark's checks pass on ffm's real outputs and fail on wrong ones.

Run from the root of a source checkout:

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

import ffm  # noqa: E402
from ffm.cli import main as ffm_main  # noqa: E402

SEED = 3


def test_reference_spline_matches_hand_solved_second_derivatives():
    # Acceptance 9's knots.  With h = (1, 1.5, 1.5, 1) and M0 = M4 = 0 the
    # interior equations are
    #   5/6 M1 + 1/4 M2          = -8/3
    #   1/4 M1 +     M2 + 1/4 M3 =  8/3
    #            1/4 M2 + 5/6 M3 = -3
    # whose exact solution is (-403/85, 262/51, -437/85).
    xs = np.array([0.0, 1.0, 2.5, 4.0, 5.0])
    ys = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    hand = np.array([0.0, -403 / 85, 262 / 51, -437 / 85, 0.0])
    assert np.max(np.abs(reference.spline_second_derivatives(xs, ys) - hand)) <= 1e-12
    assert np.max(np.abs(reference.spline_eval(xs, ys, xs) - ys)) <= 1e-12


@pytest.fixture(scope="module")
def cli_case(tmp_path_factory):
    """One real ``ffm forecast`` call on a benchmark panel, and its reference."""
    out = tmp_path_factory.mktemp("cli")
    table = inputs.yield_panel(SEED, 200)
    inputs.write_wide_csv(table, out / "panel.csv")
    code = ffm_main(["forecast", "--input", str(out / "panel.csv"), "--horizon", "12",
                     "--output-dir", str(out / "fc")])
    assert code == 0
    points = np.linspace(inputs.MATURITIES[0], inputs.MATURITIES[-1], 100)
    curves = reference.panel_curves(inputs.MATURITIES, table, points)
    orders, ref = reference.ffm_forecast(curves, reference.trapezoid_weights(points),
                                         8, 8, 12)
    manifest = json.loads((out / "fc" / "manifest.json").read_text())
    return manifest, (out / "fc" / "forecast.csv").read_text(), orders, points, ref


def test_cli_check_passes_on_ffm_output(cli_case):
    assert checks.cli_forecast_problems(*cli_case) == []


def test_cli_check_catches_perturbed_forecast(cli_case):
    manifest, text, orders, points, ref = cli_case
    lines = text.splitlines()
    horizon, r, value = lines[57].split(",")
    lines[57] = f"{horizon},{r},{float(value) + 1e-6!r}"
    assert checks.cli_forecast_problems(manifest, "\n".join(lines) + "\n",
                                        orders, points, ref)


def test_cli_check_catches_swapped_orders(cli_case):
    manifest, text, orders, points, ref = cli_case
    k, p = manifest["results"]["K"], manifest["results"]["p"]
    assert k != p
    swapped = {**manifest, "results": {**manifest["results"], "K": p, "p": k}}
    assert checks.cli_forecast_problems(swapped, text, orders, points, ref)


def test_identical_check_catches_changed_bytes():
    first = {"forecast.csv": b"1,2\n", "manifest.json": b"{}\n"}
    assert checks.identical_problems(first, dict(first), 2) == []
    assert checks.identical_problems(first, {**first, "manifest.json": b"{ }\n"}, 2)
    assert checks.identical_problems(first, {"forecast.csv": b"1,2\n"}, 2)


@pytest.fixture(scope="module")
def mc_case():
    design, seed, reps = "M1", 5, 3
    report = ffm.monte_carlo(ffm.SimSpec(model=design, n_obs=500, seed=seed), reps,
                             criteria=reference.CRITERIA)
    selections = {design: {c: report.selections[c].tolist() for c in report.criteria}}
    refs = {design: {rep: reference.mc_choices(design, 500, seed, rep, 8, 8)
                     for rep in range(reps)}}
    return selections, refs, {design: reference.true_orders(design)}


def test_mc_check_passes_on_ffm_output(mc_case):
    assert checks.mc_problems(*mc_case) == []


def test_mc_check_catches_swapped_orders(mc_case):
    selections, refs, truth = mc_case
    bic = [list(c) for c in selections["M1"]["bic"]]
    bic[1] = bic[1][::-1]
    assert bic[1] != selections["M1"]["bic"][1]
    assert checks.mc_problems({"M1": {**selections["M1"], "bic": bic}}, refs, truth)


def backtest_case(method, rows, window):
    table = inputs.yield_panel(SEED, rows)
    panel = ffm.DiscretePanel(inputs.MATURITIES, table)
    report = ffm.rolling_backtest(panel, method, h=1, initial_window=window)
    result = {
        "origins": report.origins.tolist(),
        "errors": report.errors.tolist(),
        "selected": None if report.selected is None else report.selected.tolist(),
        "failures": report.failures,
        "rmsfe": report.rmsfe,
    }
    ref = {}
    for i in (0, len(result["origins"]) - 1):
        t = result["origins"][i]
        if isinstance(method, ffm.Dns):
            fc = reference.dns_forecast(inputs.MATURITIES, table[:t], inputs.NS_DECAY, 1)
            ref[i] = (fc[0], None)
        else:
            curves = reference.panel_curves(inputs.MATURITIES, table[:t], inputs.MATURITIES)
            orders, fc = reference.ffm_forecast(
                curves, reference.trapezoid_weights(inputs.MATURITIES), 8, 8, 1)
            ref[i] = (fc[0], orders)
    return result, table, ref


@pytest.fixture(scope="module")
def bic_case():
    return backtest_case(ffm.FfmCriterion("bic", 8, 8), 130, 120)


@pytest.fixture(scope="module")
def dns_case():
    return backtest_case(ffm.Dns(), 160, 120)


@pytest.fixture(params=["bic_case", "dns_case"])
def bt_case(request):
    return request.getfixturevalue(request.param)


def test_backtest_check_passes_on_ffm_output(bt_case):
    result, table, ref = bt_case
    assert checks.backtest_problems(result, table, 1, ref) == []


@pytest.mark.parametrize("row", [0, 4])
def test_backtest_check_catches_one_altered_error(bt_case, row):
    # row 0 is an origin the reference reproduces; row 4 is checked only
    # through the RMSFE recomputed from the stored errors
    result, table, ref = bt_case
    errors = [list(e) for e in result["errors"]]
    col = int(np.flatnonzero(np.isfinite(errors[row]))[0])
    errors[row][col] += 1e-6
    assert checks.backtest_problems({**result, "errors": errors}, table, 1, ref)


def test_backtest_check_catches_swapped_selection(bic_case):
    result, table, ref = bic_case
    selected = [list(s) for s in result["selected"]]
    selected[0] = selected[0][::-1]
    assert selected[0] != result["selected"][0]
    assert checks.backtest_problems({**result, "selected": selected}, table, 1, ref)
