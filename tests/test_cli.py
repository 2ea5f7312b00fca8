"""Command surface: flags, outputs, manifests, exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import ffm
from ffm import (DiscretePanel, FpcaResult, Grid, dns_loadings, export_mse_surface, fpca,
                 make_grid, panel_to_sample, select_orders)
from ffm._blas import openblas_controls
from ffm.cli import EXIT_DATA, EXIT_NUMERIC, build_parser, main
from ffm.io import H15_URL, from_json, model_from_json, panel_rows, read_panel_csv, write_panel_csv

RT_TOL = 1e-12


def run(args):
    return main([str(a) for a in args])


def write_sim_csv(tmp_path, model="M1", t_obs=150, seed=4):
    out = tmp_path / "sim"
    code = run(["simulate", "--model", model, "--T", t_obs, "--seed", seed,
                "--output-dir", out])
    assert code == 0
    return out / "sample.csv"


class TestSimulate:
    def test_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["simulate", "--model", "M2", "--T", 60, "--seed", 9,
                        "--output-dir", out]) == 0
        assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--seed", 1, "--T", 40, "--output-dir", a])
        run(["simulate", "--seed", 2, "--T", 40, "--output-dir", b])
        assert (a / "sample.csv").read_text() != (b / "sample.csv").read_text()

    def test_written_panel_is_readable(self, tmp_path):
        path = write_sim_csv(tmp_path, "M4", 25, 3)
        panel = read_panel_csv(path)
        assert panel.n_rows == 25
        assert panel.maturities.size == 51
        assert panel.is_complete()


class TestFpca:
    def test_rank_bound_on_tiny_panel(self, tmp_path):
        # 3 curves and 4 maturities: the eigenvalue file has min(2, 4)
        # kept rows because the centered sample has rank T - 1
        path = tmp_path / "tiny.csv"
        path.write_text(
            "time,1,2,3,4\n"
            "1,1.0,2.0,3.0,4.0\n"
            "2,2.0,3.0,4.0,6.0\n"
            "3,0.5,1.0,2.5,3.5\n"
        )
        out = tmp_path / "out"
        assert run(["fpca", "--input", path, "--output-dir", out]) == 0
        lines = (out / "fpca_eigenvalues.csv").read_text().splitlines()
        assert len(lines) - 1 == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["rank"] == 2
        knots = json.loads((out / "knots.json").read_text())
        assert set(knots) == {"1", "2", "3"}
        assert knots["1"] == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("fmt, names", [
        ("csv", ["fpca_mean.csv", "fpca_eigenvalues.csv", "fpca_eigenfunctions.csv",
                 "fpca_scores.csv", "knots.json"]),
        ("json", ["fpca.json", "knots.json"]),
    ])
    def test_output_file_names(self, tmp_path, fmt, names):
        csv_path = write_sim_csv(tmp_path, "M2", 30, 2)
        out = tmp_path / "out"
        assert run(["fpca", "--input", csv_path, "--kmax", 2, "--format", fmt,
                    "--output-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == names
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["manifest.json"])

    def test_json_round_trip_matches_library(self, tmp_path):
        csv_path = write_sim_csv(tmp_path, "M2", 40, 8)
        out = tmp_path / "fp"
        assert run(["fpca", "--input", csv_path, "--format", "json",
                    "--kmax", 3, "--output-dir", out]) == 0
        back = from_json(FpcaResult, json.loads((out / "fpca.json").read_text()))
        panel = read_panel_csv(csv_path)
        grid = make_grid(panel.maturities[0], panel.maturities[-1], 100)
        expected = fpca(panel_to_sample(panel, grid), 3)
        assert np.allclose(back.scores, expected.scores, atol=RT_TOL)
        assert np.allclose(back.eigenvalues, expected.eigenvalues, rtol=RT_TOL)

    def test_missing_input_is_exit_3(self, tmp_path):
        assert run(["fpca", "--input", tmp_path / "nope.csv",
                    "--output-dir", tmp_path]) == 3

    def test_one_curve_is_exit_3(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        write_panel_csv(DiscretePanel(np.arange(1.0, 7.0), np.ones((1, 6))), path)
        assert run(["fpca", "--input", path, "--output-dir", tmp_path / "out"]) == EXIT_DATA
        assert "need at least two curves" in capsys.readouterr().err


class TestSelect:
    def test_manifest_records_library_choice(self, tmp_path):
        csv_path = write_sim_csv(tmp_path, "M1", 150, 4)
        out = tmp_path / "sel"
        assert run(["select", "--input", csv_path, "--criterion", "bic",
                    "--kmax", 4, "--pmax", 2, "--output-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        panel = read_panel_csv(csv_path)
        grid = make_grid(panel.maturities[0], panel.maturities[-1], 100)
        result = fpca(panel_to_sample(panel, grid))
        expected = select_orders(result, min(4, result.rank), 2, ("bic",))["bic"].chosen
        assert (manifest["results"]["K"], manifest["results"]["p"]) == expected
        surface = (out / "surface.csv").read_text().splitlines()
        assert surface[0] == "J,m,mse,criterion,chosen"
        assert len(surface) - 1 == 4 * 2

    def test_grid_beyond_the_sample_is_clipped_as_forecast_clips_it(self, tmp_path,
                                                                     benchmark_inputs):
        # 12 curves carry at most rank 11 and 11 lags
        path = tmp_path / "p12.csv"
        benchmark_inputs.write_wide_csv(benchmark_inputs.yield_panel(12, 60)[:12], path)
        warned = {}
        for command in ("select", "forecast"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run([command, "--input", path, "--kmax", 20, "--pmax", 20, "--format",
                            "json", "--output-dir", tmp_path / command]) == 0
            warned[command] = [str(w.message) for w in caught]
        assert warned["select"] == warned["forecast"]
        assert warned["select"][:2] == ["k_max=20 exceeds the sample rank 11; clipped",
                                        "p_max=20 is too large for 12 curves; clipped to 11"]
        surface = json.loads((tmp_path / "select" / "surface.json").read_text())
        model = model_from_json(json.loads((tmp_path / "forecast" / "model.json").read_text()))
        assert surface["cells"] == export_mse_surface(model.selection)
        assert tuple(surface["chosen"]) == model.selection.chosen == (model.k, model.p)

    def test_constant_panel_is_numeric_failure(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = ["time,1,2,3,4"] + [f"{t},1.0,1.0,1.0,1.0" for t in range(1, 9)]
        path.write_text("\n".join(rows) + "\n")
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("ignore")
            code = run(["select", "--input", path, "--kmax", 2, "--pmax", 2,
                        "--output-dir", tmp_path])
        assert code == 4
        assert "error:" in capsys.readouterr().err


@pytest.mark.skipif(not openblas_controls(), reason="no OpenBLAS thread control here")
@pytest.mark.parametrize("command", [
    ["fpca"],
    ["select", "--kmax", 5, "--pmax", 3],
    ["forecast", "--horizon", 3, "--kmax", 4, "--pmax", 2],
], ids=["fpca", "select", "forecast"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, benchmark_inputs, command):
    # blocked factorizations round by their thread count; these commands pin one
    path = tmp_path / "p160.csv"
    benchmark_inputs.write_wide_csv(benchmark_inputs.yield_panel(11, 160), path)
    controls = openblas_controls()
    previous = [getter() for getter, _ in controls]
    outputs = []
    try:
        for threads in (2, 1):
            for _, setter in controls:
                setter(threads)
            out = tmp_path / f"threads-{threads}"
            assert run([*command, "--input", path, "--output-dir", out]) == 0
            assert [getter() for getter, _ in controls] == [threads] * len(controls)
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    finally:
        for (_, setter), count in zip(controls, previous):
            setter(count)
    assert outputs[0] == outputs[1]


class TestForecast:
    def test_pinned_orders(self, tmp_path):
        csv_path = write_sim_csv(tmp_path, "M1", 120, 11)
        out = tmp_path / "fc"
        assert run(["forecast", "--input", csv_path, "--k", 3, "--p", 1,
                    "--horizon", 4, "--output-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["K"] == 3
        assert manifest["results"]["p"] == 1
        model = model_from_json(json.loads((out / "model.json").read_text()))
        assert (model.k, model.p) == (3, 1)
        lines = (out / "forecast.csv").read_text().splitlines()
        assert lines[0] == "horizon,r,value"
        assert len(lines) - 1 == 4 * 100

    def test_half_pinned_is_config_error(self, tmp_path, capsys):
        csv_path = write_sim_csv(tmp_path, "M4", 30, 1)
        assert run(["forecast", "--input", csv_path, "--k", 2,
                    "--output-dir", tmp_path]) == 2
        assert "set both k and p" in capsys.readouterr().err

    def test_infinite_cell_is_data_error(self, tmp_path, capsys):
        csv_path = write_sim_csv(tmp_path, "M4", 40, 2)
        lines = csv_path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "inf"
        lines[5] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")
        assert run(["forecast", "--input", csv_path, "--k", 2, "--p", 1,
                    "--output-dir", tmp_path / "fc"]) == EXIT_DATA
        assert "row 4" in capsys.readouterr().err

    def test_non_finite_maturity_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("time,nan,2,3,4,5\n" + "".join(f"{t},1,2,3,4,{t}\n" for t in range(1, 9)))
        assert run(["forecast", "--input", path, "--output-dir", tmp_path / "fc"]) == EXIT_DATA
        assert "maturities must be finite" in capsys.readouterr().err

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"time,1,2,3,4\n1,1.0,2.0,3.0,4.\xff\n")
        assert run(["forecast", "--input", path, "--output-dir", tmp_path / "fc"]) == EXIT_DATA
        assert str(path) in capsys.readouterr().err

    def test_k_above_rank_is_numeric_failure(self, tmp_path, capsys):
        csv_path = write_sim_csv(tmp_path, "M4", 20, 5)
        assert run(["forecast", "--input", csv_path, "--k", 40, "--p", 1,
                    "--output-dir", tmp_path / "fc"]) == EXIT_NUMERIC
        assert "exceeds the sample rank" in capsys.readouterr().err

    def test_degenerate_dynamics_warns_on_stderr(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        panel = DiscretePanel(np.arange(1.0, 7.0), rng.normal(size=(60, 6)))
        path = tmp_path / "noise.csv"
        write_panel_csv(panel, path)
        out = tmp_path / "fc"
        assert run(["forecast", "--input", path, "--k", 1, "--p", 1,
                    "--grid", "1,6,6", "--output-dir", out]) == 0
        captured = capsys.readouterr()
        assert "indistinguishable from noise" in captured.err


class TestColdStart:
    def test_forecast_imports_neither_scipy_nor_requests(self, tmp_path):
        # the CLI runs on numpy alone; neither package is a runtime
        # dependency, and a module import would put its load on every call
        rng = np.random.default_rng(8)
        maturities = np.array([1, 3, 6, 12, 24, 36, 60, 84, 120, 240, 360], dtype=float)
        table = rng.normal(size=(80, maturities.size)).cumsum(axis=0)
        holes = rng.random(table.shape) < 0.1
        holes[:, [0, -1]] = False
        table[holes] = np.nan
        path = tmp_path / "panel.csv"
        write_panel_csv(DiscretePanel(maturities, table), path)
        script = (
            "import json, sys\n"
            "def heavy():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'requests'))\n"
            "import ffm.cli\n"
            "after_import = heavy()\n"
            "code = ffm.cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, after_import, heavy()]))\n"
        )
        src_dir = str(Path(ffm.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "forecast", "--input", str(path), "--horizon", "3",
             "--criterion", "bic", "--kmax", "4", "--pmax", "2",
             "--output-dir", str(tmp_path / "fc")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, after_import, after_run = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert after_import == []
        assert after_run == []
        assert (tmp_path / "fc" / "model.json").exists()

    def test_runtime_works_without_scipy(self, tmp_path):
        # a None entry in sys.modules makes every scipy import fail
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from ffm import MODELS, SimSpec, population_structure\n"
            "for name in sorted(MODELS):\n"
            "    population_structure(SimSpec(model=name))\n"
            "import ffm.cli\n"
            "sys.exit(ffm.cli.main(sys.argv[1:]))\n"
        )
        src_dir = str(Path(ffm.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "mc", "--model", "M3", "--T", "60", "--reps", "3",
             "--kmax", "3", "--pmax", "4", "--output-dir", str(tmp_path / "mc")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "mc" / "mc.csv").exists()

    def test_forecast_loads_no_process_pool(self, tmp_path):
        # monte_carlo imports its process pool only when it starts one, so
        # other commands do not pay for loading multiprocessing
        path = write_sim_csv(tmp_path, t_obs=60)
        script = (
            "import json, sys\n"
            "import ffm.cli\n"
            "code = ffm.cli.main(sys.argv[1:])\n"
            "pool = [m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules]\n"
            "from ffm import SimSpec, monte_carlo\n"
            "spec = SimSpec(model='M1', n_obs=40, seed=3)\n"
            "runs = [monte_carlo(spec, 4, 2, 1, ('bic',), jobs=jobs).selections['bic'].tolist()\n"
            "        for jobs in (1, 2)]\n"
            "print(json.dumps([code, pool, runs, 'concurrent.futures.process' in sys.modules]))\n"
        )
        src_dir = str(Path(ffm.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "forecast", "--input", str(path), "--horizon", "2",
             "--criterion", "bic", "--kmax", "3", "--pmax", "2",
             "--output-dir", str(tmp_path / "fc")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, pool, runs, pool_after_mc = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        assert pool == []
        assert runs[0] == runs[1] and len(runs[0]) == 4
        assert pool_after_mc


class TestMc:
    def test_summary_matches_library(self, tmp_path):
        out = tmp_path / "mc"
        assert run(["mc", "--model", "M4", "--T", 80, "--reps", 5, "--seed", 3,
                    "--kmax", 3, "--pmax", 4, "--output-dir", out]) == 0
        lines = (out / "mc.csv").read_text().splitlines()
        assert lines[0] == "model,T,criterion,bias_K,bias_p,rmse_K,rmse_p,reps"
        assert len(lines) - 1 == 3
        from ffm import SimSpec, monte_carlo
        report = monte_carlo(SimSpec(model="M4", n_obs=80, seed=3), 5, 3, 4)
        first = lines[1].split(",")
        assert first[2] == "bic"
        assert float(first[3]) == pytest.approx(report.bias("bic")[0], abs=1e-15)

    def test_jobs_flag_is_invisible_in_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, 1), (b, 2)):
            assert run(["mc", "--model", "M4", "--T", 60, "--reps", 4,
                        "--seed", 5, "--kmax", 2, "--pmax", 2, "--jobs", jobs,
                        "--output-dir", out]) == 0
        assert (a / "mc.csv").read_text() == (b / "mc.csv").read_text()

    @pytest.mark.parametrize("flag, value", [("--jobs", 0), ("--jobs", -3), ("--reps", 0)])
    def test_nonpositive_jobs_or_reps_is_config_error(self, tmp_path, capsys, flag, value):
        assert run(["mc", "--model", "M4", "--T", 60, "--reps", 2, "--kmax", 2, "--pmax", 2,
                    flag, value, "--output-dir", tmp_path]) == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "mc.csv").exists()

    def test_bad_criteria_is_config_error(self, tmp_path, capsys):
        assert run(["mc", "--criteria", "bic,aic", "--reps", 2,
                    "--output-dir", tmp_path]) == 2
        assert "unknown criterion" in capsys.readouterr().err


class TestBacktest:
    def test_fixed_method_summary_and_errors(self, tmp_path):
        csv_path = write_sim_csv(tmp_path, "M1", 45, 6)
        out = tmp_path / "bt"
        assert run(["backtest", "--input", csv_path, "--method", "ffm-fixed",
                    "--k", 2, "--p", 1, "--window", 35, "--output-dir", out]) == 0
        with open(out / "backtest.csv", newline="") as fh:
            head, values = list(csv.reader(fh))
        assert head[:6] == ["method", "K", "p", "dynamics", "horizon", "rmsfe"]
        row = dict(zip(head, values))
        assert row["method"] == "ffm-fixed(2,1,var)"
        assert (row["K"], row["p"]) == ("2", "1")
        # audit: the reported scalar is recomputable from errors.csv
        errors = [float(line.split(",")[2])
                  for line in (out / "errors.csv").read_text().splitlines()[1:]]
        recomputed = float(np.sqrt(np.mean(np.square(errors))))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["rmsfe"] == pytest.approx(recomputed, abs=RT_TOL)
        assert float(row["rmsfe"]) == pytest.approx(recomputed, abs=RT_TOL)

    def test_manifest_names_the_first_failed_origin(self, tmp_path):
        # a t-row window has rank t - 1, so K = 5 fails at the first origins
        rng = np.random.default_rng(13)
        path = tmp_path / "noise.csv"
        write_panel_csv(DiscretePanel(np.arange(1.0, 7.0), rng.normal(size=(12, 6))), path)
        out = tmp_path / "bt"
        assert run(["backtest", "--input", path, "--method", "ffm-fixed", "--k", 5,
                    "--p", 1, "--window", 4, "--output-dir", out]) == 0
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["failures"] == 3
        assert results["first_failure"] == [4, "NumericError",
                                             "k=5 exceeds the sample rank 3"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_unsplinable_panel_is_data_error(self, tmp_path, capsys, blas_threads,
                                             benchmark_inputs, threads):
        table = benchmark_inputs.yield_panel(11, 160)
        table[150, 0] = np.nan
        path = tmp_path / "p160.csv"
        benchmark_inputs.write_wide_csv(table, path)
        blas_threads(threads)
        assert run(["backtest", "--input", path, "--method", "ffm-criterion", "--kmax", 3,
                    "--pmax", 2, "--window", 100, "--output-dir", tmp_path / "bt"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "row 150: grid" in err and "Traceback" not in err

    def test_fixed_method_requires_orders(self, tmp_path, capsys):
        csv_path = write_sim_csv(tmp_path, "M4", 30, 2)
        assert run(["backtest", "--input", csv_path, "--method", "ffm-fixed",
                    "--window", 20, "--output-dir", tmp_path]) == 2
        assert "requires --k and --p" in capsys.readouterr().err

    def test_dns_method_with_lambda(self, tmp_path):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        rng = np.random.default_rng(10)
        betas = np.zeros((40, 3))
        for t in range(1, 40):
            betas[t] = 0.8 * betas[t - 1] + 0.2 * rng.normal(size=3)
        table = betas @ dns_loadings(maturities, 0.09).T
        path = tmp_path / "yld.csv"
        write_panel_csv(DiscretePanel(maturities, table), path)
        out = tmp_path / "bt"
        assert run(["backtest", "--input", path, "--method", "dns",
                    "--lambda", 0.09, "--dynamics", "diagonal",
                    "--window", 30, "--output-dir", out]) == 0
        with open(out / "backtest.csv", newline="") as fh:
            head, values = list(csv.reader(fh))
        row = dict(zip(head, values))
        assert row["method"] == "dns(ar)"
        assert row["dynamics"] == "ar"


class TestDnsCommand:
    @pytest.mark.parametrize("args", [
        ["backtest", "--method", "dns", "--window", 2],
        ["dns", "--lambda", -1],
    ], ids=["backtest-window", "dns-lambda"])
    def test_bad_arguments_exit_2(self, tmp_path, capsys, args):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        betas = np.random.default_rng(21).normal(size=(25, 3))
        path = tmp_path / "yld.csv"
        write_panel_csv(DiscretePanel(maturities, betas @ dns_loadings(maturities).T), path)
        assert run([args[0], "--input", path, *args[1:], "--output-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    @pytest.mark.parametrize("command", [["dns"], ["backtest", "--method", "dns", "--window", 10]],
                             ids=["dns", "backtest"])
    def test_non_finite_lambda_exits_2(self, tmp_path, capsys, command, lam):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        betas = np.random.default_rng(22).normal(size=(25, 3))
        path = tmp_path / "yld.csv"
        write_panel_csv(DiscretePanel(maturities, betas @ dns_loadings(maturities).T), path)
        assert run([command[0], "--input", path, *command[1:], "--lambda", lam,
                    "--output-dir", tmp_path / "out"]) == 2
        assert "decay must be positive and finite" in capsys.readouterr().err

    def test_outputs(self, tmp_path):
        maturities = np.array([3.0, 12.0, 36.0, 60.0, 120.0])
        rng = np.random.default_rng(20)
        betas = np.array([4.0, -1.0, 0.5]) + 0.3 * rng.normal(size=(25, 3))
        table = betas @ dns_loadings(maturities).T
        path = tmp_path / "yld.csv"
        write_panel_csv(DiscretePanel(maturities, table), path)
        out = tmp_path / "dns"
        assert run(["dns", "--input", path, "--horizon", 2,
                    "--output-dir", out]) == 0
        dns_lines = (out / "dns.csv").read_text().splitlines()
        assert dns_lines[0] == "horizon,r,value"
        assert len(dns_lines) - 1 == 2 * 5
        beta_lines = (out / "betas.csv").read_text().splitlines()
        assert beta_lines[0] == "time,level,slope,curvature"
        assert len(beta_lines) - 1 == 25
        first = [float(v) for v in beta_lines[1].split(",")[1:]]
        assert np.allclose(first, betas[0], atol=1e-10)


def csv_cell(value) -> str:
    """A value as ``write_rows_csv`` renders it."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


class TestJsonOutput:
    @pytest.mark.parametrize("argv, name, rows_of", [
        pytest.param(["select", "--input", "PANEL", "--kmax", 3, "--pmax", 2], "surface",
                     lambda doc: doc["cells"], id="select"),
        pytest.param(["forecast", "--input", "PANEL", "--horizon", 2, "--kmax", 3, "--pmax", 2],
                     "forecast", lambda doc: doc["rows"], id="forecast"),
        pytest.param(["simulate", "--model", "M2", "--T", 30, "--seed", 3], "sample",
                     lambda doc: panel_rows(from_json(DiscretePanel, doc)), id="simulate"),
        pytest.param(["mc", "--model", "M4", "--T", 60, "--reps", 3, "--kmax", 2, "--pmax", 2],
                     "mc", lambda doc: doc["summary"], id="mc"),
        pytest.param(["backtest", "--input", "PANEL", "--method", "ffm-criterion", "--kmax", 3,
                      "--pmax", 2, "--window", 70], "backtest", lambda doc: doc["summary"],
                     id="backtest"),
        pytest.param(["dns", "--input", "PANEL", "--horizon", 2], "dns",
                     lambda doc: doc["rows"], id="dns"),
    ])
    def test_json_holds_the_csv_rows(self, tmp_path, argv, name, rows_of):
        rng = np.random.default_rng(21)
        maturities = np.array([1, 3, 6, 12, 24, 36, 60, 84, 120, 240, 360], dtype=float)
        table = 5.0 + 0.1 * rng.normal(size=(80, maturities.size)).cumsum(axis=0)
        table[rng.random(table.shape) < 0.1] = np.nan
        table[:, [0, -1]] = 5.0
        panel_path = tmp_path / "panel.csv"
        write_panel_csv(DiscretePanel(maturities, table), panel_path)
        argv = [panel_path if arg == "PANEL" else arg for arg in argv]
        for fmt in ("csv", "json"):
            assert run(argv + ["--format", fmt, "--output-dir", tmp_path / fmt]) == 0
        with open(tmp_path / "csv" / f"{name}.csv", newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
        doc = json.loads((tmp_path / "json" / f"{name}.json").read_text())
        json_rows = [{key: csv_cell(value) for key, value in row.items()}
                     for row in rows_of(doc)]
        assert json_rows == csv_rows


class TestFetchH15:
    def test_offline_is_exit_5(self, tmp_path, capsys):
        assert run(["fetch-h15", "--url", "http://127.0.0.1:9/h15.csv",
                    "--output-dir", tmp_path]) == 5
        assert "network required" in capsys.readouterr().err


class TestParser:
    def test_bad_grid_is_config_error(self, tmp_path, capsys):
        csv_path = write_sim_csv(tmp_path, "M4", 20, 0)
        assert run(["fpca", "--input", csv_path, "--grid", "0,1",
                    "--output-dir", tmp_path]) == 2
        assert "--grid expects" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fpca", "--input", "x.csv"], ["select", "--input", "x.csv"],
        ["forecast", "--input", "x.csv"], ["backtest", "--input", "x.csv", "--method", "dns"],
        ["dns", "--input", "x.csv"], ["fetch-h15"],
    ])
    def test_seed_is_rejected_where_nothing_is_random(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--seed", 1])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, parsed", [
        (["fpca", "--input", "x.csv"],
         {"input": "x.csv", "grid": None, "kmax": None, "output_dir": ".", "format": "csv"}),
        (["select", "--input", "x.csv"],
         {"input": "x.csv", "grid": None, "criterion": "bic", "kmax": 8, "pmax": 8,
          "restricted": False, "output_dir": ".", "format": "csv"}),
        (["forecast", "--input", "x.csv"],
         {"input": "x.csv", "grid": None, "horizon": 1, "k": None, "p": None,
          "criterion": "bic", "kmax": 8, "pmax": 8, "restricted": False,
          "output_dir": ".", "format": "csv"}),
        (["simulate"],
         {"model": "M1", "T": 200, "grid": None, "burn_in": 200, "noise_scale": 1.0,
          "seed": 0, "output_dir": ".", "format": "csv"}),
        (["mc"],
         {"model": "M1", "T": 200, "reps": 100, "criteria": "bic,hqc,ffpe", "kmax": 8,
          "pmax": 8, "restricted": False, "jobs": 1, "seed": 0, "output_dir": ".",
          "format": "csv"}),
        (["backtest", "--input", "x.csv", "--method", "dns"],
         {"input": "x.csv", "method": "dns", "dynamics": "full", "horizon": 1,
          "window": 120, "k": None, "p": None, "lam": 0.0609, "criterion": "bic",
          "kmax": 8, "pmax": 8, "output_dir": ".", "format": "csv"}),
        (["dns", "--input", "x.csv"],
         {"input": "x.csv", "lam": 0.0609, "dynamics": "full", "horizon": 1,
          "output_dir": ".", "format": "csv"}),
        (["fetch-h15"], {"url": H15_URL, "layout": "wide", "output_dir": "."}),
    ], ids=["fpca", "select", "forecast", "simulate", "mc", "backtest", "dns", "fetch-h15"])
    def test_each_command_parses_its_dests_and_defaults(self, argv, parsed):
        # every parsed dest is echoed in manifest.json, so dests, defaults
        # and their JSON types (1 is not 1.0) are pinned per command
        args = vars(build_parser().parse_args(argv))
        assert callable(args.pop("func"))
        expected = {"command": argv[0], **parsed}
        assert json.dumps(args, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_fetch_h15_has_no_format_flag(self, capsys):
        # it always writes h15.csv; --layout picks the panel layout
        with pytest.raises(SystemExit) as exc:
            run(["fetch-h15", "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("ffm ")

    def test_console_script_is_installed(self, tmp_path):
        # Build the launcher an installer writes for the declared entry
        # point and run it by name, so the check covers this checkout's
        # `[project.scripts]` entry rather than any `ffm` already on PATH.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["ffm"]
        entry = EntryPoint(name="ffm", value=target, group="console_scripts")

        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        launcher = bin_dir / "ffm"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n"
        )
        launcher.chmod(0o755)

        src_dir = str(Path(ffm.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        proc = subprocess.run(["ffm", "--version"], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"ffm {ffm.__version__}\n", proc.stderr
