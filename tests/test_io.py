"""Serialization round trips, CSV layouts, and the H.15 feed parser."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffm import (DataError, DiscretePanel, FfmConfig, FpcaResult, Grid, NetworkError, SimSpec,
                 VarFit, fit_ffm, fitted_one_step, forecast, fpca, sample_to_panel, simulate)
from ffm.io import (H15_MATURITIES, fetch_h15, from_json, model_from_json, model_to_json,
                    parse_h15_csv, read_panel_csv, to_json, write_manifest,
                    write_panel_csv, write_rows_csv)


def demo_panel():
    maturities = np.array([1.0, 3.0, 12.0, 60.0, 120.0])
    rng = np.random.default_rng(77)
    table = rng.normal(5.0, 1.0, size=(6, 5))
    table[2, 0] = np.nan
    table[4, 3] = np.nan
    return DiscretePanel(maturities, table, times=tuple(range(200001, 200007)))


H15_FIXTURE = """\
"Series Description","Market yield on U.S. Treasury securities","..."
"Unit:","Percent:_Per_Year","..."
"Multiplier:","1","..."
"Time Period","RIFSPFF_N.M","RIFLGFCM01_N.M","RIFLGFCM03_N.M","RIFLGFCM06_N.M","RIFLGFCY01_N.M","RIFLGFCY02_N.M","RIFLGFCY03_N.M","RIFLGFCY05_N.M","RIFLGFCY07_N.M","RIFLGFCY10_N.M","RIFLGFCY20_N.M","RIFLGFCY30_N.M"
2001-01,5.98,5.27,5.30,5.25,5.16,4.99,4.98,5.03,5.19,5.26,5.65,5.54
2001-02,5.49,ND,5.01,4.93,4.79,NA,4.71,4.81,4.99,5.10,5.53,5.45
2001-03,5.31,ND,ND,ND,ND,ND,ND,ND,4.30,4.89,ND,ND
"""


class TestPanelCsv:
    def test_wide_round_trip_is_exact(self, tmp_path):
        panel = demo_panel()
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path, layout="wide")
        back = read_panel_csv(path)
        assert np.array_equal(back.maturities, panel.maturities)
        assert back.times == panel.times
        assert np.array_equal(back.table, panel.table, equal_nan=True)

    def test_long_round_trip_is_exact(self, tmp_path):
        panel = demo_panel()
        path = tmp_path / "panel_long.csv"
        write_panel_csv(panel, path, layout="long")
        text = path.read_text()
        assert text.splitlines()[0] == "time,maturity,value"
        # NaN cells are simply absent in long form
        assert len(text.splitlines()) == 1 + 6 * 5 - 2
        back = read_panel_csv(path)
        assert np.array_equal(back.table, panel.table, equal_nan=True)
        assert back.times == panel.times

    def test_unknown_layout(self, tmp_path):
        with pytest.raises(ValueError, match="layout"):
            write_panel_csv(demo_panel(), tmp_path / "x.csv", layout="tall")

    def test_wide_parse_errors_carry_context(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,1,2,3,4\n1,1.0,2.0,abc,4.0\n")
        with pytest.raises(DataError, match="line 2.*'3'"):
            read_panel_csv(path)
        path.write_text("time,1,2,x,4\n1,1.0,2.0,3.0,4.0\n")
        with pytest.raises(DataError, match="not a maturity"):
            read_panel_csv(path)
        path.write_text("time,1,2,3,4\n1,1.0,2.0\n")
        with pytest.raises(DataError, match="line 2 has 3 fields"):
            read_panel_csv(path)
        path.write_text("date,1,2,3,4\n")
        with pytest.raises(DataError, match="must be 'time'"):
            read_panel_csv(path)
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_panel_csv(path)
        path.write_text("time,1,2,3,4\n")
        with pytest.raises(DataError, match="no data rows"):
            read_panel_csv(path)

    def test_long_duplicate_cell_is_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        rows = ["time,maturity,value"]
        for m in (1, 2, 3, 4):
            rows.append(f"5,{m},1.{m}")
        rows.append("5,2,9.9")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match="line 6 repeats"):
            read_panel_csv(path)

    def test_long_missing_maturity_field(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("time,maturity,value\n1,,2.0\n")
        with pytest.raises(DataError, match="empty maturity"):
            read_panel_csv(path)

    def test_long_layout_refuses_repeated_time_labels(self, tmp_path):
        # the long layout keys cells by label: rows 1 and 2 would merge on
        # reading (disjoint quotes) or be refused as repeated cells
        table = np.array([[1.0, 2.0, 3.0, 4.0, np.nan],
                          [np.nan, 5.0, 6.0, 7.0, 8.0],
                          [1.5, 2.5, 3.5, 4.5, 5.5]])
        panel = DiscretePanel(np.arange(1.0, 6.0), table, times=(7, 3, 3))
        path = tmp_path / "long.csv"
        with pytest.raises(DataError, match="time label '3' repeats"):
            write_panel_csv(panel, path, layout="long")
        assert not path.exists()
        write_panel_csv(panel, path, layout="wide")
        back = read_panel_csv(path)
        assert back.times == (7, 3, 3)
        assert np.array_equal(back.table, table, equal_nan=True)

    def test_non_integer_times_survive(self, tmp_path):
        maturities = np.array([1.0, 2.0, 3.0, 4.0])
        panel = DiscretePanel(maturities, np.ones((2, 4)),
                              times=("2001-01", "2001-02"))
        path = tmp_path / "dated.csv"
        write_panel_csv(panel, path)
        assert read_panel_csv(path).times == ("2001-01", "2001-02")

    def test_json_round_trip(self):
        panel = demo_panel()
        doc = json.loads(json.dumps(to_json(panel)))
        back = from_json(DiscretePanel, doc)
        assert np.array_equal(back.table, panel.table, equal_nan=True)
        assert back.times == panel.times

    def test_sample_to_panel_view(self):
        sample = simulate(SimSpec(model="M4", n_obs=5))
        panel = sample_to_panel(sample)
        assert np.array_equal(panel.table, sample.matrix)
        assert np.array_equal(panel.maturities, sample.grid.points)


# comma-separated tokens that reach the readers' later checks more often than raw bytes do
CSV_TOKENS = st.sampled_from(["", " ", "0", "1", "2", "3", "4", "2.5", "-1", "1e999", "nan",
                              "inf", "x", '"', "time", "maturity", "value"])
CSV_TEXT = st.lists(st.lists(CSV_TOKENS, min_size=1, max_size=6), max_size=8).map(
    lambda rows: "\n".join(",".join(row) for row in rows).encode())


@st.composite
def panels_with_holes(draw):
    """Panels of 4-7 maturities, each row missing at most all but 4 cells."""
    n_mat = draw(st.integers(4, 7))
    n_rows = draw(st.integers(1, 6))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    maturities = sorted(draw(st.sets(finite, min_size=n_mat, max_size=n_mat)))
    table = np.array(draw(st.lists(st.lists(finite, min_size=n_mat, max_size=n_mat),
                                   min_size=n_rows, max_size=n_rows)))
    for row in table:
        holes = draw(st.lists(st.integers(0, n_mat - 1), max_size=n_mat - 4, unique=True))
        row[holes] = np.nan
    labels = st.one_of(
        st.lists(st.integers(-10**9, 10**9), min_size=n_rows, max_size=n_rows, unique=True),
        st.lists(st.from_regex(r"[A-Za-z][A-Za-z0-9_-]{0,8}", fullmatch=True),
                 min_size=n_rows, max_size=n_rows, unique=True))
    return DiscretePanel(np.array(maturities), table, times=tuple(draw(labels)))


class TestPanelCsvProperties:
    @settings(max_examples=400, deadline=None)
    @given(data=st.one_of(st.binary(max_size=300), CSV_TEXT,
                          CSV_TEXT.map(lambda text: b"time," + text)))
    @example(data=b"time,1,2,3,4\n1,1.0,2.0,3.0,\xff\n")
    def test_arbitrary_bytes_raise_only_data_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "arbitrary.csv"
        path.write_bytes(data)
        try:
            read_panel_csv(path)
        except DataError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(panel=panels_with_holes(), layout=st.sampled_from(["wide", "long"]))
    def test_layouts_round_trip_exactly(self, tmp_path_factory, panel, layout):
        path = tmp_path_factory.getbasetemp() / f"panel_{layout}.csv"
        write_panel_csv(panel, path, layout=layout)
        back = read_panel_csv(path)
        # the long layout has no cell for a maturity missing on every date
        keep = ~np.all(np.isnan(panel.table), axis=0) if layout == "long" else slice(None)
        assert back.times == panel.times
        assert np.array_equal(back.maturities, panel.maturities[keep])
        assert np.array_equal(back.table, panel.table[:, keep], equal_nan=True)


class TestGridJson:
    def test_uniform_grid_compact_form(self):
        from ffm import make_grid
        grid = make_grid(0.0, 2.0, 41)
        doc = to_json(grid)
        assert doc == {"a": 0.0, "b": 2.0, "n": 41}
        back = from_json(Grid, doc)
        assert np.allclose(back.points, grid.points, atol=1e-15)

    def test_irregular_grid_point_list(self):
        grid = Grid(np.array([0.0, 0.1, 0.5, 2.0]))
        doc = to_json(grid)
        assert list(doc) == ["points"]
        assert np.array_equal(from_json(Grid, doc).points, grid.points)

    def test_near_uniform_grid_round_trips_exactly(self):
        from ffm import make_grid
        points = np.linspace(0.0, 1.0, 51)
        points[1:-1] += 1e-14 * np.random.default_rng(5).uniform(-1.0, 1.0, 49)
        grid = Grid(points)
        doc = to_json(grid)
        assert list(doc) == ["points"]
        assert np.array_equal(from_json(Grid, json.loads(json.dumps(doc))).points, points)
        # a grid make_grid rebuilds bit for bit keeps the compact form
        assert list(to_json(make_grid(0.0, 1.0, 51))) == ["a", "b", "n"]

    def test_missing_keys(self):
        with pytest.raises(DataError, match="missing"):
            from_json(Grid, {"a": 0.0, "b": 1.0})


class TestResultJson:
    def test_fpca_round_trip_exact(self):
        sample = simulate(SimSpec(model="M2", n_obs=40, seed=3))
        result = fpca(sample, k_max=3)
        doc = json.loads(json.dumps(to_json(result)))
        back = from_json(FpcaResult, doc)
        assert np.array_equal(back.eigenvalues, result.eigenvalues)
        assert np.array_equal(back.eigenfunctions, result.eigenfunctions)
        assert np.array_equal(back.scores, result.scores)
        assert np.array_equal(back.tail_eigenvalues, result.tail_eigenvalues)
        assert np.array_equal(back.mean.values, result.mean.values)
        assert back.times == result.times

    def test_var_fit_round_trip(self):
        from ffm import fit_var
        rng = np.random.default_rng(31)
        for kwargs in ({}, {"restricted": True}, {"intercept": True}):
            fit = fit_var(rng.normal(size=(50, 2)), 2, **kwargs)
            back = from_json(VarFit, json.loads(json.dumps(to_json(fit))))
            assert np.array_equal(back.coefficients, fit.coefficients)
            assert np.array_equal(back.residuals, fit.residuals)
            assert np.array_equal(back.sigma_eta, fit.sigma_eta)
            assert np.array_equal(back.stderr, fit.stderr)
            assert back.restricted == fit.restricted
            assert back.n_obs == fit.n_obs
            if fit.intercept is None:
                assert back.intercept is None
            else:
                assert np.array_equal(back.intercept, fit.intercept)

    def test_model_round_trip(self):
        # the file keeps the K components the model uses; the rest of the
        # spectrum becomes its tail, so variances and forecasts are unchanged
        sample = simulate(SimSpec(model="M1", n_obs=120, seed=6))
        for config in (FfmConfig(criterion="hqc", k_max=4, p_max=2),
                       FfmConfig(k=2, p=1)):
            model = fit_ffm(sample, config)
            doc = json.loads(json.dumps(model_to_json(model)))
            back = model_from_json(doc)
            k = model.k
            assert back.k == model.k and back.p == model.p
            assert back.config == model.config
            assert back.degenerate_dynamics == model.degenerate_dynamics
            assert np.array_equal(back.var_fit.coefficients,
                                  model.var_fit.coefficients)
            assert back.fpca.rank == k
            assert np.array_equal(back.fpca.scores, model.fpca.scores[:, :k])
            assert np.array_equal(back.fpca.eigenfunctions, model.fpca.eigenfunctions[:k])
            assert back.fpca.total_variance() == model.fpca.total_variance()
            assert back.fpca.tail_sum(k) == model.fpca.tail_sum(k)
            for h in (1, 5):
                assert np.array_equal(forecast(back, h).matrix, forecast(model, h).matrix)
            assert np.array_equal(fitted_one_step(back).matrix,
                                  fitted_one_step(model).matrix)
            if model.selection is None:
                assert back.selection is None
            else:
                assert back.selection.chosen == model.selection.chosen
                assert np.array_equal(back.selection.values,
                                      model.selection.values)

    def test_fpca_csv_files(self, tmp_path):
        sample = simulate(SimSpec(model="M2", n_obs=30, seed=2))
        result = fpca(sample, k_max=2)
        tables = result.tables()
        assert list(tables) == ["mean", "eigenvalues", "eigenfunctions", "scores"]
        for name, rows in tables.items():
            write_rows_csv(rows, tmp_path / f"fpca_{name}.csv")
        eig = (tmp_path / "fpca_eigenvalues.csv").read_text().splitlines()
        assert eig[0] == "component,eigenvalue,kept"
        # 2 kept rows plus the tail, all eigenvalues preserved
        assert len(eig) - 1 == result.rank + result.tail_eigenvalues.size
        kept_flags = [line.split(",")[2] for line in eig[1:]]
        assert kept_flags[:2] == ["1", "1"]
        assert set(kept_flags[2:]) == {"0"}
        total = sum(float(line.split(",")[1]) for line in eig[1:])
        assert total == pytest.approx(result.total_variance(), rel=1e-12)
        scores = (tmp_path / "fpca_scores.csv").read_text().splitlines()
        assert scores[0] == "time,f1,f2"
        assert len(scores) - 1 == 30
        first = [float(v) for v in scores[1].split(",")[1:]]
        assert np.allclose(first, result.scores[0], rtol=1e-15)


class TestRowsCsv:
    def test_floats_round_trip_and_none_is_empty(self, tmp_path):
        rows = [
            {"name": "a", "value": 1.0 / 3.0, "count": 2, "extra": None},
            {"name": "b", "value": 0.1, "count": 5, "extra": None},
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,value,count,extra"
        parts = lines[1].split(",")
        assert float(parts[1]) == 1.0 / 3.0
        assert parts[3] == ""
        with pytest.raises(DataError):
            write_rows_csv([], path)


class TestManifest:
    def test_reruns_are_byte_identical(self, tmp_path):
        opts = {"seed": 7, "criterion": "bic"}
        path = write_manifest(tmp_path, "select", opts, ["surface.csv"],
                              results={"K": 3, "p": 1})
        first = path.read_bytes()
        again = write_manifest(tmp_path, "select", opts, ["surface.csv"],
                               results={"K": 3, "p": 1}).read_bytes()
        assert first == again
        doc = json.loads(first)
        assert doc["command"] == "select"
        assert doc["seed"] == 7
        assert doc["results"] == {"K": 3, "p": 1}
        assert doc["outputs"] == ["surface.csv"]
        assert "time" not in " ".join(doc).lower()


class TestH15:
    def test_fixture_parses_to_panel(self):
        panel, dropped = parse_h15_csv(H15_FIXTURE)
        assert dropped == 1  # 2001-03 has 2 observed values
        assert panel.times == ("2001-01", "2001-02")
        assert np.array_equal(panel.maturities, np.array(H15_MATURITIES, dtype=float))
        assert panel.table[0, 0] == 5.27
        assert panel.table[0, -1] == 5.54
        # ND and NA become holes, the fed-funds column is ignored
        assert np.isnan(panel.table[1, 0])
        assert np.isnan(panel.table[1, 4])
        assert panel.table[1, 1] == 5.01
        assert panel.table[1, 5] == 4.71

    def test_missing_series_is_reported(self):
        broken = H15_FIXTURE.replace("RIFLGFCY10_N.M", "RIFLGFCY11_N.M")
        with pytest.raises(DataError, match=r"\[120\]"):
            parse_h15_csv(broken)

    def test_non_monthly_period_is_rejected(self):
        with pytest.raises(DataError, match="not monthly"):
            parse_h15_csv(H15_FIXTURE.replace("2001-02,", "2001,"))

    def test_missing_header_row(self):
        with pytest.raises(DataError, match="Time Period"):
            parse_h15_csv("a,b,c\n1,2,3\n")

    def test_offline_fetch_raises_network_error(self):
        with pytest.raises(NetworkError, match="network required"):
            fetch_h15("http://127.0.0.1:9/h15.csv", timeout=2.0)

    def test_fetch_from_local_server_and_http_error(self):
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                if self.path != "/h15.csv":
                    self.send_error(404)
                    return
                body = H15_FIXTURE.encode("ascii")
                self.send_response(200)
                self.send_header("Content-Type", "text/csv; charset=us-ascii")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)

        def fetch(path):
            thread = threading.Thread(target=server.handle_request)
            thread.start()
            try:
                return fetch_h15(f"http://127.0.0.1:{server.server_port}{path}", timeout=10.0)
            finally:
                thread.join(timeout=10.0)
                assert not thread.is_alive()

        try:
            assert fetch("/h15.csv") == H15_FIXTURE
            with pytest.raises(NetworkError, match="404"):
                fetch("/gone.csv")
        finally:
            server.server_close()

    def test_silent_server_times_out_as_network_error(self):
        # the listener never accepts, so the request is sent and no reply comes
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            with pytest.raises(NetworkError, match="timed out"):
                fetch_h15(f"http://127.0.0.1:{port}/h15.csv", timeout=0.2)
