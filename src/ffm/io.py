"""Readers and writers for panels, grids, results, and the H.15 feed.

CSV panels come in two layouts:

* wide: header ``time,<maturity>,...``; one row per date, empty cells
  mark missing values;
* long: header ``time,maturity,value``; missing cells are simply absent.

Floats are written with ``repr`` so every round trip is exact.
"""

from __future__ import annotations

import csv
import io as _io
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .backtest import BacktestReport
from .core import DiscretePanel, FunctionalSample, Grid, make_grid
from .dns import DnsModel
from .dynamics import VarFit
from .errors import DataError, NetworkError
from .fpca import FpcaResult
from .pipeline import FfmConfig, FfmModel, ForecastResult
from .selection import SelectionGrid

__all__ = [
    "read_panel_csv",
    "write_panel_csv",
    "panel_to_json",
    "panel_from_json",
    "sample_to_panel",
    "grid_to_json",
    "grid_from_json",
    "fpca_to_json",
    "fpca_from_json",
    "write_fpca_csv",
    "var_fit_to_json",
    "var_fit_from_json",
    "model_to_json",
    "model_from_json",
    "forecast_rows",
    "write_rows_csv",
    "write_manifest",
    "H15_MATURITIES",
    "H15_URL",
    "parse_h15_csv",
    "fetch_h15",
]


def _fmt(x: float) -> str:
    """Shortest exact decimal representation ('' for NaN in wide tables)."""
    return repr(float(x))


def _parse_float(token: str, line: int, column: str) -> float:
    token = token.strip()
    if token == "":
        return np.nan
    try:
        return float(token)
    except ValueError:
        raise DataError(f"line {line}: column {column!r} has non-numeric value {token!r}") from None


def _coerce_times(labels: list) -> tuple:
    try:
        return tuple(int(label) for label in labels)
    except ValueError:
        return tuple(labels)


# ---------------------------------------------------------------------------
# panels


def read_panel_csv(path) -> DiscretePanel:
    """Read a wide or long panel CSV; the layout is sniffed from the header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0].lower() != "time":
        raise DataError(f"{path}: first header column must be 'time', got {header[:1]}")
    if [h.lower() for h in header] == ["time", "maturity", "value"]:
        return _read_long(rows[1:], path)
    return _read_wide(header, rows[1:], path)


def _read_wide(header: list, body: list, path) -> DiscretePanel:
    maturities = []
    for name in header[1:]:
        try:
            maturities.append(float(name))
        except ValueError:
            raise DataError(f"{path}: wide header column {name!r} is not a maturity") from None
    times, table = [], []
    for k, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: line {k} has {len(row)} fields, expected {len(header)}")
        times.append(row[0].strip())
        table.append([_parse_float(cell, k, header[j + 1]) for j, cell in enumerate(row[1:])])
    if not times:
        raise DataError(f"{path}: no data rows")
    return DiscretePanel(np.array(maturities), np.array(table), times=_coerce_times(times))


def _read_long(body: list, path) -> DiscretePanel:
    cells = {}
    times_order = []
    for k, row in enumerate(body, start=2):
        if len(row) != 3:
            raise DataError(f"{path}: line {k} has {len(row)} fields, expected 3")
        time = row[0].strip()
        maturity = _parse_float(row[1], k, "maturity")
        if np.isnan(maturity):
            raise DataError(f"{path}: line {k} has an empty maturity")
        value = _parse_float(row[2], k, "value")
        if time not in cells:
            cells[time] = {}
            times_order.append(time)
        if maturity in cells[time]:
            raise DataError(f"{path}: line {k} repeats cell (time={time}, maturity={maturity})")
        cells[time][maturity] = value
    if not times_order:
        raise DataError(f"{path}: no data rows")
    maturities = np.array(sorted({m for row in cells.values() for m in row}))
    table = np.full((len(times_order), maturities.size), np.nan)
    index = {m: j for j, m in enumerate(maturities)}
    for i, time in enumerate(times_order):
        for m, v in cells[time].items():
            table[i, index[m]] = v
    return DiscretePanel(maturities, table, times=_coerce_times(times_order))


def write_panel_csv(panel: DiscretePanel, path, layout: str = "wide") -> None:
    """Write a panel as CSV; ``layout`` is 'wide' or 'long'."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if layout == "wide":
            writer.writerow(["time"] + [_fmt(m) for m in panel.maturities])
            for t in range(panel.n_rows):
                row = [str(panel.times[t])]
                row += ["" if np.isnan(v) else _fmt(v) for v in panel.table[t]]
                writer.writerow(row)
        elif layout == "long":
            writer.writerow(["time", "maturity", "value"])
            for t in range(panel.n_rows):
                for j, m in enumerate(panel.maturities):
                    v = panel.table[t, j]
                    if not np.isnan(v):
                        writer.writerow([str(panel.times[t]), _fmt(m), _fmt(v)])
        else:
            raise ValueError(f"unknown layout {layout!r}; expected 'wide' or 'long'")


def panel_to_json(panel: DiscretePanel) -> dict:
    table = [[None if np.isnan(v) else v for v in row] for row in panel.table]
    return {
        "times": list(panel.times),
        "maturities": panel.maturities.tolist(),
        "table": table,
    }


def panel_from_json(doc: dict) -> DiscretePanel:
    table = np.array(
        [[np.nan if v is None else v for v in row] for row in doc["table"]], dtype=float
    )
    return DiscretePanel(np.array(doc["maturities"], dtype=float), table,
                         times=tuple(doc["times"]))


def sample_to_panel(sample: FunctionalSample) -> DiscretePanel:
    """View a sample as a complete panel observed at its grid points."""
    return DiscretePanel(sample.grid.points, sample.matrix, times=sample.times)


# ---------------------------------------------------------------------------
# grids


def grid_to_json(grid: Grid) -> dict:
    points = grid.points
    uniform = np.allclose(np.diff(points), points[1] - points[0], rtol=0, atol=1e-12)
    if uniform:
        return {"a": float(points[0]), "b": float(points[-1]), "n": int(points.size)}
    return {"points": points.tolist()}


def grid_from_json(doc: dict) -> Grid:
    if "points" in doc:
        return Grid(np.array(doc["points"], dtype=float))
    try:
        return make_grid(doc["a"], doc["b"], doc["n"])
    except KeyError as exc:
        raise DataError(f"grid document needs 'points' or 'a'/'b'/'n'; missing {exc}") from exc


# ---------------------------------------------------------------------------
# results


def fpca_to_json(result: FpcaResult) -> dict:
    return {
        "grid": grid_to_json(result.grid),
        "times": list(result.times),
        "mean": result.mean.values.tolist(),
        "eigenvalues": result.eigenvalues.tolist(),
        "eigenfunctions": result.eigenfunctions.tolist(),
        "scores": result.scores.tolist(),
        "tail_eigenvalues": result.tail_eigenvalues.tolist(),
    }


def fpca_from_json(doc: dict) -> FpcaResult:
    from .core import Curve

    grid = grid_from_json(doc["grid"])
    return FpcaResult(
        grid=grid,
        mean=Curve(grid, np.array(doc["mean"], dtype=float)),
        eigenvalues=np.array(doc["eigenvalues"], dtype=float),
        eigenfunctions=np.array(doc["eigenfunctions"], dtype=float),
        scores=np.array(doc["scores"], dtype=float),
        tail_eigenvalues=np.array(doc["tail_eigenvalues"], dtype=float),
        times=tuple(doc["times"]),
    )


def write_fpca_csv(result: FpcaResult, outdir, prefix: str = "fpca") -> list:
    """One CSV per block (mean, eigenvalues, eigenfunctions, scores)."""
    outdir = Path(outdir)
    written = []

    def _write(name, header, rows):
        path = outdir / f"{prefix}_{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)

    points = result.grid.points
    _write("mean", ["r", "mean"],
           [[_fmt(r), _fmt(v)] for r, v in zip(points, result.mean.values)])
    eig_rows = [[str(l + 1), _fmt(v), "1"] for l, v in enumerate(result.eigenvalues)]
    eig_rows += [
        [str(result.rank + i + 1), _fmt(v), "0"]
        for i, v in enumerate(result.tail_eigenvalues)
    ]
    _write("eigenvalues", ["component", "eigenvalue", "kept"], eig_rows)
    _write("eigenfunctions", ["r"] + [f"psi{l + 1}" for l in range(result.rank)],
           [[_fmt(r)] + [_fmt(v) for v in result.eigenfunctions[:, i]]
            for i, r in enumerate(points)])
    _write("scores", ["time"] + [f"f{l + 1}" for l in range(result.rank)],
           [[str(t)] + [_fmt(v) for v in row]
            for t, row in zip(result.times, result.scores)])
    return written


def var_fit_to_json(fit: VarFit) -> dict:
    return {
        "coefficients": fit.coefficients.tolist(),
        "intercept": None if fit.intercept is None else fit.intercept.tolist(),
        "residuals": fit.residuals.tolist(),
        "sigma_eta": fit.sigma_eta.tolist(),
        "stderr": fit.stderr.tolist(),
        "restricted": fit.restricted,
        "n_obs": fit.n_obs,
    }


def var_fit_from_json(doc: dict) -> VarFit:
    return VarFit(
        coefficients=np.array(doc["coefficients"], dtype=float),
        intercept=None if doc["intercept"] is None else np.array(doc["intercept"], dtype=float),
        residuals=np.array(doc["residuals"], dtype=float),
        sigma_eta=np.array(doc["sigma_eta"], dtype=float),
        stderr=np.array(doc["stderr"], dtype=float),
        restricted=doc["restricted"],
        n_obs=doc["n_obs"],
    )


def selection_to_json(grid: SelectionGrid) -> dict:
    return {
        "criterion": grid.criterion,
        "k_max": grid.k_max,
        "p_max": grid.p_max,
        "mse": grid.mse.tolist(),
        "values": grid.values.tolist(),
        "chosen": list(grid.chosen),
        "n_obs": grid.n_obs,
        "restricted": grid.restricted,
    }


def selection_from_json(doc: dict) -> SelectionGrid:
    return SelectionGrid(
        criterion=doc["criterion"],
        k_max=doc["k_max"],
        p_max=doc["p_max"],
        mse=np.array(doc["mse"], dtype=float),
        values=np.array(doc["values"], dtype=float),
        chosen=tuple(doc["chosen"]),
        n_obs=doc["n_obs"],
        restricted=doc["restricted"],
    )


def model_to_json(model: FfmModel) -> dict:
    """The fitted model with only the K components it uses.

    Eigenvalues beyond K move into ``tail_eigenvalues``, so the reloaded
    model has the same total variance and tail sums; eigenfunctions and
    scores beyond K are dropped.
    """
    config = model.config
    full, k = model.fpca, model.k
    lean = replace(
        full,
        eigenvalues=full.eigenvalues[:k],
        eigenfunctions=full.eigenfunctions[:k],
        scores=full.scores[:, :k],
        tail_eigenvalues=np.concatenate([full.eigenvalues[k:], full.tail_eigenvalues]),
    )
    return {
        "version": __version__,
        "config": {
            "criterion": config.criterion,
            "k_max": config.k_max,
            "p_max": config.p_max,
            "k": config.k,
            "p": config.p,
            "restricted": config.restricted,
        },
        "fpca": fpca_to_json(lean),
        "selection": None if model.selection is None else selection_to_json(model.selection),
        "var_fit": var_fit_to_json(model.var_fit),
        "degenerate_dynamics": model.degenerate_dynamics,
    }


def model_from_json(doc: dict) -> FfmModel:
    return FfmModel(
        fpca=fpca_from_json(doc["fpca"]),
        selection=None if doc["selection"] is None else selection_from_json(doc["selection"]),
        var_fit=var_fit_from_json(doc["var_fit"]),
        config=FfmConfig(**doc["config"]),
        degenerate_dynamics=doc["degenerate_dynamics"],
    )


def forecast_rows(result: ForecastResult) -> list[dict]:
    """Long-format (horizon, r, value) rows of a forecast."""
    rows = []
    for i, h in enumerate(result.horizons):
        for r, v in zip(result.grid.points, result.matrix[i]):
            rows.append({"horizon": h, "r": float(r), "value": float(v)})
    return rows


def backtest_rows(reports: list[BacktestReport]) -> list[dict]:
    return [report.summary_row() for report in reports]


def backtest_error_rows(report: BacktestReport) -> list[dict]:
    rows = []
    for i, origin in enumerate(report.origins):
        for j, m in enumerate(report.maturities):
            err = report.errors[i, j]
            if np.isfinite(err):
                rows.append({"origin": int(origin), "maturity": float(m), "error": float(err)})
    return rows


def dns_betas_rows(model: DnsModel) -> list[dict]:
    rows = []
    for t, beta in zip(model.times, model.betas):
        rows.append({"time": t, "level": beta[0], "slope": beta[1], "curvature": beta[2]})
    return rows


def write_rows_csv(rows: list[dict], path) -> None:
    """Write homogeneous dict rows as CSV (floats in exact round-trip form)."""
    if not rows:
        raise ValueError("nothing to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        keys = list(rows[0])
        writer.writerow(keys)
        for row in rows:
            out = []
            for k in keys:
                v = row[k]
                if v is None:
                    out.append("")
                elif isinstance(v, float):
                    out.append(_fmt(v))
                else:
                    out.append(str(v))
            writer.writerow(out)


def write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_manifest(outdir, command: str, options: dict, outputs: list,
                   results: dict | None = None) -> Path:
    """Config echo written next to every command's outputs.

    Contains no clock or host information, so reruns with identical
    inputs produce identical bytes.  ``results`` carries small headline
    numbers (chosen orders, RMSFE, ...) worth finding without opening
    the data files.
    """
    path = Path(outdir) / "manifest.json"
    doc = {
        "command": command,
        "version": __version__,
        "seed": options.get("seed"),
        "options": options,
        "results": results or {},
        "outputs": [Path(p).name for p in outputs],
    }
    write_json(doc, path)
    return path


# ---------------------------------------------------------------------------
# H.15 feed

# Constant-maturity Treasury series at these maturities (months) form the
# normalized panel, in this order.
H15_MATURITIES = (1, 3, 6, 12, 24, 36, 60, 84, 120, 240, 360)

H15_URL = (
    "https://www.federalreserve.gov/datadownload/Output.aspx"
    "?rel=H15&filetype=csv&label=include&layout=seriescolumn"
)

_H15_MONTHS = re.compile(r"RIFLGFCM(\d+)_N\.M$")
_H15_YEARS = re.compile(r"RIFLGFCY(\d+)_N\.M$")
_H15_PERIOD = re.compile(r"^\d{4}-\d{2}$")
_H15_MISSING = {"", "ND", "NA", "NC"}


def _h15_series_months(identifier: str) -> int | None:
    identifier = identifier.strip().strip('"').split("/")[-1]
    match = _H15_MONTHS.search(identifier)
    if match:
        return int(match.group(1))
    match = _H15_YEARS.search(identifier)
    if match:
        return 12 * int(match.group(1))
    return None


def parse_h15_csv(text: str) -> tuple[DiscretePanel, int]:
    """Normalize an H.15 CSV download into a monthly panel.

    Locates the 'Time Period' header, maps the monthly constant-maturity
    Treasury series onto maturities in months, and keeps rows with at
    least ``DiscretePanel.MIN_KNOTS`` observed values.  Returns the panel
    and the number of dropped rows.  Unknown series columns are ignored;
    missing required series or a non-monthly period layout are errors.
    """
    rows = list(csv.reader(_io.StringIO(text)))
    header_idx = None
    for i, row in enumerate(rows):
        if row and row[0].strip().strip('"') == "Time Period":
            header_idx = i
            break
    if header_idx is None:
        raise DataError("H.15 header check failed: no 'Time Period' row found")
    header = rows[header_idx]
    columns = {}
    for j, cell in enumerate(header[1:], start=1):
        months = _h15_series_months(cell)
        if months in H15_MATURITIES:
            columns[months] = j
    missing = [m for m in H15_MATURITIES if m not in columns]
    if missing:
        raise DataError(
            f"H.15 header check failed: required series for maturities {missing} not found"
        )

    times, table = [], []
    dropped = 0
    for k, row in enumerate(rows[header_idx + 1:], start=header_idx + 2):
        if not row or not row[0].strip():
            continue
        period = row[0].strip()
        if not _H15_PERIOD.match(period):
            raise DataError(
                f"line {k}: period {period!r} is not monthly (expected YYYY-MM)"
            )
        values = []
        for m in H15_MATURITIES:
            cell = row[columns[m]].strip() if columns[m] < len(row) else ""
            if cell in _H15_MISSING:
                values.append(np.nan)
            else:
                values.append(_parse_float(cell, k, f"maturity {m}"))
        if np.sum(~np.isnan(values)) < DiscretePanel.MIN_KNOTS:
            dropped += 1
            continue
        times.append(period)
        table.append(values)
    if not times:
        raise DataError("H.15 file contains no usable monthly rows")
    panel = DiscretePanel(np.array(H15_MATURITIES, dtype=float), np.array(table), times=tuple(times))
    return panel, dropped


def fetch_h15(url: str = H15_URL, timeout: float = 60.0) -> str:
    """Download the H.15 CSV; raises NetworkError when offline."""
    # these load ssl and email, which no other command needs
    import urllib.request
    from http.client import HTTPException

    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            charset = response.headers.get_content_charset() or "utf-8"
            body = response.read()
    # URLError, HTTPError (4xx/5xx) and socket timeouts are all OSErrors;
    # a connection cut mid-body raises an HTTPException
    except (OSError, HTTPException) as exc:
        raise NetworkError(
            f"network required: could not fetch H.15 data from {url} ({exc})"
        ) from exc
    return body.decode(charset, errors="replace")
