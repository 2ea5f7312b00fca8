"""Readers and writers for panels, results, manifests, and the H.15 feed.

CSV panels come in two layouts:

* wide: header ``time,<maturity>,...``; one row per date, empty cells
  mark missing values;
* long: header ``time,maturity,value``; missing cells are simply absent.

Results go to JSON through one codec, ``to_json``/``from_json``.
Floats are written with ``repr`` so every round trip is exact.
"""

from __future__ import annotations

import csv
import io as _io
import json
import re
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from ._version import __version__
from .core import Curve, DiscretePanel, Grid, make_grid
from .errors import DataError, NetworkError
from .pipeline import FfmModel

__all__ = [
    "read_panel_csv",
    "write_panel_csv",
    "panel_rows",
    "to_json",
    "from_json",
    "model_to_json",
    "model_from_json",
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


def _cell(v) -> str:
    """CSV text of one value: '' for None, exact text for floats."""
    if v is None:
        return ""
    return _fmt(v) if isinstance(v, float) else str(v)


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
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 file ({exc})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV ({exc})") from None
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


def panel_rows(panel: DiscretePanel, layout: str = "wide") -> list[dict]:
    """CSV rows of a panel: one per date ('wide') or per observed cell ('long')."""
    rows = []
    if layout == "wide":
        names = [_fmt(m) for m in panel.maturities]
        for t, values in zip(panel.times, panel.table):
            row = {"time": t}
            for name, v in zip(names, values):
                row[name] = None if np.isnan(v) else v
            rows.append(row)
    elif layout == "long":
        # the long layout keys cells by their time label as written
        labels = set()
        for t, values in zip(panel.times, panel.table):
            label = _cell(t).strip()
            if label in labels:
                raise DataError(f"time label {label!r} repeats; the long layout keys "
                                "cells by time label, so it cannot hold this panel")
            labels.add(label)
            for m, v in zip(panel.maturities, values):
                if not np.isnan(v):
                    rows.append({"time": t, "maturity": m, "value": v})
    else:
        raise ValueError(f"unknown layout {layout!r}; expected 'wide' or 'long'")
    return rows


def write_panel_csv(panel: DiscretePanel, path, layout: str = "wide") -> None:
    """Write a panel as CSV; ``layout`` is 'wide' or 'long'."""
    write_rows_csv(panel_rows(panel, layout), path)


# ---------------------------------------------------------------------------
# JSON codec


def to_json(obj):
    """JSON document of a result: dataclass fields by name, arrays as nested lists.

    A ``Grid`` that ``make_grid(a, b, n)`` rebuilds bit for bit is written
    as its ``a``/``b``/``n``, a ``Curve`` as its values on its owner's
    grid, and NaN as null.
    """
    if isinstance(obj, Grid):
        if np.array_equal(make_grid(obj.a, obj.b, obj.n).points, obj.points):
            return {"a": obj.a, "b": obj.b, "n": obj.n}
        return {"points": obj.points.tolist()}
    if isinstance(obj, Curve):
        return obj.values.tolist()
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj) if f.init}
    if isinstance(obj, np.ndarray):
        nan = np.isnan(obj)
        return (np.where(nan, None, obj) if nan.any() else obj).tolist()
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def from_json(cls, doc):
    """Inverse of ``to_json`` for the dataclass type ``cls``."""
    if cls is Grid:
        if "points" in doc:
            return Grid(np.array(doc["points"], dtype=float))
        try:
            return make_grid(doc["a"], doc["b"], doc["n"])
        except KeyError as exc:
            raise DataError(f"grid document needs 'points' or 'a'/'b'/'n'; missing {exc}") from exc
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.init:
            values[f.name] = _decode(hints[f.name], doc[f.name], values)
    return cls(**values)


def _decode(hint, value, owner: dict):
    """One field for ``from_json``; ``owner`` holds the fields decoded before it."""
    if value is None:
        return None
    if isinstance(hint, UnionType):  # X | None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    hint = get_origin(hint) or hint
    if hint is np.ndarray:
        return np.array(value, dtype=float)
    if hint is Curve:
        return Curve(owner["grid"], value)
    if hint is tuple:
        return tuple(value)
    if is_dataclass(hint):
        return from_json(hint, value)
    return value


def model_to_json(model: FfmModel) -> dict:
    """The fitted model with only the K components it uses.

    Eigenvalues beyond K move into ``tail_eigenvalues``, so the reloaded
    model has the same total variance and tail sums; eigenfunctions and
    scores beyond K are dropped.
    """
    full, k = model.fpca, model.k
    lean = replace(
        full,
        eigenvalues=full.eigenvalues[:k],
        eigenfunctions=full.eigenfunctions[:k],
        scores=full.scores[:, :k],
        tail_eigenvalues=np.concatenate([full.eigenvalues[k:], full.tail_eigenvalues]),
    )
    return {"version": __version__, **to_json(replace(model, fpca=lean))}


def model_from_json(doc: dict) -> FfmModel:
    return from_json(FfmModel, doc)


def write_rows_csv(rows: list[dict], path) -> None:
    """Write homogeneous dict rows as CSV (floats in exact round-trip form)."""
    if not rows:
        raise ValueError("nothing to write")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        keys = list(rows[0])
        writer.writerow(keys)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in keys])


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
