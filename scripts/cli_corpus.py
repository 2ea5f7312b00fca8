"""Golden corpus of ``ffm`` command outputs.

Usage::

    python scripts/cli_corpus.py OUT_DIR > listing.txt

Writes four seeded yield panels with holes into OUT_DIR (from
``perfbench/inputs.py``: ``yield_panel(11, 160)``, ``yield_panel(12,
60)``, ``yield_panel(7, 300)`` and ``yield_panel(12, 12)``), runs a
fixed list of commands through ``ffm.cli.main``, each in ``--format
csv`` and ``json``, with its outputs in ``OUT_DIR/<run>-<format>``, and
prints one line per output file, sorted by path::

    <sha256>  <exit code>  <path relative to OUT_DIR>

A run's printed lines, its ``error:`` message and its warnings
(category and message) are kept as ``stdout.txt`` and ``stderr.txt``
in its directory, so the failing runs (exit 2, 3 and 4) and the runs
with failed cells or origins are compared too.  Every path is
relative, so the outputs, manifests included, do not depend on
OUT_DIR: two runs, into two directories or on two checkouts, must
print the same listing.  ``fetch-h15`` needs the network and is left
out.  The package is imported from the ``src`` next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import warnings
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
sys.dont_write_bytecode = True   # leave no cache files in the source tree

from ffm.cli import main  # noqa: E402
from perfbench.inputs import write_wide_csv, yield_panel  # noqa: E402

PANELS = {"p160.csv": (11, 160), "p60.csv": (12, 60), "p300.csv": (7, 300),
          "p12.csv": (12, 12)}

RUNS = {
    "simulate": ["simulate", "--model", "M1", "--T", "150", "--seed", "4"],
    "simulate-grid": ["simulate", "--model", "M3", "--T", "40", "--seed", "2",
                      "--grid", "0,1,11", "--burn-in", "50", "--noise-scale", "0.5"],
    "fpca": ["fpca", "--input", "p160.csv"],
    "fpca-k": ["fpca", "--input", "p160.csv", "--kmax", "3", "--grid", "1,360,40"],
    "select": ["select", "--input", "p160.csv", "--kmax", "5", "--pmax", "3"],
    "select-r": ["select", "--input", "p160.csv", "--criterion", "ffpe", "--restricted",
                 "--kmax", "4", "--pmax", "2"],
    # failed cells, written as Infinity
    "select-inf": ["select", "--input", "p60.csv", "--kmax", "8", "--pmax", "8"],
    "forecast": ["forecast", "--input", "p160.csv", "--horizon", "3", "--kmax", "4",
                 "--pmax", "2"],
    "forecast-pinned": ["forecast", "--input", "p160.csv", "--k", "2", "--p", "1",
                        "--restricted"],
    "forecast-inf": ["forecast", "--input", "p60.csv", "--kmax", "8", "--pmax", "8"],
    # a grid beyond 12 curves of rank 11, which both commands clip alike
    "select-clip": ["select", "--input", "p12.csv", "--kmax", "20", "--pmax", "20"],
    "forecast-clip": ["forecast", "--input", "p12.csv", "--kmax", "20", "--pmax", "20"],
    "mc": ["mc", "--model", "M4", "--T", "60", "--reps", "4", "--seed", "5"],
    # own-lags selection on an equal-length stack of replications
    "mc-restricted": ["mc", "--model", "M3", "--T", "70", "--reps", "6", "--seed", "8",
                      "--restricted", "--kmax", "5", "--pmax", "5"],
    "mc-jobs": ["mc", "--model", "M1", "--T", "80", "--reps", "7", "--seed", "9", "--jobs", "2",
                "--kmax", "4", "--pmax", "3"],
    "backtest-fixed": ["backtest", "--input", "p160.csv", "--method", "ffm-fixed", "--k", "3",
                       "--p", "1", "--window", "140"],
    "backtest-crit": ["backtest", "--input", "p160.csv", "--method", "ffm-criterion",
                      "--criterion", "hqc", "--kmax", "4", "--pmax", "2", "--window", "145",
                      "--horizon", "2", "--dynamics", "diagonal"],
    "backtest-crit-bic": ["backtest", "--input", "p300.csv", "--method", "ffm-criterion"],
    "backtest-crit-r": ["backtest", "--input", "p160.csv", "--method", "ffm-criterion",
                        "--kmax", "6", "--pmax", "4", "--dynamics", "diagonal", "--horizon", "3"],
    # clipped grids, failed cells and origins refitted one by one
    "backtest-crit-ffpe": ["backtest", "--input", "p60.csv", "--method", "ffm-criterion",
                           "--criterion", "ffpe", "--window", "5"],
    "backtest-dns": ["backtest", "--input", "p160.csv", "--method", "dns", "--window", "100",
                     "--lambda", "0.07"],
    # the first origins leave no degrees of freedom
    "backtest-dns-h2": ["backtest", "--input", "p60.csv", "--method", "dns", "--horizon", "2",
                        "--window", "3"],
    "backtest-dns-h3": ["backtest", "--input", "p60.csv", "--method", "dns", "--dynamics",
                        "diagonal", "--horizon", "3", "--window", "3"],
    "dns": ["dns", "--input", "p160.csv", "--horizon", "3", "--dynamics", "diagonal"],
    "dns-h5": ["dns", "--input", "p160.csv", "--horizon", "5"],
    # exit 2: bad configuration
    "fail-pin": ["forecast", "--input", "p160.csv", "--k", "2"],
    "fail-window": ["backtest", "--input", "p60.csv", "--method", "dns"],
    # exit 3: bad data
    "fail-missing": ["fpca", "--input", "missing.csv"],
    # exit 4: numerical failure
    "fail-dof": ["forecast", "--input", "p60.csv", "--k", "8", "--p", "8"],
    "fail-origins": ["backtest", "--input", "p60.csv", "--method", "ffm-fixed", "--k", "8",
                     "--p", "7", "--window", "5"],
}


def run(argv: list, out_dir: str) -> int:
    """``main(argv)`` with its printed lines and warnings kept in ``out_dir``."""
    stdout, stderr = StringIO(), StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--output-dir", out_dir])
    for warning in caught:
        stderr.write(f"{warning.category.__name__}: {warning.message}\n")
    for name, text in (("stdout.txt", stdout.getvalue()), ("stderr.txt", stderr.getvalue())):
        if text:
            Path(out_dir, name).write_text(text)
    return code


def corpus(out_dir: Path) -> list[str]:
    """Run every command into ``out_dir`` and return the sorted listing."""
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    for name, (seed, n_rows) in PANELS.items():
        write_wide_csv(yield_panel(seed, n_rows), name)
    lines = []
    for name, argv in RUNS.items():
        for fmt in ("csv", "json"):
            run_dir = f"{name}-{fmt}"
            code = run(argv + ["--format", fmt], run_dir)
            for path in Path(run_dir).iterdir():
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {code}  {path.as_posix()}")
    return sorted(lines, key=lambda line: line.split("  ")[2])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python scripts/cli_corpus.py OUT_DIR")
    print("\n".join(corpus(Path(sys.argv[1]).resolve())))
