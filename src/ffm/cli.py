"""Command line interface.

One binary with subcommands::

    ffm fpca       eigenstructure and scores of a curve panel
    ffm select     information-criterion surface and chosen (K, p)
    ffm forecast   fit and forecast curves h steps ahead
    ffm simulate   draw a synthetic curve sample
    ffm mc         replicated order-selection experiment
    ffm backtest   expanding-window forecast comparison
    ffm dns        dynamic Nelson-Siegel fit and forecast
    ffm fetch-h15  download and normalize the Treasury yield panel

Every command writes a ``manifest.json`` (config echo, version, and the
seed of ``simulate`` and ``mc``, the two commands that draw random
numbers) next to its outputs and is deterministic given inputs, options,
and seed.  Exit codes: 0 ok, 2 bad configuration, 3 bad data, 4 numerical
failure, 5 network required.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import io
from ._version import __version__
from .backtest import (DEFAULT_INITIAL_WINDOW, Dns, FfmCriterion, FfmFixed,
                       rolling_backtest)
from .core import Grid, make_grid, panel_to_sample, sample_to_panel
from .dns import DEFAULT_DECAY, dns_forecast, fit_dns
from .errors import ConfigError, DataError, NetworkError, NumericError
from .fpca import fpca
from .montecarlo import monte_carlo
from .pipeline import FfmConfig, fit_ffm, forecast
from .selection import CRITERIA, _check_criteria, export_mse_surface, select_orders
from .simulate import MODELS, SimSpec, simulate

__all__ = ["RunConfig", "main", "cmd_fpca", "cmd_select", "cmd_forecast",
           "cmd_simulate", "cmd_mc", "cmd_backtest", "cmd_dns", "cmd_fetch_h15"]

DEFAULT_GRID_SIZE = 100

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_NETWORK = 5


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one command invocation."""

    command: str
    output_dir: Path
    fmt: str
    options: dict = field(default_factory=dict)

    def manifest(self, outputs: list, results: dict | None = None) -> Path:
        return io.write_manifest(self.output_dir, self.command, self.options,
                                 outputs, results)

    def write(self, name: str, rows: list[dict], doc=None) -> Path:
        """Write one result in the chosen format; returns the path written.

        JSON writes ``doc`` (default ``{"rows": rows}``) to ``name.json``;
        CSV writes the dict rows to ``name.csv``.
        """
        if self.fmt == "json":
            path = self.output_dir / f"{name}.json"
            io.write_json({"rows": rows} if doc is None else doc, path)
        else:
            path = self.output_dir / f"{name}.csv"
            io.write_rows_csv(rows, path)
        return path


def _parse_grid(text: str) -> Grid:
    try:
        a, b, n = text.split(",")
        return make_grid(float(a), float(b), int(n))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"--grid expects 'a,b,n' with a < b and n >= 2, got {text!r}: {exc}")


def _parse_criteria(text: str) -> tuple:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise ConfigError("--criteria must name at least one criterion")
    return _check_criteria(names)


def _run_config(args) -> RunConfig:
    """The invocation's config; every parsed flag is echoed in the manifest."""
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    options = {name.replace("_", "-"): value for name, value in vars(args).items()
               if name not in ("command", "func", "output_dir")}
    return RunConfig(command=args.command, output_dir=outdir,
                     fmt=getattr(args, "format", "csv"), options=options)


def _load_panel(path):
    if not Path(path).exists():
        raise DataError(f"input file not found: {path}")
    return io.read_panel_csv(path)


def _panel_grid(panel, grid_flag: str | None) -> Grid:
    if grid_flag:
        return _parse_grid(grid_flag)
    a, b = float(panel.maturities[0]), float(panel.maturities[-1])
    return make_grid(a, b, DEFAULT_GRID_SIZE)


def _load_sample(path, grid_flag: str | None):
    panel = _load_panel(path)
    grid = _panel_grid(panel, grid_flag)
    return panel, panel_to_sample(panel, grid)


# ---------------------------------------------------------------------------
# commands


def cmd_fpca(args) -> int:
    cfg = _run_config(args)
    panel, sample = _load_sample(args.input, args.grid)
    result = fpca(sample, args.kmax)
    # four CSV tables against one JSON document, so fpca writes its own
    if cfg.fmt == "json":
        outputs = [cfg.output_dir / "fpca.json"]
        io.write_json(io.to_json(result), outputs[0])
    else:
        outputs = []
        for table, rows in result.tables().items():
            outputs.append(cfg.output_dir / f"fpca_{table}.csv")
            io.write_rows_csv(rows, outputs[-1])
    knots = cfg.output_dir / "knots.json"
    io.write_json(
        {str(t): panel.row_knots(i).tolist() for i, t in enumerate(panel.times)}, knots
    )
    outputs.append(knots)
    results = {"rank": result.rank, "total_variance": result.total_variance()}
    outputs.append(cfg.manifest(outputs, results))
    print(f"fpca: rank {result.rank}, total variance {result.total_variance():.6g}; "
          f"wrote {len(outputs)} files to {cfg.output_dir}")
    return EXIT_OK


def cmd_select(args) -> int:
    cfg = _run_config(args)
    _, sample = _load_sample(args.input, args.grid)
    result = fpca(sample)
    k_max = min(args.kmax, result.rank)
    grid = select_orders(result, k_max, args.pmax, (args.criterion,),
                         args.restricted)[args.criterion]
    rows = export_mse_surface(grid)
    path = cfg.write("surface", rows, {"cells": rows, "chosen": list(grid.chosen)})
    results = {"K": grid.chosen[0], "p": grid.chosen[1], "criterion": grid.criterion}
    manifest = cfg.manifest([path], results)
    print(f"select: {grid.criterion} chose (K, p) = {grid.chosen}; "
          f"wrote {path} and {manifest}")
    return EXIT_OK


def cmd_forecast(args) -> int:
    cfg = _run_config(args)
    _, sample = _load_sample(args.input, args.grid)
    if (args.k is None) != (args.p is None):
        raise ConfigError("set both --k and --p to pin the orders, or neither")
    config = FfmConfig(criterion=args.criterion, k_max=args.kmax, p_max=args.pmax,
                       k=args.k, p=args.p, restricted=args.restricted)
    model = fit_ffm(sample, config)
    result = forecast(model, args.horizon)
    path = cfg.write("forecast", result.rows())
    model_path = cfg.output_dir / "model.json"
    io.write_json(io.model_to_json(model), model_path)
    results = {"K": model.k, "p": model.p,
               "degenerate_dynamics": model.degenerate_dynamics}
    manifest = cfg.manifest([path, model_path], results)
    if model.degenerate_dynamics:
        print("warning: fitted dynamics are indistinguishable from noise; "
              "forecasts are close to the mean curve", file=sys.stderr)
    print(f"forecast: (K, p) = ({model.k}, {model.p}), horizons 1..{args.horizon}; "
          f"wrote {path}, {model_path}, {manifest}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _run_config(args)
    grid = _parse_grid(args.grid) if args.grid else None
    spec = SimSpec(model=args.model, n_obs=args.T, seed=args.seed, grid=grid,
                   burn_in=args.burn_in, noise_scale=args.noise_scale)
    sample = simulate(spec)
    panel = sample_to_panel(sample)
    path = cfg.write("sample", io.panel_rows(panel), io.to_json(panel))
    manifest = cfg.manifest([path])
    print(f"simulate: {args.model}, T={args.T}, seed={args.seed}; "
          f"wrote {path} and {manifest}")
    return EXIT_OK


def cmd_mc(args) -> int:
    cfg = _run_config(args)
    spec = SimSpec(model=args.model, n_obs=args.T, seed=args.seed)
    criteria = _parse_criteria(args.criteria)
    report = monte_carlo(spec, args.reps, args.kmax, args.pmax, criteria,
                         args.restricted, args.jobs)
    rows = report.summary_rows()
    frequencies = {c: report.frequencies(c).tolist() for c in criteria}
    path = cfg.write("mc", rows, {"summary": rows, "frequencies": frequencies})
    results = {row["criterion"]: {"bias_K": row["bias_K"], "bias_p": row["bias_p"]}
               for row in rows}
    manifest = cfg.manifest([path], results)
    print(f"mc: {args.model}, T={args.T}, {args.reps} replications; "
          f"wrote {path} and {manifest}")
    return EXIT_OK


def _backtest_method(args):
    restricted = args.dynamics == "diagonal"
    if args.method == "ffm-fixed":
        if args.k is None or args.p is None:
            raise ConfigError("--method ffm-fixed requires --k and --p")
        return FfmFixed(k=args.k, p=args.p, restricted=restricted)
    if args.method == "ffm-criterion":
        return FfmCriterion(criterion=args.criterion, k_max=args.kmax,
                            p_max=args.pmax, restricted=restricted)
    if args.method == "dns":
        return Dns(decay=args.lam, diagonal=restricted)
    raise ConfigError(f"unknown method {args.method!r}")


def cmd_backtest(args) -> int:
    cfg = _run_config(args)
    panel = _load_panel(args.input)
    method = _backtest_method(args)
    report = rolling_backtest(panel, method, h=args.horizon, initial_window=args.window)
    rows = [report.summary_row()]
    path = cfg.write("backtest", rows, {"summary": rows})
    errors_path = cfg.output_dir / "errors.csv"
    io.write_rows_csv(report.error_rows(), errors_path)
    first_failure = list(report.failure_reasons[0]) if report.failures else None
    results = {"method": report.method, "rmsfe": report.rmsfe,
               "failures": report.failures, "first_failure": first_failure}
    manifest = cfg.manifest([path, errors_path], results)
    print(f"backtest: {report.method}, h={args.horizon}, RMSFE {report.rmsfe:.6g} "
          f"({report.failures} failed origins); wrote {path}, {errors_path}, {manifest}")
    return EXIT_OK


def cmd_dns(args) -> int:
    cfg = _run_config(args)
    panel = _load_panel(args.input)
    model = fit_dns(panel, args.lam, diagonal=args.dynamics == "diagonal")
    result = dns_forecast(model, panel.maturities, args.horizon)
    path = cfg.write("dns", result.rows())
    betas_path = cfg.output_dir / "betas.csv"
    io.write_rows_csv(model.beta_rows(), betas_path)
    manifest = cfg.manifest([path, betas_path])
    print(f"dns: decay {args.lam}, horizons 1..{args.horizon}; "
          f"wrote {path}, {betas_path}, {manifest}")
    return EXIT_OK


def cmd_fetch_h15(args) -> int:
    cfg = _run_config(args)
    text = io.fetch_h15(args.url)
    panel, dropped = io.parse_h15_csv(text)
    path = cfg.output_dir / "h15.csv"
    io.write_panel_csv(panel, path, layout=args.layout)
    results = {"rows": panel.n_rows, "dropped_rows": dropped}
    manifest = cfg.manifest([path], results)
    print(f"fetch-h15: {panel.n_rows} monthly rows ({dropped} dropped); "
          f"wrote {path} and {manifest}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


# Flags shared by several commands, each declared once; a command names
# the ones it takes.
_FLAGS = {
    "--input": dict(required=True, help="panel CSV (wide or long)"),
    "--grid": dict(default=None, metavar="a,b,n",
                   help="evaluation grid (default: 100 uniform points over the maturities; "
                        "simulate: 51 on [0,1])"),
    "--horizon": dict(type=int, default=1, help="steps ahead"),
    "--k": dict(type=int, default=None, help="fixed number of factors"),
    "--p": dict(type=int, default=None, help="fixed lag order"),
    "--criterion": dict(choices=CRITERIA, default="bic", help="information criterion"),
    "--kmax": dict(type=int, default=8, help="largest number of factors"),
    "--pmax": dict(type=int, default=8, help="largest lag order"),
    "--restricted": dict(action="store_true",
                         help="diagonal (own-lags) dynamics instead of a full VAR"),
    "--dynamics": dict(choices=("full", "diagonal"), default="full",
                       help="full VAR or diagonal (own-lags) dynamics"),
    "--lambda": dict(dest="lam", type=float, default=DEFAULT_DECAY,
                     help="Nelson-Siegel loading decay"),
    "--model": dict(choices=sorted(MODELS), default="M1", help="simulated model"),
    "--T": dict(type=int, default=200, help="sample length"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--output-dir": dict(default=".", help="directory for outputs"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
}
_OUTPUT = ("--output-dir", "--format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffm",
        description="Functional factor models for curve time series",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, flags):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("fpca", cmd_fpca, "eigenstructure and scores of a curve panel",
                ("--input", "--grid", *_OUTPUT))
    p.add_argument("--kmax", type=int, default=None, help="components to keep (default: all)")
    command("select", cmd_select, "criterion surface and chosen (K, p)",
            ("--input", "--grid", "--criterion", "--kmax", "--pmax", "--restricted", *_OUTPUT))
    command("forecast", cmd_forecast, "fit and forecast curves",
            ("--input", "--grid", "--horizon", "--k", "--p", "--criterion", "--kmax", "--pmax",
             "--restricted", *_OUTPUT))
    p = command("simulate", cmd_simulate, "draw a synthetic curve sample",
                ("--model", "--T", "--grid", "--seed", *_OUTPUT))
    p.add_argument("--burn-in", type=int, default=200)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p = command("mc", cmd_mc, "replicated order-selection experiment",
                ("--model", "--T", "--kmax", "--pmax", "--restricted", "--seed", *_OUTPUT))
    p.add_argument("--reps", type=int, default=100, help="number of replications")
    p.add_argument("--criteria", default=",".join(CRITERIA),
                   help="comma-separated list of criteria")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p = command("backtest", cmd_backtest, "expanding-window forecast comparison",
                ("--input", "--dynamics", "--horizon", "--k", "--p", "--lambda", "--criterion",
                 "--kmax", "--pmax", *_OUTPUT))
    p.add_argument("--method", choices=("ffm-fixed", "ffm-criterion", "dns"), required=True)
    p.add_argument("--window", type=int, default=DEFAULT_INITIAL_WINDOW,
                   help="observations in the first training window")
    command("dns", cmd_dns, "dynamic Nelson-Siegel fit and forecast",
            ("--input", "--lambda", "--dynamics", "--horizon", *_OUTPUT))
    p = command("fetch-h15", cmd_fetch_h15, "download the Treasury yield panel",
                ("--output-dir",))
    p.add_argument("--url", default=io.H15_URL)
    p.add_argument("--layout", choices=("wide", "long"), default="wide",
                   help="layout of the written panel CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the first class that matches names the exit code; a ConfigError is a ValueError
    exits = ((ValueError, EXIT_CONFIG), (NetworkError, EXIT_NETWORK), (DataError, EXIT_DATA),
             (OSError, EXIT_DATA), (NumericError, EXIT_NUMERIC))
    try:
        return args.func(args)
    except tuple(cls for cls, _ in exits) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in exits if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
