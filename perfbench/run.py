#!/usr/bin/env python3
"""Benchmark of the ffm package: cold CLI forecasts, Monte Carlo selection
and expanding-window backtests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``ffm`` from
``src/`` in the processes it measures and never in its own.  NAME is one
of the workloads below or ``all``.  Each workload is a closed loop with
one client and at most one measured process at a time:

* ``cli-forecast`` runs ``ffm forecast`` as a fresh subprocess per call;
* the other three send library calls to one worker process that has
  already imported ``ffm``.

With ``--trace 0`` the run repeats whole rounds for S seconds and prints
the end-to-end metrics; with ``--trace 1`` it runs one round with span
wrappers installed and prints the per-layer metrics.  Either way the
outputs are checked against ``reference``, a summary goes to stdout and
the last line is one JSON object.  The exit code is 0 when every check
passed, 1 when one failed and 2 when the checkout has no ``src/ffm``.
"""

from __future__ import annotations

import os
import sys

# Processes under measurement run with the program's own BLAS threading,
# so the thread variables are removed from their environment.  This
# process only builds inputs and references, on one thread.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPS = 5
K_MAX = P_MAX = 8
CLI_HORIZON = 12
CLI_GRID_POINTS = 100
MC_DESIGNS = ("M1", "M3")
MC_T = 500
MC_REPS = 10
MC_CRITERIA = ("bic", "ffpe")
BACKTEST_H = 1
BACKTEST_WINDOW = 120
SAMPLED_ORIGINS = 5


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in doc[kind]}


def rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def program_env() -> dict:
    return {**CHILD_ENV, "PYTHONPATH": str(ROOT / "src")}


class Worker:
    """One ``worker.py`` process that has imported ffm, fed JSON lines."""

    def __init__(self, spans_path: Path | None = None):
        cmd = [sys.executable, str(BENCH / "worker.py")]
        if spans_path is not None:
            cmd += ["--trace", str(spans_path)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> float:
        """End the worker; returns its peak resident set in MB."""
        rss_kb = self.call(op="finish")["max_rss_kb"]
        self.close()
        return rss_kb / 1024.0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """Seeded inputs, one round of operations, and the checks on its outputs."""

    name = ""

    def __init__(self, seed: int, out: Path, trace: bool):
        self.seed = seed
        self.out = out
        self.trace = trace
        self.spans_path = out / "spans.json" if trace else None
        self.worker: Worker | None = None
        self.blas_threads: dict = {}
        self.problems: list[str] = []

    def start_worker(self) -> None:
        self.worker = Worker(self.spans_path)
        self.blas_threads = self.worker.ready["blas_threads"]

    def stop_worker(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> tuple[int, int]:
        """Run one round; returns (operations attempted, operations failed)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self.worker.finish()

    def layer_extras(self) -> dict:
        return {}

    def check(self) -> None:
        raise NotImplementedError


class CliForecast(Workload):
    name = "cli-forecast"

    def setup(self) -> None:
        self.table = inputs.yield_panel(self.seed, inputs.CLI_ROWS)
        self.csv = self.out / "panel.csv"
        inputs.write_wide_csv(self.table, self.csv)
        self.launcher = self.out / "ffm"
        self.launcher.write_text(launcher_source())
        probe = Worker()         # imports ffm once, as every workload's set-up does
        self.blas_threads = probe.ready["blas_threads"]
        probe.close()
        self.calls = 0
        self.first: dict[str, bytes] = {}
        self.rss_mb: list[float] = []

    def round(self) -> tuple[int, int]:
        dest = self.out / ("first" if self.calls == 0 else "call")
        shutil.rmtree(dest, ignore_errors=True)
        argv = ["forecast", "--input", rel(self.csv), "--horizon", str(CLI_HORIZON),
                "--criterion", "bic", "--kmax", str(K_MAX), "--pmax", str(P_MAX),
                "--output-dir", rel(dest)]
        if self.trace:
            cmd = [sys.executable, str(BENCH / "cli_boot.py"), str(self.spans_path)] + argv
        else:
            cmd = [sys.executable, str(self.launcher)] + argv
        proc = subprocess.Popen(cmd, cwd=ROOT, env=program_env(), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb.append(usage.ru_maxrss / 1024.0)
        self.calls += 1
        if proc.returncode != 0:
            return 1, 1
        written = {p.name: p.read_bytes() for p in sorted(dest.iterdir())}
        if self.calls == 1:
            self.first = written
        else:
            self.problems += checks.identical_problems(self.first, written, self.calls)
        return 1, 0

    def peak_rss_mb(self) -> float:
        return statistics.median(self.rss_mb)

    def layer_extras(self) -> dict:
        return {"io.model_json_bytes": len(self.first.get("model.json", b""))}

    def check(self) -> None:
        if not self.first:
            self.problems.append("no ffm forecast call succeeded")
            return
        points = np.linspace(inputs.MATURITIES[0], inputs.MATURITIES[-1], CLI_GRID_POINTS)
        curves = reference.panel_curves(inputs.MATURITIES, self.table, points)
        orders, ref_curves = reference.ffm_forecast(
            curves, reference.trapezoid_weights(points), K_MAX, P_MAX, CLI_HORIZON)
        self.problems += checks.cli_forecast_problems(
            json.loads(self.first["manifest.json"]), self.first["forecast.csv"].decode(),
            orders, points, ref_curves)


class McSelection(Workload):
    name = "mc-selection"

    def setup(self) -> None:
        self.start_worker()
        self.first: dict | None = None

    def spec_seed(self, design: str) -> int:
        return 100 * self.seed + MC_DESIGNS.index(design)

    def round(self) -> tuple[int, int]:
        selections = {}
        for design in MC_DESIGNS:
            reply = self.worker.call(op="mc", model=design, n_obs=MC_T,
                                     seed=self.spec_seed(design), reps=MC_REPS,
                                     k_max=K_MAX, p_max=P_MAX, criteria=list(MC_CRITERIA))
            selections[design] = reply["selections"]
        if self.first is None:
            self.first = selections
        elif selections != self.first:
            self.problems.append("a repeated round chose different orders")
        return len(MC_DESIGNS) * MC_REPS, 0

    def check(self) -> None:
        refs = {design: {rep: reference.mc_choices(design, MC_T, self.spec_seed(design), rep,
                                                   K_MAX, P_MAX, MC_CRITERIA)
                         for rep in range(MC_REPS)}
                for design in MC_DESIGNS}
        truth = {design: reference.true_orders(design) for design in MC_DESIGNS}
        self.problems += checks.mc_problems(self.first, refs, truth)


class Backtest(Workload):
    method = ""

    def setup(self) -> None:
        self.table = inputs.yield_panel(self.seed, inputs.BACKTEST_ROWS)
        path = self.out / "panel.npz"
        np.savez(path, maturities=inputs.MATURITIES, table=self.table)
        self.start_worker()
        self.worker.call(op="load", path=rel(path))
        self.first: dict | None = None

    def round(self) -> tuple[int, int]:
        reply = self.worker.call(op="backtest", method=self.method, k_max=K_MAX,
                                 p_max=P_MAX, h=BACKTEST_H, initial_window=BACKTEST_WINDOW)
        if self.first is None:
            self.first = reply
        elif json.dumps(reply) != json.dumps(self.first):   # NaN == NaN only as text
            self.problems.append("a repeated backtest gave different results")
        return len(reply["origins"]), reply["failures"]

    def sampled(self) -> list[int]:
        n = len(self.first["origins"])
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(np.arange(1, n - 1), size=SAMPLED_ORIGINS - 2, replace=False)
        return sorted({0, n - 1, *picks.tolist()})

    def check(self) -> None:
        ref = {i: self.reference_at(self.first["origins"][i]) for i in self.sampled()}
        self.problems += checks.backtest_problems(self.first, self.table, BACKTEST_H, ref)


class BacktestBic(Backtest):
    name = "backtest-bic"
    method = "bic"

    def reference_at(self, origin: int):
        points = inputs.MATURITIES
        curves = reference.panel_curves(points, self.table[:origin], points)
        k_max = min(K_MAX, origin - 1, points.size)
        orders, fc = reference.ffm_forecast(curves, reference.trapezoid_weights(points),
                                            k_max, P_MAX, BACKTEST_H)
        return fc[BACKTEST_H - 1], orders


class BacktestDns(Backtest):
    name = "backtest-dns"
    method = "dns"

    def reference_at(self, origin: int):
        fc = reference.dns_forecast(inputs.MATURITIES, self.table[:origin],
                                    inputs.NS_DECAY, BACKTEST_H)
        return fc[BACKTEST_H - 1], None


WORKLOADS = {cls.name: cls for cls in (CliForecast, McSelection, BacktestBic, BacktestDns)}


def launcher_source() -> str:
    """The launcher an installer writes for the ``ffm`` console script."""
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ffm"]
    module, func = target.split(":")
    return f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    load = WORKLOADS[name](seed, out, trace)
    try:
        setup_s = []
        for _ in range(1 if trace else SETUP_REPS):
            load.stop_worker()
            start = time.perf_counter()
            load.setup()
            setup_s.append(time.perf_counter() - start)

        attempted = failed = 0
        rates = []
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            units, bad = load.round()
            elapsed = time.perf_counter() - start
            attempted += units
            failed += bad
            rates.append((units - bad) / elapsed)
            if trace or time.perf_counter() - begin >= seconds:
                break
        wall = time.perf_counter() - begin
        rss_mb = load.peak_rss_mb()
    finally:
        load.stop_worker()
    load.check()

    if trace:
        doc = json.loads(load.spans_path.read_text())
        layers = spans.layer_metrics(doc)
        layers["cli.import_ms"] = doc["import_ms"]
        layers.update(load.layer_extras())
        metrics = {key: {"value": layers.get(key, 0), "unit": unit}
                   for key, unit in declared_metrics("per_layer").items()}
    else:
        values = {"setup_s": statistics.median(setup_s),
                  "units_per_s": statistics.median(rates),
                  "peak_rss_mb": rss_mb}
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in declared_metrics("end_to_end").items()}
    record = {
        "workload": name, "seed": seed, "trace": trace, "blas_threads": load.blas_threads,
        "rounds": len(rates), "round_rates": rates, "setup_s": setup_s, "wall_s": wall,
        "problems": load.problems,
        "result": {"correct": not load.problems, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "ffm" / "__init__.py").is_file():
        print(f"error: no ffm sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result = record["result"]
        print(f"{name}: {record['rounds']} rounds, {result['attempted']} attempted, "
              f"{result['failed']} failed, BLAS threads {record['blas_threads']}")
        for key, metric in result["metrics"].items():
            value = metric["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {key} {text} {metric['unit']}")
        for problem in record["problems"]:
            print(f"  CHECK FAILED: {problem}")
        results.append((name, result))

    if len(results) == 1:
        summary = results[0][1]
    else:
        summary = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{name}.{key}": metric
                        for name, r in results for key, metric in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
