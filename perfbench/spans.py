"""Span recorder wrapped around ffm's public functions for a traced run.

Each traced function is replaced at every ``ffm`` module attribute that
holds it, so calls made through ``ffm.selection.fit_var`` or
``ffm.montecarlo.select_orders`` are both seen.  Spans (name, start,
end, parent) stay in memory until ``dump`` writes them out; counts that
only the return values show (selection cells, failed origins) are
recorded beside them.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# (module under ffm, function); the span name is "<module>.<function>".
TARGETS = (
    ("io", "read_panel_csv"), ("io", "model_to_json"), ("io", "write_json"),
    ("core", "panel_to_sample"), ("core", "natural_cubic_spline"),
    ("fpca", "fpca"),
    ("selection", "select_orders"),
    ("dynamics", "fit_var"), ("dynamics", "forecast_scores"),
    ("pipeline", "fit_ffm"), ("pipeline", "forecast"),
    ("simulate", "simulate"),
    ("montecarlo", "monte_carlo"),
    ("backtest", "rolling_backtest"),
    ("dns", "fit_dns"), ("dns", "dns_forecast"),
)


def _count_cells(counts: dict, grids: dict) -> None:
    surface = next(iter(grids.values())).mse   # criteria share one surface
    counts["selection.cells"] = counts.get("selection.cells", 0) + surface.size
    failed = sum(1 for v in surface.flat if not math.isfinite(v))
    counts["selection.failed_cells"] = counts.get("selection.failed_cells", 0) + failed


def _count_failed_origins(counts: dict, report) -> None:
    counts["backtest.failed_origins"] = (counts.get("backtest.failed_origins", 0)
                                         + report.failures)


OBSERVERS = {
    "selection.select_orders": _count_cells,
    "backtest.rolling_backtest": _count_failed_origins,
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


def install() -> Recorder:
    """Wrap every target at each ffm module attribute that refers to it.

    Targets in modules the process has not imported are left alone.
    """
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "ffm" or name.startswith("ffm."))]
    recorder = Recorder()
    for module_name, func_name in TARGETS:
        home = sys.modules.get(f"ffm.{module_name}")
        if home is None:
            continue
        original = getattr(home, func_name)
        traced = recorder.wrap(f"{module_name}.{func_name}", original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
    return recorder


def layer_metrics(doc: dict) -> dict[str, float]:
    """Self time in ms and call count per span name, plus recorded counts.

    A span's self time is its duration minus that of its direct
    children; calls are sequential, so children never overlap.
    """
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_s):
        out[f"{name}_ms"] = out.get(f"{name}_ms", 0.0) + 1e3 * (end - start - inner)
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
    out.update(doc["counts"])
    return out
