"""Benchmark worker: imports ffm once, then serves library calls.

Run as ``python3 perfbench/worker.py [--trace SPANS.json]`` with the
checkout's ``src`` on PYTHONPATH.  It writes one JSON line when ffm is
imported, then answers one JSON request per stdin line with one JSON
line on stdout, and exits after the ``finish`` request.  Only public
``ffm`` functions are called.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library mapped into this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[path.rsplit("/", 1)[-1]] = fn()
                break
    return found


def send(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    start = time.perf_counter()
    import ffm
    import numpy as np
    import_s = time.perf_counter() - start

    recorder = None
    if len(sys.argv) == 3 and sys.argv[1] == "--trace":
        import spans
        recorder = spans.install()
    send({"import_s": import_s, "blas_threads": blas_threads()})

    panel = None
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "load":
            with np.load(req["path"]) as data:
                panel = ffm.DiscretePanel(data["maturities"], data["table"])
            send({})
        elif op == "mc":
            spec = ffm.SimSpec(model=req["model"], n_obs=req["n_obs"], seed=req["seed"])
            report = ffm.monte_carlo(spec, req["reps"], req["k_max"], req["p_max"],
                                     tuple(req["criteria"]), jobs=1)
            send({"selections": {c: report.selections[c].tolist() for c in report.criteria}})
        elif op == "backtest":
            if req["method"] == "dns":
                method = ffm.Dns()
            else:
                method = ffm.FfmCriterion(req["method"], req["k_max"], req["p_max"])
            report = ffm.rolling_backtest(panel, method, h=req["h"],
                                          initial_window=req["initial_window"])
            send({
                "origins": report.origins.tolist(),
                "errors": report.errors.tolist(),
                "selected": None if report.selected is None else report.selected.tolist(),
                "failures": report.failures,
                "rmsfe": report.rmsfe,
            })
        elif op == "finish":
            if recorder is not None:
                recorder.dump(sys.argv[2], import_ms=1e3 * import_s)
            send({"max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        else:
            raise ValueError(f"unknown request {op!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
