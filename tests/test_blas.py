"""One-thread OpenBLAS policy of the replication and backtest loops."""

import os

import numpy as np
import pytest

import ffm._blas as blas_module
import ffm.backtest as backtest_module
import ffm.montecarlo as montecarlo_module
from ffm import FfmFixed, SimSpec, monte_carlo, rolling_backtest, simulate
from ffm._blas import one_blas_thread, openblas_controls

openblas = pytest.mark.skipif(not openblas_controls(),
                              reason="no OpenBLAS thread setter in this process")

SPEC = SimSpec(model="M1", n_obs=40, seed=3)


def thread_counts():
    return [getter() for getter, _ in openblas_controls()]


@pytest.fixture
def two_threads():
    """Every OpenBLAS on two threads for the test, so one thread is visible."""
    controls = openblas_controls()
    previous = thread_counts()
    for _, setter in controls:
        setter(2)
    before = thread_counts()
    if before == [1] * len(before):
        pytest.skip("OpenBLAS here runs on one thread only")
    try:
        yield before
    finally:
        for (_, setter), count in zip(controls, previous):
            setter(count)


def spy(monkeypatch, module, name, seen, fail=False):
    """Record the thread counts at each call of ``module.name``."""
    real = getattr(module, name)

    def observed(*args, **kwargs):
        seen.append(thread_counts())
        if fail:
            raise TypeError("bug in the fit")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, observed)


@openblas
def test_context_sets_one_thread_and_restores(two_threads):
    with one_blas_thread():
        assert thread_counts() == [1] * len(two_threads)
    assert thread_counts() == two_threads
    with pytest.raises(KeyError):
        with one_blas_thread():
            raise KeyError("raised inside the block")
    assert thread_counts() == two_threads


@openblas
def test_monte_carlo_replications_run_on_one_thread(monkeypatch, two_threads):
    seen = []
    spy(monkeypatch, montecarlo_module, "_stacked_grids", seen)
    monte_carlo(SPEC, reps=3, k_max=2, p_max=1, criteria=("bic",))
    assert seen == [[1] * len(two_threads)]   # one stacked call per chunk
    assert thread_counts() == two_threads


@openblas
def test_backtest_origins_run_on_one_thread(monkeypatch, two_threads):
    seen = []
    spy(monkeypatch, backtest_module, "_fit", seen)
    sample = simulate(SimSpec(model="M1", n_obs=36, seed=2))
    report = rolling_backtest(sample, FfmFixed(2, 1), h=1, initial_window=30)
    assert np.all(np.isfinite(report.errors))
    assert seen == [[1] * len(two_threads)] * report.origins.size
    assert thread_counts() == two_threads


@openblas
def test_count_is_restored_when_a_programming_error_propagates(monkeypatch, two_threads):
    seen = []
    spy(monkeypatch, backtest_module, "_fit", seen, fail=True)
    with pytest.raises(TypeError, match="bug in the fit"):
        rolling_backtest(simulate(SimSpec(model="M1", n_obs=40, seed=2)), FfmFixed(2, 1),
                         h=1, initial_window=30)
    spy(monkeypatch, montecarlo_module, "_stacked_grids", seen, fail=True)
    with pytest.raises(TypeError, match="bug in the fit"):
        monte_carlo(SPEC, reps=2, k_max=2, p_max=1)
    assert seen == [[1] * len(two_threads)] * 2
    assert thread_counts() == two_threads


class FakeOpenblas:
    """A library's thread count, and the counts its setter was called with."""

    def __init__(self, count):
        self.count, self.calls = count, []

    def get(self):
        return self.count

    def set(self, count):
        self.calls.append(count)
        self.count = count


def test_setters_run_only_for_libraries_not_on_one_thread(monkeypatch):
    one, four = FakeOpenblas(1), FakeOpenblas(4)
    monkeypatch.setattr(blas_module, "openblas_controls",
                        lambda: [(lib.get, lib.set) for lib in (one, four)])
    with one_blas_thread() as threads:
        assert (threads, one.count, four.count) == (4, 1, 1)
    with pytest.raises(KeyError):
        with one_blas_thread():
            raise KeyError("raised inside the block")
    assert (one.calls, four.calls) == ([], [1, 4, 1, 4])


def log_os_threads(monkeypatch, module, name, log):
    """Append the pid, OS thread count and OpenBLAS thread counts at each call of ``module.name``."""
    real = getattr(module, name)

    def observed(*args, **kwargs):
        threads = len(os.listdir("/proc/self/task"))
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {threads} {' '.join(map(str, thread_counts()))}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, observed)


def log_controls(monkeypatch, log):
    """Append the pid of each call of an OpenBLAS getter or setter that ``ffm._blas`` finds."""
    def logged(fn):
        def call(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fn(*args)
        return call

    monkeypatch.setattr(blas_module, "openblas_controls",
                        lambda: [(logged(get), logged(set_)) for get, set_ in openblas_controls()])


@openblas
@pytest.mark.skipif(not blas_module._FORK_QUIET, reason="no pool from Python 3.12 on")
def test_pool_workers_keep_one_os_thread(monkeypatch, tmp_path, two_threads):
    # a setter called in a forked worker starts an OpenBLAS thread there
    log, controls = tmp_path / "calls", tmp_path / "controls"
    log_os_threads(monkeypatch, backtest_module, "_fit", log)
    log_os_threads(monkeypatch, montecarlo_module, "_stacked_grids", log)
    log_controls(monkeypatch, controls)
    monkeypatch.setattr(backtest_module, "CHUNK", 3)   # two ranges, so two workers
    report = rolling_backtest(simulate(SimSpec(model="M1", n_obs=36, seed=2)), FfmFixed(2, 1),
                              h=1, initial_window=30)
    monte_carlo(SPEC, reps=4, k_max=2, p_max=1, criteria=("bic",), jobs=2)
    calls = [list(map(int, line.split())) for line in log.read_text().splitlines()]
    assert len(calls) == report.origins.size + 2   # one stacked call per replication range
    assert all(pid != os.getpid() for pid, *_ in calls)
    # one OS thread, and every OpenBLAS the worker maps reads 1
    assert [counts for _, *counts in calls] == [[1] * (1 + len(two_threads))] * len(calls)
    # the workers call no getter or setter of their own
    assert set(map(int, controls.read_text().split())) == {os.getpid()}
    assert thread_counts() == two_threads
