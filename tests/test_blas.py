"""One-thread OpenBLAS policy of the replication and backtest loops."""

import numpy as np
import pytest

import ffm.backtest as backtest_module
import ffm.montecarlo as montecarlo_module
from ffm import FfmFixed, SimSpec, monte_carlo, rolling_backtest, simulate
from ffm._blas import one_blas_thread, openblas_controls

pytestmark = pytest.mark.skipif(not openblas_controls(),
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


def test_context_sets_one_thread_and_restores(two_threads):
    with one_blas_thread():
        assert thread_counts() == [1] * len(two_threads)
    assert thread_counts() == two_threads
    with pytest.raises(KeyError):
        with one_blas_thread():
            raise KeyError("raised inside the block")
    assert thread_counts() == two_threads


def test_monte_carlo_replications_run_on_one_thread(monkeypatch, two_threads):
    seen = []
    spy(monkeypatch, montecarlo_module, "_stacked_grids", seen)
    monte_carlo(SPEC, reps=3, k_max=2, p_max=1, criteria=("bic",))
    assert seen == [[1] * len(two_threads)]   # one stacked call per chunk
    assert thread_counts() == two_threads


def test_backtest_origins_run_on_one_thread(monkeypatch, two_threads):
    seen = []
    spy(monkeypatch, backtest_module, "fit_ffm", seen)
    sample = simulate(SimSpec(model="M1", n_obs=36, seed=2))
    report = rolling_backtest(sample, FfmFixed(2, 1), h=1, initial_window=30)
    assert np.all(np.isfinite(report.errors))
    assert seen == [[1] * len(two_threads)] * report.origins.size
    assert thread_counts() == two_threads


def test_count_is_restored_when_a_programming_error_propagates(monkeypatch, two_threads):
    seen = []
    spy(monkeypatch, backtest_module, "fit_ffm", seen, fail=True)
    with pytest.raises(TypeError, match="bug in the fit"):
        rolling_backtest(simulate(SimSpec(model="M1", n_obs=40, seed=2)), FfmFixed(2, 1),
                         h=1, initial_window=30)
    spy(monkeypatch, montecarlo_module, "_stacked_grids", seen, fail=True)
    with pytest.raises(TypeError, match="bug in the fit"):
        monte_carlo(SPEC, reps=2, k_max=2, p_max=1)
    assert seen == [[1] * len(two_threads)] * 2
    assert thread_counts() == two_threads
