"""Replicated selection experiments."""

import multiprocessing
import warnings

import numpy as np
import pytest

import ffm.montecarlo
from ffm import ConfigError, SimSpec, fpca, monte_carlo, replication_rng, select_orders, simulate
from ffm.montecarlo import CHUNK
from ffm.selection import CRITERIA

SPEC = SimSpec(model="M1", n_obs=100, seed=42)


def per_replication_selections(spec, reps, k_max, p_max):
    """Selections from one simulate call per replication, in order."""
    chosen = {criterion: [] for criterion in ("bic", "hqc", "ffpe")}
    for rep in range(reps):
        sample = simulate(spec, replication_rng(spec.seed, rep))
        for criterion, grid in select_orders(fpca(sample), k_max, p_max).items():
            chosen[criterion].append(grid.chosen)
    return {criterion: np.array(pairs, dtype=int) for criterion, pairs in chosen.items()}


def selections_in_daemon(args):
    """``monte_carlo``'s selections with two jobs, in a ``multiprocessing.Pool`` worker."""
    return monte_carlo(*args, jobs=2).selections


class TestMonteCarlo:
    def test_report_shape_and_contents(self):
        report = monte_carlo(SPEC, reps=8, k_max=5, p_max=3)
        assert report.reps == 8
        assert set(report.selections) == {"bic", "hqc", "ffpe"}
        for chosen in report.selections.values():
            assert chosen.shape == (8, 2)
            assert chosen.dtype.kind == "i"
            assert np.all((chosen[:, 0] >= 1) & (chosen[:, 0] <= 5))
            assert np.all((chosen[:, 1] >= 1) & (chosen[:, 1] <= 3))

    def test_matches_per_replication_runs(self):
        report = monte_carlo(SPEC, reps=4, k_max=4, p_max=2, criteria=("bic",))
        for rep in range(4):
            sample = simulate(SPEC, replication_rng(SPEC.seed, rep))
            grid = select_orders(fpca(sample), 4, 2, ("bic",))["bic"]
            assert tuple(report.selections["bic"][rep]) == grid.chosen

    def test_parallel_schedule_is_invisible(self):
        seq = monte_carlo(SPEC, reps=6, k_max=4, p_max=2)
        par = monte_carlo(SPEC, reps=6, k_max=4, p_max=2, jobs=3)
        for criterion in seq.criteria:
            assert np.array_equal(seq.selections[criterion],
                                  par.selections[criterion])

    def test_jobs_in_a_daemonic_process_run_here(self):
        # a pool worker may not start children, so its replications run in it
        args = (SPEC, 6, 4, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            selections = pool.apply_async(selections_in_daemon, (args,)).get(timeout=120)
        expected = monte_carlo(*args).selections
        assert list(selections) == list(expected)
        for criterion, chosen in expected.items():
            assert np.array_equal(selections[criterion], chosen)

    @pytest.mark.parametrize("reps", [CHUNK - 1, CHUNK, CHUNK + 3])
    def test_chunks_and_jobs_are_invisible(self, reps):
        # replications are simulated CHUNK at a time, and each worker takes
        # a contiguous range: neither may change a replication's (K, p)
        spec = SimSpec(model="M3", n_obs=40, seed=8, burn_in=30)
        expected = per_replication_selections(spec, reps, 3, 2)
        for jobs in (1, 2, 3):
            report = monte_carlo(spec, reps, k_max=3, p_max=2, jobs=jobs)
            for criterion in report.criteria:
                assert np.array_equal(report.selections[criterion], expected[criterion])

    def test_bias_rmse_frequencies_consistency(self):
        report = monte_carlo(SPEC, reps=10, k_max=5, p_max=3, criteria=("bic",))
        chosen = report.selections["bic"]
        bias_k, bias_p = report.bias("bic")
        assert bias_k == pytest.approx(np.mean(chosen[:, 0] - 3))
        assert bias_p == pytest.approx(np.mean(chosen[:, 1] - 1))
        rmse_k, rmse_p = report.rmse("bic")
        assert rmse_k == pytest.approx(np.sqrt(np.mean((chosen[:, 0] - 3.0) ** 2)))
        assert rmse_k >= abs(bias_k) - 1e-12
        assert rmse_p >= abs(bias_p) - 1e-12
        freq = report.frequencies("bic")
        assert freq.shape == (5, 3)
        assert freq.sum() == pytest.approx(1.0)
        assert freq[chosen[0, 0] - 1, chosen[0, 1] - 1] > 0

    def test_single_replication(self):
        report = monte_carlo(SPEC, reps=1, criteria=("hqc",), k_max=4, p_max=2)
        assert report.selections["hqc"].shape == (1, 2)
        assert report.rmse("hqc")[0] == abs(report.bias("hqc")[0])

    def test_summary_rows(self):
        report = monte_carlo(SPEC, reps=5, k_max=4, p_max=2)
        rows = report.summary_rows()
        assert [r["criterion"] for r in rows] == ["bic", "hqc", "ffpe"]
        for r in rows:
            assert r["model"] == "M1" and r["T"] == 100 and r["reps"] == 5
            assert set(r) >= {"bias_K", "rmse_K", "bias_p", "rmse_p"}

    def test_validation(self):
        for reps in (0, -2):
            with pytest.raises(ConfigError, match="reps must be positive"):
                monte_carlo(SPEC, reps=reps)
        for jobs in (0, -3, 2.0, None):
            with pytest.raises(ConfigError, match="jobs must be a positive integer"):
                monte_carlo(SPEC, reps=2, jobs=jobs)

    def test_unknown_criterion_is_refused_before_any_fpca(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ffm.montecarlo, "fpca", lambda *a: calls.append(a) or fpca(*a))
        message = f"unknown criterion 'aic'; expected one of {CRITERIA}"
        with pytest.raises(ValueError) as exc:
            monte_carlo(SPEC, reps=3, k_max=4, p_max=2, criteria=("aic",))
        assert str(exc.value) == message
        assert calls == []

    @pytest.mark.parametrize("k_max, p_max, message", [
        (8, 8, "samples of 6 curves on 51 points carry at most k_max=5 and p_max=5, "
               "got k_max=8, p_max=8"),
        (2, 6, "samples of 6 curves on 51 points carry at most k_max=2 and p_max=5, "
               "got k_max=2, p_max=6"),
        (0, 2, "k_max and p_max must be positive, got 0, 2"),
    ])
    def test_grid_the_samples_cannot_carry_is_refused_before_any_fpca(self, monkeypatch, k_max,
                                                                     p_max, message):
        calls = []
        monkeypatch.setattr(ffm.montecarlo, "fpca", lambda *a: calls.append(a) or fpca(*a))
        with pytest.raises(ConfigError) as exc:
            monte_carlo(SimSpec(n_obs=6), reps=2, k_max=k_max, p_max=p_max)
        assert str(exc.value) == message
        assert calls == []

    def test_bare_criterion_name_is_refused(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ffm.montecarlo, "fpca", lambda *a: calls.append(a) or fpca(*a))
        with pytest.raises(ConfigError, match="criteria must be a sequence of names"):
            monte_carlo(SPEC, reps=2, k_max=2, p_max=2, criteria="ffpe")
        assert calls == []

    def test_seed_controls_everything(self):
        a = monte_carlo(SPEC, reps=3, k_max=4, p_max=2, criteria=("bic",))
        b = monte_carlo(SimSpec(model="M1", n_obs=100, seed=42),
                        reps=3, k_max=4, p_max=2, criteria=("bic",))
        assert np.array_equal(a.selections["bic"], b.selections["bic"])


def selections_and_warnings(spec, reps, criteria):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = monte_carlo(spec, reps, criteria=criteria)
    return ({criterion: report.selections[criterion].tolist() for criterion in criteria},
            [(w.category, str(w.message)) for w in caught])


@pytest.mark.parametrize("t_obs", [60, 100, 500])
@pytest.mark.parametrize("model", ["M1", "M2", "M3", "M4"])
def test_bounded_selection_matches_full_grids(monkeypatch, model, t_obs):
    # replications keep only their chosen orders, so their grids skip the
    # lag orders that cannot win; nothing of that may show
    spec = SimSpec(model=model, n_obs=t_obs, seed=31)
    reps = 5
    bounded = [selections_and_warnings(spec, reps, criteria)
               for criteria in (("bic",), ("hqc",), CRITERIA)]
    real = ffm.montecarlo._stacked_grids

    def full_grids(*args, chosen_only):
        return real(*args)

    monkeypatch.setattr(ffm.montecarlo, "_stacked_grids", full_grids)
    full = [selections_and_warnings(spec, reps, criteria)
            for criteria in (("bic",), ("hqc",), CRITERIA)]
    assert bounded == full
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alone = per_replication_selections(spec, reps, 8, 8)
    for criterion in CRITERIA:
        assert bounded[2][0][criterion] == alone[criterion].tolist()
