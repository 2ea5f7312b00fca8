"""Replicated selection experiments."""

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
        with pytest.raises(ValueError):
            monte_carlo(SPEC, reps=0)

    def test_unknown_criterion_is_refused_before_any_fpca(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ffm.montecarlo, "fpca", lambda *a: calls.append(a) or fpca(*a))
        message = f"unknown criterion 'aic'; expected one of {CRITERIA}"
        with pytest.raises(ValueError) as exc:
            monte_carlo(SPEC, reps=3, k_max=4, p_max=2, criteria=("aic",))
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
