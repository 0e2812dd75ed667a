import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from klconc.bounds import poisson_tail_radius
from klconc.distributions import Counts, Pmf, add_t_estimate, uniform_pmf
from klconc.harness import (
    MAX_STORED_TRIALS,
    DistSpec,
    ExperimentConfig,
    RunningMoments,
    chi_square_gof,
    coupling_diagnostic,
    coupling_marginal_gof,
    expected_kl_check,
    poisson_tail_check,
    run_kl_trials,
    sweep_std_vs_heuristic,
    verify_kl_tail_bound,
    verify_variance_lb,
    _kl_loss_samples,
)
from klconc.losses import kl_divergence, kl_losses
from klconc.sampling import derive_trial_rng, multinomial_counts


class TestDistSpec:
    def test_make_and_label(self):
        assert DistSpec.uniform(4).make().probs.tolist() == [0.25] * 4
        assert DistSpec.uniform(4).label() == "uniform(4)"
        assert DistSpec.zipf(3, 1.0).label() == "zipf(3,1)"
        assert DistSpec.twopoint(10, 0.99).label() == "twopoint(10,0.99)"

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0.25\n0.75\n")
        spec = DistSpec.from_file(str(path))
        np.testing.assert_allclose(spec.make().probs, [0.25, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            DistSpec("gaussian", k=3)
        with pytest.raises(ValueError):
            DistSpec.uniform(0)
        with pytest.raises(ValueError):
            DistSpec("file")


class TestExperimentConfig:
    def test_validation(self):
        good = dict(dist=DistSpec.uniform(2), n=10, reps=5, master_seed=0)
        ExperimentConfig(**good)
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "n": 0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "reps": 0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "t": -1.0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "delta": 1.0})


class TestRunningMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=10_001)
        mom = RunningMoments.from_array(x)
        assert mom.mean == pytest.approx(float(np.mean(x)), rel=1e-13)
        assert mom.variance == pytest.approx(float(np.var(x, ddof=1)), rel=1e-13)

    def test_merge_equals_whole(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(size=7777)
        whole = RunningMoments.from_array(x)
        merged = RunningMoments()
        for lo in range(0, x.size, 500):
            merged.merge(RunningMoments.from_array(x[lo : lo + 500]))
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.variance == pytest.approx(whole.variance, rel=1e-12)

    def test_push_path(self):
        # one sample at a time through merge, the streaming path
        mom = RunningMoments()
        for v in (1.0, 2.0, 4.0):
            mom.merge(RunningMoments.from_array(np.array([v])))
        assert mom.mean == pytest.approx(7 / 3)
        assert mom.variance == pytest.approx(np.var([1.0, 2.0, 4.0], ddof=1))


class TestRunKlTrials:
    def test_degenerate_alphabet(self):
        cfg = ExperimentConfig(dist=DistSpec.uniform(1), n=10, reps=10, master_seed=1)
        s = run_kl_trials(cfg)
        assert s.mean_kl == 0.0
        assert s.var_kl == 0.0
        assert s.quantiles == {0.5: 0.0, 0.9: 0.0, 0.99: 0.0}

    def test_variance_recompute_from_losses(self):
        cfg = ExperimentConfig(dist=DistSpec.uniform(6), n=200, reps=20_000, master_seed=5)
        s = run_kl_trials(cfg)
        losses = _kl_loss_samples(uniform_pmf(6), 200, 1.0, 5, 20_000)
        assert s.var_kl == pytest.approx(float(np.var(losses, ddof=1)), rel=1e-10)
        assert s.mean_kl == pytest.approx(float(np.mean(losses)), rel=1e-12)
        assert s.std_kl == pytest.approx(math.sqrt(s.var_kl))

    def test_quantiles_are_order_statistics(self):
        cfg = ExperimentConfig(dist=DistSpec.uniform(4), n=100, reps=1000, master_seed=8)
        s = run_kl_trials(cfg)
        losses = np.sort(_kl_loss_samples(uniform_pmf(4), 100, 1.0, 8, 1000))
        assert s.quantiles[0.5] == losses[499]
        assert s.quantiles[0.9] == losses[899]
        assert s.quantiles[0.99] == losses[989]
        assert s.quantiles[0.5] <= s.quantiles[0.9] <= s.quantiles[0.99]

    def test_exceedance_fields(self):
        cfg = ExperimentConfig(dist=DistSpec.uniform(4), n=100, reps=500, master_seed=3, delta=0.1)
        s = run_kl_trials(cfg)
        assert s.t_delta is not None and s.t_delta > 0
        assert 0 <= s.exceed_count <= s.reps
        none_cfg = dataclasses.replace(cfg, delta=None)
        s2 = run_kl_trials(none_cfg)
        assert s2.exceed_count is None and s2.t_delta is None

    def test_unsmoothed_losses_can_be_infinite(self):
        # t=0 with n < k guarantees empty symbols, hence infinite divergence
        cfg = ExperimentConfig(dist=DistSpec.uniform(4), n=1, reps=20, master_seed=2, t=0.0)
        s = run_kl_trials(cfg)
        assert s.mean_kl == math.inf

    def test_infinite_smoothed_loss_raises(self, monkeypatch):
        # the invariant is checked with a raise, which python -O keeps
        monkeypatch.setattr("klconc.harness.kl_losses", lambda p, counts, t: np.full(len(counts), math.inf))
        with pytest.raises(RuntimeError):
            _kl_loss_samples(uniform_pmf(4), 10, 1.0, 2, 5)

    def test_uniform_log_decomposition_per_trial(self):
        # KL(uniform || add-one) == -(1/k) sum log(N_i + 1) + log(1 + n/k)
        k, n = 16, 1000
        p = uniform_pmf(k)
        for i in range(300):
            counts = multinomial_counts(derive_trial_rng(44, i), p, n)
            direct = kl_divergence(p, add_t_estimate(counts, 1.0))
            decomposed = -math.fsum(np.log(counts.counts + 1.0)) / k + math.log(1 + n / k)
            assert direct == pytest.approx(decomposed, rel=1e-12)


class TestTrialStreams:
    """Trial i is row i mod 2048 of the counts block i // 2048 draws on stream
    (master_seed, i // 2048)."""

    def test_trial_is_row_of_its_block(self):
        p = Pmf([0.5, 0.3, 0.15, 0.05])
        n, t, seed, reps = 60, 0.5, 21, 2048 + 300
        losses = _kl_loss_samples(p, n, t, seed, reps)
        for block, size in ((0, 2048), (1, 300)):
            counts = derive_trial_rng(seed, block).multinomial(n, p.probs, size=size)
            for row, c in enumerate(counts):
                want = kl_divergence(p, add_t_estimate(Counts(c), t))
                assert losses[2048 * block + row] == pytest.approx(want, rel=0, abs=1e-12)

    def test_sub_chunks_keep_the_stream(self):
        # k=1000 holds at most 2^18 // 1000 = 262 rows at once: eight sub-chunks a block
        p = uniform_pmf(1000)
        one_shot = kl_losses(p, derive_trial_rng(4, 0).multinomial(50, p.probs, size=2048), 1.0)
        assert np.array_equal(_kl_loss_samples(p, 50, 1.0, 4, 2048), one_shot)

    @pytest.mark.parametrize("short,long", [(1, 2048), (2047, 2049), (3000, 4500)])
    def test_fewer_reps_give_a_prefix(self, short, long):
        p = uniform_pmf(5)
        head = _kl_loss_samples(p, 40, 1.0, 9, short)
        assert np.array_equal(head, _kl_loss_samples(p, 40, 1.0, 9, long)[:short])


def _exact_mean_add_one(p: np.ndarray, n: int) -> float:
    """E[KL(p || (C+1)/(n+k))] for C ~ Mult(n, p), from the Bin(n, p_i) marginals:
    sum p_i log p_i - sum p_i E[log(C_i + 1)] + log(n + k)."""
    c = np.arange(n + 1)
    expected_log = stats.binom.pmf(c[None, :], n, p[:, None]) @ np.log1p(c)
    positive = p > 0
    return math.fsum(p[positive] * np.log(p[positive])) - math.fsum(p * expected_log) + math.log(n + p.size)


def _z_from_exact(pmf, exact_mean, n=1000, reps=100_000, seed=7):
    losses = _kl_loss_samples(pmf, n, 1.0, seed, reps)
    return (float(np.mean(losses)) - exact_mean) / (float(np.std(losses, ddof=1)) / math.sqrt(reps))


_CRITERION_7_DISTS = [DistSpec.uniform(10), DistSpec.zipf(10, 1.0), DistSpec.twopoint(10, 0.99)]


class TestExactMeanOracle:
    @pytest.mark.parametrize("dist", _CRITERION_7_DISTS, ids=DistSpec.label)
    def test_engine_mean_within_4_se_of_exact(self, dist):
        p = dist.make()
        assert abs(_z_from_exact(p, _exact_mean_add_one(p.probs, 1000))) <= 4.0

    @pytest.mark.parametrize("dist", _CRITERION_7_DISTS, ids=DistSpec.label)
    def test_perturbed_pmf_is_caught(self, dist):
        # negative control: the mean loss barely moves with p while every n*p_i is
        # large, so the perturbation starves one symbol (its mass times 0.01)
        p = dist.make()
        w = p.probs.copy()
        w[-1] *= 0.01
        assert abs(_z_from_exact(Pmf(w / w.sum()), _exact_mean_add_one(p.probs, 1000))) > 4.0


class TestChiSquareGof:
    def test_merges_sparse_tails(self):
        draws = derive_trial_rng(52, 0).poisson(4.0, size=10**5)
        hi = int(draws.max())
        probs = stats.poisson.pmf(np.arange(hi + 1), 4.0)
        gof = chi_square_gof(draws, probs, tail_prob=float(stats.poisson.sf(hi, 4.0)))
        assert gof.bins < hi + 2
        assert gof.dof == gof.bins - 1
        assert gof.p_value >= 1e-3

    def test_detects_wrong_distribution(self):
        draws = derive_trial_rng(51, 0).poisson(4.0, size=10**5)
        hi = int(draws.max())
        probs = stats.poisson.pmf(np.arange(hi + 1), 5.0)
        gof = chi_square_gof(draws, probs, tail_prob=float(stats.poisson.sf(hi, 5.0)))
        assert gof.p_value < 1e-6

    def test_degenerate_single_bin(self):
        draws = np.full(1000, 7)
        probs = np.zeros(8)
        probs[7] = 1.0
        gof = chi_square_gof(draws, probs)
        assert gof.p_value == 1.0


def _exact_var_k2(n: int) -> float:
    """Exact variance of the add-one KL loss on uniform(2): enumerate C1 ~ Bin(n, 1/2)."""
    c = np.arange(n + 1)
    w = stats.binom.pmf(c, n, 0.5)
    loss = -0.5 * (np.log1p(c) + np.log1p(n - c)) + math.log1p(n / 2)
    return float(w @ (loss - w @ loss) ** 2)


def _ci(report):
    return report.ci_low, report.ci_high


def _percentile_bootstrap(losses, rng, resamples=2000):
    """95% percentile bootstrap interval on the sample variance, as an independent oracle."""
    variances = np.empty(resamples)
    chunk = max(1, 5_000_000 // losses.size)
    for lo in range(0, resamples, chunk):
        idx = rng.integers(0, losses.size, size=(min(chunk, resamples - lo), losses.size))
        variances[lo : lo + len(idx)] = np.var(losses[idx], axis=1, ddof=1)
    return np.percentile(variances, [2.5, 97.5])


class TestVarianceLb:
    def test_hypothesis_violation(self):
        with pytest.raises(ValueError):
            verify_variance_lb(10, 50, 100, seed=1)

    def test_two_symbols_large_n(self):
        r = verify_variance_lb(2, 10240, 10_000, seed=7)
        assert r.passed
        assert r.ratio > 5
        assert r.ci_low <= r.empirical_var <= r.ci_high

    def test_bootstrap_deterministic(self):
        a = verify_variance_lb(2, 64, 2000, seed=7)
        b = verify_variance_lb(2, 64, 2000, seed=7)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)

    @pytest.mark.filterwarnings("error")
    def test_interval_at_tiny_reps(self):
        assert all(map(math.isnan, _ci(verify_variance_lb(2, 20, 1, seed=3))))
        for reps in (2, 3):
            low, high = _ci(verify_variance_lb(2, 20, reps, seed=3))
            assert math.isfinite(high) and 0.0 <= low <= high

    def test_interval_covers_exact_variance(self):
        exact = _exact_var_k2(20)
        reports = (verify_variance_lb(2, 20, 8192, seed) for seed in range(400))
        hits = sum(r.ci_low <= exact <= r.ci_high for r in reports)
        assert hits / 400 >= 0.90

    @pytest.mark.parametrize("k,n", [(2, 20), (10, 100), (64, 10240)])
    def test_interval_agrees_with_percentile_bootstrap(self, k, n):
        r = verify_variance_lb(k, n, 8192, seed=3)
        # resampling noise moves the bootstrap's ends by ~2% of the width; this
        # fixed stream gives the ci95 that `check` printed while it bootstrapped
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3, spawn_key=(1, 0))))
        boot = _percentile_bootstrap(_kl_loss_samples(uniform_pmf(k), n, 1.0, 3, 8192), rng)
        width = r.ci_high - r.ci_low
        assert abs(boot[0] - r.ci_low) <= 0.05 * width
        assert abs(boot[1] - r.ci_high) <= 0.05 * width


@pytest.mark.parametrize("check,args", [
    (verify_variance_lb, (2, 20)),
    (poisson_tail_check, (1.0, 0.1)),
    (coupling_diagnostic, (100, 0.5)),
    (coupling_marginal_gof, (100, 0.5)),
])
def test_reps_above_storage_cap_rejected_before_drawing(check, args, monkeypatch):
    def no_draw(*_):
        raise AssertionError("drew trials before checking the cap")

    monkeypatch.setattr("klconc.harness.derive_trial_rng", no_draw)
    with pytest.raises(ValueError, match="capped"):
        check(*args, MAX_STORED_TRIALS + 1, seed=0)


class TestTailBound:
    def test_small_run_passes(self):
        r = verify_kl_tail_bound(10, 1000, 2000, 0.1, seed=7)
        assert r.passed
        assert r.exceed_frac == 0.0

    def test_median_center_also_passes(self):
        # strictly weaker exceedance check than the mean-centered one
        losses = _kl_loss_samples(uniform_pmf(10), 1000, 1.0, 7, 2000)
        r = verify_kl_tail_bound(10, 1000, 2000, 0.1, seed=7)
        median = float(np.median(losses))
        frac = float(np.mean(losses > median + r.t_delta))
        assert frac <= r.allowed

    def test_half_delta_is_looser(self):
        r = verify_kl_tail_bound(4, 100, 500, 0.5, seed=7)
        assert r.passed


class TestPoissonTailCheck:
    def test_radius_matches_scalar_op(self):
        draws = derive_trial_rng(60, 0).poisson(9.0, size=50)
        vector = poisson_tail_radius(draws, 0.2)
        for d, v in zip(draws, vector):
            assert poisson_tail_radius(int(d), 0.2) == v

    def test_generous_radius_rarely_fails(self):
        r = poisson_tail_check(100.0, 0.1, 10**5, seed=3)
        assert r.passed
        assert r.fail_frac <= 1e-4

    def test_tiny_rate(self):
        r = poisson_tail_check(1.0, 0.5, 10**5, seed=3)
        assert r.passed


class TestCouplingDiagnostics:
    def test_certain_success_gap(self):
        # prob=1 collapses the gap to (n - N)/(N + 1)
        r = coupling_diagnostic(100, 1.0, 10**5, seed=9)
        assert r.passed
        assert 0 < r.est_gap < 0.1

    def test_moderate_configuration(self):
        r = coupling_diagnostic(100, 0.5, 10**5, seed=9)
        assert r.passed
        assert r.ci_low <= r.est_gap <= r.ci_high

    def test_marginal_gof_requires_bulk(self):
        with pytest.raises(ValueError):
            coupling_marginal_gof(20, 0.4, 10**4, seed=1)

    def test_marginal_gof_passes(self):
        r = coupling_marginal_gof(20, 0.4, 10**5, seed=9)
        assert r.passed

    def test_marginal_gof_certain_success(self):
        # M is constant n; M' reduces to the latent Poisson itself
        r = coupling_marginal_gof(5, 1.0, 10**5, seed=9)
        assert r.passed
        assert r.chi2_m == 0.0

    def test_marginal_gof_small_n_high_prob(self):
        r = coupling_marginal_gof(5, 0.9, 10**5, seed=9)
        assert r.passed


class TestExpectedKl:
    def test_degenerate_alphabet(self):
        r = expected_kl_check(DistSpec.uniform(1), 50, 200, seed=1)
        assert r.passed
        assert r.mean_kl == 0.0 and r.ceiling == 0.0

    def test_uniform_comfortably_below_ceiling(self):
        r = expected_kl_check(DistSpec.uniform(10), 1000, 5000, seed=1)
        assert r.passed
        assert r.mean_kl < r.ceiling

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            expected_kl_check(DistSpec.uniform(10), 0, 10, seed=1)


class TestStdSweep:
    def test_degenerate_row(self):
        rows = sweep_std_vs_heuristic([1], n=100, reps=200, master_seed=1)
        assert rows[0].sample_std == 0.0
        assert rows[0].ratio is None

    def test_heuristic_column_monotone(self):
        rows = sweep_std_vs_heuristic([2, 4, 8], n=512, reps=50, master_seed=1)
        heur = [r.heuristic_std for r in rows]
        assert heur == sorted(heur)
        assert all(h > 0 for h in heur)

    def test_rerun_identical(self):
        a = sweep_std_vs_heuristic([2, 4], n=256, reps=100, master_seed=5)
        b = sweep_std_vs_heuristic([2, 4], n=256, reps=100, master_seed=5)
        assert a == b
