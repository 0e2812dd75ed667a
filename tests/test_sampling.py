import math

import numpy as np
import pytest
from scipy import stats

from klconc.distributions import Pmf, uniform_pmf
from klconc.harness import chi_square_gof
from klconc.sampling import (
    _derive_subseed,
    coupled_pairs,
    derive_trial_rng,
    multinomial_counts,
    poissonized_counts,
)

GOF_ALPHA = 1e-3


class TestStreamDerivation:
    def test_same_seed_same_stream(self):
        a = derive_trial_rng(42, 0).integers(0, 2**64, size=1000, dtype=np.uint64)
        b = derive_trial_rng(42, 0).integers(0, 2**64, size=1000, dtype=np.uint64)
        np.testing.assert_array_equal(a, b)

    def test_adjacent_indices_differ_immediately(self):
        a = derive_trial_rng(42, 0).integers(0, 2**64, dtype=np.uint64)
        b = derive_trial_rng(42, 1).integers(0, 2**64, dtype=np.uint64)
        assert a != b

    def test_million_streams_distinct_first_outputs(self):
        n = 10**6
        out = np.empty(n, dtype=np.uint64)
        for i in range(n):
            out[i] = derive_trial_rng(42, i).integers(0, 2**64, dtype=np.uint64)
        assert np.unique(out).size == n

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_trial_rng(42, -1)

    def test_seed_outside_64_bits_rejected(self):
        # masking to 64 bits would give -1 the stream of 2^64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                derive_trial_rng(seed, 0)
            with pytest.raises(ValueError):
                _derive_subseed(seed, 2)

    def test_top_seed_keeps_its_stream(self):
        seed = 2**64 - 1
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(3,))))
        np.testing.assert_array_equal(
            derive_trial_rng(seed, 3).integers(0, 2**64, size=8, dtype=np.uint64),
            want.integers(0, 2**64, size=8, dtype=np.uint64),
        )


class TestBinomial:
    def test_goodness_of_fit_large_m(self):
        draws = derive_trial_rng(3, 0).binomial(10**4, 0.3, size=10**6)
        lo, hi = draws.min(), draws.max()
        probs = np.zeros(hi + 1)
        probs[lo : hi + 1] = stats.binom.pmf(np.arange(lo, hi + 1), 10**4, 0.3)
        gof = chi_square_gof(draws, probs, tail_prob=float(stats.binom.sf(hi, 10**4, 0.3)))
        assert gof.p_value >= GOF_ALPHA


class TestPoisson:
    def test_goodness_of_fit_small_rate(self):
        draws = derive_trial_rng(5, 0).poisson(4.0, size=10**6)
        hi = int(draws.max())
        gof = chi_square_gof(
            draws, stats.poisson.pmf(np.arange(hi + 1), 4.0), tail_prob=float(stats.poisson.sf(hi, 4.0))
        )
        assert gof.p_value >= GOF_ALPHA

    def test_huge_rate_mean(self):
        lam = 10**6
        draws = derive_trial_rng(7, 0).poisson(lam, size=10**5)
        assert abs(draws.mean() - lam) <= 4.0 * math.sqrt(lam / 10**5)


class TestKolmogorovExactness:
    """Certify the generators against exact distribution functions."""

    REPS = 10**7
    TOL = 1e-3

    def _ks(self, draws, cdf):
        hi = int(draws.max())
        emp = np.cumsum(np.bincount(draws, minlength=hi + 1)) / draws.size
        return float(np.abs(emp - cdf(np.arange(hi + 1))).max())

    @pytest.mark.parametrize("m,prob", [(100, 0.3), (10, 0.5)])
    def test_binomial_golden(self, m, prob):
        draws = derive_trial_rng(11, 0).binomial(m, prob, size=self.REPS)
        assert self._ks(draws, lambda x: stats.binom.cdf(x, m, prob)) < self.TOL

    @pytest.mark.parametrize("lam", [4.0, 100.0])
    def test_poisson_golden(self, lam):
        draws = derive_trial_rng(13, 0).poisson(lam, size=self.REPS)
        assert self._ks(draws, lambda x: stats.poisson.cdf(x, lam)) < self.TOL


class TestMultinomialCounts:
    def test_zero_draws(self):
        c = multinomial_counts(derive_trial_rng(1, 0), uniform_pmf(3), 0)
        assert c.counts.tolist() == [0, 0, 0]
        assert c.total == 0

    def test_single_symbol(self):
        c = multinomial_counts(derive_trial_rng(1, 0), Pmf([1.0]), 57)
        assert c.counts.tolist() == [57]

    def test_scalar_matches_vectorized_stream(self):
        c = multinomial_counts(derive_trial_rng(9, 0), uniform_pmf(2), 10**4)
        batch = derive_trial_rng(9, 0).multinomial(10**4, [0.5, 0.5], size=4)
        assert c.counts.tolist() == batch[0].tolist()

    def test_marginal_goodness_of_fit(self):
        batch = derive_trial_rng(9, 0).multinomial(10**4, [0.5, 0.5], size=10**5)
        n1 = batch[:, 0]
        lo, hi = int(n1.min()), int(n1.max())
        probs = np.zeros(hi + 1)
        probs[lo:] = stats.binom.pmf(np.arange(lo, hi + 1), 10**4, 0.5)
        gof = chi_square_gof(n1, probs, tail_prob=float(stats.binom.sf(hi, 10**4, 0.5)))
        assert gof.p_value >= GOF_ALPHA


class TestPoissonizedCounts:
    def test_total_is_sum(self):
        for i in range(50):
            c = poissonized_counts(derive_trial_rng(21, i), uniform_pmf(5), 40)
            assert c.total == int(c.counts.sum())

    def test_single_symbol_total_is_poisson(self):
        draws = [poissonized_counts(derive_trial_rng(23, i), Pmf([1.0]), 9).total for i in range(2000)]
        assert np.mean(draws) == pytest.approx(9.0, abs=4 * math.sqrt(9 / 2000))

    def test_counts_uncorrelated(self):
        reps = 2 * 10**5
        pairs = np.empty((reps, 2))
        p = uniform_pmf(2)
        for i in range(reps):
            pairs[i] = poissonized_counts(derive_trial_rng(25, i), p, 100).counts
        r = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
        assert abs(r) < 0.01

    def test_marginal_goodness_of_fit(self):
        reps = 2 * 10**5
        n1 = np.empty(reps, dtype=np.int64)
        p = Pmf([0.3, 0.7])
        for i in range(reps):
            n1[i] = poissonized_counts(derive_trial_rng(27, i), p, 50).counts[0]
        lam = 50 * 0.3
        hi = int(n1.max())
        gof = chi_square_gof(
            n1, stats.poisson.pmf(np.arange(hi + 1), lam), tail_prob=float(stats.poisson.sf(hi, lam))
        )
        assert gof.p_value >= GOF_ALPHA


class TestCoupling:
    def test_certain_success_forces_structure(self):
        # prob=1: X = min(N, n) and Y = |n - N|, so M = n and M' = N always
        n = 17
        m, m_prime, n_latent, _, _ = coupled_pairs(derive_trial_rng(31, 0), n, 1.0, size=200)
        assert np.all(m == n)
        np.testing.assert_array_equal(m_prime, n_latent)

    def test_gap_is_y_with_sign_from_latent(self):
        n = 20
        m, m_prime, n_latent, x, y = coupled_pairs(derive_trial_rng(33, 0), n, 0.4, size=2000)
        np.testing.assert_array_equal(np.abs(m - m_prime), y)
        under = n_latent <= n
        np.testing.assert_array_equal((m - m_prime)[under], y[under])
        np.testing.assert_array_equal((m_prime - m)[~under], y[~under])
        assert np.all(x <= np.minimum(m, m_prime) + y)

    def test_prob_validation(self):
        rng = derive_trial_rng(1, 0)
        with pytest.raises(ValueError):
            coupled_pairs(rng, 10, 0.0, size=1)
        with pytest.raises(ValueError):
            coupled_pairs(rng, 10, 1.2, size=1)
