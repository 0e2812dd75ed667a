import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import klconc
from klconc.bounds import (
    BoundInputs,
    _binomial_window,
    _poisson_window,
    _regularized_gamma,
    binomial_inverse_moment,
    binomial_inverse_moment_exact,
    binomial_inverse_moment2_bound,
    binomial_inverse_moment2_exact,
    binomial_product_variance,
    clip_threshold,
    expectation_gap_bound,
    heuristic_kl_std,
    kl_deviation_bound,
    poisson_pmf_at_mean,
    poisson_tail_radius,
    prior_deviation_bound,
    variance_lower_bound,
)

# Pr[Poi(n) = n] computed with 60-digit mpmath arithmetic.
_PMF_AT_MEAN_ORACLE = {
    1: 0.3678794411714423216,
    4: 0.1953668148131645898,
    19: 0.09112313246841229139,
    20: 0.08883531739208521827,
    21: 0.08671159160336753731,
    100: 0.03986099680914713523,
    1000: 0.01261461134872149972,
    10**4: 0.003989389558962825649,
    10**6: 0.0003989422471562440297,
}


def test_bound_inputs_validation():
    BoundInputs(k=1, n=1, delta=0.5)
    with pytest.raises(ValueError):
        BoundInputs(k=0, n=1, delta=0.5)
    with pytest.raises(ValueError):
        BoundInputs(k=1, n=0, delta=0.5)
    for delta in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            BoundInputs(k=1, n=1, delta=delta)


class TestKlDeviationBound:
    def test_small_instance(self):
        b = BoundInputs(k=1, n=1, delta=0.9)
        expected = 6.0 * math.sqrt(math.log(4 / 0.9) ** 5) + 311.0 + 160.0
        assert kl_deviation_bound(b) == pytest.approx(expected, rel=1e-14)

    def test_large_instance(self):
        b = BoundInputs(k=100, n=10**6, delta=0.1)
        expected = 6 * math.sqrt(100 * math.log(4000) ** 5) / 10**6 + 311 / 10**6 + 160 * 100 / 10**9
        assert kl_deviation_bound(b) == pytest.approx(expected, rel=1e-14)

    def test_scaling_in_n(self):
        k, delta = 50, 0.05
        lg = math.log(4 * k / delta)
        for n in (100, 12345):
            t1 = 6 * math.sqrt(k * lg**5) / n
            t3 = 160 * k / n**1.5
            doubled = kl_deviation_bound(BoundInputs(k=k, n=2 * n, delta=delta))
            expected = t1 / 2 + (311 / n) / 2 + t3 / 2**1.5
            assert doubled == pytest.approx(expected, rel=1e-12)


class TestPriorDeviationBound:
    def test_arithmetic_instance(self):
        b = BoundInputs(k=1, n=3, delta=1 / math.e)
        assert prior_deviation_bound(b) == pytest.approx((1 / 3) * math.log(3), rel=1e-14)

    def test_large_instance(self):
        b = BoundInputs(k=100, n=10**6, delta=0.1)
        expected = 1e-4 * math.log(10**6) * math.log(10**3)
        assert prior_deviation_bound(b) == pytest.approx(expected, rel=1e-14)

    def test_requires_n_at_least_two(self):
        with pytest.raises(ValueError):
            prior_deviation_bound(BoundInputs(k=1, n=1, delta=0.5))

    def test_ratio_to_new_bound_shrinks_with_k(self):
        n, delta = 10**6, 0.1
        ratios = [
            kl_deviation_bound(BoundInputs(k=k, n=n, delta=delta))
            / prior_deviation_bound(BoundInputs(k=k, n=n, delta=delta))
            for k in (2**j for j in range(1, 21))
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_crossover_scan(self):
        # the sublinear bound must UNDERCUT the linear-in-k one from some
        # k0 <= 1e6 onward (n=1e6, delta=0.1), found by scanning
        n, delta = 10**6, 0.1
        k = np.arange(1, 10**6 + 1, dtype=np.float64)
        lg = np.log(4 * k / delta)
        new = 6 * np.sqrt(k * lg**5) / n + 311 / n + 160 * k / n**1.5
        old = k / n * math.log(n) * np.log(k / delta)
        below = new < old
        assert below.any()
        k0 = int(np.argmax(below)) + 1
        assert k0 <= 10**6
        assert below[k0 - 1 :].all()
        # the vectorized scan matches the scalar calculators at the crossover
        b = BoundInputs(k=k0, n=n, delta=delta)
        assert kl_deviation_bound(b) < prior_deviation_bound(b)
        b = BoundInputs(k=k0 - 1, n=n, delta=delta)
        assert kl_deviation_bound(b) >= prior_deviation_bound(b)


class TestVarianceLowerBound:
    def test_values(self):
        assert variance_lower_bound(10, 100) == pytest.approx(3.125e-5, rel=1e-15)
        assert variance_lower_bound(2, 20) == pytest.approx(2 / 12800, rel=1e-15)

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="n >= 10"):
            variance_lower_bound(10, 50)
        # at k = 1 the loss is identically 0, so no floor holds at any n
        with pytest.raises(ValueError, match="k >= 2"):
            variance_lower_bound(1, 100)


class TestHeuristicStd:
    def test_values(self):
        assert heuristic_kl_std(2, 10240) == pytest.approx(1 / 10240, rel=1e-15)
        assert heuristic_kl_std(8, 10240) == pytest.approx(2 / 10240, rel=1e-15)

    def test_sixteen_times_the_variance_floor(self):
        for k, n in ((2, 20), (10, 100), (64, 10240)):
            ratio = heuristic_kl_std(k, n) ** 2 / variance_lower_bound(k, n)
            assert ratio == pytest.approx(16.0, rel=1e-12)


class TestPoissonTailRadius:
    def test_arithmetic(self):
        assert poisson_tail_radius(0, 2 / math.e) == pytest.approx(6.0, rel=1e-14)
        assert poisson_tail_radius(3, 2 / math.e) == pytest.approx(12.0, rel=1e-14)

    def test_monotone(self):
        assert poisson_tail_radius(10, 0.1) > poisson_tail_radius(9, 0.1)
        assert poisson_tail_radius(10, 0.05) > poisson_tail_radius(10, 0.1)

    def test_array_of_counts(self):
        counts = np.array([0, 3, 8])
        radius = poisson_tail_radius(counts, 2 / math.e)
        np.testing.assert_allclose(radius, [6.0, 12.0, 18.0], rtol=1e-14)
        with pytest.raises(ValueError):
            poisson_tail_radius(np.array([4, -1]), 0.1)


def test_expectation_gap_bound_values():
    assert expectation_gap_bound(1, 1) == pytest.approx(471.0, rel=1e-15)
    assert expectation_gap_bound(10, 10**4) == pytest.approx(0.0311 + 0.0016, rel=1e-12)
    assert expectation_gap_bound(3, 10**9) < 1e-6


def test_clip_threshold_identities():
    b = BoundInputs(k=1, n=36, delta=0.5)
    assert clip_threshold(b) == pytest.approx(math.log(8) ** 2, rel=1e-14)
    for k, n, delta in ((5, 100, 0.2), (64, 999, 0.01)):
        b = BoundInputs(k=k, n=n, delta=delta)
        assert clip_threshold(b) * n / 36 == pytest.approx(math.log(4 * k / delta) ** 2, rel=1e-12)
        assert clip_threshold(BoundInputs(k=k, n=2 * n, delta=delta)) == pytest.approx(
            clip_threshold(b) / 2, rel=1e-12
        )


class TestBinomialInverseMoment:
    def test_m_zero_is_one(self):
        for p in (0.01, 0.4, 1.0):
            assert binomial_inverse_moment(0, p) == pytest.approx(1.0, rel=1e-14)

    def test_two_outcomes_brute_force(self):
        # X ~ Bin(1, 1/2): E[1/(X+1)] = (1 + 1/2)/2
        assert binomial_inverse_moment(1, 0.5) == pytest.approx(0.75, rel=1e-15)

    def test_against_exact_summation(self):
        assert binomial_inverse_moment(20, 0.3) == pytest.approx(
            binomial_inverse_moment_exact(20, 0.3), rel=1e-12
        )

    def test_tiny_prob_stability(self):
        # closed form must not cancel catastrophically for small p
        got = binomial_inverse_moment(50, 1e-9)
        assert got == pytest.approx(binomial_inverse_moment_exact(50, 1e-9), rel=1e-10)

    def test_rejects_zero_prob(self):
        with pytest.raises(ValueError):
            binomial_inverse_moment(3, 0.0)


class TestSecondInverseMoment:
    def test_degenerate_equality(self):
        assert binomial_inverse_moment2_bound(0, 1.0) == pytest.approx(0.5)
        assert binomial_inverse_moment2_exact(0, 1.0) == pytest.approx(0.5)

    def test_exact_below_bound(self):
        for m, p in ((5, 0.5), (50, 0.1)):
            assert binomial_inverse_moment2_exact(m, p) <= binomial_inverse_moment2_bound(m, p)


@pytest.mark.parametrize("f", [binomial_inverse_moment, binomial_inverse_moment_exact,
                               binomial_inverse_moment2_bound, binomial_inverse_moment2_exact],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("m,prob,match", [
    (-1, 0.5, "number of trials must be >= 0"),
    *[(3, prob, r"probability must lie in \(0, 1\]") for prob in (0.0, 1.5, math.nan)],
], ids=["m-1", "prob0", "prob1.5", "probnan"])
def test_binomial_arguments_rejected(f, m, prob, match):
    with pytest.raises(ValueError, match=match):
        f(m, prob)


class TestPoissonPmfAtMean:
    def test_against_high_precision_oracle(self):
        for n, expected in _PMF_AT_MEAN_ORACLE.items():
            assert poisson_pmf_at_mean(n) == pytest.approx(expected, rel=1e-12)

    def test_floor_on_sampled_range(self):
        rng = np.random.default_rng(41)
        for n in rng.integers(1, 10**6, size=200):
            n = int(n)
            assert poisson_pmf_at_mean(n) >= 1.0 / (3.0 * math.sqrt(n))


class TestBinomialProductVariance:
    def test_small_values(self):
        assert binomial_product_variance(0) == 0.0
        assert binomial_product_variance(2) == pytest.approx(0.25)
        assert binomial_product_variance(10) == pytest.approx(90 / 8)

    def test_brute_force_two_trials(self):
        # X ~ Bin(2, 1/2) with weights (1/4, 1/2, 1/4); g = X(2-X) in {0, 1, 0}
        values = np.array([0.0, 1.0, 0.0])
        weights = np.array([0.25, 0.5, 0.25])
        mean = float(np.sum(weights * values))
        var = float(np.sum(weights * (values - mean) ** 2))
        assert binomial_product_variance(2) == pytest.approx(var, abs=1e-15)


def _max_rel_err(got, ref, floor=1e-250):
    """Largest |got - ref| / ref over the reference entries >= floor."""
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    keep = ref >= floor
    return float(np.max(np.abs(got[keep] - ref[keep]) / ref[keep]))


# The numpy pmfs and incomplete gamma replace scipy in the package; scipy is
# their independent oracle here.
class TestBinomialPmf:
    @pytest.mark.parametrize("prob", [1e-9, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0])
    def test_matches_scipy(self, prob):
        worst = max(
            _max_rel_err(_binomial_window(m, prob, 0, m)[1], stats.binom.pmf(np.arange(m + 1), m, prob))
            for m in [*range(201), 10**4]
        )
        assert worst <= 1e-10

    def test_sums_to_one_and_nonnegative(self):
        for m, prob in ((0, 0.3), (1, 1e-9), (37, 0.5), (10**4, 0.99)):
            lo, pmf, head, tail = _binomial_window(m, prob, 0, m)
            assert lo == 0 and pmf.shape == (m + 1,)
            assert head == tail == 0.0
            assert np.all(pmf >= 0)
            assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-15)

    def test_certain_success(self):
        for lo, hi in ((0, 3), (3, 3)):
            assert list(_binomial_window(3, 1.0, lo, hi)[1]) == [0.0, 0.0, 0.0, 1.0]

    @pytest.mark.parametrize("m,prob", [(10**4, 0.3), (10**4, 0.01), (10**6, 0.5), (2**24, 0.5)])
    @pytest.mark.parametrize("side", [-3.0, 0.0, 3.0])
    def test_window_holds_all_but_1e15_on_each_side(self, m, prob, side):
        # a drawn range [x, x] is widened until Hoeffding bounds each outside mass by 1e-15
        x = round(m * prob + side * math.sqrt(m * prob * (1 - prob)))
        lo, pmf, _, _ = _binomial_window(m, prob, x, x)
        hi = lo + pmf.size - 1
        assert lo <= x <= hi
        assert stats.binom.cdf(lo - 1, m, prob) <= 1e-15 and stats.binom.sf(hi, m, prob) <= 1e-15
        assert _max_rel_err(pmf, stats.binom.pmf(np.arange(lo, hi + 1), m, prob)) <= 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0, 10.0, 100.0, 1e4])
class TestPoissonPmfAndTail:
    def _hi(self, lam):
        return int(lam + 20 * math.sqrt(lam) + 40)

    def test_pmf_matches_scipy(self, lam):
        hi = self._hi(lam)
        assert _max_rel_err(_poisson_window(lam, 0, hi)[1], stats.poisson.pmf(np.arange(hi + 1), lam)) <= 1e-9

    def test_pmf_prefix_below_mode(self, lam):
        # hi below the mode: the window is built from its top entry down
        hi = max(0, int(lam - 2 * math.sqrt(lam)))
        assert _max_rel_err(_poisson_window(lam, 0, hi)[1], stats.poisson.pmf(np.arange(hi + 1), lam)) <= 1e-9

    def test_window_head_and_tail_match_scipy(self, lam):
        lo, hi = int(lam - 3 * math.sqrt(lam)) + 1, int(lam + 3 * math.sqrt(lam))
        got_lo, pmf, head, tail = _poisson_window(lam, lo, hi)
        assert got_lo == lo and pmf.size == hi - lo + 1
        assert _max_rel_err(pmf, stats.poisson.pmf(np.arange(lo, hi + 1), lam)) <= 1e-9
        assert _max_rel_err([head, tail], [stats.poisson.cdf(lo - 1, lam), stats.poisson.sf(hi, lam)]) <= 1e-9

    def test_tail_matches_scipy(self, lam):
        hi = self._hi(lam)
        js = np.arange(0, hi + 1, max(1, hi // 500))
        got = [_regularized_gamma(j + 1, lam)[0] for j in js]  # Pr[N > j] = P(j + 1, lam)
        assert _max_rel_err(got, stats.poisson.sf(js, lam)) <= 1e-9


def _binomial_oracle(m, prob, x):
    """P[Bin(m, prob) = x] in exact rational arithmetic on the double prob."""
    p = Fraction(prob)
    return float(math.comb(m, x) * p**x * (1 - p) ** (m - x))


def _poisson_oracle(lam, j):
    """P[Poi(lam) = j]: lam**j / j! exact, times the double nearest exp(-lam)."""
    return float(Fraction(lam) ** j / math.factorial(j) * Fraction(math.exp(-lam)))


class TestWindowExactOracles:
    @pytest.mark.parametrize("prob", [0.01, 0.1, 0.3, 0.5, 0.9, 0.99, 1.0])
    def test_binomial_matches_exact(self, prob):
        for m in range(61):
            for x in sorted({0, m // 3, m}):
                lo, pmf, _, _ = _binomial_window(m, prob, x, x)
                want = [_binomial_oracle(m, prob, k) for k in range(lo, lo + pmf.size)]
                assert _max_rel_err(pmf, want) <= 1e-12, (m, x)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.7, 10.0, 20.0])
    def test_poisson_off_mode_windows_match_exact(self, lam):
        mode = int(lam)
        windows = [(mode + 1, mode + 4), (mode + 2, mode + int(3 * math.sqrt(lam)) + 5)]
        if mode >= 1:
            windows += [(0, mode - 1), (mode // 2, mode - 1)]
        for lo, hi in windows:
            got_lo, pmf, head, tail = _poisson_window(lam, lo, hi)
            assert got_lo == lo and not lo <= mode <= hi
            assert _max_rel_err(pmf, [_poisson_oracle(lam, j) for j in range(lo, hi + 1)]) <= 1e-12
            want_tail = math.fsum(_poisson_oracle(lam, j) for j in range(hi + 1, hi + 200))
            assert _max_rel_err([tail], [want_tail]) <= 1e-12
            if lo > 0:
                assert _max_rel_err([head], [math.fsum(_poisson_oracle(lam, j) for j in range(lo))]) <= 1e-12

    @pytest.mark.parametrize("window", [
        lambda: _binomial_window(2**24, 0.5, 2**23 - 10**4, 2**23 + 10**4),
        lambda: _poisson_window(1e4, 10**4 - 500, 10**4 + 500),
        lambda: _poisson_window(2.0**23, 2**23 - 14_000, 2**23 + 14_000),
    ], ids=["bin-2^24", "poi-1e4", "poi-2^23"])
    def test_window_and_outside_masses_sum_to_one(self, window):
        _, pmf, head, tail = window()
        assert abs(math.fsum([*pmf, head, tail]) - 1.0) <= 1e-12


class TestPoissonWindowOffMode:
    # a window off the mode sums to the difference of its two tail masses, not 1 - head - tail
    @pytest.mark.parametrize("lo,hi,tol", [(321, 400, 1e-9), (160, 200, 1e-12), (20, 60, 1e-12), (0, 40, 1e-12)],
                             ids=["far-above", "above", "below", "below-from-0"])
    def test_matches_scipy(self, lo, hi, tol):
        lam = 100.0
        got_lo, pmf, head, tail = _poisson_window(lam, lo, hi)
        assert got_lo == lo and not lo <= lam <= hi
        assert _max_rel_err(pmf, stats.poisson.pmf(np.arange(lo, hi + 1), lam)) <= tol
        if lo > lam:
            mass = stats.poisson.sf(lo - 1, lam) - stats.poisson.sf(hi, lam)
        else:
            mass = stats.poisson.cdf(hi, lam) - stats.poisson.cdf(lo - 1, lam)
        assert _max_rel_err([math.fsum(pmf)], [mass]) <= tol


class TestRegularizedGamma:
    @pytest.mark.parametrize("dof", [1, 2, 3, 17, 100, 2001])
    def test_chi2_sf_matches_scipy(self, dof):
        s = np.linspace(0.5, 3 * dof + 10, 400)
        got = [_regularized_gamma(dof / 2, x / 2)[1] for x in s]  # chi2.sf(x, dof)
        assert _max_rel_err(got, stats.chi2.sf(s, dof)) <= 1e-10

    def test_p_and_q_are_complements(self):
        for a, x in ((0.5, 0.1), (3.0, 4.0), (3.0, 4.1), (50.0, 20.0), (50.0, 80.0)):
            p, q = _regularized_gamma(a, x)
            assert p + q == pytest.approx(1.0, abs=1e-15)
            assert p == pytest.approx(stats.gamma.cdf(x, a), rel=1e-12)

    def test_zero_argument(self):
        assert _regularized_gamma(2.5, 0.0) == (0.0, 1.0)

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (1.0, math.nan),
                                     (1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_bad_arguments(self, a, x):
        with pytest.raises(ValueError):
            _regularized_gamma(a, x)


def test_cli_import_loads_no_scipy():
    src = str(Path(klconc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, klconc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
