import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from klconc.distributions import Measure, Pmf, add_t_estimate, pseudo_estimate, uniform_pmf, zipf_pmf
from klconc.distributions import (
    adjusted_kl_divergence,
    adjusted_kl_shift,
    adjusted_kl_terms,
    kl_divergence,
    kl_losses,
    kl_losses_from_sorted_draws,
)


# smoothing constants outside the add-t rule (finite and >= 0)
_BAD_T = (-1.0, -1e-300, math.nan, math.inf, -math.inf)


def random_pmf(rng, k):
    return Pmf(rng.dirichlet(np.ones(k)))


class TestKlDivergence:
    def test_identity_is_zero(self):
        for k in (1, 2, 7, 100):
            p = uniform_pmf(k)
            assert kl_divergence(p, p) == 0.0

    def test_one_sided_support(self):
        assert kl_divergence(Pmf([1.0, 0.0]), Pmf([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_support_violation_is_infinite(self):
        assert kl_divergence(Pmf([0.5, 0.5]), Pmf([1.0, 0.0])) == math.inf

    def test_two_symbol_extreme_counts(self):
        # p uniform on two symbols, all n=2 observations on the first, add-one
        # smoothing: divergence is log(n+2) + log(1/2) - (1/2) log(n+1).
        q = add_t_estimate([2, 0], 1.0)
        expected = math.log(2) - 0.5 * math.log(3)
        assert kl_divergence(Pmf([0.5, 0.5]), q) == pytest.approx(expected, rel=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kl_divergence(Pmf([1.0]), Pmf([0.5, 0.5]))

    def test_nonnegative_on_probability_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            k = int(rng.integers(2, 30))
            assert kl_divergence(random_pmf(rng, k), random_pmf(rng, k)) >= 0.0

    def test_pinsker(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            k = int(rng.integers(2, 30))
            p = random_pmf(rng, k)
            q = random_pmf(rng, k)
            l1 = math.fsum(np.abs(p.weights - q.weights))
            assert l1**2 <= 2.0 * kl_divergence(p, q) + 1e-12

    def test_sum_is_order_independent(self):
        # a sum of nonnegative terms: permuting the alphabet must not move the result
        rng = np.random.default_rng(23)
        k = 10**5
        p = Pmf(rng.dirichlet(np.ones(k)))
        q = Pmf(rng.dirichlet(np.ones(k)))
        base = kl_divergence(p, q)
        perm = rng.permutation(k)
        shuffled = kl_divergence(Pmf(p.probs[perm]), Pmf(q.probs[perm]))
        assert shuffled == pytest.approx(base, rel=1e-13)


def _random_rows(rng, groups, rows):
    """(p, counts, n) groups: random k and n, p with zeros in every third group,
    and counts drawn from another pmf, so symbols outside p's support get counts."""
    for g in range(groups):
        k = int(rng.integers(1, 60))
        n = int(rng.integers(1, 5000))
        w = rng.dirichlet(np.ones(k))
        if g % 3 == 0:
            w[rng.random(k) < 0.3] = 0.0
            w[int(rng.integers(k))] += 0.5
        p = Pmf(w / w.sum())
        yield p, rng.multinomial(n, rng.dirichlet(np.ones(k)), size=rows), n


def _scalar_losses(p, counts, t):
    return np.array([kl_divergence(p, add_t_estimate(row, t)) for row in counts])


class TestKlLosses:
    def test_matches_scalar_path(self):
        # 200 groups of 50 rows: 10^4 rows, each against kl_divergence of add_t_estimate. Both run
        # _kl_terms, so this checks the batching and the estimator; the independent reference is the
        # decimal oracle of test_matches_decimal_oracle
        rng = np.random.default_rng(41)
        worst = 0.0
        for p, counts, n in _random_rows(rng, 200, 50):
            t = float(rng.choice([0.5, 1.0, 2.0]))
            scale = max(1.0, math.log(1.0 + n / (len(p) * t)))
            err = np.abs(kl_losses(p, counts, t) - _scalar_losses(p, counts, t)) / scale
            worst = max(worst, float(err.max()))
        assert worst <= 1e-12

    def test_unsmoothed_rows_infinite_exactly_where_scalar_is(self):
        rng = np.random.default_rng(43)
        infinite = finite = 0
        for p, counts, n in _random_rows(rng, 100, 20):
            got = kl_losses(p, counts, 0.0)
            want = _scalar_losses(p, counts, 0.0)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            ok = np.isfinite(want)
            np.testing.assert_allclose(got[ok], want[ok], rtol=0, atol=1e-12 * max(1.0, math.log(n)))
            infinite += int(np.sum(~ok))
            finite += int(np.sum(ok))
        assert infinite > 0 and finite > 0  # both kinds of row were exercised

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(47)
        p = Pmf(rng.dirichlet(np.ones(37)))
        counts = rng.multinomial(900, p.probs, size=301)
        whole = kl_losses(p, counts, 1.0)
        parts = np.concatenate([kl_losses(p, counts[lo : lo + 7], 1.0) for lo in range(0, 301, 7)])
        assert np.array_equal(whole, parts)

    def test_validation(self):
        p = uniform_pmf(3)
        with pytest.raises(ValueError, match="shape"):
            kl_losses(p, np.zeros((2, 4), dtype=np.int64), 1.0)
        with pytest.raises(ValueError, match="shape"):
            kl_losses(p, np.zeros(3, dtype=np.int64), 1.0)
        with pytest.raises(ValueError, match="integers"):  # add_t_estimate rejects these counts too
            kl_losses(uniform_pmf(2), np.array([[0.5, 0.5]]), 0.0)
        for t in _BAD_T:
            with pytest.raises(ValueError, match=re.escape(f"smoothing constant must lie in [0, inf), got {t!r}")):
                kl_losses(p, np.ones((1, 3), dtype=np.int64), t)
        with pytest.raises(ValueError, match="at least one draw"):
            kl_losses(p, np.zeros((1, 3), dtype=np.int64), 0.0)


def _decimal_kl(probs, counts, t):
    """KL(p || (c + t)/(N + k*t)) in 80-digit decimal arithmetic, on p's doubles normalised exactly to sum 1:
    the doubles of uniform_pmf(10) sum to 1 + 5.6e-17, more than the loss at n = 10^18."""
    with localcontext() as ctx:
        ctx.prec = 80
        ps = [Decimal(float(x)) for x in probs]
        mass, t = sum(ps), Decimal(float(t))
        den = sum(Decimal(int(c)) for c in counts) + len(ps) * t
        return float(sum(p / mass * ((p / mass).ln() - ((Decimal(int(c)) + t) / den).ln())
                         for p, c in zip(ps, counts) if p))


@pytest.mark.parametrize("n", [10**4, 10**12, 10**16, 10**18, 9 * 10**18])
@pytest.mark.parametrize("p", [uniform_pmf(10), zipf_pmf(100)], ids=["uniform10", "zipf100"])
def test_matches_decimal_oracle(p, n):
    # Rounding r_i = q_i/p_i costs each term p_i |r_i - 1| eps, and sum_i p_i |r_i - 1| is about
    # 2 sqrt(n max p) times the loss; 8 eps sqrt(n max p) relative leaves room for the log and the sum.
    counts = np.random.default_rng(n % 1000).multinomial(n, p.probs, size=4)
    got = kl_losses(p, counts, 1.0)
    want = np.array([_decimal_kl(p.probs, row, 1.0) for row in counts])
    assert np.all(got >= 0)
    assert np.max(np.abs(got - want) / want) <= 8 * np.finfo(float).eps * math.sqrt(n * p.probs.max())


def _random_draws(rng, groups, rows):
    """(p, draws) groups: random k and n, p with zeros in every third group, and
    symbols drawn from another pmf, so some fall outside p's support; each
    row of draws is sorted."""
    for g in range(groups):
        k = int(rng.integers(1, 400))
        n = int(rng.integers(1, 300))
        w = rng.dirichlet(np.ones(k))
        if g % 3 == 0:
            w[rng.random(k) < 0.3] = 0.0
            w[int(rng.integers(k))] += 0.5
        yield Pmf(w / w.sum()), np.sort(rng.choice(k, size=(rows, n), p=rng.dirichlet(np.ones(k))), axis=1)


def _bincounted(draws, k):
    return np.stack([np.bincount(row, minlength=k) for row in draws])


class TestKlLossesFromSortedDraws:
    def test_matches_dense_kernel(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        infinite = finite = 0
        for p, draws in _random_draws(rng, 400, 20):
            k, n = len(p), draws.shape[1]
            t = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            got = kl_losses_from_sorted_draws(p, draws, t)
            want = kl_losses(p, _bincounted(draws, k), t)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            ok = np.isfinite(want)
            if ok.any():
                worst = max(worst, float(np.max(np.abs(got[ok] - want[ok]))) / max(1.0, math.log(n)))
            infinite += int(np.sum(~ok))
            finite += int(np.sum(ok))
        assert worst <= 1e-12
        assert infinite > 0 and finite > 0  # both kinds of unsmoothed row were exercised

    def test_matches_dense_kernel_where_c_over_t_overflows(self):
        # below t = n/DBL_MAX some c/t is inf, so log1p(c/t) must become log c - log t; a
        # symbol not drawn adds p_i log t, so the losses are of size |log t| ~ 740
        rng = np.random.default_rng(61)
        for t in (1e-307, 1e-310, 1e-320, 5e-324):
            for p, draws in _random_draws(rng, 60, 20):
                want = kl_losses(p, _bincounted(draws, len(p)), t)
                got = kl_losses_from_sorted_draws(p, draws, t)
                assert np.all(np.isfinite(got))
                assert float(np.max(np.abs(got - want))) <= 5e-15 * abs(math.log(t))

    def test_rows_do_not_depend_on_their_batch(self):
        rng = np.random.default_rng(59)
        p = Pmf(rng.dirichlet(np.ones(500)))
        draws = np.sort(rng.choice(500, size=(301, 90), p=p.probs), axis=1)
        for t in (0.0, 1.0):
            whole = kl_losses_from_sorted_draws(p, draws, t)
            parts = [kl_losses_from_sorted_draws(p, draws[lo : lo + 7], t) for lo in range(0, 301, 7)]
            assert np.array_equal(whole, np.concatenate(parts))

    def test_validation(self):
        p = uniform_pmf(3)
        for t in _BAD_T:
            with pytest.raises(ValueError, match=re.escape(f"smoothing constant must lie in [0, inf), got {t!r}")):
                kl_losses_from_sorted_draws(p, np.zeros((1, 2), dtype=np.int64), t)
        with pytest.raises(ValueError, match="at least one draw"):
            kl_losses_from_sorted_draws(p, np.zeros((2, 0), dtype=np.int64), 0.0)
        for row in ([-1, 0], [0, 3], [0.0, 1.0]):
            with pytest.raises(ValueError, match="symbols"):
                kl_losses_from_sorted_draws(p, np.array([row]), 1.0)


class TestAdjustedKl:
    def test_uniform_self_at_n_equals_k(self):
        for k in (1, 2, 5, 64):
            p = uniform_pmf(k)
            assert adjusted_kl_divergence(p, p, n=k) == pytest.approx(1.0 - math.log(2), rel=1e-14)

    def test_point_mass_example(self):
        got = adjusted_kl_divergence(Pmf([1.0, 0.0]), Pmf([0.5, 0.5]), n=2)
        assert got == pytest.approx(1.0, rel=1e-14)

    def test_infinite_when_kl_is(self):
        assert adjusted_kl_divergence(Pmf([0.5, 0.5]), Measure([1.0, 0.0]), n=4) == math.inf

    def test_shift_identity_for_proper_pmfs(self):
        rng = np.random.default_rng(29)
        for _ in range(2000):
            k = int(rng.integers(1, 40))
            n = int(rng.integers(1, 10**5))
            p = random_pmf(rng, k)
            q = random_pmf(rng, k)
            lhs = adjusted_kl_divergence(p, q, n) - kl_divergence(p, q)
            assert lhs == pytest.approx(adjusted_kl_shift(n, k), rel=1e-12)

    def test_terms_sum_matches_three_term_form(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            k = int(rng.integers(1, 40))
            n = int(rng.integers(1, 10**4))
            p = random_pmf(rng, k)
            counts = rng.poisson(n / k, size=k)
            q = pseudo_estimate(counts, n)
            fused = math.fsum(adjusted_kl_terms(p, q, n))
            assert fused == pytest.approx(adjusted_kl_divergence(p, q, n), rel=1e-12, abs=1e-15)

    def test_terms_nonnegative(self):
        rng = np.random.default_rng(37)
        for _ in range(2000):
            k = int(rng.integers(1, 40))
            n = int(rng.integers(1, 10**4))
            p = random_pmf(rng, k)
            counts = rng.poisson(n / k, size=k)
            terms = adjusted_kl_terms(p, pseudo_estimate(counts, n), n)
            assert np.all(terms >= -1e-12)

    def test_zero_probability_symbol_contributes_mass_term(self):
        p = Pmf([1.0, 0.0])
        q = Measure([0.5, 0.0])
        # second symbol: p=0 and q=0 contributes exactly 0
        terms = adjusted_kl_terms(p, q, n=2)
        assert terms[1] == 0.0

    def test_terms_infinite_on_support_violation(self):
        terms = adjusted_kl_terms(Pmf([0.5, 0.5]), Measure([1.0, 0.0]), n=3)
        assert terms[1] == math.inf


class TestAdjustedKlShift:
    def test_value_at_n_equals_k(self):
        assert adjusted_kl_shift(3, 3) == pytest.approx(1.0 - math.log(2), rel=1e-15)
        assert adjusted_kl_shift(1, 1) == pytest.approx(1.0 - math.log(2), rel=1e-15)

    def test_nonnegative_and_decreasing_in_n(self):
        k = 16
        prev = math.inf
        for n in range(k, 50 * k, k):
            val = adjusted_kl_shift(n, k)
            assert 0.0 <= val < prev
            prev = val
        assert adjusted_kl_shift(10**9, 1) < 1e-9


@pytest.mark.parametrize("call", [
    lambda n: adjusted_kl_shift(n, 3),
    lambda n: adjusted_kl_divergence(uniform_pmf(2), uniform_pmf(2), n),
    lambda n: adjusted_kl_terms(uniform_pmf(2), uniform_pmf(2), n),
    lambda n: pseudo_estimate([1, 1], n),
], ids=["adjusted_kl_shift", "adjusted_kl_divergence", "adjusted_kl_terms", "pseudo_estimate"])
@pytest.mark.parametrize("n", [0, 0.5, -3])
def test_nominal_sample_size_rule(call, n):
    with pytest.raises(ValueError, match=f"^{re.escape(f'nominal sample size must lie in [1, inf), got {n!r}')}$"):
        call(n)
    call(1)  # n = 1 is allowed


def test_shift_alphabet_size_rule():
    with pytest.raises(ValueError, match=r"^alphabet size must lie in \[1, inf\), got 0$"):
        adjusted_kl_shift(5, 0)
