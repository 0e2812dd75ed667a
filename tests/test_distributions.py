import math

import numpy as np
import pytest

from klconc.distributions import (
    Measure,
    Pmf,
    add_t_estimate,
    load_pmf,
    pseudo_estimate,
    two_point_pmf,
    uniform_pmf,
    zipf_pmf,
)


class TestPmfValidation:
    def test_accepts_normalized(self):
        p = Pmf([0.5, 0.5])
        np.testing.assert_allclose(p.probs, [0.5, 0.5])

    def test_degenerate_single_symbol(self):
        assert Pmf([1.0]).probs.tolist() == [1.0]

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum = 1.1"):
            Pmf([0.5, 0.6])

    def test_rejects_negative_naming_index(self):
        with pytest.raises(ValueError, match="index 1"):
            Pmf([1.2, -0.2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Pmf([])

    def test_renormalizes_inside_tolerance(self):
        w = [0.1] * 10  # fsum is 1 - 1ulp-ish territory; must normalize to 1 exactly
        p = Pmf(w)
        assert math.fsum(p.probs) == pytest.approx(1.0, abs=1e-15)

    def test_immutable(self):
        p = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestMeasure:
    def test_sum_unconstrained(self):
        m = Measure([2.0, 3.0])
        assert m.sum() == 5.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="index 0"):
            Measure([-1.0, 2.0])

    def test_pmf_is_a_measure(self):
        assert isinstance(uniform_pmf(3), Measure)


def test_uniform_pmf_values():
    np.testing.assert_allclose(uniform_pmf(2).probs, [0.5, 0.5])
    np.testing.assert_allclose(uniform_pmf(1).probs, [1.0])
    np.testing.assert_allclose(uniform_pmf(4).probs, [0.25] * 4)
    with pytest.raises(ValueError):
        uniform_pmf(0)


def test_zipf_pmf_normalizes_power_weights():
    p = zipf_pmf(3, 1.0)
    h = 1 + 0.5 + 1 / 3
    np.testing.assert_allclose(p.probs, [1 / h, 0.5 / h, (1 / 3) / h], rtol=1e-15)


def test_zipf_pmf_negative_exponent_does_not_overflow():
    np.testing.assert_allclose(zipf_pmf(3, -1.0).probs, [1 / 6, 2 / 6, 3 / 6], rtol=1e-15)
    p = zipf_pmf(5, -1000.0)  # 5**1000 overflows a double; (i/5)**1000 does not
    assert p.probs[-1] == 1.0
    assert p.probs[:-1].sum() < 1e-96
    assert np.all(np.isfinite(zipf_pmf(10_000, -80.0).probs))


def test_two_point_pmf_spreads_remainder():
    p = two_point_pmf(5, 0.8)
    np.testing.assert_allclose(p.probs, [0.8, 0.05, 0.05, 0.05, 0.05], rtol=1e-15)
    with pytest.raises(ValueError):
        two_point_pmf(1, 0.5)


def test_load_pmf(tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("0.25\n0.75\n")
    np.testing.assert_allclose(load_pmf(path).probs, [0.25, 0.75])

    bad = tmp_path / "bad.txt"
    bad.write_text("0.25\n0.80\n")
    with pytest.raises(ValueError, match="sum"):
        load_pmf(bad)

    junk = tmp_path / "junk.txt"
    junk.write_text("0.25\nhello\n")
    with pytest.raises(ValueError, match="hello"):
        load_pmf(junk)


class TestEmpiricalEstimate:
    # the empirical estimate is the add-t estimate at t = 0
    def test_all_mass_on_one_symbol(self):
        np.testing.assert_allclose(add_t_estimate([2, 0], 0.0).probs, [1.0, 0.0])

    def test_even_split(self):
        np.testing.assert_allclose(add_t_estimate([1, 1], 0.0).probs, [0.5, 0.5])

    def test_direct_ratio(self):
        np.testing.assert_allclose(add_t_estimate([3, 1], 0.0).probs, [0.75, 0.25])

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="^empirical estimate requires at least one draw$"):
            add_t_estimate([0, 0], 0.0)


class TestAddTEstimate:
    def test_add_one(self):
        np.testing.assert_allclose(add_t_estimate([2, 0], 1.0).probs, [0.75, 0.25])

    def test_add_half(self):
        np.testing.assert_allclose(add_t_estimate([2, 0], 0.5).probs, [5 / 6, 1 / 6], rtol=1e-15)

    def test_t_zero_reduces_to_empirical(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            counts = rng.integers(0, 50, size=k) + rng.integers(0, 2, size=k)
            if counts.sum() == 0:
                continue
            ratios = Pmf(counts / counts.sum()).probs  # count_i / total, as integers divided
            np.testing.assert_array_equal(add_t_estimate(counts, 0.0).probs, ratios)

    def test_negative_t_rejected(self):
        for t in (-0.5, -1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^smoothing constant must be a finite nonnegative real, got {t}$"):
                add_t_estimate([1, 1], t)

    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            k = int(rng.integers(1, 20))
            counts = rng.integers(0, 1000, size=k)
            t = float(rng.uniform(0.01, 5.0))
            est = add_t_estimate(counts, t)
            assert abs(math.fsum(est.probs) - 1.0) <= 1e-9
            assert np.all(est.probs > 0)

    def test_extra_observation_strictly_increases_entry(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            k = int(rng.integers(2, 12))
            raw = rng.integers(0, 100, size=k)
            i = int(rng.integers(0, k))
            t = float(rng.uniform(0.01, 3.0))
            before = add_t_estimate(raw, t)[i]
            bumped = raw.copy()
            bumped[i] += 1
            after = add_t_estimate(bumped, t)[i]
            assert after > before


class TestPseudoEstimate:
    def test_matches_add_one_when_total_equals_n(self):
        m = pseudo_estimate([2, 0], n=2)
        np.testing.assert_allclose(m.weights, [0.75, 0.25])
        assert m.sum() == pytest.approx(1.0, abs=1e-15)

    def test_overshoot_total(self):
        m = pseudo_estimate([3, 0], n=2)
        np.testing.assert_allclose(m.weights, [1.0, 0.25])
        assert m.sum() == pytest.approx(1.25, abs=1e-15)

    def test_zero_counts(self):
        np.testing.assert_allclose(pseudo_estimate([0, 0], n=2).weights, [0.25, 0.25])

    def test_mass_identity(self):
        # sum equals (total + k) / (n + k): exercised at stress scale in acceptance
        rng = np.random.default_rng(3)
        for _ in range(500):
            k = int(rng.integers(1, 30))
            n = int(rng.integers(1, 10**6))
            counts = rng.poisson(n / k, size=k)
            expected = (counts.sum() + k) / (n + k)
            assert pseudo_estimate(counts, n).sum() == pytest.approx(expected, rel=1e-12)
