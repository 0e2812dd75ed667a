import hashlib
import math

import numpy as np
import pytest
from numpy.random import Generator
from scipy import stats

from klconc.distributions import Pmf, uniform_pmf
from klconc.harness import (
    _CHUNK_CELLS,
    _DRAW_CHUNK,
    chi_square_gof,
    coupled_pairs,
    derive_trial_rng,
    sweep_std_vs_heuristic,
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

    @pytest.mark.slow
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
            with pytest.raises(ValueError, match="master seed"):  # the sweep rows' sub-seeds
                sweep_std_vs_heuristic([2], 1, 2, seed)

    def test_top_seed_keeps_its_stream(self):
        seed = 2**64 - 1
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(3,))))
        np.testing.assert_array_equal(
            derive_trial_rng(seed, 3).integers(0, 2**64, size=8, dtype=np.uint64),
            want.integers(0, 2**64, size=8, dtype=np.uint64),
        )


# The first outputs of each Generator method klconc draws with, all from
# derive_trial_rng(2024, 0), and the sha256 of their bytes as numpy 2.4.6 gives
# them. numpy does not promise that its distributions keep their streams across
# versions (NEP 19), and every golden and bit-exact test rests on these streams,
# so a mismatch here says that numpy changed a stream, not klconc an output.
_STREAM_DRAWS = {
    "random": (lambda rng: rng.random((4, 16)),
               "0d93db86633ed378b8cf4c4a24677303d7fb4fb92595e1a2fe99653a79f5631c"),
    "multinomial": (lambda rng: rng.multinomial(1000, np.arange(1, 65) / 2080, size=8),
                    "d4fab03a266919525a92469b78cb8bafe22f1015ddd9d8894a555898b975129b"),
    "poisson": (lambda rng: rng.poisson([0.5, 5.0, 10.0, 100.0, 1e4, 1e12], size=(8, 6)),
                "cbc61e7f731b3fa1f0cddd889f99ede35be842275c1d47172024e3708d5e64e0"),
    "binomial": (lambda rng: rng.binomial([5, 100, 10_000, 10**9], [0.3, 0.9, 0.01, 0.5], size=(8, 4)),
                 "55dd8c3bb20571e47c056298f66f48ca713bd0111c519f1ceff6172b90d48afc"),
    "jumped": (lambda rng: Generator(rng.bit_generator.jumped(1)).random(16),
               "13a97c1124bbb3165c047c9210587b85d8746b3ada7a2aab054edae7b7362bfc"),
}


@pytest.mark.numpy_drift
@pytest.mark.parametrize("method", list(_STREAM_DRAWS))
def test_numpy_stream_fingerprint(method):
    draw, digest = _STREAM_DRAWS[method]
    got = hashlib.sha256(draw(derive_trial_rng(2024, 0)).tobytes()).hexdigest()
    assert got == digest, (f"numpy {np.__version__} draws another {method} stream than numpy 2.4.6, "
                           "on which the goldens were recorded")


@pytest.mark.parametrize("a,b,n", [
    pytest.param(1, 1, 16, id="one-row-each"),
    pytest.param(2, 3, 16, id="rows"),
    pytest.param(_CHUNK_CELLS // 1000, 2, 1000, id="one-engine-slice"),
])
def test_consecutive_random_calls_continue_one_call(a, b, n):
    # The engine's symbol path draws a block in consecutive slices of rows on the block's stream.
    # That gives the block's rows only while random((a, n)) followed by random((b, n)) draws
    # random((a + b, n)), which this pins.
    whole = derive_trial_rng(2024, 3).random((a + b, n))
    rng = derive_trial_rng(2024, 3)
    assert np.array_equal(np.concatenate([rng.random((a, n)), rng.random((b, n))]), whole), (
        f"numpy {np.__version__}: consecutive random calls no longer continue one call")


class TestBinomial:
    def test_goodness_of_fit_large_m(self):
        draws = derive_trial_rng(3, 0).binomial(10**4, 0.3, size=10**6)
        lo, hi = draws.min(), draws.max()
        probs = np.zeros(hi + 1)
        probs[lo : hi + 1] = stats.binom.pmf(np.arange(lo, hi + 1), 10**4, 0.3)
        probs[-1] += stats.binom.sf(hi, 10**4, 0.3)
        _, p_value = chi_square_gof(np.bincount(draws), probs)
        assert p_value >= GOF_ALPHA


class TestPoisson:
    def test_goodness_of_fit_small_rate(self):
        draws = derive_trial_rng(5, 0).poisson(4.0, size=10**6)
        hi = int(draws.max())
        probs = stats.poisson.pmf(np.arange(hi + 1), 4.0)
        probs[-1] += stats.poisson.sf(hi, 4.0)
        _, p_value = chi_square_gof(np.bincount(draws), probs)
        assert p_value >= GOF_ALPHA

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
        c = derive_trial_rng(1, 0).multinomial(0, uniform_pmf(3).probs)
        assert c.tolist() == [0, 0, 0]
        assert c.sum() == 0

    def test_single_symbol(self):
        c = derive_trial_rng(1, 0).multinomial(57, Pmf([1.0]).probs)
        assert c.tolist() == [57]

    def test_marginal_goodness_of_fit(self):
        batch = derive_trial_rng(9, 0).multinomial(10**4, [0.5, 0.5], size=10**5)
        n1 = batch[:, 0]
        lo, hi = int(n1.min()), int(n1.max())
        probs = np.zeros(hi + 1)
        probs[lo:] = stats.binom.pmf(np.arange(lo, hi + 1), 10**4, 0.5)
        probs[-1] += stats.binom.sf(hi, 10**4, 0.5)
        _, p_value = chi_square_gof(np.bincount(n1), probs)
        assert p_value >= GOF_ALPHA


# Draw counts around the 2^16-draw chunks that the harness asks coupled_pairs for, and
# around the slices of at most _CHUNK_CELLS draws that coupled_pairs yields them in.
CHUNK_EDGE_SIZES = [1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 3 * _DRAW_CHUNK + 5,
                    _CHUNK_CELLS - 1, _CHUNK_CELLS + 1]


def _pairs(rng, n, prob, size):
    """coupled_pairs' slices, each array joined into one."""
    return tuple(np.concatenate(parts) for parts in zip(*coupled_pairs(rng, n, prob, size)))


class TestCoupling:
    def test_certain_success_forces_structure(self):
        # prob=1: X = min(N, n) and Y = |n - N|, so M = n and M' = N always
        n = 17
        m, m_prime, n_latent, _, _ = _pairs(derive_trial_rng(31, 0), n, 1.0, size=200)
        assert np.all(m == n)
        np.testing.assert_array_equal(m_prime, n_latent)

    def test_gap_is_y_with_sign_from_latent(self):
        n = 20
        m, m_prime, n_latent, x, y = _pairs(derive_trial_rng(33, 0), n, 0.4, size=2000)
        np.testing.assert_array_equal(np.abs(m - m_prime), y)
        under = n_latent <= n
        np.testing.assert_array_equal((m - m_prime)[under], y[under])
        np.testing.assert_array_equal((m_prime - m)[~under], y[~under])
        assert np.all(x <= np.minimum(m, m_prime) + y)

    @pytest.mark.parametrize("size", CHUNK_EDGE_SIZES)
    @pytest.mark.parametrize("n,prob", [(20, 0.4), (100, 0.5), (10_000, 0.01), (7, 1.0)])
    def test_first_draws_do_not_depend_on_size(self, n, prob, size):
        # size draws are the first size draws of a longer call on the same stream
        longer = _pairs(derive_trial_rng(35, 0), n, prob, max(CHUNK_EDGE_SIZES) + 1)
        for got, ref in zip(_pairs(derive_trial_rng(35, 0), n, prob, size), longer, strict=True):
            np.testing.assert_array_equal(got, ref[:size])

    @pytest.mark.parametrize("size", CHUNK_EDGE_SIZES)
    def test_slices_hold_at_most_the_chunk_cells(self, size):
        sizes = [m.size for m, *_ in coupled_pairs(derive_trial_rng(35, 0), 20, 0.4, size)]
        assert sum(sizes) == size
        assert all(part == _CHUNK_CELLS for part in sizes[:-1]) and 1 <= sizes[-1] <= _CHUNK_CELLS

    def test_prob_validation(self):
        rng = derive_trial_rng(1, 0)
        with pytest.raises(ValueError):
            coupled_pairs(rng, 10, 0.0, size=1)
        with pytest.raises(ValueError):
            coupled_pairs(rng, 10, 1.2, size=1)

    @pytest.mark.parametrize("n,prob,size", [(10, 0.0, 1), (10, 1.2, 1), (0, 0.5, 1), (10, 0.5, 0), (10, 0.5, 2.5),
                                             (2**63, 0.5, 10)])
    def test_arguments_checked_before_drawing(self, n, prob, size):
        # no generator at all: a draw would raise AttributeError, not ValueError; n lies in the CLI's --n range
        with pytest.raises(ValueError):
            coupled_pairs(None, n, prob, size)
