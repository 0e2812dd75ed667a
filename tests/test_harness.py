import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator
from scipy import stats

from klconc import harness
from klconc.bounds import _binomial_window, _poisson_window, expectation_gap_bound, poisson_tail_radius
from klconc.distributions import Pmf, add_t_estimate, two_point_pmf, uniform_pmf, zipf_pmf
from klconc.harness import (
    MAX_STORED_TRIALS,
    chi_square_gof,
    coupled_pairs,
    coupling_checks,
    derive_trial_rng,
    expected_kl_check,
    poisson_tail_checks,
    run_kl_trials,
    sweep_std_vs_heuristic,
    verify_kl_tail_bound,
    verify_variance_lb,
    _CHUNK_CELLS,
    _DRAW_CHUNK,
    _Z99,
    _guide_grid,
    _guide_table_lookup,
    _kl_loss_samples,
    _map_streams,
    _merged,
    _moments_blockwise,
)
from klconc.distributions import kl_divergence, kl_losses, kl_losses_from_sorted_draws

# Draw counts around the 2^16-draw chunks of the coupling and Poisson-tail claims.
CHUNK_EDGE_SIZES = [1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 3 * _DRAW_CHUNK + 5]
# Rows of 1000 symbols, or of 1000 counts, in one slice of a block: what a worker holds at once.
SLICE_ROWS = _CHUNK_CELLS // 1000


def _chunk_streams(seed, reps):
    """(generator, size) of each chunk of reps draws: chunk c is drawn from stream (seed, c)."""
    return [(derive_trial_rng(seed, lo // _DRAW_CHUNK), min(_DRAW_CHUNK, reps - lo))
            for lo in range(0, reps, _DRAW_CHUNK)]


def _unit_pairs(rng, n, prob, size):
    """(m, m_prime) of ``size`` coupled pairs drawn in one call each: the latent
    Poi(n) totals from ``rng``, the binomial pieces from copies of it jumped
    ahead once and twice."""
    x_rng, y_rng = (Generator(rng.bit_generator.jumped(jumps)) for jumps in (1, 2))
    n_latent = rng.poisson(n, size=size)
    x = x_rng.binomial(np.minimum(n_latent, n), prob)
    y = y_rng.binomial(np.abs(n_latent - n), prob)
    over = n_latent > n
    return np.where(over, x, x + y), np.where(over, x + y, x)


def _joined(slices):
    """The arrays of ``coupled_pairs``' slices, each joined into one."""
    return tuple(np.concatenate(parts) for parts in zip(*slices))


def _stats(parts):
    """(count, mean, M2) of each array in ``parts``."""
    return [(part.size, float(np.mean(part)), float(np.sum((part - np.mean(part)) ** 2))) for part in parts]


class TestBlockFold:
    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=10_001)
        mean, variance = _moments_blockwise(x)
        assert mean == pytest.approx(float(np.mean(x)), rel=1e-13)
        assert variance == pytest.approx(float(np.var(x, ddof=1)), rel=1e-13)

    def test_any_partition_folds_to_the_whole(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(size=7777)
        whole = _merged(_stats([x]))
        random_cuts = sorted(rng.choice(np.arange(1, x.size), 40, replace=False))
        for cuts in ([], range(500, x.size, 500), [1, 2, 7000], random_cuts):
            # a miscounted fold would divide M2 by the wrong count - 1
            mean, variance = _merged(_stats(np.split(x, list(cuts))))
            assert mean == pytest.approx(whole[0], rel=1e-12)
            assert variance == pytest.approx(whole[1], rel=1e-12)

    def test_blocks_of_one_value(self):
        mean, variance = _merged(_stats([np.array([v]) for v in (1.0, 2.0, 4.0)]))
        assert mean == pytest.approx(7 / 3)
        assert variance == pytest.approx(np.var([1.0, 2.0, 4.0], ddof=1))

    def test_variance_undefined_below_two_values(self):
        assert math.isnan(_merged([(1, 3.0, 0.0)])[1])
        assert math.isnan(_moments_blockwise(np.array([3.0]))[1])
        assert _moments_blockwise(np.array([3.0, 3.0]))[1] == 0.0

    def test_first_block_starts_the_fold(self):
        # from an empty state, 0.1 * 3 / 3 would round to 0.10000000000000002
        assert _merged([(3, 0.1, 0.5)]) == (0.1, 0.25)

    @pytest.mark.parametrize("size", [1, 2, 2047, 2048, 2049, 3 * 2048 + 5])
    def test_bits_are_the_sequential_chan_update(self, size):
        x = np.random.default_rng(size).exponential(size=size)
        count = None
        for lo in range(0, size, 2048):
            block = x[lo : lo + 2048]
            block_mean = float(np.mean(block))
            block_m2 = float(np.sum((block - block_mean) ** 2))
            if count is None:  # the first block starts the fold
                count, mean, m2 = block.size, block_mean, block_m2
                continue
            total = count + block.size
            delta = block_mean - mean
            mean += delta * block.size / total
            m2 += block_m2 + delta * delta * count * block.size / total
            count = total
        np.testing.assert_equal(_moments_blockwise(x), (mean, m2 / (count - 1) if count > 1 else math.nan))


class TestRunKlTrials:
    def test_returns_the_simulate_columns(self):
        assert list(run_kl_trials(uniform_pmf(2), 10, 5, 0)) == [
            "mean_kl", "var_kl", "std_kl", "q50", "q90", "q99", "exceed_frac", "t_delta"]

    @pytest.mark.parametrize("bad", [{"n": 0}, {"reps": 0}, {"t": -1.0}, {"delta": 0.0}, {"delta": 1.0}],
                             ids=["n0", "reps0", "t-1", "delta0", "delta1"])
    def test_validation(self, bad):
        args = {"pmf": uniform_pmf(2), "n": 10, "reps": 5, "seed": 0, **bad}
        with pytest.raises(ValueError):
            run_kl_trials(**args)

    def test_bad_delta_raises_before_drawing(self, monkeypatch):
        def no_draw(*_):
            raise AssertionError("drew trials before checking delta")

        monkeypatch.setattr("klconc.harness.derive_trial_rng", no_draw)
        with pytest.raises(ValueError, match="failure probability"):
            run_kl_trials(uniform_pmf(2), 10, 5, 0, delta=1.0)

    def test_degenerate_alphabet(self):
        s = run_kl_trials(uniform_pmf(1), 10, 10, 1)
        assert s["mean_kl"] == 0.0
        assert s["var_kl"] == 0.0
        assert (s["q50"], s["q90"], s["q99"]) == (0.0, 0.0, 0.0)

    def test_variance_recompute_from_losses(self):
        s = run_kl_trials(uniform_pmf(6), 200, 20_000, 5)
        losses = _kl_loss_samples(uniform_pmf(6), 200, 1.0, 5, 20_000)
        assert s["var_kl"] == pytest.approx(float(np.var(losses, ddof=1)), rel=1e-10)
        assert s["mean_kl"] == pytest.approx(float(np.mean(losses)), rel=1e-12)
        assert s["std_kl"] == pytest.approx(math.sqrt(s["var_kl"]))

    def test_quantiles_are_order_statistics(self):
        s = run_kl_trials(uniform_pmf(4), 100, 1000, 8)
        losses = np.sort(_kl_loss_samples(uniform_pmf(4), 100, 1.0, 8, 1000))
        assert s["q50"] == losses[499]
        assert s["q90"] == losses[899]
        assert s["q99"] == losses[989]
        assert s["q50"] <= s["q90"] <= s["q99"]

    def test_exceedance_fields(self):
        s = run_kl_trials(uniform_pmf(4), 100, 500, 3, delta=0.1)
        assert s["t_delta"] is not None and s["t_delta"] > 0
        assert 0 <= s["exceed_frac"] <= 1
        losses = _kl_loss_samples(uniform_pmf(4), 100, 1.0, 3, 500)
        assert s["exceed_frac"] == np.count_nonzero(losses > s["mean_kl"] + s["t_delta"]) / 500
        s2 = run_kl_trials(uniform_pmf(4), 100, 500, 3)
        assert s2["exceed_frac"] is None and s2["t_delta"] is None

    def test_unsmoothed_losses_can_be_infinite(self):
        # t=0 with n < k guarantees empty symbols, hence infinite divergence
        s = run_kl_trials(uniform_pmf(4), 1, 20, 2, t=0.0)
        assert s["mean_kl"] == math.inf

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
            counts = derive_trial_rng(44, i).multinomial(n, p.probs)
            direct = kl_divergence(p, add_t_estimate(counts, 1.0))
            decomposed = -math.fsum(np.log(counts + 1.0)) / k + math.log(1 + n / k)
            assert direct == pytest.approx(decomposed, rel=1e-12)


class TestTrialStreams:
    """Trial i is row i mod 2048 of the block i // 2048 draws on stream
    (master_seed, i // 2048): n symbols when 4n <= k, else Mult(n, p) counts."""

    def test_trial_is_row_of_its_block(self):
        p = Pmf([0.5, 0.3, 0.15, 0.05])
        n, t, seed, reps = 60, 0.5, 21, 2048 + 300
        losses = _kl_loss_samples(p, n, t, seed, reps)
        for block, size in ((0, 2048), (1, 300)):
            counts = derive_trial_rng(seed, block).multinomial(n, p.probs, size=size)
            for row, c in enumerate(counts):
                want = kl_divergence(p, add_t_estimate(c, t))
                assert losses[2048 * block + row] == pytest.approx(want, rel=0, abs=1e-12)

    def test_sub_chunks_keep_the_stream(self):
        # k=1000 holds at most SLICE_ROWS count rows at once: a block is several slices
        assert SLICE_ROWS < 2048
        p = uniform_pmf(1000)
        one_shot = kl_losses(p, derive_trial_rng(4, 0).multinomial(300, p.probs, size=2048), 1.0)
        assert np.array_equal(_kl_loss_samples(p, 300, 1.0, 4, 2048), one_shot)

    def test_categorical_sub_chunks_keep_the_stream(self):
        # n=1000 holds at most SLICE_ROWS symbol rows at once: a block is several slices
        assert SLICE_ROWS < 2048
        p = zipf_pmf(10_000)
        draws = np.sort(derive_trial_rng(4, 0).choice(10_000, size=(2048, 1000), p=p.probs), axis=1)
        assert np.array_equal(_kl_loss_samples(p, 1000, 1.0, 4, 2048), kl_losses_from_sorted_draws(p, draws, 1.0))

    @pytest.mark.parametrize("pmf,n", [
        pytest.param(zipf_pmf(10_000), 1000, id="zipf-10000-1000"),
        pytest.param(uniform_pmf(1000), 250, id="uniform-1000-250"),
        # zero-mass symbols are flat segments of the cdf, which no uniform may land in
        pytest.param(two_point_pmf(400, 1.0), 100, id="twopoint-400-1"),
        pytest.param(two_point_pmf(400, 0.0), 100, id="twopoint-400-0"),
        # every cdf entry is a grid point j/1024, so the side="right" ties are drawn
        pytest.param(uniform_pmf(1024), 256, id="uniform-1024-256"),
        # a guide table of grid = 2^17 buckets
        pytest.param(zipf_pmf(100_000), 1000, id="zipf-100000-1000"),
    ])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_categorical_rows_are_sorted_choice_rows(self, pmf, n, t):
        # 300 rows of n=1000 span several slices of SLICE_ROWS rows
        k, seed, rows = len(pmf), 5, 300
        assert SLICE_ROWS < rows
        draws = np.sort(derive_trial_rng(seed, 0).choice(k, size=(rows, n), p=pmf.probs), axis=1)
        assert np.array_equal(_kl_loss_samples(pmf, n, t, seed, rows), kl_losses_from_sorted_draws(pmf, draws, t))

    @pytest.mark.parametrize("pmf,n", [(zipf_pmf(10_000), 1000), (uniform_pmf(1000), 250)], ids=["zipf", "uniform"])
    def test_column_major_uniforms_are_another_stream(self, pmf, n):
        # negative control: the same uniforms read column by column give other rows
        seed, rows = 5, 300
        cdf = pmf.probs.cumsum()
        cdf /= cdf[-1]
        draws = np.sort(cdf.searchsorted(derive_trial_rng(seed, 0).random((n, rows)).T, side="right"), axis=1)
        assert not np.any(_kl_loss_samples(pmf, n, 1.0, seed, rows) == kl_losses_from_sorted_draws(pmf, draws, 1.0))

    @pytest.mark.parametrize("short,long,k,n", [
        *[pytest.param(short, long, 5, 40, id=f"{short}-{long}")
          for short, long in ((1, 2048), (2047, 2049), (3000, 4500))],
        *[pytest.param(short, long, 200, 50, id=f"categorical-{short}-{long}")
          for short, long in ((1, 2048), (2047, 2049))],
    ])
    def test_fewer_reps_give_a_prefix(self, short, long, k, n):
        p = uniform_pmf(k)
        head = _kl_loss_samples(p, n, 1.0, 9, short)
        assert np.array_equal(head, _kl_loss_samples(p, n, 1.0, 9, long)[:short])

    def test_switch_to_symbols_at_a_quarter_of_k(self):
        # n = k/4 draws n symbols a row; n = k/4 + 1 draws Mult(n, p) counts
        p, t, seed, reps = zipf_pmf(64), 0.5, 13, 100
        draws = np.sort(derive_trial_rng(seed, 0).choice(64, size=(reps, 16), p=p.probs), axis=1)
        assert np.array_equal(_kl_loss_samples(p, 16, t, seed, reps), kl_losses_from_sorted_draws(p, draws, t))
        counts = derive_trial_rng(seed, 0).multinomial(17, p.probs, size=reps)
        assert np.array_equal(_kl_loss_samples(p, 17, t, seed, reps), kl_losses(p, counts, t))


def _cdf(probs) -> np.ndarray:
    """The engine's normalised cumulative pmf."""
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def _one_bucket_probs(k: int) -> np.ndarray:
    """Half the mass on symbol 0 and on symbol k-1, 1e-12 on each other symbol:
    cdf entries 0..k-2 are k-1 distinct values inside the guide bucket at 1/2."""
    probs = np.full(k, 1e-12)
    probs[0] = 0.5
    probs[-1] = 1.0 - probs[:-1].sum()
    return probs


_LOOKUP_PMFS = {
    "zipf-1000": zipf_pmf(1000).probs,
    "uniform-1000": uniform_pmf(1000).probs,
    "uniform-1024": uniform_pmf(1024).probs,
    "twopoint-400-0.99": two_point_pmf(400, 0.99).probs,
    # zero-mass symbols are flat cdf segments: at the start, inside, and up to the end
    "zero-runs": np.array([0, 0, 1, 0, 0, 2, 3, 0, 1, 0, 0]) / 7,
    "twopoint-400-1": two_point_pmf(400, 1.0).probs,
    "one-bucket-5000": _one_bucket_probs(5000),
}


def _counting_view(cdf):
    """A view of ``cdf`` that counts its gathers (integer-array indexing), its
    searchsorted calls and the uniforms sent to them; and the counts."""
    calls = {"gathers": 0, "searchsorted": 0, "searched": 0}

    class CountingCdf(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, np.ndarray) and key.dtype.kind == "i":
                calls["gathers"] += 1
            return super().__getitem__(key)

        def searchsorted(self, v, *args, **kwargs):
            calls["searchsorted"] += 1
            calls["searched"] += np.size(v)
            return super().searchsorted(v, *args, **kwargs)

    return cdf.view(CountingCdf), calls


class TestGuideTableLookup:
    def test_one_bucket_pmf_puts_k_minus_1_entries_in_one_bucket(self):
        cdf = _cdf(_one_bucket_probs(5000))
        grid = _guide_grid(5000)
        assert np.unique(cdf[:-1]).size == 4999 and np.unique(np.floor(cdf[:-1] * grid)).size == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 1000, 1024, 1025, 10_000])
    def test_grid_is_the_power_of_two_in_2k_to_4k(self, k):
        grid = _guide_grid(k)
        assert grid & (grid - 1) == 0 and 2 * k <= grid < 4 * k

    @pytest.mark.parametrize("probs", _LOOKUP_PMFS.values(), ids=_LOOKUP_PMFS.keys())
    def test_is_searchsorted_right(self, probs):
        cdf = _cdf(probs)
        grid = _guide_grid(cdf.size)
        entries, points = cdf[cdf < 1.0], np.arange(grid) / grid
        u = np.concatenate([
            np.random.default_rng(0).random(20_000),
            entries, np.nextafter(entries, 0.0), np.nextafter(entries, 1.0),
            points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        rows = np.sort(np.random.default_rng(1).random((40, 300)), axis=1)  # the engine's 2-D sorted rows
        lookup = _guide_table_lookup(cdf)
        assert np.array_equal(lookup(u), cdf.searchsorted(u, side="right"))
        assert np.array_equal(lookup(rows), cdf.searchsorted(rows, side="right"))

    def test_cdf_entries_on_the_edges_of_any_grid(self):
        # cdf entries j/m, for m from k up to twice the shipped grid: a grid of m
        # buckets, with m not a power of two, rounds u * m or cdf * m across an edge
        # for most m, and the entries sit on the shipped grid's edges where m divides it
        k = 1000
        for m in range(k, 2 * _guide_grid(k)):
            cdf = np.append(np.arange(1, k) / m, 1.0)
            u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0)])
            assert np.array_equal(_guide_table_lookup(cdf)(u), cdf.searchsorted(u, side="right")), m

    def test_passes_are_bounded(self):
        # uniforms in the crowded bucket sit up to 4998 entries above the guide's
        # bound: three gathers of cdf entries and one searchsorted, not a walk
        cdf = _cdf(_one_bucket_probs(5000))
        counting, calls = _counting_view(cdf)
        u = np.concatenate([0.5 + np.random.default_rng(2).random(5000) / _guide_grid(5000),
                            np.random.default_rng(3).random(5000)])
        assert np.array_equal(_guide_table_lookup(counting)(u), cdf.searchsorted(u, side="right"))
        assert calls["gathers"] <= 3 and calls["searchsorted"] <= 1

    def test_few_draws_reach_searchsorted(self):
        # zipf(10^4): a grid of 2k to 4k buckets leaves 2,174 of 10^6 draws to
        # searchsorted after its two passes; one of k to 2k buckets left 30,080
        cdf = _cdf(zipf_pmf(10_000).probs)
        counting, calls = _counting_view(cdf)
        u = np.random.default_rng(7).random(1_000_000)
        assert np.array_equal(_guide_table_lookup(counting)(u), cdf.searchsorted(u, side="right"))
        assert calls["searched"] <= 0.005 * u.size


ZIPF_10K = zipf_pmf(10_000)


def _sorted_choice_losses(pmf, n, seed, sizes):
    """The add-one losses of rows of n symbols, Generator.choice's rows sorted: ``sizes[b]``
    rows drawn in one call on stream (seed, b) for each block b."""
    return np.concatenate([kl_losses_from_sorted_draws(pmf, np.sort(derive_trial_rng(seed, b).choice(
        len(pmf), size=(size, n), p=pmf.probs), axis=1), 1.0) for b, size in enumerate(sizes)])


class _RestartingStream:
    """Stands in for derive_trial_rng(seed, u): every draw method it hands out
    is that of a fresh derive_trial_rng(seed, u), so each draw restarts the
    stream instead of continuing it."""

    def __init__(self, seed, u):
        self.seed, self.u = seed, u

    def __getattr__(self, name):
        return getattr(derive_trial_rng(self.seed, self.u), name)


class _RecordedThread:
    """Stands in for threading.Thread: records its creation and starts nothing,
    so the calling thread runs every unit."""

    made = []

    def __init__(self, target):
        self.made.append(self)

    def start(self):
        pass

    def join(self):
        pass


@pytest.fixture
def recorded_threads(monkeypatch):
    monkeypatch.setattr(harness.threading, "Thread", _RecordedThread)
    _RecordedThread.made = []
    return _RecordedThread.made


class TestBlockPool:
    """The engine's blocks and the streamed claims' chunks are shared among
    worker threads, each drawn in consecutive slices on its own stream; the
    results do not depend on how many threads."""

    def test_units_are_each_run_once_in_index_order(self, monkeypatch):
        # more workers than cores, with a short switch interval to interleave them
        monkeypatch.setattr(harness, "_usable_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seen = []
            got = _map_streams(lambda rng, lo, hi: seen.append(lo) or lo * lo, 3, 5000, 1, 8)
        finally:
            sys.setswitchinterval(interval)
        assert got == [u * u for u in range(5000)]
        assert sorted(seen) == list(range(5000))

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("reps", [1, 6, 7, 8, 3 * 7 + 5])  # around units of 7 draws
    def test_unit_u_draws_its_slice_from_stream_u(self, reps, threads, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        got = _map_streams(lambda rng, lo, hi: (rng.bit_generator.state, lo, hi), 5, reps, 7, threads)
        assert got == [(derive_trial_rng(5, u).bit_generator.state, 7 * u, min(7 * u + 7, reps))
                       for u in range(-(-reps // 7))]

    @pytest.mark.parametrize("count,threads", [(1, 8), (10, 1)])
    def test_one_worker_starts_no_thread(self, count, threads, recorded_threads, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 8)
        assert _map_streams(lambda rng, lo, hi: lo, 0, count, 1, threads) == list(range(count))
        assert recorded_threads == []

    @pytest.mark.parametrize("cores,count,threads,started", [
        (3, 4900, 100_000, 2),  # capped at the usable cores
        (64, 3, 100_000, 2),  # capped at the units
        (64, 4900, 4, 3),  # the calling thread is one of the workers
    ])
    def test_worker_count_is_capped(self, cores, count, threads, started, recorded_threads, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
        assert _map_streams(lambda rng, lo, hi: lo, 0, count, 1, threads) == list(range(count))
        assert len(recorded_threads) == started

    def test_unit_error_reaches_the_caller_after_every_thread_is_joined(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        calls = []
        lock = threading.Lock()
        losses = harness.kl_losses

        def third_raises(*args):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise RuntimeError("third block")
            return losses(*args)

        monkeypatch.setattr(harness, "kl_losses", third_raises)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third block"):
            _kl_loss_samples(uniform_pmf(8), 200, 1.0, 7, 5 * 2048, threads=2)  # one kl_losses call a block
        assert threading.active_count() == before

    @pytest.mark.parametrize("pmf,n", [(uniform_pmf(8), 200), (zipf_pmf(1000), 100)], ids=["counts", "symbols"])
    def test_losses_do_not_depend_on_threads(self, pmf, n, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        reps = 3 * 2048 + 5
        assert np.array_equal(_kl_loss_samples(pmf, n, 1.0, 9, reps, threads=1),
                              _kl_loss_samples(pmf, n, 1.0, 9, reps, threads=3))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_symbol_pieces_draw_their_blocks_rows(self, threads, monkeypatch):
        # one whole block of SLICE_ROWS-row slices and a partial block of 300 rows
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        losses = _kl_loss_samples(ZIPF_10K, 1000, 1.0, 4, 2048 + 300, threads=threads)
        assert np.array_equal(losses, _sorted_choice_losses(ZIPF_10K, 1000, 4, (2048, 300)))

    # zipf, not uniform: a uniform loss depends on the counts only through their histogram, so rows tie
    @pytest.mark.parametrize("pmf,n", [(ZIPF_10K, 1000), (zipf_pmf(1000), 300)], ids=["symbols", "counts"])
    def test_restarted_slices_leave_their_blocks_rows(self, pmf, n, monkeypatch):
        # negative control: slices that each restart on a fresh derive_trial_rng(seed, u), instead
        # of continuing it, draw slice 0's rows again, so only the first SLICE_ROWS losses are the block's
        if 4 * n <= len(pmf):
            want = _sorted_choice_losses(pmf, n, 4, (600,))
        else:
            want = kl_losses(pmf, derive_trial_rng(4, 0).multinomial(n, pmf.probs, size=600), 1.0)
        monkeypatch.setattr(harness, "derive_trial_rng", _RestartingStream)
        losses = _kl_loss_samples(pmf, n, 1.0, 4, 600)
        assert np.array_equal(losses[:SLICE_ROWS], want[:SLICE_ROWS])
        assert not np.any(losses[SLICE_ROWS:] == want[SLICE_ROWS:])

    @pytest.mark.parametrize("pmf,n", [(uniform_pmf(8), 200), (zipf_pmf(1000), 100)], ids=["counts", "symbols"])
    @pytest.mark.parametrize("reps,threads,started", [
        (2048, 2, 0),  # one block starts no thread
        (2048, 100_000, 0),  # at any thread count
        (2049, 100_000, 1),  # two blocks start one
    ])
    def test_one_block_starts_no_thread(self, pmf, n, reps, threads, started, recorded_threads, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 8)
        _kl_loss_samples(pmf, n, 1.0, 4, reps, threads=threads)
        assert len(recorded_threads) == started

    def test_partial_block_dispatches_no_empty_piece(self, monkeypatch):
        rows = []
        kernel = harness.kl_losses_from_sorted_draws
        monkeypatch.setattr(harness, "kl_losses_from_sorted_draws",
                            lambda p, draws, t: rows.append(draws.shape[0]) or kernel(p, draws, t))
        _kl_loss_samples(ZIPF_10K, 1000, 1.0, 4, 2048 + 300)

        def slices(block_rows):
            whole, partial = divmod(block_rows, SLICE_ROWS)
            return [SLICE_ROWS] * whole + ([partial] if partial else [])

        assert rows == slices(2048) + slices(300)

    def test_piece_error_reaches_the_caller_after_every_thread_is_joined(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        calls = []
        lock = threading.Lock()
        kernel = harness.kl_losses_from_sorted_draws

        def third_raises(*args):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise RuntimeError("third slice")
            return kernel(*args)

        monkeypatch.setattr(harness, "kl_losses_from_sorted_draws", third_raises)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third slice"):
            _kl_loss_samples(ZIPF_10K, 1000, 1.0, 7, 2 * 2048, threads=2)  # two blocks: one started thread
        assert threading.active_count() == before


def _exact_mean_add_one(p: np.ndarray, n: int) -> float:
    """E[KL(p || (C+1)/(n+k))] for C ~ Mult(n, p), from the Bin(n, p_i) marginals:
    sum p_i log p_i - sum p_i E[log(C_i + 1)] + log(n + k)."""
    c = np.arange(n + 1)
    expected_log = np.concatenate([  # 512 symbols at a time: a (512, n+1) pmf table
        stats.binom.pmf(c[None, :], n, p[lo : lo + 512, None]) @ np.log1p(c) for lo in range(0, p.size, 512)
    ])
    positive = p > 0
    return math.fsum(p[positive] * np.log(p[positive])) - math.fsum(p * expected_log) + math.log(n + p.size)


def _z_from_exact(pmf, exact_mean, n=1000, reps=100_000, seed=7):
    losses = _kl_loss_samples(pmf, n, 1.0, seed, reps)
    return (float(np.mean(losses)) - exact_mean) / (float(np.std(losses, ddof=1)) / math.sqrt(reps))


_CRITERION_7_DISTS = [
    pytest.param(uniform_pmf(10), id="uniform(10)"),
    pytest.param(zipf_pmf(10, 1.0), id="zipf(10,1)"),
    pytest.param(two_point_pmf(10, 0.99), id="twopoint(10,0.99)"),
]


class TestExactMeanOracle:
    @pytest.mark.parametrize("p", _CRITERION_7_DISTS)
    def test_engine_mean_within_4_se_of_exact(self, p):
        assert abs(_z_from_exact(p, _exact_mean_add_one(p.probs, 1000))) <= 4.0

    @pytest.mark.parametrize("p", _CRITERION_7_DISTS)
    def test_perturbed_pmf_is_caught(self, p):
        # negative control: the mean loss barely moves with p while every n*p_i is
        # large, so the perturbation starves one symbol (its mass times 0.01)
        w = p.probs.copy()
        w[-1] *= 0.01
        assert abs(_z_from_exact(Pmf(w / w.sum()), _exact_mean_add_one(p.probs, 1000))) > 4.0


class TestExactMeanOracleCategorical:
    """The same oracle on the categorical path: zipf(10^4) at n=1000, so 4n <= k."""

    P = zipf_pmf(10_000)

    @pytest.fixture(scope="class")
    def exact(self):
        return _exact_mean_add_one(self.P.probs, 1000)

    def test_engine_mean_within_4_se_of_exact(self, exact):
        assert abs(_z_from_exact(self.P, exact, reps=4096)) <= 4.0

    def test_perturbed_pmf_is_caught(self, exact):
        # negative control: the head symbol loses a tenth of its mass (about 35 SE)
        w = self.P.probs.copy()
        w[0] *= 0.9
        assert abs(_z_from_exact(Pmf(w / w.sum()), exact, reps=4096)) > 4.0


def _greedy_merge(observed, expected, least=5.0):
    """(observed, expected) per bin after merging adjacent bins left to right:
    a bin is closed once it expects >= least, and a remainder that expects less
    joins the last closed bin."""
    bins = [[0.0, 0.0]]
    for o, e in zip(observed, expected):
        if bins[-1][1] >= least:
            bins.append([0.0, 0.0])
        bins[-1][0] += o
        bins[-1][1] += e
    if len(bins) > 1 and bins[-1][1] < least:
        o, e = bins.pop()
        bins[-1][0] += o
        bins[-1][1] += e
    return np.array(bins).T


class TestChiSquareGof:
    def test_merges_sparse_tails(self):
        draws = derive_trial_rng(52, 0).poisson(4.0, size=10**5)
        hi = int(draws.max())
        probs = stats.poisson.pmf(np.arange(hi + 1), 4.0)
        probs[-1] += stats.poisson.sf(hi, 4.0)
        statistic, p_value = chi_square_gof(np.bincount(draws), probs)
        obs, exp = _greedy_merge(np.bincount(draws), probs * draws.size)
        assert exp.size < hi + 1  # the sparse tail bins were merged
        want = float(np.sum((obs - exp) ** 2 / exp))
        assert statistic == pytest.approx(want, rel=1e-12)
        assert p_value == pytest.approx(stats.chi2.sf(want, exp.size - 1), rel=1e-12)
        assert p_value >= 1e-3

    def test_detects_wrong_distribution(self):
        draws = derive_trial_rng(51, 0).poisson(4.0, size=10**5)
        hi = int(draws.max())
        probs = stats.poisson.pmf(np.arange(hi + 1), 5.0)
        probs[-1] += stats.poisson.sf(hi, 5.0)
        _, p_value = chi_square_gof(np.bincount(draws), probs)
        assert p_value < 1e-6

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            chi_square_gof(np.bincount(np.full(1000, 7)), np.full(9, 1 / 9))

    def test_degenerate_single_bin(self):
        draws = np.full(1000, 7)
        probs = np.zeros(8)
        probs[7] = 1.0
        assert chi_square_gof(np.bincount(draws), probs) == (0.0, 1.0)


def _exact_var_k2(n: int) -> float:
    """Exact variance of the add-one KL loss on uniform(2): enumerate C1 ~ Bin(n, 1/2)."""
    c = np.arange(n + 1)
    w = stats.binom.pmf(c, n, 0.5)
    loss = -0.5 * (np.log1p(c) + np.log1p(n - c)) + math.log1p(n / 2)
    return float(w @ (loss - w @ loss) ** 2)


def _ci(result):
    return result.values["ci_low"], result.values["ci_high"]


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
        assert r.values["ratio"] > 5
        assert r.values["ci_low"] <= r.values["empirical_var"] <= r.values["ci_high"]

    def test_bootstrap_deterministic(self):
        a = verify_variance_lb(2, 64, 2000, seed=7)
        b = verify_variance_lb(2, 64, 2000, seed=7)
        assert _ci(a) == _ci(b)

    @pytest.mark.filterwarnings("error")
    def test_interval_at_tiny_reps(self):
        with pytest.raises(ValueError, match="reps >= 2"):  # one loss has no sample variance
            verify_variance_lb(2, 20, 1, seed=3)
        for reps in (2, 3):
            low, high = _ci(verify_variance_lb(2, 20, reps, seed=3))
            assert math.isfinite(high) and 0.0 <= low <= high

    def test_interval_covers_exact_variance(self):
        exact = _exact_var_k2(20)
        reports = (verify_variance_lb(2, 20, 8192, seed) for seed in range(400))
        hits = sum(r.values["ci_low"] <= exact <= r.values["ci_high"] for r in reports)
        assert hits / 400 >= 0.90

    @pytest.mark.parametrize("k,n", [(2, 20), (10, 100), (64, 10240)])
    def test_interval_agrees_with_percentile_bootstrap(self, k, n):
        r = verify_variance_lb(k, n, 8192, seed=3)
        # resampling noise moves the bootstrap's ends by ~2% of the width; this
        # fixed stream gives the ci95 that `check` printed while it bootstrapped
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3, spawn_key=(1, 0))))
        boot = _percentile_bootstrap(_kl_loss_samples(uniform_pmf(k), n, 1.0, 3, 8192), rng)
        low, high = _ci(r)
        width = high - low
        assert abs(boot[0] - low) <= 0.05 * width
        assert abs(boot[1] - high) <= 0.05 * width


# Every entry point that draws reps trials, with its arguments before reps.
_DRAWING_CHECKS = [
    (verify_variance_lb, (2, 20)),
    (poisson_tail_checks, (1.0, (0.1,))),
    (coupling_checks, (100, 0.5)),
    (run_kl_trials, (uniform_pmf(2), 20)),
    (expected_kl_check, (uniform_pmf(2), 20)),
]


def _no_draw(*_):
    raise AssertionError("drew trials before checking reps")


@pytest.mark.parametrize("check,args", _DRAWING_CHECKS)
def test_reps_above_storage_cap_rejected_before_drawing(check, args, monkeypatch):
    monkeypatch.setattr("klconc.harness.derive_trial_rng", _no_draw)
    with pytest.raises(ValueError, match="capped"):
        check(*args, MAX_STORED_TRIALS + 1, seed=0)


@pytest.mark.parametrize("check,args", sorted(_DRAWING_CHECKS, key=lambda c: c[0] is coupling_checks))
def test_zero_reps_rejected_before_drawing(check, args, monkeypatch):
    # the run rule comes first, so the coupling too names its reps rule before its GOF regime's
    # (the coupling's case runs last, so the other cases keep their ids)
    monkeypatch.setattr("klconc.harness.derive_trial_rng", _no_draw)
    with pytest.raises(ValueError, match="repetition count must be an integer >= 1"):
        check(*args, 0, seed=0)


class TestTailBound:
    def test_small_run_passes(self):
        r = verify_kl_tail_bound(10, 1000, 2000, 0.1, seed=7)
        assert r.passed
        assert r.values["exceed_frac"] == 0.0

    def test_median_center_also_passes(self):
        # strictly weaker exceedance check than the mean-centered one
        losses = _kl_loss_samples(uniform_pmf(10), 1000, 1.0, 7, 2000)
        r = verify_kl_tail_bound(10, 1000, 2000, 0.1, seed=7)
        median = float(np.median(losses))
        frac = float(np.mean(losses > median + r.values["t_delta"]))
        assert frac <= r.values["allowed"]

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
        r = poisson_tail_checks(100.0, (0.1,), 10**5, seed=3)[0]
        assert r.passed
        assert r.values["fail_frac"] <= 1e-4

    def test_tiny_rate(self):
        r = poisson_tail_checks(1.0, (0.5,), 10**5, seed=3)[0]
        assert r.passed

    def test_several_deltas_on_one_sample(self):
        # the grouped check reports exactly what one call per delta reports
        deltas = (0.05, 0.1, 0.5, 0.9)
        grouped = poisson_tail_checks(3.0, deltas, 20_000, seed=5)
        assert grouped == [poisson_tail_checks(3.0, (d,), 20_000, seed=5)[0] for d in deltas]
        assert [r.values["delta"] for r in grouped] == list(deltas)


class TestCouplingDiagnostics:
    def test_certain_success_gap(self):
        # prob=1 collapses the gap to (n - N)/(N + 1)
        r = coupling_checks(100, 1.0, 10**5, seed=9)[0]
        assert r.passed
        assert 0 < r.values["est_gap"] < 0.1

    def test_moderate_configuration(self):
        gap, gof = coupling_checks(100, 0.5, 10**5, seed=9)
        assert gap.passed and gof.passed
        assert gap.values["ci_low"] <= gap.values["est_gap"] <= gap.values["ci_high"]

    def test_marginal_gof_requires_bulk(self):
        with pytest.raises(ValueError, match="marginal GOF needs reps >= 1e5"):
            coupling_checks(20, 0.4, 10**4, seed=1)

    def test_marginal_gof_caps_n_before_drawing(self, monkeypatch):
        # the GOF windows grow like sqrt(n); the regime bounds them before any draw
        harness.check_gof_regime(harness.MAX_GOF_N, 10**5)
        monkeypatch.setattr(harness, "derive_trial_rng", _no_draw)
        with pytest.raises(ValueError, match=f"marginal GOF needs n <= {harness.MAX_GOF_N} "):
            coupling_checks(harness.MAX_GOF_N + 1, 0.5, 10**5, seed=1)

    def test_marginal_gof_passes(self):
        r = coupling_checks(20, 0.4, 10**5, seed=9)[1]
        assert r.passed

    def test_marginal_gof_certain_success(self):
        # M is constant n; M' reduces to the latent Poisson itself
        r = coupling_checks(5, 1.0, 10**5, seed=9)[1]
        assert r.passed
        assert r.values["chi2_m"] == 0.0

    def test_marginal_gof_small_n_high_prob(self):
        r = coupling_checks(5, 0.9, 10**5, seed=9)[1]
        assert r.passed

    def test_marginal_gof_catches_shifted_poisson_rate(self, monkeypatch):
        # negative control: M' drawn at rate n*p*1.003 instead of n*p
        def shifted(rng, n, prob, size):
            for m, _, *rest in coupled_pairs(rng, n, prob, size):
                yield (m, rng.poisson(n * prob * 1.003, size=m.size), *rest)

        monkeypatch.setattr(harness, "coupled_pairs", shifted)
        r = coupling_checks(20, 0.4, 10**6, seed=7)[1]
        assert not r.passed
        assert r.values["p_m_prime"] < harness.GOF_P_THRESHOLD <= r.values["p_m"]

    def test_marginal_gof_memory_at_the_cap(self):
        # the pmfs and counts span the drawn window, not all n + 1 values
        tracemalloc.start()
        try:
            coupling_checks(harness.MAX_GOF_N, 0.5, 10**5, 3, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


def _window_gof(draws, window):
    """GOF of all the draws at once on the window that window(min, max) gives,
    with the masses outside it folded into the end entries."""
    lo, probs, head, tail = window(int(draws.min()), int(draws.max()))
    probs[0] += head
    probs[-1] += tail
    return chi_square_gof(np.bincount(draws - lo, minlength=probs.size), probs)


class TestStreamedClaims:
    """Chunk c of the streamed claims' draws comes from stream (seed, c), so
    r draws are the first r draws of any longer run."""

    @pytest.mark.parametrize("size", CHUNK_EDGE_SIZES)
    @pytest.mark.parametrize("lam", [1.0, 10.0, 10_000.0])
    @pytest.mark.parametrize("radius", [poisson_tail_radius, lambda draws, delta: delta * np.sqrt(draws + 1.0)],
                             ids=["bound", "narrow"])
    def test_poisson_tail_chunk_c_is_stream_c(self, lam, size, radius, monkeypatch):
        # the narrow radius fails often, so the counts are not all zero
        monkeypatch.setattr(harness, "poisson_tail_radius", radius)
        deltas = (0.05, 0.5, 0.99)
        draws = np.concatenate([rng.poisson(lam, size=s) for rng, s in _chunk_streams(4, size)])
        want = [float(np.mean(np.abs(draws + 1 - lam) > radius(draws, d))) for d in deltas]
        got = poisson_tail_checks(lam, deltas, size, seed=4)
        assert [r.values["fail_frac"] for r in got] == want

    @pytest.mark.parametrize("size", CHUNK_EDGE_SIZES)
    @pytest.mark.parametrize("n,prob", [(20, 0.4), (100, 0.5), (10_000, 0.01), (7, 1.0)])
    def test_coupling_chunk_c_is_stream_c(self, n, prob, size, monkeypatch):
        monkeypatch.setattr(harness, "check_gof_regime", lambda n, reps: None)  # let sizes below 1e5 in
        m, m_prime = _joined(_unit_pairs(rng, n, prob, s) for rng, s in _chunk_streams(6, size))

        gap, gof = (r.values for r in coupling_checks(n, prob, size, seed=6))
        mean, variance = _moments_blockwise((m - m_prime) / (m_prime + 1.0))
        se = math.sqrt(variance / size)
        np.testing.assert_equal([gap["est_gap"], gap["ci_low"], gap["ci_high"]],
                                [mean, mean - _Z99 * se, mean + _Z99 * se])

        chi2_m, p_m = _window_gof(m, lambda lo, hi: _binomial_window(n, prob, lo, hi))
        chi2_mp, p_mp = _window_gof(m_prime, lambda lo, hi: _poisson_window(n * prob, lo, hi))
        assert gof == {"chi2_m": chi2_m, "p_m": p_m, "chi2_m_prime": chi2_mp, "p_m_prime": p_mp}

    @pytest.mark.parametrize("size", CHUNK_EDGE_SIZES)
    def test_values_do_not_depend_on_threads(self, size, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        monkeypatch.setattr(harness, "check_gof_regime", lambda n, reps: None)

        def values(threads):
            return ([r.values for r in poisson_tail_checks(10.0, (0.05, 0.5), size, seed=4, threads=threads)],
                    [r.values for r in coupling_checks(20, 0.4, size, seed=6, threads=threads)])

        np.testing.assert_equal(values(3), values(1))  # nan == nan: one draw has no standard error

    @pytest.mark.parametrize("reps", CHUNK_EDGE_SIZES[:-1])
    def test_poisson_tail_reps_are_a_prefix(self, reps, monkeypatch):
        def drawn(r):
            seen = []

            def radius(draws, delta):
                seen.append(draws)
                return poisson_tail_radius(draws, delta)

            monkeypatch.setattr(harness, "poisson_tail_radius", radius)
            poisson_tail_checks(10.0, (0.1,), r, seed=8)
            return np.concatenate(seen)

        np.testing.assert_array_equal(drawn(reps), drawn(CHUNK_EDGE_SIZES[-1])[:reps])

    @pytest.mark.parametrize("reps", CHUNK_EDGE_SIZES[:-1])
    def test_coupling_reps_are_a_prefix(self, reps, monkeypatch):
        monkeypatch.setattr(harness, "check_gof_regime", lambda n, reps: None)

        def drawn(r):
            seen = []

            def pairs(*args):
                for pair_slice in coupled_pairs(*args):
                    seen.append(pair_slice)
                    yield pair_slice

            monkeypatch.setattr(harness, "coupled_pairs", pairs)
            coupling_checks(20, 0.4, r, seed=8)
            return _joined(seen)

        for short, longer in zip(drawn(reps), drawn(CHUNK_EDGE_SIZES[-1]), strict=True):
            np.testing.assert_array_equal(short, longer[:reps])


# Claim sizes around the slices of at most _CHUNK_CELLS draws that a chunk is drawn in.
SLICE_EDGE_REPS = [_CHUNK_CELLS - 1, _CHUNK_CELLS + 1, _DRAW_CHUNK + 5, 3 * _DRAW_CHUNK + 5]
_TAIL_DELTAS = (0.05, 0.5, 0.99)


def _narrow_radius(draws, delta):
    # fails often, so the Poisson-tail counts are not all zero
    return delta * np.sqrt(draws + 1.0)


def _claim_values(reps, threads):
    """The values of the Poisson-tail results at lam=10 on seed 4 and of the
    coupling results at n=20, prob=0.4 on seed 6."""
    return ([r.values for r in poisson_tail_checks(10.0, _TAIL_DELTAS, reps, seed=4, threads=threads)],
            [r.values for r in coupling_checks(20, 0.4, reps, seed=6, threads=threads)])


def _one_call_values(reps):
    """``_claim_values`` computed from draws that take each chunk in one call."""
    draws = np.concatenate([rng.poisson(10.0, size=s) for rng, s in _chunk_streams(4, reps)])
    deviation = np.abs(draws + 1.0 - 10.0)
    tail = [{"delta": delta, "fail_frac": int(np.count_nonzero(deviation > _narrow_radius(draws, delta))) / reps,
             "allowed": harness._exceedance_allowance(delta, reps)} for delta in _TAIL_DELTAS]

    m, m_prime = _joined(_unit_pairs(rng, 20, 0.4, s) for rng, s in _chunk_streams(6, reps))
    mean, variance = _moments_blockwise((m - m_prime) / (m_prime + 1.0))
    half = _Z99 * math.sqrt(variance / reps)
    gap = {"est_gap": mean, "ci_low": mean - half, "ci_high": mean + half, "bound": expectation_gap_bound(2.5, 20)}
    chi2_m, p_m = _window_gof(m, lambda lo, hi: _binomial_window(20, 0.4, lo, hi))
    chi2_mp, p_mp = _window_gof(m_prime, lambda lo, hi: _poisson_window(8.0, lo, hi))
    return tail, [gap, {"chi2_m": chi2_m, "p_m": p_m, "chi2_m_prime": chi2_mp, "p_m_prime": p_mp}]


class _Rederiving:
    """Stands in for a chunk's generator: every draw call starts again on the
    chunk's stream, as a slice that re-derived its chunk's stream would."""

    def __init__(self, seed, unit):
        self.seed, self.unit = seed, unit

    def __getattr__(self, name):
        return getattr(derive_trial_rng(self.seed, self.unit), name)


class TestClaimSlices:
    """A claim chunk is drawn in consecutive slices of its streams, which give
    the draws of one call a chunk."""

    @pytest.fixture(autouse=True)
    def _narrow(self, monkeypatch):
        monkeypatch.setattr(harness, "poisson_tail_radius", _narrow_radius)
        monkeypatch.setattr(harness, "check_gof_regime", lambda n, reps: None)  # let sizes below 1e5 in
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("reps", SLICE_EDGE_REPS)
    def test_slices_give_one_call_a_chunk(self, reps, threads):
        np.testing.assert_equal(_claim_values(reps, threads), _one_call_values(reps))

    @pytest.mark.parametrize("reps", SLICE_EDGE_REPS[1:])  # a chunk of more than one slice
    def test_slices_that_rederive_their_stream_fail(self, reps, monkeypatch):
        # negative control: each slice's Poisson draws start again on the chunk's stream
        monkeypatch.setattr(harness, "derive_trial_rng", _Rederiving)
        got, want = _claim_values(reps, 1), _one_call_values(reps)
        for claim in range(2):
            with pytest.raises(AssertionError):
                np.testing.assert_equal(got[claim], want[claim])


ZIPF_2K, UNIFORM_1K = zipf_pmf(2000), uniform_pmf(1000)
# One-thread runs of each draw path, and the trials whose losses it stores.
_DRAW_PATHS = {
    "coupling": (lambda: coupling_checks(100, 0.5, 2 * _DRAW_CHUNK, 3, threads=1), 0),
    "poisson-tail": (lambda: poisson_tail_checks(100.0, (0.05, 0.1, 0.5), 2 * _DRAW_CHUNK, 3, threads=1), 0),
    "symbols": (lambda: _kl_loss_samples(ZIPF_2K, 400, 1.0, 4, 2048, threads=1), 2048),
    "counts": (lambda: _kl_loss_samples(UNIFORM_1K, 300, 1.0, 4, 2048, threads=1), 2048),
}


@pytest.mark.parametrize("cells", [2**12, _CHUNK_CELLS])
@pytest.mark.parametrize("path", list(_DRAW_PATHS))
def test_draw_path_peak_follows_the_chunk_cells(path, cells, monkeypatch):
    # the arrays a worker holds at once are at most _CHUNK_CELLS values each, so its
    # peak is a fixed multiple of one such int64 array, plus the losses it stores
    monkeypatch.setattr(harness, "_CHUNK_CELLS", cells)
    run, stored = _DRAW_PATHS[path]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * cells + 8 * stored


class TestExpectedKl:
    def test_degenerate_alphabet(self):
        r = expected_kl_check(uniform_pmf(1), 50, 200, seed=1)
        assert r.passed
        assert r.values["mean_kl"] == 0.0 and r.values["ceiling"] == 0.0

    def test_uniform_comfortably_below_ceiling(self):
        r = expected_kl_check(uniform_pmf(10), 1000, 5000, seed=1)
        assert r.passed
        assert r.values["mean_kl"] < r.values["ceiling"]

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            expected_kl_check(uniform_pmf(10), 0, 10, seed=1)


_REJECTED_CLAIMS = {
    "variance-one-rep": lambda: verify_variance_lb(2, 20, 1, 7),
    "expectation-one-rep": lambda: expected_kl_check(uniform_pmf(10), 1000, 1, 7),
    "poisson-tail-no-delta": lambda: poisson_tail_checks(5.0, (), 10**6, 7),
    "poisson-tail-delta-above-1": lambda: poisson_tail_checks(5.0, (0.1, 1.5), 10**6, 7),
    "counts-fractional-n": lambda: run_kl_trials(uniform_pmf(3), 2.5, 2000, 1),
    "symbols-fractional-n": lambda: run_kl_trials(zipf_pmf(100), 2.5, 2000, 1),
    "coupling-fractional-n": lambda: coupling_checks(2.5, 0.5, 10**5, 1),
    "coupling-zero-n": lambda: coupling_checks(0, 0.5, 10**5, 1),
    "coupling-reps-str": lambda: coupling_checks(100, 0.5, "x", 1),
    **{f"counts-n-{label}": (lambda n=n: run_kl_trials(uniform_pmf(10), n, 4, 1))
       for label, n in (("2**63", 2**63), ("2**63-1", 2**63 - 1))},
    **{f"coupling-prob-{prob}": (lambda prob=prob: coupling_checks(100, prob, 10**5, 1))
       for prob in (0.0, 1.5, math.nan)},
    **{f"poisson-tail-lam-{lam:g}": (lambda lam=lam: poisson_tail_checks(lam, (0.1,), 10**5, 1))
       for lam in (-1.0, math.nan, math.inf, 1e19)},
    **{f"{path}-threads-{threads}": (lambda pmf=pmf, threads=threads: run_kl_trials(pmf, 10, 5000, 3, threads=threads))
       for path, pmf in (("counts", uniform_pmf(4)), ("symbols", zipf_pmf(100))) for threads in (0, -7, 1.5)},
    **{f"{path}-t-{t:g}": (lambda pmf=pmf, n=n, t=t: run_kl_trials(pmf, n, 5000, 1, t=t))
       for path, pmf, n in (("counts", uniform_pmf(10), 100), ("symbols", zipf_pmf(100), 10))
       for t in (-1.0, math.nan, math.inf)},
    **{f"{path}-t-1e308": (lambda pmf=pmf, n=n: run_kl_trials(pmf, n, 5000, 1, t=1e308))
       for path, pmf, n in (("counts", uniform_pmf(10), 100), ("symbols", zipf_pmf(1000), 10))},
    "sweep-threads-0": lambda: sweep_std_vs_heuristic([2], 10, 100, 3, threads=0),
    **{f"sweep-later-k-{k}": (lambda k=k: sweep_std_vs_heuristic([2, k], 10, 100, 3)) for k in (0, -3, 2.5)},
    "coupling-threads-0": lambda: coupling_checks(100, 0.5, 10**5, 1, threads=0),
    "poisson-tail-threads-0": lambda: poisson_tail_checks(5.0, (0.1,), 10**5, 1, threads=0),
    "variance-threads-0": lambda: verify_variance_lb(2, 20, 100, 7, threads=0),
    "counts-threads-True": lambda: run_kl_trials(uniform_pmf(4), 10, 5000, 3, threads=True),
    "counts-fractional-reps": lambda: run_kl_trials(uniform_pmf(3), 10, 2.5, 1),
    "symbols-fractional-reps": lambda: run_kl_trials(zipf_pmf(100), 10, 2.5, 1),
    "poisson-tail-fractional-reps": lambda: poisson_tail_checks(5.0, (0.1,), 2.5, 1),
    "variance-fractional-k": lambda: verify_variance_lb(2.5, 100, 100, 7),
    "thm-fractional-k": lambda: verify_kl_tail_bound(10.5, 1000, 100, 0.1, 7),
    # a string or a bool is no real: the real or integer rule rejects it before it reaches a closed form
    "variance-n-str": lambda: verify_variance_lb(2, "x", 100, 7),
    "thm-n-str": lambda: verify_kl_tail_bound(10, "x", 100, 0.1, 7),
    "counts-delta-str": lambda: run_kl_trials(uniform_pmf(10), 100, 100, 1, delta="x"),
    "counts-n-str-delta": lambda: run_kl_trials(uniform_pmf(10), "x", 100, 1, delta=0.1),
    "poisson-tail-lam-str": lambda: poisson_tail_checks("x", (0.1,), 10**5, 1),
    "coupling-prob-str": lambda: coupling_checks(100, "x", 10**5, 1),
    **{f"{path}-t-{t}": (lambda pmf=pmf, n=n, t=t: run_kl_trials(pmf, n, 5000, 1, t=t))
       for path, pmf, n in (("counts", uniform_pmf(10), 100), ("symbols", zipf_pmf(100), 10)) for t in (True, "x")},
    **{f"{path}-seed-{label}": (lambda claim=claim, seed=seed: claim(seed))
       for path, claim in (("counts", lambda seed: run_kl_trials(uniform_pmf(3), 10, 100, seed)),
                           ("symbols", lambda seed: run_kl_trials(zipf_pmf(100), 10, 100, seed)),
                           ("poisson-tail", lambda seed: poisson_tail_checks(5.0, (0.1,), 100, seed)),
                           ("coupling", lambda seed: coupling_checks(100, 0.5, 10**5, seed)))
       for label, seed in (("-1", -1), ("1.5", 1.5), ("2**64", 2**64))},
}


@pytest.mark.parametrize("claim", list(_REJECTED_CLAIMS.values()), ids=list(_REJECTED_CLAIMS))
def test_claim_rejects_its_arguments_before_drawing(claim, monkeypatch):
    # one trial has no sample variance; a Poisson-tail run needs deltas in (0, 1) and a rate numpy
    # can draw; a sample size is an integer >= 1 on the count path, the symbol path and the
    # coupling alike; the coupling's prob lies in (0, 1]; every drawing routine needs an integer threads >= 1;
    # the smoothing constant t is a finite real >= 0; the sweep checks every alphabet size before its first row;
    # every count, size and seed obeys the one integer rule (not a bool), checked before any stream is derived;
    # n lies in the CLI's --n range and n + k*t stays finite
    monkeypatch.setattr(harness, "derive_trial_rng", _no_draw)
    with pytest.raises(ValueError):
        claim()


@pytest.mark.parametrize("pmf,reps,seed,threads", [
    (lambda: zipf_pmf(10**6), 100, -1, 1), (lambda: zipf_pmf(10**6), 100, 2**64, 1),
    (lambda: zipf_pmf(10**6), 100, 1, 0), (lambda: uniform_pmf(10), 10**7, -1, 1)],
    ids=["symbols-seed--1", "symbols-seed-2**64", "symbols-threads-0", "counts-seed--1"])
def test_bad_run_rejected_before_any_allocation(pmf, reps, seed, threads):
    # the symbol path's guide table (zipf(10^6): 16 MiB) and the 10^7 losses (76 MiB) come after the run rule
    pmf = pmf()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            run_kl_trials(pmf, 10, reps, seed, threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestStdSweep:
    def test_degenerate_row(self):
        rows = sweep_std_vs_heuristic([1], n=100, reps=200, master_seed=1)
        assert rows[0]["sample_std"] == 0.0
        assert rows[0]["ratio"] is None

    def test_heuristic_column_monotone(self):
        rows = sweep_std_vs_heuristic([2, 4, 8], n=512, reps=50, master_seed=1)
        heur = [r["heuristic_std"] for r in rows]
        assert heur == sorted(heur)
        assert all(h > 0 for h in heur)

    def test_rerun_identical(self):
        a = sweep_std_vs_heuristic([2, 4], n=256, reps=100, master_seed=5)
        b = sweep_std_vs_heuristic([2, 4], n=256, reps=100, master_seed=5)
        assert a == b
