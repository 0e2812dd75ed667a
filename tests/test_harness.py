import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.random import PCG64, Generator
from scipy import stats

from klconc import harness
from klconc.bounds import _binomial_window, _poisson_window, poisson_tail_radius
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
    _DRAW_CHUNK,
    _Z99,
    _guide_table_lookup,
    _kl_loss_samples,
    _map_streams,
    _merged,
    _moments_blockwise,
)
from klconc.distributions import kl_divergence, kl_losses, kl_losses_from_sorted_draws

# Draw counts around the 2^16-draw chunks of the coupling and Poisson-tail claims.
CHUNK_EDGE_SIZES = [1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 3 * _DRAW_CHUNK + 5]


def _chunk_streams(seed, reps):
    """(generator, size) of each chunk of reps draws: chunk c is drawn from stream (seed, c)."""
    return [(derive_trial_rng(seed, lo // _DRAW_CHUNK), min(_DRAW_CHUNK, reps - lo))
            for lo in range(0, reps, _DRAW_CHUNK)]


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
        # k=1000 holds at most 2^18 // 1000 = 262 count rows at once: eight sub-chunks a block
        p = uniform_pmf(1000)
        one_shot = kl_losses(p, derive_trial_rng(4, 0).multinomial(300, p.probs, size=2048), 1.0)
        assert np.array_equal(_kl_loss_samples(p, 300, 1.0, 4, 2048), one_shot)

    def test_categorical_sub_chunks_keep_the_stream(self):
        # n=1000 holds at most 2^18 // 1000 = 262 symbol rows at once: eight sub-chunks a block
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
        # 300 rows of n=1000 span two sub-chunks of 262 rows
        k, seed, rows = len(pmf), 5, 300
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


class TestGuideTableLookup:
    def test_one_bucket_pmf_puts_k_minus_1_entries_in_one_bucket(self):
        cdf = _cdf(_one_bucket_probs(5000))
        grid = 1 << (5000 - 1).bit_length()
        assert np.unique(cdf[:-1]).size == 4999 and np.unique(np.floor(cdf[:-1] * grid)).size == 1

    @pytest.mark.parametrize("probs", _LOOKUP_PMFS.values(), ids=_LOOKUP_PMFS.keys())
    def test_is_searchsorted_right(self, probs):
        cdf = _cdf(probs)
        grid = 1 << (cdf.size - 1).bit_length()
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
        # cdf entries j/m: a grid of m buckets, with m not a power of two, rounds
        # u * m or cdf * m across an edge for all but ~2% of m in [k, 2k)
        k = 1000
        for m in range(k, 2 * k):
            cdf = np.append(np.arange(1, k) / m, 1.0)
            u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0)])
            assert np.array_equal(_guide_table_lookup(cdf)(u), cdf.searchsorted(u, side="right")), m

    def test_passes_are_bounded(self):
        # uniforms in the crowded bucket sit up to 4998 entries above the guide's
        # bound: three gathers of cdf entries and one searchsorted, not a walk
        calls = {"gathers": 0, "searchsorted": 0}

        class CountingCdf(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray) and key.dtype.kind == "i":
                    calls["gathers"] += 1
                return super().__getitem__(key)

            def searchsorted(self, *args, **kwargs):
                calls["searchsorted"] += 1
                return super().searchsorted(*args, **kwargs)

        cdf = _cdf(_one_bucket_probs(5000))
        grid = 1 << (5000 - 1).bit_length()
        u = np.concatenate([0.5 + np.random.default_rng(2).random(5000) / grid, np.random.default_rng(3).random(5000)])
        assert np.array_equal(_guide_table_lookup(cdf.view(CountingCdf))(u), cdf.searchsorted(u, side="right"))
        assert calls["gathers"] <= 3 and calls["searchsorted"] <= 1


ZIPF_10K = zipf_pmf(10_000)


class _NoAdvance(PCG64):
    """PCG64 whose advance is a no-op."""

    def advance(self, delta):
        return self


def _sorted_choice_losses(pmf, n, seed, sizes):
    """The add-one losses of rows of n symbols, Generator.choice's rows sorted: ``sizes[b]``
    rows drawn in one call on stream (seed, b) for each block b."""
    return np.concatenate([kl_losses_from_sorted_draws(pmf, np.sort(derive_trial_rng(seed, b).choice(
        len(pmf), size=(size, n), p=pmf.probs), axis=1), 1.0) for b, size in enumerate(sizes)])


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
    """The engine's count blocks and symbol-block pieces, and the streamed
    claims' chunks, are shared among worker threads; the results do not
    depend on how many."""

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
    @pytest.mark.parametrize("reps", [1, 6, 7, 8, 3 * 7 + 5])  # around units of 7 items
    def test_pieces_start_on_their_units_advanced_stream(self, reps, threads, monkeypatch):
        # items of _CHUNK_CELLS // 3 draws each: a unit of 7 items is cut into pieces of 3, 3 and 1
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        draws = harness._CHUNK_CELLS // 3
        got = _map_streams(lambda rng, lo, hi: (rng.bit_generator.state, lo, hi), 5, reps, 7, threads, draws)
        want = []
        for start in range(0, reps, 7):
            for lo in range(start, min(start + 7, reps), 3):
                rng = derive_trial_rng(5, start // 7)
                rng.bit_generator.advance((lo - start) * draws)
                want.append((rng.bit_generator.state, lo, min(lo + 3, start + 7, reps)))
        assert got == want

    @pytest.mark.parametrize("threads", [1, 3])
    def test_symbol_pieces_draw_their_blocks_rows(self, threads, monkeypatch):
        # one whole block of eight 262-row pieces and a partial block of two
        monkeypatch.setattr(harness, "_usable_cores", lambda: 3)
        losses = _kl_loss_samples(ZIPF_10K, 1000, 1.0, 4, 2048 + 300, threads=threads)
        assert np.array_equal(losses, _sorted_choice_losses(ZIPF_10K, 1000, 4, (2048, 300)))

    def test_unadvanced_pieces_leave_their_blocks_rows(self, monkeypatch):
        # negative control: pieces that start on their block's stream without the advance
        # draw piece 0's rows again, so only the first 262 losses are the block's
        monkeypatch.setattr(harness, "derive_trial_rng", lambda seed, u: Generator(_NoAdvance(
            derive_trial_rng(seed, u).bit_generator.seed_seq)))
        losses = _kl_loss_samples(ZIPF_10K, 1000, 1.0, 4, 600)
        want = _sorted_choice_losses(ZIPF_10K, 1000, 4, (600,))
        assert np.array_equal(losses[:262], want[:262])
        assert not np.any(losses[262:] == want[262:])

    @pytest.mark.parametrize("cores,reps,threads,started", [
        (3, 2048, 100_000, 2),  # eight pieces, capped at the usable cores
        (8, 2048, 4, 3),  # capped at the threads
        (8, 600, 100_000, 2),  # capped at the pieces: 262 + 262 + 76 rows
        (8, 262, 100_000, 0),  # one piece starts no thread
    ])
    def test_one_blocks_pieces_are_shared(self, cores, reps, threads, started, recorded_threads, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: cores)
        _kl_loss_samples(ZIPF_10K, 1000, 1.0, 4, reps, threads=threads)
        assert len(recorded_threads) == started

    def test_partial_block_dispatches_no_empty_piece(self, monkeypatch):
        rows = []
        kernel = harness.kl_losses_from_sorted_draws
        monkeypatch.setattr(harness, "kl_losses_from_sorted_draws",
                            lambda p, draws, t: rows.append(draws.shape[0]) or kernel(p, draws, t))
        _kl_loss_samples(ZIPF_10K, 1000, 1.0, 4, 2048 + 300)
        assert rows == [262] * 7 + [2048 - 7 * 262, 262, 300 - 262]

    def test_piece_error_reaches_the_caller_after_every_thread_is_joined(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cores", lambda: 2)
        calls = []
        lock = threading.Lock()
        kernel = harness.kl_losses_from_sorted_draws

        def third_raises(*args):
            with lock:
                calls.append(None)
                if len(calls) == 3:
                    raise RuntimeError("third piece")
            return kernel(*args)

        monkeypatch.setattr(harness, "kl_losses_from_sorted_draws", third_raises)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="third piece"):
            _kl_loss_samples(ZIPF_10K, 1000, 1.0, 7, 2048, threads=2)  # one block of eight pieces
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


@pytest.mark.parametrize("check,args", [c for c in _DRAWING_CHECKS if c[0] is not coupling_checks])
def test_zero_reps_rejected_before_drawing(check, args, monkeypatch):
    # coupling_checks is left out: it needs reps >= 1e5 before anything else
    monkeypatch.setattr("klconc.harness.derive_trial_rng", _no_draw)
    with pytest.raises(ValueError, match=">= 1"):
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
            m, _, *rest = coupled_pairs(rng, n, prob, size)
            return (m, rng.poisson(n * prob * 1.003, size=size), *rest)

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
        chunks = [coupled_pairs(rng, n, prob, s) for rng, s in _chunk_streams(6, size)]
        m, m_prime = (np.concatenate(parts) for parts in list(zip(*chunks))[:2])

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
                seen.append(coupled_pairs(*args))
                return seen[-1]

            monkeypatch.setattr(harness, "coupled_pairs", pairs)
            coupling_checks(20, 0.4, r, seed=8)
            return [np.concatenate(parts) for parts in zip(*seen)]

        for short, longer in zip(drawn(reps), drawn(CHUNK_EDGE_SIZES[-1]), strict=True):
            np.testing.assert_array_equal(short, longer[:reps])


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
    **{f"coupling-prob-{prob}": (lambda prob=prob: coupling_checks(100, prob, 10**5, 1))
       for prob in (0.0, 1.5, math.nan)},
    **{f"poisson-tail-lam-{lam:g}": (lambda lam=lam: poisson_tail_checks(lam, (0.1,), 10**5, 1))
       for lam in (-1.0, math.nan, math.inf, 1e19)},
    **{f"{path}-threads-{threads}": (lambda pmf=pmf, threads=threads: run_kl_trials(pmf, 10, 5000, 3, threads=threads))
       for path, pmf in (("counts", uniform_pmf(4)), ("symbols", zipf_pmf(100))) for threads in (0, -7, 1.5)},
    "sweep-threads-0": lambda: sweep_std_vs_heuristic([2], 10, 100, 3, threads=0),
    "coupling-threads-0": lambda: coupling_checks(100, 0.5, 10**5, 1, threads=0),
    "poisson-tail-threads-0": lambda: poisson_tail_checks(5.0, (0.1,), 10**5, 1, threads=0),
    "variance-threads-0": lambda: verify_variance_lb(2, 20, 100, 7, threads=0),
}


@pytest.mark.parametrize("claim", list(_REJECTED_CLAIMS.values()), ids=list(_REJECTED_CLAIMS))
def test_claim_rejects_its_arguments_before_drawing(claim, monkeypatch):
    # one trial has no sample variance; a Poisson-tail run needs deltas in (0, 1) and a rate numpy
    # can draw; a sample size is an integer >= 1 on the count path, the symbol path and the
    # coupling alike; the coupling's prob lies in (0, 1]; every drawing routine needs an integer threads >= 1
    monkeypatch.setattr(harness, "derive_trial_rng", _no_draw)
    with pytest.raises(ValueError):
        claim()


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
