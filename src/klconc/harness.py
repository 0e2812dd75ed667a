"""Seeded Monte Carlo experiments for the distributional claims, and the
streams they draw from.

Every experiment takes the distribution as a ``Pmf`` and plain arguments
and is a pure function of them: ``run_kl_trials`` returns the aggregated
losses keyed as ``simulate``'s CSV columns, and each claim check returns a
``ClaimResult``.
Every random draw follows one rule, which ``_map_streams`` applies: unit u
of a run draws its slice of the run from ``derive_trial_rng(master_seed, u)``,
a stream that hashes the spawn key (u,) with the 64-bit master seed, so it
never depends on how many other streams exist or in which order they were
made. The units are the engine's 2048-trial blocks (``_BLOCK``) and the
coupling and Poisson-tail claims' 2^16-draw chunks (``_DRAW_CHUNK``); the
README's "Exact seeded sampling" states the rule in full. A unit is drawn
in consecutive slices of at most ``_CHUNK_CELLS`` values (``_slice_sizes``;
one row at least), each continuing the unit's streams, so its draws are
those of one call. Aggregation walks the blocks, or the chunks, in index
order, and the only auxiliary randomness, the figure-1 sweep's per-row
sub-seeds, uses the two-element spawn keys (2, k), disjoint from every
trial stream.
numpy's binomial and Poisson generators are exact-rejection samplers (no
normal or translated approximations), which the tests certify by
goodness-of-fit and Kolmogorov-distance checks. Both coupling claims, the
expectation gap and the exact marginals, are judged on one pass over the
same draws. Intervals are closed-form functions of the losses and draw
nothing. Every drawing routine checks its arguments (the run's by
``_check_run``) before it builds or allocates anything.
The drawing entry points take ``threads``: the units of one call are
shared among that many worker threads (capped at the usable cores and at
the units; one runs on the calling thread and starts none). A unit draws
only from its own stream and writes only its own result, so the output
does not depend on the thread count. Checks share no mutable state, so
they may also run on concurrent threads.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .bounds import (
    _binomial_window,
    _check_binomial,
    _check_delta,
    _poisson_window,
    _regularized_gamma,
    binomial_inverse_moment,
    binomial_inverse_moment2_bound,
    binomial_inverse_moments_exact,
    binomial_product_variance,
    expectation_gap_bound,
    heuristic_kl_std,
    kl_deviation_bound,
    poisson_pmf_at_mean,
    poisson_tail_radius,
    variance_lower_bound,
)
from .distributions import Pmf, _check_integer, _check_real, _check_smoothing, uniform_pmf
from .distributions import kl_losses, kl_losses_from_sorted_draws

__all__ = [
    "derive_trial_rng",
    "coupled_pairs",
    "ClaimResult",
    "run_kl_trials",
    "sweep_std_vs_heuristic",
    "verify_variance_lb",
    "verify_kl_tail_bound",
    "poisson_tail_checks",
    "check_gof_regime",
    "coupling_checks",
    "expected_kl_check",
    "chi_square_gof",
    "run_facts_checks",
]

QUANTILE_LEVELS = (0.5, 0.9, 0.99)
MAX_STORED_TRIALS = 10**7
GOF_P_THRESHOLD = 1e-3
_GOF_MIN_EXPECTED = 5.0  # a GOF bin is merged into the next until its expected count reaches this
_BLOCK = 2048
_CHUNK_CELLS = 2**14  # values a worker holds per array at once (one row at least): 128 KiB of int64
_CATEGORICAL = 4  # rows are drawn as symbols when _CATEGORICAL * n <= k
_DRAW_CHUNK = 2**16  # draws of the coupling and Poisson-tail claims per stream, drawn _CHUNK_CELLS at a time
# numpy's largest Poisson rate, int64 max - 10 sqrt(int64 max): the bound of a Poisson-tail rate and
# of the CLI's --n, which the coupling draws as a Poisson rate and the samplers as an int64.
_MAX_RATE = 9.223372006484771e18


def _seed_sequence(master_seed: int, spawn_key: tuple[int, ...]) -> SeedSequence:
    _check_integer(master_seed, "master seed", 0, 2**64 - 1)
    return SeedSequence(master_seed, spawn_key=spawn_key)


def derive_trial_rng(master_seed: int, trial_index: int) -> Generator:
    """The stream of unit ``trial_index`` of a run: PCG64 seeded from the spawn
    key (trial_index,) of ``master_seed``, not by jumping one stream ahead."""
    _check_integer(trial_index, "trial index", 0)
    return Generator(PCG64(_seed_sequence(master_seed, (trial_index,))))


def _check_run(reps: int, seed: int, threads: int) -> None:
    """The run rule (``_check_integer``): reps in [1, MAX_STORED_TRIALS], a master seed in [0, 2^64), threads >= 1."""
    _check_integer(reps, "repetition count", 1, MAX_STORED_TRIALS)
    _check_integer(seed, "master seed", 0, 2**64 - 1)
    _check_integer(threads, "thread count")


def _check_two_reps(reps: int) -> None:
    """The repetition-count rule, and then a ValueError unless reps >= 2: one trial has no sample variance."""
    _check_integer(reps, "repetition count", 1, MAX_STORED_TRIALS)
    if reps < 2:
        raise ValueError(f"a sample variance needs reps >= 2, got {reps}")


def _slice_sizes(count: int, cells: int = 1) -> list[int]:
    """The sizes, in items, of ``count`` items of ``cells`` values each cut into
    consecutive slices of at most _CHUNK_CELLS values (one item at least)."""
    step = max(1, _CHUNK_CELLS // cells)
    return [min(step, count - lo) for lo in range(0, count, step)]


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _map_streams(fn, seed: int, reps: int, unit: int, threads: int) -> list:
    """[fn(derive_trial_rng(seed, u), lo, hi) for each unit u of the run], in
    index order, where unit u is the slice [lo, hi) = [u * unit,
    min(u * unit + unit, reps)) of the run. The units are shared among
    min(threads, usable cores, units) workers: the calling thread and one
    fewer started threads, each taking the next unit until none is left. With
    one worker no thread is started. The first exception a unit raises stops
    the workers taking units, and is raised once every started thread has
    been joined. Callers check the run with ``_check_run``."""
    units = -(-reps // unit)
    workers = min(threads, units, _usable_cores())
    results = [None] * units
    order = iter(range(units))
    lock = threading.Lock()
    errors = []

    def work():
        while not errors:
            with lock:
                u = next(order, None)
            if u is None:
                return
            try:
                results[u] = fn(derive_trial_rng(seed, u), u * unit, min(u * unit + unit, reps))
            except BaseException as exc:  # raised again on the calling thread
                errors.append(exc)

    started = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in started:
        thread.start()
    work()
    for thread in started:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _guide_grid(k: int) -> int:
    """The guide table's bucket count for k symbols: the power of two in [2k, 4k)."""
    return 1 << (2 * k - 1).bit_length()


def _guide_table_lookup(cdf: np.ndarray):
    """u -> cdf.searchsorted(u, side="right") for u in [0, 1) and a non-decreasing cdf ending
    in 1, via a guide table (Chen & Asau 1974): guide[b] = #{j : cdf[j] <= b / grid} bounds
    bucket b from below. A power-of-two grid (``_guide_grid``) makes u * grid and cdf * grid
    exact and leaves <= 1/2 entry per bucket on average, so a draw needs <= k / grid extra
    comparisons on average (Devroye 1986, III.2.4); two passes step short bounds up,
    searchsorted ends the rest. The table is 2k to 4k int64 entries."""
    grid = _guide_grid(cdf.size)
    guide = np.bincount(np.ceil(cdf * grid).astype(np.intp), minlength=grid + 1)[:grid].cumsum()

    def lookup(u: np.ndarray) -> np.ndarray:
        idx = guide[(u * grid).astype(np.intp)]
        flat, flat_u, pending = idx.reshape(-1), u.reshape(-1), np.flatnonzero(cdf[idx] <= u)
        for _ in range(2):
            flat[pending] += 1
            pending = pending[cdf[flat[pending]] <= flat_u[pending]]
        flat[pending] = cdf.searchsorted(flat_u[pending], side="right")
        return idx

    return lookup


def _kl_loss_samples(pmf: Pmf, n: int, t: float, master_seed: int, reps: int, threads: int = 1) -> np.ndarray:
    """Per-trial KL(p || add-t estimate) losses; trial i is row i mod 2048 of
    the block drawn on stream (master_seed, i // 2048): n symbols when 4n <= k
    (row-sorted uniforms through the inverse cdf, computed with a guide table:
    Generator.choice's symbols, sorted), else Mult(n, p) counts. A block is
    drawn in consecutive slices of at most _CHUNK_CELLS symbols or counts, and
    the blocks are shared among ``threads`` workers (see ``_map_streams``),
    each writing its own rows. Rejects before it builds anything an n outside
    [1, _MAX_RATE] (``_check_integer``), a run that breaks ``_check_run`` and a
    t that breaks the add-t rule (``_check_smoothing``)."""
    _check_integer(n, "sample size", 1, _MAX_RATE)
    _check_run(reps, master_seed, threads)
    k = len(pmf)
    _check_smoothing(t, n, k)
    losses = np.empty(reps, dtype=np.float64)
    if _CATEGORICAL * n <= k:
        cdf = pmf.probs.cumsum()
        cdf /= cdf[-1]
        inverse_cdf = _guide_table_lookup(cdf)
        cells = n

        def draw(rng, rows):
            # A monotone map of row-sorted uniforms: Generator.choice's rows, sorted.
            u = rng.random((rows, n))
            u.sort(axis=1)
            return kl_losses_from_sorted_draws(pmf, inverse_cdf(u), t)
    else:
        cells = k

        def draw(rng, rows):
            return kl_losses(pmf, rng.multinomial(n, pmf.probs, size=rows), t)

    def block(rng, lo, hi):
        for rows in _slice_sizes(hi - lo, cells):
            losses[lo : lo + rows] = draw(rng, rows)
            lo += rows

    _map_streams(block, master_seed, reps, _BLOCK, threads)
    if t > 0 and not np.all(np.isfinite(losses)):
        raise RuntimeError("add-t losses with t > 0 must be finite")
    return losses


def _block_moments(values: np.ndarray) -> list[tuple[int, float, float]]:
    """(count, mean, M2) of each 2048-value block of ``values``, in index
    order, where M2 is the block's sum of squared deviations from its mean."""
    stats = []
    for lo in range(0, values.size, _BLOCK):
        block = values[lo : lo + _BLOCK]
        mean = float(np.mean(block))
        stats.append((block.size, mean, float(np.sum((block - mean) ** 2))))
    return stats


def _merged(stats) -> tuple[float, float]:
    """(mean, unbiased variance) of the values whose block statistics are
    ``stats``, folded in order with Chan's update from the first block; the
    variance is nan below two values."""
    stats = iter(stats)
    count, mean, m2 = next(stats)
    for size, block_mean, block_m2 in stats:
        total = count + size
        delta = block_mean - mean
        mean += delta * size / total
        m2 += block_m2 + delta * delta * count * size / total
        count = total
    return mean, m2 / (count - 1) if count > 1 else math.nan


def _moments_blockwise(losses: np.ndarray) -> tuple[float, float]:
    """(mean, variance) of ``losses``: their block statistics folded in index order."""
    return _merged(_block_moments(losses))


def _exact_quantiles(losses: np.ndarray) -> list[float]:
    """Order-statistic quantiles at QUANTILE_LEVELS: level q is the
    ceil(q * reps)-th smallest loss."""
    srt = np.sort(losses)
    return [float(srt[max(0, math.ceil(q * losses.size) - 1)]) for q in QUANTILE_LEVELS]


def run_kl_trials(pmf: Pmf, n: int, reps: int, seed: int, t: float = 1.0,
                  delta: float | None = None, *, threads: int = 1) -> dict:
    """Draw n samples from p per trial (as symbols or as counts, see
    ``_kl_loss_samples``), smooth with add-t, and aggregate the KL losses,
    keyed as ``simulate``'s columns. Given ``delta``, ``t_delta`` is the
    deviation bound and ``exceed_frac`` the fraction of losses above
    mean + t_delta; both are None otherwise. Deterministic given its
    arguments other than ``threads``, the worker count of the draw; delta is
    checked before anything is drawn."""
    t_delta = None if delta is None else kl_deviation_bound(len(pmf), n, delta)
    losses = _kl_loss_samples(pmf, n, t, seed, reps, threads=threads)
    if np.isinf(losses).any():
        # Only reachable with t = 0 (unsmoothed estimate misses support).
        mean_kl = var_kl = std_kl = math.inf
    else:
        mean_kl, var_kl = _moments_blockwise(losses)
        std_kl = math.sqrt(var_kl)
    q50, q90, q99 = _exact_quantiles(losses)
    exceed_frac = None if delta is None else float(np.mean(losses > mean_kl + t_delta))
    return {"mean_kl": mean_kl, "var_kl": var_kl, "std_kl": std_kl, "q50": q50, "q90": q90, "q99": q99,
            "exceed_frac": exceed_frac, "t_delta": t_delta}


def sweep_std_vs_heuristic(ks, n: int, reps: int, master_seed: int, *, threads: int = 1) -> list[dict]:
    """Sample std of the add-one KL loss on uniform(k) vs sqrt(k/2)/n: one
    dict per k, keyed as ``figure1``'s columns. Each row runs on its own
    derived sub-seed so rows are independent; a row's blocks are shared
    among ``threads`` workers.

    sqrt(k/2)/n is the large-k form of the chi-square approximation; its
    exact-dof form under multinomial sampling is sqrt((k-1)/2)/n, so the
    ratio column sits near sqrt((k-1)/k) at small k. Every k is checked
    before the first row is drawn.
    """
    ks = list(ks)
    for k in ks:
        _check_integer(k, "alphabet size")
    rows = []
    for k in ks:
        # spawn key (2, k): two elements, so the row's sub-seed is disjoint from every trial stream
        sub_seed = int(_seed_sequence(master_seed, (2, k)).generate_state(1, np.uint64)[0])
        std = run_kl_trials(uniform_pmf(k), n, reps, sub_seed, threads=threads)["std_kl"]
        heuristic = heuristic_kl_std(k, n)
        rows.append({"k": k, "sample_std": std, "heuristic_std": heuristic,
                     "ratio": std / heuristic if std > 0 else None})
    return rows


@dataclass(frozen=True)
class ClaimResult:
    """Verdict of one claim check, and the values the check computed (not
    the config it was given), keyed by name."""

    passed: bool
    values: dict


_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _variance_interval(losses: np.ndarray, mean: float, s2: float) -> tuple[float, float]:
    """95% normal interval on the sample variance s^2 of r losses, from the
    fourth central moment m4: Var(s^2) ~ (m4 - s^4 (r-3)/(r-1)) / r, for r >= 2.
    The lower end is clamped at 0."""
    r = losses.size
    m4 = float(np.mean((losses - mean) ** 4))
    half = _Z95 * math.sqrt(max(0.0, (m4 - s2 * s2 * (r - 3) / (r - 1)) / r))
    return max(0.0, s2 - half), s2 + half


def verify_variance_lb(k: int, n: int, reps: int, seed: int, *, threads: int = 1) -> ClaimResult:
    """Empirical Var(KL) for the add-one estimator on uniform(k) against the
    closed-form floor k/(32 n^2); requires k >= 2, n >= 10k and reps >= 2."""
    lb = variance_lower_bound(k, n)  # validates k >= 2 and n >= 10k
    _check_two_reps(reps)
    losses = _kl_loss_samples(uniform_pmf(k), n, 1.0, seed, reps, threads=threads)
    mean, empirical = _moments_blockwise(losses)
    ci_low, ci_high = _variance_interval(losses, mean, empirical)
    return ClaimResult(bool(empirical >= lb), {"empirical_var": empirical, "lower_bound": lb,
                                               "ratio": empirical / lb, "ci_low": ci_low, "ci_high": ci_high})


def _exceedance_allowance(delta: float, reps: int) -> float:
    """delta plus three binomial standard errors, so Monte Carlo noise cannot
    flip a true pass into a fail."""
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / reps)


def verify_kl_tail_bound(k: int, n: int, reps: int, delta: float, seed: int, *, threads: int = 1) -> ClaimResult:
    """Fraction of trials whose KL loss exceeds mean + deviation bound; must
    stay within delta (plus sampling slack)."""
    trials = run_kl_trials(uniform_pmf(k), n, reps, seed, delta=delta, threads=threads)
    allowed = _exceedance_allowance(delta, reps)
    return ClaimResult(bool(trials["exceed_frac"] <= allowed),
                       {"t_delta": trials["t_delta"], "exceed_frac": trials["exceed_frac"], "allowed": allowed})


def poisson_tail_checks(lam: float, deltas, reps: int, seed: int, *, threads: int = 1) -> list[ClaimResult]:
    """Failure rate of |N + 1 - lam| <= 6*sqrt(N+1)*log(2/delta) over Poisson
    draws, which must stay within delta (plus sampling slack): one result per
    delta in ``deltas``, in order, all on one sample of draws, so a delta's
    result does not depend on the other deltas checked with it. The chunks
    are shared among ``threads`` workers (see ``_map_streams``), each drawn in
    consecutive slices of at most _CHUNK_CELLS draws. Rejects a
    lam outside [0, _MAX_RATE], an empty ``deltas`` and any delta outside
    (0, 1) before drawing."""
    _check_real(lam, "Poisson rate", 0, _MAX_RATE)
    _check_run(reps, seed, threads)
    if len(deltas) == 0:
        raise ValueError("need at least one failure probability")
    for delta in deltas:
        _check_delta(delta)

    def chunk_fails(rng, lo, hi):
        fails = [0] * len(deltas)
        for size in _slice_sizes(hi - lo):
            draws = rng.poisson(lam, size=size)
            deviation = np.abs(draws + 1.0 - lam)
            fails = [f + int(np.count_nonzero(deviation > poisson_tail_radius(draws, delta)))
                     for f, delta in zip(fails, deltas)]
        return fails

    fails = [sum(counts) for counts in zip(*_map_streams(chunk_fails, seed, reps, _DRAW_CHUNK, threads))]
    results = []
    for delta, count in zip(deltas, fails):
        fail_frac = count / reps
        allowed = _exceedance_allowance(delta, reps)
        results.append(ClaimResult(bool(fail_frac <= allowed),
                                   {"delta": delta, "fail_frac": fail_frac, "allowed": allowed}))
    return results


def chi_square_gof(counts: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """(statistic, p_value) of the chi-square goodness of fit of integer draws
    against an exact pmf on one window of values: the j-th value is drawn
    ``counts[j]`` times and has target probability ``probs[j]``. ``probs`` sums
    to 1, so the mass outside the window is folded into its end entries. Adjacent
    bins are merged left to right until each carries expected count >= _GOF_MIN_EXPECTED
    (the remainder folds into the last bin); fewer than two bins give (0.0, 1.0)."""
    expected = np.asarray(probs, dtype=np.float64) * counts.sum()

    merged_obs: list[float] = []
    merged_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected, strict=True):  # ValueError unless the lengths agree
        acc_o += o
        acc_e += e
        if acc_e >= _GOF_MIN_EXPECTED:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if len(merged_exp) < 2:
        return 0.0, 1.0
    merged_obs[-1] += acc_o
    merged_exp[-1] += acc_e
    obs = np.array(merged_obs)
    exp = np.array(merged_exp)
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(merged_exp) - 1
    return statistic, _regularized_gamma(dof / 2.0, statistic / 2.0)[1]  # chi2.sf(statistic, dof)


MAX_GOF_N = 2**24  # the GOF windows grow like sqrt(n): Bin(n, prob)'s spans ~34,000 values at the cap


def check_gof_regime(n: int, reps: int) -> None:
    """Raise ValueError unless the marginal GOF tests can run: reps >= 1e5
    draws, and n <= MAX_GOF_N, which bounds the windows of the pmfs and counts."""
    if reps < 10**5:
        raise ValueError(f"marginal GOF needs reps >= 1e5, got {reps}")
    if n > MAX_GOF_N:
        raise ValueError(f"marginal GOF needs n <= {MAX_GOF_N} (its windows grow like sqrt(n)), got {n}")


def _offset_bincount(values: np.ndarray) -> tuple[int, np.ndarray]:
    """(lo, counts): counts[j] is the number of ``values`` equal to lo + j, and
    lo the least value, so the counts span only the values drawn."""
    lo = int(values.min())
    return lo, np.bincount(values - lo)


def _add_counts(parts) -> tuple[int, np.ndarray]:
    """The ``_offset_bincount`` of the values whose ``_offset_bincount``s are ``parts``."""
    lo = min(part_lo for part_lo, _ in parts)
    counts = np.zeros(max(part_lo + bins.size for part_lo, bins in parts) - lo, dtype=np.int64)
    for part_lo, bins in parts:
        counts[part_lo - lo : part_lo - lo + bins.size] += bins
    return lo, counts


def coupled_pairs(rng: Generator, n: int, prob: float, size: int):
    """``size`` draws from the joint binomial/Poisson construction, as an
    iterator over consecutive slices of at most _CHUNK_CELLS draws, each a
    tuple of arrays (m, m_prime, n_latent, x, y).

    ``m`` has the Bin(n, prob) marginal and ``m_prime`` the Poi(n * prob)
    marginal; ``n_latent`` is the shared latent Poi(n) total and (x, y) the
    two conditionally independent binomial pieces: x on min(n_latent, n)
    trials and y on |n - n_latent| trials. When n_latent > n the pair is
    (m, m_prime) = (x, x + y), otherwise (x + y, x); hence
    |m - m_prime| = y always. ``rng`` gives the n_latent draws, and copies
    of it jumped ahead once and twice, taken once before any draw, give the
    x and the y draws; every slice continues the same three generators, so
    the slices are one call's draws cut apart, and the first r draws of any
    size are those of size r. The arguments are checked, and the copies
    taken, when it is called; a slice is drawn when it is taken.
    """
    _check_integer(n, "sample size", 1, _MAX_RATE)
    _check_binomial(n, prob)
    _check_integer(size, "size")
    x_rng, y_rng = (Generator(rng.bit_generator.jumped(jumps)) for jumps in (1, 2))

    def pairs(count):
        n_latent = rng.poisson(n, size=count)
        x = x_rng.binomial(np.minimum(n_latent, n), prob)
        y = y_rng.binomial(np.abs(n_latent - n), prob)
        over = n_latent > n
        total = x + y
        return np.where(over, x, total), np.where(over, total, x), n_latent, x, y

    return map(pairs, _slice_sizes(size))


_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def coupling_checks(n: int, prob: float, reps: int, seed: int, *, threads: int = 1) -> list[ClaimResult]:
    """Both claims about the coupling, judged on one pass over its draws:
    [gap, marginals]. gap: the Monte Carlo estimate of E[(M - M')/(M' + 1)]
    against the closed-form ceiling 311/n + 160/(n^1.5 * prob), the
    expectation gap bound at k = 1/prob; it passes unless the 99% CI
    certifies a violation (lower edge above the ceiling). marginals: the
    goodness of fit of the two coordinates against their exact marginals,
    Bin(n, prob) for M and Poi(n * prob) for M'. The chunks are shared
    among ``threads`` workers (see ``_map_streams``), each drawn slice by
    slice; their block statistics are folded in index order, so the doubles
    do not depend on the worker count.
    Rejects an n or prob that ``coupled_pairs`` would before drawing."""
    _check_integer(n, "sample size", 1, _MAX_RATE)
    _check_binomial(n, prob)
    _check_run(reps, seed, threads)
    check_gof_regime(n, reps)

    def slice_stats(pairs):
        m, m_prime, *_ = pairs
        return _block_moments((m - m_prime) / (m_prime + 1.0)), _offset_bincount(m), _offset_bincount(m_prime)

    def chunk(rng, lo, hi):
        # map lets go of a slice before it draws the next one; chunks and slices are whole
        # blocks, so the blocks are those of all the draws
        blocks, parts_m, parts_mp = zip(*map(slice_stats, coupled_pairs(rng, n, prob, hi - lo)))
        return [block for slice_blocks in blocks for block in slice_blocks], _add_counts(parts_m), _add_counts(parts_mp)

    blocks, parts_m, parts_mp = zip(*_map_streams(chunk, seed, reps, _DRAW_CHUNK, threads))
    est, variance = _merged(block for chunk_blocks in blocks for block in chunk_blocks)

    half = _Z99 * math.sqrt(variance / reps)
    bound = expectation_gap_bound(1.0 / prob, n)
    gap = ClaimResult(bool(est - half <= bound),
                      {"est_gap": est, "ci_low": est - half, "ci_high": est + half, "bound": bound})

    gofs = []
    for parts, window in ((parts_m, lambda lo, hi: _binomial_window(n, prob, lo, hi)),
                          (parts_mp, lambda lo, hi: _poisson_window(n * prob, lo, hi))):
        # sum the chunks' counts over the pmf's window; the masses outside it, and any draws
        # outside it (only a broken sampler's: the window covers the drawn range), join its end bins
        drawn_lo, drawn = _add_counts(parts)
        lo, probs, head, tail = window(drawn_lo, drawn_lo + drawn.size - 1)
        counts = np.zeros(probs.size, dtype=np.int64)
        np.add.at(counts, np.clip(np.arange(drawn_lo - lo, drawn_lo - lo + drawn.size), 0, probs.size - 1), drawn)
        probs[0] += head
        probs[-1] += tail
        gofs.append(chi_square_gof(counts, probs))
    (chi2_m, p_m), (chi2_mp, p_mp) = gofs
    marginals = ClaimResult(bool(p_m >= GOF_P_THRESHOLD and p_mp >= GOF_P_THRESHOLD),
                            {"chi2_m": chi2_m, "p_m": p_m, "chi2_m_prime": chi2_mp, "p_m_prime": p_mp})
    return [gap, marginals]


def expected_kl_check(pmf: Pmf, n: int, reps: int, seed: int, *, threads: int = 1) -> ClaimResult:
    """Mean add-one KL loss on p against the worst-case expectation (k-1)/n,
    with one-sided CI slack of three standard errors; requires reps >= 2."""
    _check_two_reps(reps)
    losses = _kl_loss_samples(pmf, n, 1.0, seed, reps, threads=threads)
    mean, variance = _moments_blockwise(losses)
    ceiling = (len(pmf) - 1) / n
    slack = 3.0 * math.sqrt(variance / reps)
    return ClaimResult(bool(mean <= ceiling + slack), {"mean_kl": mean, "ceiling": ceiling, "slack": slack})


def _exact_binomial_product_variance(n0: int) -> int:
    """4^n0 Var(X*(n0-X)) for X ~ Bin(n0, 1/2), exactly: with the integer
    sums s1, s2 of comb(n0, x) g and comb(n0, x) g^2, g = x(n0-x), it is
    s2 2^n0 - s1^2."""
    s1 = s2 = 0
    for x in range(n0 + 1):
        w = math.comb(n0, x)
        g = x * (n0 - x)
        s1 += w * g
        s2 += w * g * g
    return s2 * 2**n0 - s1 * s1


def _monotone_variance_instance(a: int, b: int) -> tuple[float, float]:
    """(Var(log(X+1)), floor) for X uniform on {a..b} with floor
    Var(X) * min f'(x)^2 = Var(X) / (b+1)^2."""
    xs = np.arange(a, b + 1, dtype=np.float64)
    fx = np.log(xs + 1.0)
    var_f = float(np.var(fx))
    m = b - a + 1
    var_x = (m * m - 1) / 12.0
    return var_f, var_x / (b + 1) ** 2


_INV_MOMENT_PROBS = (0.01, 0.1, 0.5, 0.9, 1.0)
_INV_MOMENT_MAX_M = 200


def run_facts_checks() -> list[ClaimResult]:
    """Exact-oracle verification of the closed-form combinatorial facts; each
    result's values are the fact's ``name`` and a ``detail`` line."""
    checks = []

    worst, ok = 0.0, True
    for m in range(_INV_MOMENT_MAX_M + 1):
        for p in _INV_MOMENT_PROBS:
            exact, exact2 = binomial_inverse_moments_exact(m, p)
            worst = max(worst, abs(binomial_inverse_moment(m, p) - exact) / exact)
            bound = binomial_inverse_moment2_bound(m, p)
            if p == 1.0:
                # X = m surely, so the bound is attained exactly.
                ok = ok and math.isclose(exact2, bound, rel_tol=1e-12)
            else:
                # Analytic relative slack (1-p)^(m+1) ((1-p) + (m+2)p); strictness
                # is only decidable in float where the slack is representable.
                slack = (1.0 - p) ** (m + 1) * ((1.0 - p) + (m + 2) * p)
                if slack > 1e-12:
                    ok = ok and exact2 < bound
                else:
                    ok = ok and exact2 <= bound * (1 + 1e-12)
    checks.append(ClaimResult(worst <= 1e-12, {
        "name": "binomial inverse moment closed form vs exact summation",
        "detail": f"max relative error {worst:.3e} over m<=200, p in {_INV_MOMENT_PROBS}"}))
    checks.append(ClaimResult(ok, {
        "name": "second inverse moment within 1/(p^2 (m+1)(m+2))",
        "detail": "equality on p=1; strict below it wherever the gap is representable"}))

    floor_ok = all(poisson_pmf_at_mean(n) >= 1.0 / (3.0 * math.sqrt(n)) for n in range(1, 10**4 + 1))
    checks.append(ClaimResult(floor_ok, {
        "name": "Pr[Poi(n) = n] >= 1/(3 sqrt(n))",
        "detail": "checked exhaustively for n in [1, 1e4]"}))

    exact_prod = [_exact_binomial_product_variance(n0) for n0 in range(0, 61)]
    prod_ok = all(v * 8 == (n0 * n0 - n0) * 4**n0 for n0, v in enumerate(exact_prod)) and all(
        abs(binomial_product_variance(n0) - v / 4**n0) <= 1e-10 for n0, v in enumerate(exact_prod)
    )
    checks.append(ClaimResult(prod_ok, {
        "name": "Var(X(n0-X)) = (n0^2 - n0)/8 for X ~ Bin(n0, 1/2)",
        "detail": "exact rational enumeration for n0 in [0, 60]"}))

    mono_ok = True
    details = []
    for a, b in ((0, 10), (5, 50), (0, 100)):
        var_f, floor = _monotone_variance_instance(a, b)
        details.append(f"[{a},{b}]: {var_f:.4g} >= {floor:.4g}")
        if not var_f >= floor:
            mono_ok = False
    checks.append(ClaimResult(mono_ok, {
        "name": "Var(f(X)) >= min f'^2 * Var(X) for f = log(1+x), X uniform",
        "detail": "; ".join(details)}))

    return checks
