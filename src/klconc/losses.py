"""KL divergence and its mass-adjusted variant for improper estimates.

The scalar functions sum over the alphabet with compensated summation
(``math.fsum``), so results are reproducible and independent of alphabet
size up to ~1e-13 relative even for k in the millions. :func:`kl_losses`
and :func:`kl_losses_from_sorted_draws` are the batched kernels of the
Monte Carlo engine: one loss per row of a count matrix or of a matrix of
drawn symbols, each row reduced on its own, so a row's loss does not depend
on which other rows share its call.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Measure, Pmf, _check_drawn, _check_nominal_size, _check_smoothing

__all__ = [
    "kl_divergence",
    "kl_losses",
    "kl_losses_from_sorted_draws",
    "adjusted_kl_divergence",
    "adjusted_kl_terms",
    "adjusted_kl_shift",
]


def _check_same_length(p: Measure, q: Measure) -> None:
    if len(p) != len(q):
        raise ValueError(f"length mismatch: {len(p)} vs {len(q)}")


def kl_divergence(p: Pmf, q: Measure) -> float:
    """Sum of p_i * log(p_i / q_i) in natural log.

    Entries with p_i = 0 contribute exactly 0 regardless of q_i (the
    0*log(0) = 0 convention extended to the ratio); the result is +inf
    iff some p_i > 0 has q_i = 0. Infinities are returned, never raised.
    The second argument may be any nonnegative measure, e.g. an improper
    estimate whose mass is not 1.
    """
    _check_same_length(p, q)
    a = p.weights
    b = q.weights
    mask = a > 0
    a = a[mask]
    b = b[mask]
    if np.any(b == 0):
        return math.inf
    return math.fsum(a * np.log(a / b))


def kl_losses(p: Pmf, counts: np.ndarray, t: float) -> np.ndarray:
    """KL(p || add-t estimate) for every row of a (rows, k) count matrix.

    Row r's estimate is (c_ri + t) / (N_r + k*t) with N_r the row total, as
    in :func:`~klconc.distributions.add_t_estimate`, and its loss is

        sum_i p_i log p_i - sum_i p_i log(c_ri + t) + log(N_r + k*t)

    over the support of p: symbols with p_i = 0 contribute exactly 0
    whatever their count, and a loss is +inf iff t = 0 and the row misses a
    symbol of the support. The counts must be nonnegative integers; p is used
    as given, so it is validated once, when the ``Pmf`` is built.
    """
    counts = np.asarray(counts)
    k = len(p)
    if counts.ndim != 2 or counts.shape[1] != k:
        raise ValueError(f"counts must have shape (rows, {k}), got {counts.shape}")
    _check_smoothing(t)
    totals = counts.sum(axis=1)
    _check_drawn(totals, t)
    support = p.probs > 0
    ps = p.probs[support]
    if not support.all():
        counts = counts[:, support]
    cells = counts + float(t)
    with np.errstate(divide="ignore"):
        np.log(cells, out=cells)  # -inf where t = 0 misses a symbol
    cells *= ps
    return math.fsum(ps * np.log(ps)) + np.log(totals + k * t) - cells.sum(axis=1)


def kl_losses_from_sorted_draws(p: Pmf, draws: np.ndarray, t: float) -> np.ndarray:
    """KL(p || add-t estimate) for every row of a (rows, n) matrix of symbols
    whose rows are sorted ascending, as the Monte Carlo engine draws them.

    Row r's loss is :func:`kl_losses` of the counts ``bincount(draws[r], k)``,
    computed in O(n) instead of O(k): a symbol that was not drawn adds
    p_i log t, so with S the mass of p's support and c_s the count of drawn
    symbol s the loss is

        sum_i p_i log p_i - [S log t + sum_s p_s log(1 + c_s/t)] + log(n + k*t)

    Each row is run-length encoded, and its terms are summed in order by
    ``np.bincount``. With t = 0 the bracket is sum_s p_s log c_s and a loss
    is +inf iff the row's distinct symbols miss part of p's support.
    Symbols must lie in [0, k).
    """
    k = len(p)
    _check_smoothing(t)
    rows, n = draws.shape
    _check_drawn(n, t)
    if draws.size and (draws[:, 0].min() < 0 or draws[:, -1].max() >= k):
        raise ValueError(f"symbols must lie in [0, {k})")
    flat = draws.ravel()
    starts = np.ones(flat.size, dtype=bool)  # first entry of each run of one symbol in one row
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts.reshape(rows, n)[:, :1] = True
    first = np.flatnonzero(starts)
    run_rows = first // n
    run_counts = np.diff(first, append=flat.size)
    run_probs = p.probs[flat[first]]
    support = p.probs > 0
    ps = p.probs[support]
    base = math.fsum(ps * np.log(ps)) + math.log(n + k * t)
    if t == 0:
        drawn = np.bincount(run_rows, weights=run_probs * np.log(run_counts), minlength=rows)
        missed = np.bincount(run_rows, weights=run_probs > 0, minlength=rows) < ps.size
        return np.where(missed, math.inf, base - drawn)
    drawn = np.bincount(run_rows, weights=run_probs * np.log1p(run_counts / t), minlength=rows)
    return base - math.log(t) * math.fsum(ps) - drawn


def adjusted_kl_shift(n: int, k: int) -> float:
    """(n+k)/n - log((n+k)/n) - 1; nonnegative, tends to 0 as n/k grows."""
    _check_nominal_size(n, k, "n and k must be >= 1")
    x = (n + k) / n
    return x - math.log(x) - 1.0


def adjusted_kl_divergence(p: Pmf, q: Measure, n: int) -> float:
    """KL(p||q) plus a mass correction that keeps the quantity nonnegative
    for improper q:

        KL(p||q) + ((n+k)/n) * sum(q) + (log(n/(n+k)) - 1) * sum(p)

    with k the alphabet size. When q is a proper probability vector this
    is KL(p||q) + :func:`adjusted_kl_shift`. Returns +inf iff KL does.
    """
    _check_same_length(p, q)
    _check_nominal_size(n)
    kl = kl_divergence(p, q)
    if math.isinf(kl):
        return math.inf
    k = len(p)
    return kl + (n + k) / n * q.sum() + (math.log(n / (n + k)) - 1.0) * p.sum()


def adjusted_kl_terms(p: Pmf, q: Measure, n: int) -> np.ndarray:
    """Per-symbol contributions of :func:`adjusted_kl_divergence`, fused:

        p_i * log(n * p_i / ((n+k) * q_i)) + ((n+k)/n) * q_i - p_i

    Each term is nonnegative up to rounding; for q built from counts as
    (c_i + 1)/(n + k) the term reads p_i*log(n*p_i/(c_i+1)) + (c_i+1)/n - p_i.
    """
    _check_same_length(p, q)
    _check_nominal_size(n)
    k = len(p)
    a = p.weights
    b = q.weights
    scaled = (n + k) / n * b
    terms = scaled - a
    mask = a > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        # a/scaled -> inf where scaled == 0 and a > 0; log(inf) = inf propagates.
        terms = terms + np.where(mask, a * np.log(np.where(mask, a, 1.0) / scaled), 0.0)
    return terms
