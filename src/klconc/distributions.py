"""Probability vectors, the add-constant estimators that map a count vector
(a 1-D sequence of nonnegative integers) to one, and the KL losses they incur:
the scalar losses sum over the alphabet with compensated summation
(``math.fsum``), so they are reproducible and independent of alphabet size up
to ~1e-13 relative even for k in the millions, and the batched kernels of the
Monte Carlo engine reduce each row of a count or symbol matrix on its own, so
a row's loss does not depend on which other rows share its call."""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "Measure",
    "Pmf",
    "uniform_pmf",
    "zipf_pmf",
    "two_point_pmf",
    "load_pmf",
    "add_t_estimate",
    "pseudo_estimate",
    "kl_divergence",
    "kl_losses",
    "kl_losses_from_sorted_draws",
    "adjusted_kl_divergence",
    "adjusted_kl_terms",
    "adjusted_kl_shift",
]

PMF_SUM_TOL = 1e-9


def _check_integer(value, name: str, least: int = 1, most: int | None = None) -> None:
    """The one rule for a count, size, seed or index: a Python or numpy integer, not a bool, in [least, most],
    most being 2^63 - 1, the largest int64, unless the caller states it."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    cap = 2**63 - 1 if most is None else most
    if not (integer and least <= value <= cap):
        named = most is not None or (integer and value > cap)  # a cap the caller stated, or one the value exceeds
        capped = f", capped at {cap}" if named else ""
        raise ValueError(f"{name} must be an integer >= {least}{capped}, got {value!r}")


def _check_real(value, name: str, least: float = -math.inf, most: float = math.inf, ends: str = "[]") -> None:
    """The one rule for a probability, rate, mass, exponent, smoothing constant or real size: a Python or numpy
    real that a double holds, not a bool and not nan, in the interval from least to most; ``ends`` writes its ends,
    "[" and "]" closed, "(" and ")" open, and an infinite end is always open, so inf is never in it."""
    lo = "(" if ends[0] == "(" or least == -math.inf else "["
    hi = ")" if ends[1] == ")" or most == math.inf else "]"
    if (not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool)
            or not least <= value <= most or (lo == "(" and value == least) or (hi == ")" and value == most)
            or isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ValueError(f"{name} must lie in {lo}{least:g}, {most:g}{hi}, got {value!r}")


def _as_entries(values, what: str, rule) -> np.ndarray:
    """``values`` as a nonempty 1-D array whose entries pass ``rule(entry, f"{what} at index {i}", 0)``: the rule
    runs on the entries of an integer or float array that fail one vectorised pass, and on every other entry."""
    a = np.asarray(values)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{what}s must be a one-dimensional sequence of length >= 1")
    failed = range(a.size)  # strings, bools and objects (such as a Python int no int64 holds): entry by entry
    if a.dtype.kind in "iuf":  # nan fails every comparison
        ok = (0 <= a) & (a < math.inf)
        if rule is _check_integer:  # int64 holds the count; an integral float such as 2.0 is one
            ok &= (a < 2**63) & (a == np.trunc(a))
        failed = np.flatnonzero(~ok)
    for i in failed:
        rule(a.item(i), f"{what} at index {i}", 0)
    return a


def _as_counts(counts) -> np.ndarray:
    """The counts, one per symbol, each an integer >= 0 (an integral float such as 2.0 is one), as int64: their
    ratios to their sum, the number of draws (n, or the realized Poisson total N), are exact up to 2**53."""
    return _as_entries(counts, "count", _check_integer).astype(np.int64)


def _check_smoothing(t) -> None:
    _check_real(t, "smoothing constant", 0)


def _check_drawn(totals, t: float) -> None:
    if t == 0 and np.any(totals < 1):
        raise ValueError("empirical estimate requires at least one draw")


def _check_nominal_size(n, k: int = 1) -> None:
    """The nominal-n rule (``_check_real``): the nominal sample size n and the alphabet size k are reals >= 1."""
    _check_real(n, "nominal sample size", 1)
    _check_real(k, "alphabet size", 1)


class Measure:
    """Nonnegative weight vector over a finite alphabet; total mass unconstrained.

    Immutable after construction (the backing array is read-only), so
    instances are safe to share across threads.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights):
        w = _as_entries(weights, "weight", _check_real).astype(np.float64)
        w.flags.writeable = False
        self._weights = w

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def sum(self) -> float:
        """Total mass, accumulated with compensated summation."""
        return math.fsum(self._weights)

    def __len__(self) -> int:
        return self._weights.size

    def __getitem__(self, i: int) -> float:
        return float(self._weights[i])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._weights.tolist()!r})"


class Pmf(Measure):
    """Probability vector: nonnegative entries summing to 1.

    Inputs whose sum deviates from 1 by more than ``PMF_SUM_TOL`` (absolute)
    are rejected; anything inside the tolerance is renormalized exactly once
    so downstream code can rely on ``sum() == 1`` to machine precision.
    The loss kernels' per-pmf constants over the support, sum p_i log p_i and
    the support's mass, are computed here once.
    """

    __slots__ = ("_sum_plogp", "_support_mass")

    def __init__(self, probs):
        super().__init__(probs)
        s = math.fsum(self._weights)
        if abs(s - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {PMF_SUM_TOL}; sum = {s!r}")
        w = self._weights / s
        w.flags.writeable = False
        self._weights = w
        ps = w[w > 0]
        self._sum_plogp = math.fsum(ps * np.log(ps))
        self._support_mass = math.fsum(ps)

    @property
    def probs(self) -> np.ndarray:
        return self._weights


def uniform_pmf(k: int) -> Pmf:
    """Uniform distribution over a k-symbol alphabet."""
    _check_integer(k, "alphabet size")
    return Pmf(np.full(k, 1.0 / k))


def zipf_pmf(k: int, s: float = 1.0) -> Pmf:
    """Power-law distribution with weight i**(-s) on symbol i (1-based), normalized."""
    _check_integer(k, "alphabet size")
    _check_real(s, "exponent")
    base = np.arange(1, k + 1, dtype=np.float64)
    if s < 0:
        base /= k  # weights (i/k)**(-s) <= 1, so they cannot overflow
    w = base ** (-s)
    return Pmf(w / math.fsum(w))


def two_point_pmf(k: int, mass: float) -> Pmf:
    """Puts ``mass`` on symbol 0 and spreads the remaining mass uniformly
    over symbols 1..k-1."""
    _check_integer(k, "alphabet size", 2)
    _check_real(mass, "mass", 0, 1)
    w = np.full(k, (1.0 - mass) / (k - 1))
    w[0] = mass
    return Pmf(w)


def load_pmf(path) -> Pmf:
    """Read a distribution file: one nonnegative decimal weight per line.

    Blank lines are ignored. A weight that is no real >= 0 raises ValueError
    naming its ``path:line``; the weights must sum to 1 within ``Pmf``'s tolerance.
    """
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                weights.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a decimal weight: {text!r}") from None
            _check_real(weights[-1], f"{path}:{lineno}: weight", 0)
    if not weights:
        raise ValueError(f"{path}: no weights found")
    return Pmf(weights)


def add_t_estimate(counts, t: float = 1.0) -> Pmf:
    """Add-constant estimate: entry i is (count_i + t) / (total + k*t).

    t=1 is the add-one (Laplace) rule and t=1/2 the Krichevsky-Trofimov
    rule; t=0 reduces to the empirical estimate (valid only when at least
    one draw was observed). Every entry is strictly positive when t > 0.
    """
    _check_smoothing(t)
    c = _as_counts(counts)
    _check_drawn(c.sum(), t)
    return Pmf((c + t) / (c.sum() + c.size * t))


def pseudo_estimate(counts, n: int) -> Measure:
    """Add-one numerator over the fixed denominator n + k: (count_i + 1) / (n + k).

    Unlike :func:`add_t_estimate`, the denominator uses the nominal sample
    size n rather than the realized total, so the result is a plain
    ``Measure``: its mass is (total + k) / (n + k), which equals 1 only
    when the realized total equals n.
    """
    _check_nominal_size(n)
    c = _as_counts(counts)
    return Measure((c + 1.0) / (n + c.size))


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
    in :func:`add_t_estimate`, and its loss is

        sum_i p_i log p_i - sum_i p_i log(c_ri + t) + log(N_r + k*t)

    over the support of p: symbols with p_i = 0 contribute exactly 0
    whatever their count, and a loss is +inf iff t = 0 and the row misses a
    symbol of the support. The counts must be nonnegative integers: their
    integer dtype is checked, their signs are not (that would cost a pass over
    every cell). p is used as given, so it is validated once, when the ``Pmf`` is built.
    """
    counts = np.asarray(counts)
    k = len(p)
    if counts.dtype.kind not in "iu" or counts.ndim != 2 or counts.shape[1] != k:
        raise ValueError(f"counts must be integers of shape (rows, {k}), got {counts.dtype} of shape {counts.shape}")
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
    return p._sum_plogp + np.log(totals + k * t) - cells.sum(axis=1)


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
    Symbols must be integers in [0, k).
    """
    k = len(p)
    _check_smoothing(t)
    rows, n = draws.shape
    _check_drawn(n, t)
    if draws.dtype.kind not in "iu" or draws.size and (draws[:, 0].min() < 0 or draws[:, -1].max() >= k):
        raise ValueError(f"symbols must be integers in [0, {k}), got {draws.dtype}")
    flat = draws.ravel()
    starts = np.ones(flat.size, dtype=bool)  # first entry of each run of one symbol in one row
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts.reshape(rows, n)[:, :1] = True
    first = np.flatnonzero(starts)
    run_rows = first // n
    run_counts = np.diff(first, append=flat.size)
    run_probs = p.probs[flat[first]]
    base = p._sum_plogp + math.log(n + k * t)
    if t == 0:
        drawn = np.bincount(run_rows, weights=run_probs * np.log(run_counts), minlength=rows)
        missed = np.bincount(run_rows, weights=run_probs > 0, minlength=rows) < np.count_nonzero(p.probs)
        return np.where(missed, math.inf, base - drawn)
    with np.errstate(over="ignore"):
        logs = np.log1p(run_counts / t)
    if math.isinf(n / t):  # some c/t overflows: there log1p(c/t) = log c - log t, as log1p(t/c) < 1e-300
        big = np.isinf(logs)
        logs[big] = np.log(run_counts[big]) - math.log(t)
    drawn = np.bincount(run_rows, weights=run_probs * logs, minlength=rows)
    return base - math.log(t) * p._support_mass - drawn


def adjusted_kl_shift(n: int, k: int) -> float:
    """(n+k)/n - log((n+k)/n) - 1; nonnegative, tends to 0 as n/k grows."""
    _check_nominal_size(n, k)
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
