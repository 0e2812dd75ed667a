"""Probability vectors, and the add-constant estimators that map a count
vector (a 1-D sequence of nonnegative integers) to one."""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Measure",
    "Pmf",
    "uniform_pmf",
    "zipf_pmf",
    "two_point_pmf",
    "load_pmf",
    "empirical_estimate",
    "add_t_estimate",
    "pseudo_estimate",
]

PMF_SUM_TOL = 1e-9


def _as_weight_array(values, what: str) -> np.ndarray:
    w = np.asarray(values, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"{what} must be a one-dimensional sequence")
    if w.size == 0:
        raise ValueError(f"{what} must have length >= 1")
    if not np.all(np.isfinite(w)):
        bad = int(np.flatnonzero(~np.isfinite(w))[0])
        raise ValueError(f"{what} has non-finite entry at index {bad}")
    if np.any(w < 0):
        bad = int(np.flatnonzero(w < 0)[0])
        raise ValueError(f"{what} has negative entry {w[bad]!r} at index {bad}")
    return w


def _as_counts(counts) -> np.ndarray:
    """The counts, one per symbol, as an int64 array checked 1-D, nonempty and nonnegative.
    Their sum is the total number of draws (the multinomial n, or the realized
    Poisson total N under Poissonized sampling); as int64, count/total ratios
    stay exact in double precision for totals up to 2**53."""
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("counts must be a one-dimensional sequence of length >= 1")
    if np.any(c < 0):
        bad = int(np.flatnonzero(c < 0)[0])
        raise ValueError(f"negative count {int(c[bad])} at index {bad}")
    return c


def _check_smoothing(t) -> None:
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"smoothing constant must be a finite nonnegative real, got {t}")


def _check_drawn(totals, t: float) -> None:
    if t == 0 and np.any(totals < 1):
        raise ValueError("empirical estimate requires at least one draw")


def _check_nominal_size(n, k: int = 1, message: str = "nominal sample size must be >= 1, got {n}") -> None:
    """The nominal-n rule: the nominal sample size n (a real) and the alphabet size k are >= 1."""
    if n < 1 or k < 1:
        raise ValueError(message.format(n=n))


class Measure:
    """Nonnegative weight vector over a finite alphabet; total mass unconstrained.

    Immutable after construction (the backing array is read-only), so
    instances are safe to share across threads.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights):
        w = _as_weight_array(weights, "weights").copy()
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
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    return Pmf(np.full(k, 1.0 / k))


def zipf_pmf(k: int, s: float = 1.0) -> Pmf:
    """Power-law distribution with weight i**(-s) on symbol i (1-based), normalized."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if not math.isfinite(s):
        raise ValueError("exponent must be finite")
    base = np.arange(1, k + 1, dtype=np.float64)
    if s < 0:
        base /= k  # weights (i/k)**(-s) <= 1, so they cannot overflow
    w = base ** (-s)
    return Pmf(w / math.fsum(w))


def two_point_pmf(k: int, mass: float) -> Pmf:
    """Puts ``mass`` on symbol 0 and spreads the remaining mass uniformly
    over symbols 1..k-1."""
    if k < 2:
        raise ValueError(f"two-point distribution needs k >= 2, got {k}")
    if not 0.0 <= mass <= 1.0:
        raise ValueError(f"mass must lie in [0, 1], got {mass}")
    w = np.full(k, (1.0 - mass) / (k - 1))
    w[0] = mass
    return Pmf(w)


def load_pmf(path) -> Pmf:
    """Read a distribution file: one nonnegative decimal weight per line.

    Blank lines are ignored. The weights must satisfy the ``Pmf`` rules
    (sum to 1 within tolerance); offending entries raise ValueError.
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
    if not weights:
        raise ValueError(f"{path}: no weights found")
    return Pmf(weights)


def empirical_estimate(counts) -> Pmf:
    """Maximum-likelihood estimate: entry i is count_i / total."""
    return add_t_estimate(counts, 0.0)


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
