"""Closed-form bounds, constants, and exact combinatorial facts.

Every formula is evaluated with its explicit constants; the one bound known
only up to order of magnitude (:func:`prior_deviation_bound`) uses constant
1 and is documented as approximate. Exact-summation companions are provided
for the inverse-moment formulas so they can be checked against an
independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats

__all__ = [
    "BoundInputs",
    "kl_deviation_bound",
    "prior_deviation_bound",
    "variance_lower_bound",
    "heuristic_kl_std",
    "poisson_tail_radius",
    "expectation_gap_bound",
    "clip_threshold",
    "binomial_inverse_moment",
    "binomial_inverse_moment_exact",
    "binomial_inverse_moment2_bound",
    "binomial_inverse_moment2_exact",
    "poisson_pmf_at_mean",
    "binomial_product_variance",
]


@dataclass(frozen=True)
class BoundInputs:
    """Alphabet size k, sample size n, and failure probability delta."""

    k: int
    n: int
    delta: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"failure probability must lie in (0, 1), got {self.delta}")


def kl_deviation_bound(b: BoundInputs) -> float:
    """Deviation term of the KL tail bound for the add-one estimator:

        6*sqrt(k * log(4k/delta)**5) / n + 311/n + 160*k / n**1.5

    This is the additive term on top of the expected loss; the expectation
    itself is measured empirically by the harness.
    """
    lg = math.log(4.0 * b.k / b.delta)
    return 6.0 * math.sqrt(b.k * lg**5) / b.n + 311.0 / b.n + 160.0 * b.k / b.n**1.5


def prior_deviation_bound(b: BoundInputs) -> float:
    """Earlier deviation rate (k/n) * log(n) * log(k/delta), linear in k.

    Known only up to an unstated constant; evaluated here with constant 1,
    so it is an order-of-magnitude yardstick, not a certified bound.
    """
    if b.n < 2:
        raise ValueError(f"sample size must be >= 2 so that log(n) > 0, got {b.n}")
    return b.k / b.n * math.log(b.n) * math.log(b.k / b.delta)


def variance_lower_bound(k: int, n: int) -> float:
    """k / (32 * n**2), valid for the uniform distribution when n >= 10k."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if n < 10 * k:
        raise ValueError(f"variance lower bound requires n >= 10*k, got n={n}, k={k}")
    return k / (32.0 * n**2)


def heuristic_kl_std(k: int, n: int) -> float:
    """Large-k chi-square-approximation standard deviation sqrt(k/2) / n.

    Under multinomial sampling the approximation has k - 1 degrees of
    freedom, so its exact-dof form is sqrt((k-1)/2) / n; the two differ by
    sqrt((k-1)/k), which is 0.707 at k=2.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    return math.sqrt(k / 2.0) / n


def poisson_tail_radius(n_obs, delta: float):
    """Observed-count tail radius 6 * sqrt(n_obs + 1) * log(2/delta), for
    one count or elementwise for an array of counts.

    With probability at least 1 - delta a Poisson draw N with any rate lam
    satisfies |N + 1 - lam| <= radius(N, delta).
    """
    if np.any(np.asarray(n_obs) < 0):
        raise ValueError(f"observed counts must be >= 0, got min {np.min(n_obs)}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {delta}")
    return 6.0 * np.sqrt(n_obs + 1.0) * math.log(2.0 / delta)


def expectation_gap_bound(k: int, n: int) -> float:
    """311/n + 160*k / n**1.5: gap between the Poissonized and fixed-n
    expected adjusted KL."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    return 311.0 / n + 160.0 * k / n**1.5


def clip_threshold(b: BoundInputs) -> float:
    """Per-symbol clip level 36 * log(4k/delta)**2 / n used to bound
    coordinate influence in the concentration argument."""
    return 36.0 * math.log(4.0 * b.k / b.delta) ** 2 / b.n


def binomial_inverse_moment(m: int, prob: float) -> float:
    """E[1/(X+1)] for X ~ Bin(m, prob): (1 - (1-prob)**(m+1)) / (prob*(m+1)).

    (1-prob)**(m+1) is evaluated via expm1/log1p so the result stays
    accurate for small prob.
    """
    if m < 0:
        raise ValueError(f"number of trials must be >= 0, got {m}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {prob}")
    if prob == 1.0:
        return 1.0 / (m + 1)
    numer = -math.expm1((m + 1) * math.log1p(-prob))
    return numer / (prob * (m + 1))


def binomial_inverse_moment_exact(m: int, prob: float) -> float:
    """Exact-summation oracle for :func:`binomial_inverse_moment`."""
    if m < 0:
        raise ValueError(f"number of trials must be >= 0, got {m}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {prob}")
    x = np.arange(m + 1)
    return math.fsum(stats.binom.pmf(x, m, prob) / (x + 1.0))


def binomial_inverse_moment2_bound(m: int, prob: float) -> float:
    """Upper bound 1 / (prob**2 * (m+1) * (m+2)) on E[1/((X+1)(X+2))]."""
    if m < 0:
        raise ValueError(f"number of trials must be >= 0, got {m}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {prob}")
    return 1.0 / (prob**2 * (m + 1) * (m + 2))


def binomial_inverse_moment2_exact(m: int, prob: float) -> float:
    """Exact summation of E[1/((X+1)(X+2))] for X ~ Bin(m, prob)."""
    if m < 0:
        raise ValueError(f"number of trials must be >= 0, got {m}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {prob}")
    x = np.arange(m + 1)
    return math.fsum(stats.binom.pmf(x, m, prob) / ((x + 1.0) * (x + 2.0)))


# Stirling series for log(n!) - (n log n - n + 0.5*log(2 pi n)); truncating
# after the n**-9 term leaves a relative error below 1e-20 for n >= 20.
_STIRLING_COEFFS = (
    Fraction(1, 12),
    Fraction(-1, 360),
    Fraction(1, 1260),
    Fraction(-1, 1680),
    Fraction(1, 1188),
)


def poisson_pmf_at_mean(n: int) -> float:
    """Pr[Poi(n) = n] = exp(-n) * n**n / n!, accurate to ~1e-15 relative.

    The naive log-gamma difference n*log(n) - n - lgamma(n+1) cancels two
    ~n*log(n)-sized terms and loses ~log10(n) digits, so the log-gamma
    asymptotic is applied in the grouped form exp(-r(n)) / sqrt(2*pi*n)
    with r the Stirling correction series; below n = 20 the exact
    factorial ratio is used instead.
    """
    if n < 1:
        raise ValueError(f"rate must be >= 1, got {n}")
    if n < 20:
        return math.exp(-n) * float(Fraction(n**n, math.factorial(n)))
    r = 0.0
    for j, c in enumerate(_STIRLING_COEFFS, start=1):
        r += float(c) / n ** (2 * j - 1)
    return math.exp(-r) / math.sqrt(2.0 * math.pi * n)


def binomial_product_variance(n0: int) -> float:
    """Var(X * (n0 - X)) = (n0**2 - n0) / 8 for X ~ Bin(n0, 1/2)."""
    if n0 < 0:
        raise ValueError(f"pair total must be >= 0, got {n0}")
    return n0 * (n0 - 1) / 8.0
