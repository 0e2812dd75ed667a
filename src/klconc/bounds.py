"""Closed-form bounds, constants, and exact combinatorial facts.

Every formula is evaluated with its explicit constants; the one bound known
only up to order of magnitude (:func:`prior_deviation_bound`) uses constant
1 and is documented as approximate. The bounds take plain values, (k, n) or
(k, n, delta), and hold them to two rules: k, n >= 1 and 0 < delta < 1.
Exact-summation companions of the inverse-moment formulas check them against
an independent oracle. The regularised incomplete gamma function, and the
binomial and Poisson pmfs on an integer window with the masses outside it,
that these oracles and the harness's goodness-of-fit tests need are
computed here with numpy and ``math`` alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
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


def _check_sizes(k: float, n: int) -> None:
    """Raise ValueError unless the alphabet size k and the sample size n are >= 1."""
    if k < 1:
        raise ValueError(f"alphabet size must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")


def _check_delta(delta: float) -> None:
    """Raise ValueError unless the failure probability delta lies in (0, 1)."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {delta}")


def kl_deviation_bound(k: int, n: int, delta: float) -> float:
    """Deviation term of the KL tail bound for the add-one estimator:

        6*sqrt(k * log(4k/delta)**5) / n + 311/n + 160*k / n**1.5

    This is the additive term on top of the expected loss; the expectation
    itself is measured empirically by the harness.
    """
    _check_sizes(k, n)
    _check_delta(delta)
    lg = math.log(4.0 * k / delta)
    return 6.0 * math.sqrt(k * lg**5) / n + 311.0 / n + 160.0 * k / n**1.5


def prior_deviation_bound(k: int, n: int, delta: float) -> float:
    """Earlier deviation rate (k/n) * log(n) * log(k/delta), linear in k.

    Known only up to an unstated constant; evaluated here with constant 1,
    so it is an order-of-magnitude yardstick, not a certified bound.
    """
    _check_sizes(k, n)
    _check_delta(delta)
    if n < 2:
        raise ValueError(f"sample size must be >= 2 so that log(n) > 0, got {n}")
    return k / n * math.log(n) * math.log(k / delta)


def variance_lower_bound(k: int, n: int) -> float:
    """k / (32 * n**2), valid for the uniform distribution when k >= 2 and
    n >= 10k. At k = 1 the loss is identically 0, so no floor holds."""
    if k < 2:
        raise ValueError(f"variance lower bound requires k >= 2, got k={k}")
    if n < 10 * k:
        raise ValueError(f"variance lower bound requires n >= 10*k, got n={n}, k={k}")
    return k / (32.0 * n**2)


def heuristic_kl_std(k: int, n: int) -> float:
    """Large-k chi-square-approximation standard deviation sqrt(k/2) / n.

    Under multinomial sampling the approximation has k - 1 degrees of
    freedom, so its exact-dof form is sqrt((k-1)/2) / n; the two differ by
    sqrt((k-1)/k), which is 0.707 at k=2.
    """
    _check_sizes(k, n)
    return math.sqrt(k / 2.0) / n


def poisson_tail_radius(n_obs, delta: float):
    """Observed-count tail radius 6 * sqrt(n_obs + 1) * log(2/delta), for
    one count or elementwise for an array of counts.

    With probability at least 1 - delta a Poisson draw N with any rate lam
    satisfies |N + 1 - lam| <= radius(N, delta).
    """
    if np.any(np.asarray(n_obs) < 0):
        raise ValueError(f"observed counts must be >= 0, got min {np.min(n_obs)}")
    _check_delta(delta)
    return 6.0 * np.sqrt(n_obs + 1.0) * math.log(2.0 / delta)


def expectation_gap_bound(k: float, n: int) -> float:
    """311/n + 160*k / n**1.5: gap between the Poissonized and fixed-n
    expected adjusted KL. k is a real >= 1: the alphabet size, or 1/p for the
    coupling of one symbol of mass p."""
    _check_sizes(k, n)
    return 311.0 / n + 160.0 * k / n**1.5


def clip_threshold(k: int, n: int, delta: float) -> float:
    """Per-symbol clip level 36 * log(4k/delta)**2 / n used to bound
    coordinate influence in the concentration argument."""
    _check_sizes(k, n)
    _check_delta(delta)
    return 36.0 * math.log(4.0 * k / delta) ** 2 / n


def _check_binomial(m: int, prob: float) -> None:
    """Raise ValueError unless Bin(m, prob) has m >= 0 and prob in (0, 1]."""
    if m < 0:
        raise ValueError(f"number of trials must be >= 0, got {m}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {prob}")


def binomial_inverse_moment(m: int, prob: float) -> float:
    """E[1/(X+1)] for X ~ Bin(m, prob): (1 - (1-prob)**(m+1)) / (prob*(m+1)).

    (1-prob)**(m+1) is evaluated via expm1/log1p so the result stays
    accurate for small prob.
    """
    _check_binomial(m, prob)
    if prob == 1.0:
        return 1.0 / (m + 1)
    numer = -math.expm1((m + 1) * math.log1p(-prob))
    return numer / (prob * (m + 1))


def _regularized_gamma(a: float, x: float) -> tuple[float, float]:
    """Regularised incomplete gamma functions (P(a, x), Q(a, x)) for a > 0
    and finite x >= 0.

    Below x = a + 1 the power series gives P, above it the modified Lentz
    continued fraction gives Q; the other one is the complement, which on
    each side of x = a + 1 stays away from 0. Uses: ``chi2.sf(s, d) = Q(d/2, s/2)``,
    ``Pr[Poi(lam) < j] = Q(j, lam)`` and ``Pr[Poi(lam) > j] = P(j+1, lam)``.
    """
    if not (a > 0 and 0 <= x < math.inf):
        raise ValueError(f"need a > 0 and finite x >= 0, got a={a}, x={x}")
    if x == 0:
        return 0.0, 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))  # x^a e^-x / Gamma(a)
    eps = np.finfo(np.float64).eps
    max_terms = 100 + int(50 * math.sqrt(a))  # both converge in O(sqrt(a)) terms near x = a
    if x < a + 1:
        term = total = 1.0 / a
        for i in range(1, max_terms):
            term *= x / (a + i)
            total += term
            if term < total * eps:
                p = front * total
                return p, 1.0 - p
    else:
        tiny = 1e-300
        b = x + 1.0 - a
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        for i in range(1, max_terms):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = b + an / c
            c = c if abs(c) >= tiny else tiny
            h *= d * c
            if abs(d * c - 1.0) < eps:
                q = front * h
                return 1.0 - q, q
    raise ArithmeticError(f"incomplete gamma did not converge at a={a}, x={x}")


def _outward_pmf(lo: int, hi: int, mode: int, down, mass: float) -> np.ndarray:
    """P[X = x] for x = lo..hi: the ratios down(x) = P[x-1]/P[x] multiplied
    outward from the mode, clamped into the window, scaled to sum to ``mass``."""
    mode = min(max(mode, lo), hi)
    below = np.cumprod(down(np.arange(mode, lo, -1)))[::-1]
    above = np.cumprod(1.0 / down(np.arange(mode + 1, hi + 1)))
    pmf = np.concatenate([below, [1.0], above])
    return pmf * (mass / math.fsum(pmf))


def _binomial_window(m: int, prob: float, lo: int, hi: int) -> tuple[int, np.ndarray, float, float]:
    """(lo', pmf, 0.0, 0.0): Bin(m, prob) on [lo, hi] widened, within [0, m], until
    Hoeffding's exp(-2t^2/m) puts each side below 1e-15, a mass counted as 0,
    so the pmf sums to 1. Its ratios x(1-prob)/((m-x+1)prob) vanish at prob = 1."""
    t = math.sqrt(m * math.log(1e15) / 2.0)
    lo = max(0, min(lo, math.floor(m * prob - t)))
    hi = min(m, max(hi, math.ceil(m * prob + t)))
    pmf = _outward_pmf(lo, hi, int((m + 1) * prob), lambda x: x * (1.0 - prob) / ((m - x + 1.0) * prob), 1.0)
    return lo, pmf, 0.0, 0.0


def _poisson_window(lam: float, lo: int, hi: int) -> tuple[int, np.ndarray, float, float]:
    """(lo, pmf, head, tail): Poi(lam) on [lo, hi], head = Pr[N < lo] = Q(lo, lam)
    and tail = Pr[N > hi] = P(hi + 1, lam). The pmf sums to 1 - head - tail if the
    window holds int(lam), else to P(lo, lam) - tail above it or Q(hi + 1, lam) - head
    below it, which do not cancel far in a tail."""
    at_least, head = _regularized_gamma(lo, lam) if lo > 0 else (1.0, 0.0)
    tail, at_most = _regularized_gamma(hi + 1, lam)
    mass = at_least - tail if lo > int(lam) else at_most - head if hi < int(lam) else 1.0 - head - tail
    return lo, _outward_pmf(lo, hi, int(lam), lambda x: x / lam, mass), head, tail


def _binomial_inverse_moments_exact(m: int, prob: float) -> tuple[float, float]:
    """(E[1/(X+1)], E[1/((X+1)(X+2))]) for X ~ Bin(m, prob), both summed exactly
    over one pmf window."""
    _check_binomial(m, prob)
    x, pmf = np.arange(m + 1), _binomial_window(m, prob, 0, m)[1]
    return math.fsum(pmf / (x + 1.0)), math.fsum(pmf / ((x + 1.0) * (x + 2.0)))


def binomial_inverse_moment_exact(m: int, prob: float) -> float:
    """Exact-summation oracle for :func:`binomial_inverse_moment`."""
    return _binomial_inverse_moments_exact(m, prob)[0]


def binomial_inverse_moment2_bound(m: int, prob: float) -> float:
    """Upper bound 1 / (prob**2 * (m+1) * (m+2)) on E[1/((X+1)(X+2))]."""
    _check_binomial(m, prob)
    return 1.0 / (prob**2 * (m + 1) * (m + 2))


def binomial_inverse_moment2_exact(m: int, prob: float) -> float:
    """Exact summation of E[1/((X+1)(X+2))] for X ~ Bin(m, prob)."""
    return _binomial_inverse_moments_exact(m, prob)[1]


# Stirling series for log(n!) - (n log n - n + 0.5*log(2 pi n)); truncating
# after the n**-9 term leaves a relative error below 1e-20 for n >= 20.
# Held as the doubles nearest the exact rationals, converted once.
_STIRLING_COEFFS = tuple(float(c) for c in (
    Fraction(1, 12),
    Fraction(-1, 360),
    Fraction(1, 1260),
    Fraction(-1, 1680),
    Fraction(1, 1188),
))


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
        r += c / n ** (2 * j - 1)
    return math.exp(-r) / math.sqrt(2.0 * math.pi * n)


def binomial_product_variance(n0: int) -> float:
    """Var(X * (n0 - X)) = (n0**2 - n0) / 8 for X ~ Bin(n0, 1/2)."""
    if n0 < 0:
        raise ValueError(f"pair total must be >= 0, got {n0}")
    return n0 * (n0 - 1) / 8.0
