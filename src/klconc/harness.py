"""Seeded Monte Carlo experiments for the distributional claims.

Every report here is a pure function of its arguments. Trials come in
blocks of 2048: trial i is row ``i mod 2048`` of the Mult(n, p) count
matrix that block ``i // 2048`` draws from the stream derived from
(master_seed, i // 2048). A block is drawn in sub-chunks of at most 2^18
cells from that one stream, which yields the same rows as one draw, so
``reps=r`` gives the first r trials of any longer run. Aggregation walks
the same blocks in index order, and the only auxiliary randomness, the
figure-1 sweep's per-row sub-seeds, lives on a reserved stream domain.
Intervals are closed-form functions of the losses and draw nothing.
Everything runs on the calling thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import stats

from .bounds import (
    BoundInputs,
    binomial_inverse_moment,
    binomial_inverse_moment_exact,
    binomial_inverse_moment2_bound,
    binomial_inverse_moment2_exact,
    binomial_product_variance,
    heuristic_kl_std,
    kl_deviation_bound,
    poisson_pmf_at_mean,
    poisson_tail_radius,
    variance_lower_bound,
)
from .distributions import Pmf, load_pmf, two_point_pmf, uniform_pmf, zipf_pmf
from .losses import kl_losses
from .sampling import _derive_subseed, coupled_pairs, derive_trial_rng

__all__ = [
    "DistSpec",
    "ExperimentConfig",
    "TrialSummary",
    "RunningMoments",
    "GofResult",
    "StdSweepRow",
    "VarianceLbReport",
    "TailBoundReport",
    "PoissonTailReport",
    "CouplingGapReport",
    "MarginalGofReport",
    "ExpectedKlReport",
    "FactCheck",
    "exceedance_allowance",
    "run_kl_trials",
    "sweep_std_vs_heuristic",
    "verify_variance_lb",
    "verify_kl_tail_bound",
    "poisson_tail_check",
    "coupling_diagnostic",
    "check_gof_reps",
    "coupling_marginal_gof",
    "expected_kl_check",
    "chi_square_gof",
    "run_facts_checks",
]

QUANTILE_LEVELS = (0.5, 0.9, 0.99)
MAX_STORED_TRIALS = 10**7
GOF_P_THRESHOLD = 1e-3
_BLOCK = 2048
_CHUNK_CELLS = 2**18  # counts held at once: 2 MB of int64, whatever k is

# Reserved stream domain of the sweep rows' sub-seeds (see sampling._derive_subseed).
_DOMAIN_SWEEP_ROW = 2


@dataclass(frozen=True)
class DistSpec:
    """Test-distribution spec: uniform(k), zipf(k, s), twopoint(k, mass), or a file."""

    kind: str
    k: int | None = None
    s: float = 1.0
    mass: float = 0.99
    path: str | None = None

    _KINDS = ("uniform", "zipf", "twopoint", "file")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}; expected one of {self._KINDS}")
        if self.kind == "file":
            if not self.path:
                raise ValueError("file distribution needs a path")
        elif self.k is None or self.k < 1:
            raise ValueError(f"{self.kind} distribution needs k >= 1, got {self.k}")

    @staticmethod
    def uniform(k: int) -> "DistSpec":
        return DistSpec("uniform", k=k)

    @staticmethod
    def zipf(k: int, s: float = 1.0) -> "DistSpec":
        return DistSpec("zipf", k=k, s=s)

    @staticmethod
    def twopoint(k: int, mass: float = 0.99) -> "DistSpec":
        return DistSpec("twopoint", k=k, mass=mass)

    @staticmethod
    def from_file(path: str) -> "DistSpec":
        return DistSpec("file", path=path)

    def make(self) -> Pmf:
        if self.kind == "uniform":
            return uniform_pmf(self.k)
        if self.kind == "zipf":
            return zipf_pmf(self.k, self.s)
        if self.kind == "twopoint":
            return two_point_pmf(self.k, self.mass)
        return load_pmf(self.path)

    def label(self) -> str:
        if self.kind == "uniform":
            return f"uniform({self.k})"
        if self.kind == "zipf":
            return f"zipf({self.k},{self.s:g})"
        if self.kind == "twopoint":
            return f"twopoint({self.k},{self.mass:g})"
        return f"file:{self.path}"


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one KL-loss experiment."""

    dist: DistSpec
    n: int
    reps: int
    master_seed: int
    t: float = 1.0
    delta: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sample size must be >= 1, got {self.n}")
        if self.reps < 1:
            raise ValueError(f"repetition count must be >= 1, got {self.reps}")
        if not (self.t >= 0 and math.isfinite(self.t)):
            raise ValueError(f"smoothing constant must be finite and >= 0, got {self.t}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"failure probability must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated per-trial KL losses of one experiment."""

    k: int
    n: int
    reps: int
    t: float
    mean_kl: float
    var_kl: float
    std_kl: float
    quantiles: dict[float, float]
    exceed_count: int | None
    t_delta: float | None
    wall_seconds: float


class RunningMoments:
    """Streaming mean/variance accumulator with an exact merge.

    Block statistics are combined with Chan's update, so aggregating block
    summaries in a fixed order is numerically stable.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    @classmethod
    def from_array(cls, values: np.ndarray) -> "RunningMoments":
        mom = cls()
        mom.count = int(values.size)
        if mom.count:
            mom.mean = float(np.mean(values))
            mom._m2 = float(np.sum((values - mom.mean) ** 2))
        return mom

    def merge(self, other: "RunningMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean, other._m2
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total

    @property
    def variance(self) -> float:
        """Unbiased sample variance (divisor count - 1)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)


def _check_stored(reps: int) -> None:
    """Raise ValueError before a reps-sized array above MAX_STORED_TRIALS is drawn."""
    if reps > MAX_STORED_TRIALS:
        raise ValueError(f"repetition count capped at {MAX_STORED_TRIALS} (got {reps})")


def _kl_loss_samples(pmf: Pmf, n: int, t: float, master_seed: int, reps: int) -> np.ndarray:
    """Per-trial KL(p || add-t estimate) losses; trial i is row i mod 2048 of
    the counts drawn on stream (master_seed, i // 2048)."""
    _check_stored(reps)
    losses = np.empty(reps, dtype=np.float64)
    chunk = max(1, _CHUNK_CELLS // len(pmf))
    for block_lo in range(0, reps, _BLOCK):
        rng = derive_trial_rng(master_seed, block_lo // _BLOCK)
        block_hi = min(block_lo + _BLOCK, reps)
        for lo in range(block_lo, block_hi, chunk):
            hi = min(lo + chunk, block_hi)
            losses[lo:hi] = kl_losses(pmf, rng.multinomial(n, pmf.probs, size=hi - lo), t)
    if t > 0 and not np.all(np.isfinite(losses)):
        raise RuntimeError("add-t losses with t > 0 must be finite")
    return losses


def _moments_blockwise(losses: np.ndarray) -> RunningMoments:
    """Single stable pass: pairwise block statistics merged in index order."""
    total = RunningMoments()
    for lo in range(0, losses.size, _BLOCK):
        total.merge(RunningMoments.from_array(losses[lo : lo + _BLOCK]))
    return total


def _exact_quantiles(losses: np.ndarray, levels=QUANTILE_LEVELS) -> dict[float, float]:
    """Order-statistic quantiles: level q maps to the ceil(q * reps)-th smallest."""
    srt = np.sort(losses)
    out = {}
    for q in levels:
        idx = max(0, math.ceil(q * losses.size) - 1)
        out[q] = float(srt[idx])
    return out


def run_kl_trials(cfg: ExperimentConfig) -> TrialSummary:
    """Draw Mult(n, p) counts per trial, smooth with add-t, and aggregate the
    KL losses. Deterministic given cfg."""
    start = time.perf_counter()
    pmf = cfg.dist.make()
    k = len(pmf)
    losses = _kl_loss_samples(pmf, cfg.n, cfg.t, cfg.master_seed, cfg.reps)

    if np.isinf(losses).any():
        # Only reachable with t = 0 (unsmoothed estimate misses support).
        mean_kl = var_kl = std_kl = math.inf
    else:
        moments = _moments_blockwise(losses)
        mean_kl = moments.mean
        var_kl = moments.variance
        std_kl = math.sqrt(var_kl)

    exceed_count = None
    t_delta = None
    if cfg.delta is not None:
        t_delta = kl_deviation_bound(BoundInputs(k=k, n=cfg.n, delta=cfg.delta))
        exceed_count = int(np.sum(losses > mean_kl + t_delta))

    return TrialSummary(
        k=k,
        n=cfg.n,
        reps=cfg.reps,
        t=cfg.t,
        mean_kl=mean_kl,
        var_kl=var_kl,
        std_kl=std_kl,
        quantiles=_exact_quantiles(losses),
        exceed_count=exceed_count,
        t_delta=t_delta,
        wall_seconds=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class StdSweepRow:
    k: int
    sample_std: float
    heuristic_std: float
    ratio: float | None


def sweep_std_vs_heuristic(
    ks,
    n: int = 10240,
    reps: int = 1000,
    master_seed: int = 0,
) -> list[StdSweepRow]:
    """Sample std of the add-one KL loss on uniform(k) vs sqrt(k/2)/n, one row
    per k. Each row runs on its own derived sub-seed so rows are independent.

    sqrt(k/2)/n is the large-k form of the chi-square approximation; its
    exact-dof form under multinomial sampling is sqrt((k-1)/2)/n, so the
    ratio column sits near sqrt((k-1)/k) at small k.
    """
    rows = []
    for k in ks:
        sub_seed = _derive_subseed(master_seed, _DOMAIN_SWEEP_ROW, k)
        cfg = ExperimentConfig(dist=DistSpec.uniform(k), n=n, reps=reps, master_seed=sub_seed)
        summary = run_kl_trials(cfg)
        heuristic = heuristic_kl_std(k, n)
        ratio = summary.std_kl / heuristic if summary.std_kl > 0 else None
        rows.append(StdSweepRow(k=k, sample_std=summary.std_kl, heuristic_std=heuristic, ratio=ratio))
    return rows


@dataclass(frozen=True)
class VarianceLbReport:
    k: int
    n: int
    reps: int
    empirical_var: float
    lower_bound: float
    ratio: float
    ci_low: float
    ci_high: float
    passed: bool


_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _variance_interval(losses: np.ndarray, moments: RunningMoments) -> tuple[float, float]:
    """95% normal interval on the sample variance s^2 of r losses, from the
    fourth central moment m4: Var(s^2) ~ (m4 - s^4 (r-3)/(r-1)) / r. The lower
    end is clamped at 0; below two losses the interval is (nan, nan)."""
    r = losses.size
    if r < 2:
        return math.nan, math.nan
    s2 = moments.variance
    m4 = float(np.mean((losses - moments.mean) ** 4))
    half = _Z95 * math.sqrt(max(0.0, (m4 - s2 * s2 * (r - 3) / (r - 1)) / r))
    return max(0.0, s2 - half), s2 + half


def verify_variance_lb(k: int, n: int, reps: int, seed: int) -> VarianceLbReport:
    """Empirical Var(KL) for the add-one estimator on uniform(k) against the
    closed-form floor k/(32 n^2); requires n >= 10k."""
    lb = variance_lower_bound(k, n)  # validates n >= 10k
    losses = _kl_loss_samples(uniform_pmf(k), n, 1.0, seed, reps)
    moments = _moments_blockwise(losses)
    empirical = moments.variance
    ci_low, ci_high = _variance_interval(losses, moments)
    return VarianceLbReport(
        k=k,
        n=n,
        reps=reps,
        empirical_var=empirical,
        lower_bound=lb,
        ratio=empirical / lb,
        ci_low=ci_low,
        ci_high=ci_high,
        passed=bool(empirical >= lb),
    )


@dataclass(frozen=True)
class TailBoundReport:
    k: int
    n: int
    reps: int
    delta: float
    t_delta: float
    exceed_frac: float
    allowed: float
    passed: bool


def exceedance_allowance(delta: float, reps: int) -> float:
    """delta plus three binomial standard errors, so Monte Carlo noise cannot
    flip a true pass into a fail."""
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / reps)


def verify_kl_tail_bound(k: int, n: int, reps: int, delta: float, seed: int) -> TailBoundReport:
    """Fraction of trials whose KL loss exceeds mean + deviation bound; must
    stay within delta (plus sampling slack)."""
    t_delta = kl_deviation_bound(BoundInputs(k=k, n=n, delta=delta))
    losses = _kl_loss_samples(uniform_pmf(k), n, 1.0, seed, reps)
    mean = _moments_blockwise(losses).mean
    exceed_frac = float(np.mean(losses > mean + t_delta))
    allowed = exceedance_allowance(delta, reps)
    return TailBoundReport(
        k=k,
        n=n,
        reps=reps,
        delta=delta,
        t_delta=t_delta,
        exceed_frac=exceed_frac,
        allowed=allowed,
        passed=bool(exceed_frac <= allowed),
    )


@dataclass(frozen=True)
class PoissonTailReport:
    lam: float
    delta: float
    reps: int
    fail_frac: float
    allowed: float
    passed: bool


def poisson_tail_check(lam: float, delta: float, reps: int, seed: int) -> PoissonTailReport:
    """Failure rate of |N + 1 - lam| <= 6*sqrt(N+1)*log(2/delta) over Poisson
    draws; must stay within delta (plus sampling slack)."""
    _check_stored(reps)
    rng = derive_trial_rng(seed, 0)
    draws = rng.poisson(lam, size=reps)
    fail_frac = float(np.mean(np.abs(draws + 1.0 - lam) > poisson_tail_radius(draws, delta)))
    allowed = exceedance_allowance(delta, reps)
    return PoissonTailReport(
        lam=lam, delta=delta, reps=reps, fail_frac=fail_frac, allowed=allowed, passed=bool(fail_frac <= allowed)
    )


@dataclass(frozen=True)
class CouplingGapReport:
    n: int
    prob: float
    reps: int
    est_gap: float
    ci_low: float
    ci_high: float
    bound: float
    passed: bool


_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def coupling_diagnostic(n: int, prob: float, reps: int, seed: int) -> CouplingGapReport:
    """Monte Carlo estimate of E[(M - M')/(M' + 1)] over the coupling versus
    the closed-form ceiling 311/n + 160/(n^1.5 * prob). Passes unless the 99%
    CI certifies a violation (lower edge above the ceiling)."""
    _check_stored(reps)
    rng = derive_trial_rng(seed, 0)
    m, m_prime, *_ = coupled_pairs(rng, n, prob, reps)
    gaps = (m - m_prime) / (m_prime + 1.0)
    moments = _moments_blockwise(gaps)
    se = math.sqrt(moments.variance / reps)
    est = moments.mean
    bound = 311.0 / n + 160.0 / (n**1.5 * prob)
    return CouplingGapReport(
        n=n,
        prob=prob,
        reps=reps,
        est_gap=est,
        ci_low=est - _Z99 * se,
        ci_high=est + _Z99 * se,
        bound=bound,
        passed=bool(est - _Z99 * se <= bound),
    )


@dataclass(frozen=True)
class GofResult:
    statistic: float
    p_value: float
    dof: int
    bins: int


def chi_square_gof(values: np.ndarray, probs: np.ndarray, tail_prob: float = 0.0,
                   min_expected: float = 5.0) -> GofResult:
    """Chi-square goodness of fit of integer draws against an exact pmf.

    ``probs[j]`` is the target P[X = j] for j < len(probs) and ``tail_prob``
    the mass at or beyond len(probs). Adjacent bins are merged left to right
    until each carries expected count >= min_expected (the remainder folds
    into the last bin), which collapses the sparse tails.
    """
    values = np.asarray(values)
    n_draws = values.size
    n_bins = len(probs)
    observed = np.bincount(np.minimum(values, n_bins), minlength=n_bins + 1).astype(np.float64)
    expected = np.append(np.asarray(probs, dtype=np.float64), tail_prob) * n_draws

    merged_obs: list[float] = []
    merged_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if merged_exp:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)

    if len(merged_exp) < 2:
        return GofResult(statistic=0.0, p_value=1.0, dof=0, bins=len(merged_exp))
    obs = np.array(merged_obs)
    exp = np.array(merged_exp)
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(merged_exp) - 1
    return GofResult(
        statistic=statistic, p_value=float(stats.chi2.sf(statistic, dof)), dof=dof, bins=len(merged_exp)
    )


@dataclass(frozen=True)
class MarginalGofReport:
    n: int
    prob: float
    reps: int
    chi2_m: float
    p_m: float
    chi2_m_prime: float
    p_m_prime: float
    passed: bool


def check_gof_reps(reps: int) -> None:
    """Raise ValueError unless reps is enough draws for the marginal GOF tests."""
    if reps < 10**5:
        raise ValueError(f"marginal GOF needs reps >= 1e5, got {reps}")


def coupling_marginal_gof(n: int, prob: float, reps: int, seed: int) -> MarginalGofReport:
    """Goodness of fit of the coupling's two coordinates against their exact
    marginals: Bin(n, prob) for M and Poi(n * prob) for M'."""
    check_gof_reps(reps)
    _check_stored(reps)
    rng = derive_trial_rng(seed, 0)
    m, m_prime, *_ = coupled_pairs(rng, n, prob, reps)

    gof_m = chi_square_gof(m, stats.binom.pmf(np.arange(n + 1), n, prob))

    lam = n * prob
    hi = max(int(m_prime.max()), int(stats.poisson.ppf(1.0 - 1e-12, lam)))
    gof_mp = chi_square_gof(
        m_prime,
        stats.poisson.pmf(np.arange(hi + 1), lam),
        tail_prob=float(stats.poisson.sf(hi, lam)),
    )
    passed = gof_m.p_value >= GOF_P_THRESHOLD and gof_mp.p_value >= GOF_P_THRESHOLD
    return MarginalGofReport(
        n=n,
        prob=prob,
        reps=reps,
        chi2_m=gof_m.statistic,
        p_m=gof_m.p_value,
        chi2_m_prime=gof_mp.statistic,
        p_m_prime=gof_mp.p_value,
        passed=bool(passed),
    )


@dataclass(frozen=True)
class ExpectedKlReport:
    dist: str
    k: int
    n: int
    reps: int
    mean_kl: float
    ceiling: float
    slack: float
    passed: bool


def expected_kl_check(dist: DistSpec, n: int, reps: int, seed: int) -> ExpectedKlReport:
    """Mean add-one KL loss against the worst-case expectation (k-1)/n, with
    one-sided CI slack of three standard errors."""
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    pmf = dist.make()
    k = len(pmf)
    losses = _kl_loss_samples(pmf, n, 1.0, seed, reps)
    moments = _moments_blockwise(losses)
    ceiling = (k - 1) / n
    slack = 3.0 * math.sqrt(moments.variance / reps)
    return ExpectedKlReport(
        dist=dist.label(),
        k=k,
        n=n,
        reps=reps,
        mean_kl=moments.mean,
        ceiling=ceiling,
        slack=slack,
        passed=bool(moments.mean <= ceiling + slack),
    )


@dataclass(frozen=True)
class FactCheck:
    name: str
    detail: str
    passed: bool


def _exact_binomial_product_variance(n0: int) -> Fraction:
    """Var(X*(n0-X)) for X ~ Bin(n0, 1/2) by exact rational enumeration."""
    denom = Fraction(1, 2**n0)
    e1 = Fraction(0)
    e2 = Fraction(0)
    for x in range(n0 + 1):
        w = math.comb(n0, x) * denom
        g = Fraction(x * (n0 - x))
        e1 += w * g
        e2 += w * g * g
    return e2 - e1 * e1


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


def run_facts_checks() -> list[FactCheck]:
    """Exact-oracle verification of the closed-form combinatorial facts."""
    checks = []

    worst = 0.0
    for m in range(_INV_MOMENT_MAX_M + 1):
        for p in _INV_MOMENT_PROBS:
            closed = binomial_inverse_moment(m, p)
            exact = binomial_inverse_moment_exact(m, p)
            worst = max(worst, abs(closed - exact) / exact)
    checks.append(
        FactCheck(
            name="binomial inverse moment closed form vs exact summation",
            detail=f"max relative error {worst:.3e} over m<=200, p in {_INV_MOMENT_PROBS}",
            passed=worst <= 1e-12,
        )
    )

    ok = True
    for m in range(_INV_MOMENT_MAX_M + 1):
        for p in _INV_MOMENT_PROBS:
            exact = binomial_inverse_moment2_exact(m, p)
            bound = binomial_inverse_moment2_bound(m, p)
            if p == 1.0:
                # X = m surely, so the bound is attained exactly.
                ok = ok and math.isclose(exact, bound, rel_tol=1e-12)
            else:
                # Analytic relative slack (1-p)^(m+1) ((1-p) + (m+2)p); strictness
                # is only decidable in float where the slack is representable.
                slack = (1.0 - p) ** (m + 1) * ((1.0 - p) + (m + 2) * p)
                if slack > 1e-12:
                    ok = ok and exact < bound
                else:
                    ok = ok and exact <= bound * (1 + 1e-12)
    checks.append(
        FactCheck(
            name="second inverse moment within 1/(p^2 (m+1)(m+2))",
            detail="equality on p=1; strict below it wherever the gap is representable",
            passed=ok,
        )
    )

    floor_ok = all(poisson_pmf_at_mean(n) >= 1.0 / (3.0 * math.sqrt(n)) for n in range(1, 10**4 + 1))
    checks.append(
        FactCheck(
            name="Pr[Poi(n) = n] >= 1/(3 sqrt(n))",
            detail="checked exhaustively for n in [1, 1e4]",
            passed=floor_ok,
        )
    )

    prod_ok = all(
        _exact_binomial_product_variance(n0) * 8 == n0 * n0 - n0 for n0 in range(0, 61)
    ) and all(
        abs(binomial_product_variance(n0) - float(_exact_binomial_product_variance(n0))) <= 1e-10
        for n0 in range(0, 61)
    )
    checks.append(
        FactCheck(
            name="Var(X(n0-X)) = (n0^2 - n0)/8 for X ~ Bin(n0, 1/2)",
            detail="exact rational enumeration for n0 in [0, 60]",
            passed=prod_ok,
        )
    )

    mono_ok = True
    details = []
    for a, b in ((0, 10), (5, 50), (0, 100)):
        var_f, floor = _monotone_variance_instance(a, b)
        details.append(f"[{a},{b}]: {var_f:.4g} >= {floor:.4g}")
        if not var_f >= floor:
            mono_ok = False
    checks.append(
        FactCheck(
            name="Var(f(X)) >= min f'^2 * Var(X) for f = log(1+x), X uniform",
            detail="; ".join(details),
            passed=mono_ok,
        )
    )

    return checks
