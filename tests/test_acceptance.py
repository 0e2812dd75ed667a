"""Acceptance gate: every criterion at its stated size and tolerance.

Criteria 1-7 run ``klconc figure1 --seed 42`` and ``klconc check --seed 7``,
pin their configs and reps to those commands' defaults, and assert on the
values the run computed. Each test prints one PASS/FAIL line (``pytest -s``
shows them). Criterion 1 compares the sample std of the loss with the
chi-square law under multinomial sampling, which has k-1 degrees of freedom:
sqrt((k-1)/2)/n. The large-k form sqrt(k/2)/n is off by sqrt((k-1)/k),
0.707 at k=2, so it cannot be the reference at small k; an exact oracle
at k=2 and k=4 backs the k-1 reference independently of the Monte Carlo.
"""

import contextlib
import csv
import inspect
import io
import math

import numpy as np
from scipy.stats import binom

from klconc import cli
from klconc.bounds import heuristic_kl_std
from klconc.distributions import Pmf, add_t_estimate, pseudo_estimate, two_point_pmf, uniform_pmf, zipf_pmf
from klconc.harness import derive_trial_rng
from klconc.losses import adjusted_kl_divergence, adjusted_kl_shift, adjusted_kl_terms, kl_divergence

SEED = 7


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {verdict} - {name}{suffix}")


def _chi2_std(k: int, n: int) -> float:
    """Chi-square std of the add-one KL loss with k-1 degrees of freedom."""
    return math.sqrt((k - 1) / 2) / n


def _exact_std_k2(n: int) -> float:
    """Exact std of the add-one KL loss on uniform(2): enumerate C1 ~ Bin(n, 1/2)."""
    c = np.arange(n + 1)
    w = binom.pmf(c, n, 0.5)
    loss = -0.5 * (np.log1p(c) + np.log1p(n - c)) + math.log1p(n / 2)
    mean = np.dot(w, loss)
    return math.sqrt(np.dot(w, (loss - mean) ** 2))


def _exact_std_uniform(k: int, n: int) -> float:
    """Exact std of the add-one KL loss on uniform(k), k >= 3.

    KL = -(1/k) sum_i log(C_i+1) + log(1+n/k), so
    Var(KL) = [k Var(L1) + k(k-1) Cov(L1, L2)] / k^2 with L_i = log(C_i+1).
    The covariance sums over the trinomial C1 ~ Bin(n, 1/k),
    C2 | C1=a ~ Bin(n-a, 1/(k-1)), each within +/-12 SD of its mean.
    """
    width = 12.0

    def window(lo_mean, hi_mean, sd):
        lo = max(0, math.floor(lo_mean - width * sd))
        return np.arange(lo, min(n, math.ceil(hi_mean + width * sd)) + 1)

    p, q = 1.0 / k, 1.0 / (k - 1)
    a = window(n * p, n * p, math.sqrt(n * p * (1 - p)))
    w = binom.pmf(a, n, p)
    la = np.log1p(a)
    mean = np.dot(w, la)
    var = np.dot(w, (la - mean) ** 2)
    # one b grid covers every conditional window: means (n-a)q, SD <= sqrt(nq(1-q))
    b = window((n - a[-1]) * q, (n - a[0]) * q, math.sqrt(n * q * (1 - q)))
    cond = binom.pmf(b[None, :], (n - a)[:, None], q)
    cov = np.dot(w, (la - mean) * (cond @ (np.log1p(b) - mean)))
    return math.sqrt(k * var + k * (k - 1) * cov) / k


def _check(monkeypatch, suite: str, runner: str, configs: list, reps: int | None):
    """Pin a criterion's configs and reps to ``suite``'s defaults, then run
    ``klconc check --suite SUITE --seed 7`` once. Returns the printed lines,
    the arguments by name of each call of ``runner`` (the harness name the
    suite looks up in ``klconc.cli``), and every result of those calls."""
    table = cli._suites()[suite]
    assert (table.configs, table.reps) == (configs, reps)
    real, calls, results = getattr(cli, runner), [], []

    def record(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        results.extend(out if isinstance(out, list) else [out])
        return out

    monkeypatch.setattr(cli, runner, record)
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(["check", "--suite", suite, "--seed", "7"])
    lines = stdout.getvalue().splitlines()
    assert code == 0 and lines[-1] == "== verdict: PASS", stdout.getvalue()
    assert len(calls) == len(configs) and all((c.get("reps"), c.get("seed", SEED)) == (reps, SEED) for c in calls)
    return lines, calls, results


def test_criterion_1_std_sweep_matches_heuristic(tmp_path):
    ks, n = [2, 4, 8, 16, 32, 64], 10240
    defaults = cli.build_parser().parse_args(["figure1", "--out", "-"])
    assert (defaults.ks, defaults.n, defaults.reps) == (ks, n, 1000)
    exact = {2: _exact_std_k2(n), 4: _exact_std_uniform(4, n)}
    exact_ok = all(abs(s / _chi2_std(k, n) - 1) <= 1e-3 for k, s in exact.items())
    exact_detail = ", ".join(
        f"k={k}: {s / _chi2_std(k, n):.5f} (vs sqrt(k/2)/n: {s / heuristic_kl_std(k, n):.5f})"
        for k, s in exact.items()
    )
    _report(1, "exact std within 1e-3 of sqrt((k-1)/2)/n at k=2, 4", exact_ok, exact_detail)

    out = tmp_path / "figure1.csv"
    assert cli.main(["figure1", "--seed", "42", "--out", str(out)]) == 0
    with out.open(newline="") as fh:  # 17 significant digits: every value reads back exactly
        rows = [{col: float(v) for col, v in row.items()} for row in csv.DictReader(fh)]
    assert [r["k"] for r in rows] == ks
    ratios = {k: r["sample_std"] / _chi2_std(k, n) for k, r in zip(ks, rows)}
    passed = all(0.85 <= v <= 1.15 for v in ratios.values())
    detail = ", ".join(f"k={k}: {ratios[k]:.3f} (vs sqrt(k/2)/n: {r['ratio']:.3f})" for k, r in zip(ks, rows))
    _report(1, "sample std within 15% of sqrt((k-1)/2)/n for k in 2..64", passed, detail)
    assert exact_ok, f"exact std / sqrt((k-1)/2)/n not within 1e-3 of 1: {exact_detail}"
    assert passed, f"std / sqrt((k-1)/2)/n ratios out of [0.85, 1.15]: {detail}"


def test_criterion_2_variance_floor(monkeypatch):
    configs = [(2, 20), (10, 100), (64, 10240)]
    _, calls, reports = _check(monkeypatch, "variance", "verify_variance_lb", configs, 100_000)
    assert [(c["k"], c["n"]) for c in calls] == configs
    passed = all(r.passed and r.values["ratio"] >= 5.0 for r in reports)
    detail = ", ".join(f"(k={k},n={n}): ratio={r.values['ratio']:.2f}" for (k, n), r in zip(configs, reports))
    _report(2, "empirical Var(KL) >= k/(32 n^2) with ratio >= 5", passed, detail)
    assert passed, detail


def test_criterion_3_tail_bound_exceedance(monkeypatch):
    configs = [(10, 1000, 0.1), (100, 10_000, 0.05)]
    _, calls, reports = _check(monkeypatch, "thm", "verify_kl_tail_bound", configs, 10_000)
    assert [(c["k"], c["n"], c["delta"]) for c in calls] == configs
    passed = all(r.passed for r in reports)
    detail = ", ".join(
        f"(k={k},n={n},delta={delta}): exceed={r.values['exceed_frac']:.5f}<=allowed={r.values['allowed']:.5f}"
        for (k, n, delta), r in zip(configs, reports)
    )
    _report(3, "KL exceeds mean + t_delta on at most a delta fraction", passed, detail)
    assert passed, detail


def test_criterion_4_poisson_tail_failure_rate(monkeypatch):
    configs = [(lam, (0.05, 0.1, 0.5)) for lam in (1.0, 10.0, 100.0, 10_000.0)]
    _, calls, reports = _check(monkeypatch, "poisson-tail", "poisson_tail_checks", configs, 1_000_000)
    assert [(c["lam"], c["deltas"]) for c in calls] == configs and len(reports) == 12
    passed = all(r.passed for r in reports)
    worst = max(r.values["fail_frac"] - r.values["allowed"] for r in reports)
    _report(4, "|N+1-lam| tail radius fails on at most a delta fraction", passed,
            f"12 configurations, worst margin {worst:+.2e}")
    assert passed


def test_criterion_5_coupling_marginals_and_gap(monkeypatch):
    configs = [(20, 0.4), (100, 0.5), (10_000, 0.01)]
    _, calls, reports = _check(monkeypatch, "coupling", "coupling_checks", configs, 1_000_000)
    assert [(c["n"], c["prob"]) for c in calls] == configs
    gap, gof = reports[0::2], reports[1::2]  # each call returns [gap, marginals]
    passed = all(r.passed for r in gof) and all(r.passed for r in gap)
    detail = "; ".join(
        f"(n={n},p={p}): pM={g.values['p_m']:.4f}, pM'={g.values['p_m_prime']:.4f}, "
        f"gap_ci_low={d.values['ci_low']:.3e}<=bound={d.values['bound']:.3e}"
        for (n, p), g, d in zip(configs, gof, gap)
    )
    _report(5, "coupling has exact Bin/Poi marginals and bounded expectation gap", passed, detail)
    assert passed, detail


def test_criterion_6_exact_oracle_facts(monkeypatch):
    _, _, checks = _check(monkeypatch, "facts", "run_facts_checks", [()], None)
    passed = all(c.passed for c in checks)
    detail = "; ".join(f"{c.values['name']}: {'ok' if c.passed else 'FAIL'}" for c in checks)
    _report(6, "closed-form facts match exact oracles", passed, detail)
    assert passed, detail


def test_criterion_7_expectation_ceiling(monkeypatch):
    dists = {"uniform(10)": uniform_pmf(10), "zipf(10,1)": zipf_pmf(10, 1.0),
             "twopoint(10,0.99)": two_point_pmf(10, 0.99)}
    configs = [(label, 1000) for label in dists]
    lines, calls, reports = _check(monkeypatch, "expectation", "expected_kl_check", configs, 100_000)
    assert [(c["pmf"].probs.tolist(), c["n"]) for c in calls] == [(p.probs.tolist(), 1000) for p in dists.values()]
    assert [line.split(": ")[1].split(" ")[0] for line in lines if line.startswith("PASS")] == list(dists)
    passed = all(r.passed for r in reports)
    detail = ", ".join(f"{label}: mean={r.values['mean_kl']:.3e}"
                       f"<=ceil+slack={r.values['ceiling'] + r.values['slack']:.3e}"
                       for label, r in zip(dists, reports))
    _report(7, "mean KL under (k-1)/n for three distributions", passed, detail)
    assert passed, detail


class TestCriterion8Identities:
    """Structural identities, >= 1e4 randomized cases each at 1e-12 relative."""

    CASES = 10_000

    def test_shift_identity(self):
        # the shift itself can be ~1/(2n^2), far below float resolution of the
        # operands, so the 1e-12 relative tolerance is taken against the
        # magnitude of the divergences being differenced
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(self.CASES):
            k = int(rng.integers(1, 50))
            n = int(rng.integers(1, 10**6))
            p = Pmf(rng.dirichlet(np.ones(k)))
            q = Pmf(rng.dirichlet(np.ones(k)))
            kl = kl_divergence(p, q)
            got = adjusted_kl_divergence(p, q, n) - kl
            want = adjusted_kl_shift(n, k)
            worst = max(worst, abs(got - want) / max(1.0, abs(kl)))
        _report(8, "adjusted-KL shift identity", worst <= 1e-12, f"worst rel err {worst:.2e}")
        assert worst <= 1e-12

    def test_uniform_log_decomposition(self):
        # KL can be exactly 0 (perfectly balanced counts), so measure against
        # the decomposition's dominant piece log(1 + n/k) rather than the value
        rng = np.random.default_rng(103)
        worst = 0.0
        for i in range(self.CASES):
            k = int(rng.integers(1, 64))
            n = int(rng.integers(1, 2000))
            p = uniform_pmf(k)
            counts = derive_trial_rng(201, i).multinomial(n, p.probs)
            direct = kl_divergence(p, add_t_estimate(counts, 1.0))
            scale = math.log(1.0 + n / k)
            decomposed = -math.fsum(np.log(counts + 1.0)) / k + scale
            worst = max(worst, abs(direct - decomposed) / max(1.0, scale))
        _report(8, "uniform-p log decomposition with log(1+n/k)", worst <= 1e-12,
                f"worst rel err {worst:.2e}")
        assert worst <= 1e-12

    def test_per_term_nonnegativity(self):
        rng = np.random.default_rng(107)
        worst = math.inf
        for _ in range(self.CASES):
            k = int(rng.integers(1, 50))
            n = int(rng.integers(1, 10**4))
            p = Pmf(rng.dirichlet(np.ones(k)))
            counts = rng.poisson(n * p.probs)
            terms = adjusted_kl_terms(p, pseudo_estimate(counts, n), n)
            worst = min(worst, float(terms.min()))
        _report(8, "per-symbol adjusted-KL terms nonnegative", worst >= -1e-12,
                f"smallest term {worst:.2e}")
        assert worst >= -1e-12

    def test_pseudo_estimate_mass_identity(self):
        rng = np.random.default_rng(109)
        worst = 0.0
        for _ in range(self.CASES):
            k = int(rng.integers(1, 50))
            n = int(rng.integers(1, 10**6))
            counts = rng.poisson(n / k, size=k)
            got = pseudo_estimate(counts, n).sum()
            want = (counts.sum() + k) / (n + k)
            worst = max(worst, abs(got - want) / want)
        _report(8, "pseudo-estimate mass equals (N+k)/(n+k)", worst <= 1e-12,
                f"worst rel err {worst:.2e}")
        assert worst <= 1e-12


def test_criterion_9_thread_count_determinism(tmp_path):
    outputs = []
    threads = ["1", "4", str(max(1, __import__("os").cpu_count() or 1))]
    for tag, t in enumerate(threads):
        out = tmp_path / f"run{tag}.csv"
        code = cli.main([
            "simulate", "--dist", "uniform", "--k", "8", "--n", "500", "--reps", "2000",
            "--seed", "11", "--threads", t, "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    passed = outputs[0] == outputs[1] == outputs[2]
    _report(9, "byte-identical CSV at thread counts {1, 4, max}", passed)
    assert passed
