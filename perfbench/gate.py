"""Correctness gate: every check the benchmark makes is counted, and every
miss is kept with a one-line reason.

No seeded digest is compared: the engine's stream contract may change on
purpose, so outputs are judged by exit codes, PASS verdicts, an exact
oracle for the mean loss, and byte-identity between thread counts and
reruns of the same code.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# A simulate job's mean_kl may lie this many standard errors from the exact mean loss.
ORACLE_Z = 4.0


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def exact_mean_add_one_kl(p: np.ndarray, n: int) -> float:
    """E[KL(p || (C+1)/(n+k))] for C ~ Mult(n, p), from the Bin(n, p_i) marginals:

        sum p_i log p_i - sum p_i E[log(C_i + 1)] + log(n + k).
    """
    from scipy import stats

    p = np.asarray(p, dtype=np.float64)
    c = np.arange(n + 1)
    log_c1 = np.log1p(c)
    expected_log = np.empty(p.size)
    for lo in range(0, p.size, 512):
        chunk = p[lo : lo + 512]
        expected_log[lo : lo + chunk.size] = stats.binom.pmf(c[None, :], n, chunk[:, None]) @ log_c1
    positive = p > 0
    return math.fsum(p[positive] * np.log(p[positive])) - math.fsum(p * expected_log) + math.log(n + p.size)


def check_job(gate: Gate, job: dict, exact_mean: float | None = None) -> None:
    """Exit code 0; for ``check``, every claim line and the verdict PASS; for
    ``simulate`` with an oracle, mean_kl within ``ORACLE_Z`` standard errors of it."""
    label = " ".join(job["argv"][:3])
    if not gate.expect(job["code"] == 0, f"{label}: exit code {job['code']!r}"):
        return
    out = job["stdout"]
    if job["argv"][0] == "check":
        claims = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        gate.expect(bool(claims), f"{label}: no claim lines")
        for line in claims:
            gate.expect(line.startswith("PASS"), f"{label}: {line[:120]}")
        gate.expect(out.rstrip().endswith("== verdict: PASS"), f"{label}: verdict is not PASS")
    elif job["argv"][0] == "simulate" and exact_mean is not None:
        rows = list(csv.DictReader(io.StringIO(out)))
        if not gate.expect(len(rows) == 1, f"{label}: expected one CSV row, got {len(rows)}"):
            return
        row = rows[0]
        mean, se = float(row["mean_kl"]), float(row["std_kl"]) / math.sqrt(int(row["reps"]))
        gate.expect(
            abs(mean - exact_mean) <= ORACLE_Z * se,
            f"{label}: mean_kl {mean:.9g} is {abs(mean - exact_mean) / se:.1f} SE from exact {exact_mean:.9g}",
        )


def check_same_output(gate: Gate, a: dict, b: dict, why: str) -> None:
    """The two runs of one job printed byte-identical stdout."""
    label = " ".join(a["argv"][:3])
    gate.expect(a["stdout"] == b["stdout"], f"{label}: stdout differs ({why})")
