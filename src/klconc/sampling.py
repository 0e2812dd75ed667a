"""Seeded, exact random generation: multinomial, Poissonized counts, and a
joint binomial/Poisson construction with both marginals exact.

Streams are derived counter-style from a 64-bit master seed and a stream
index, so any experiment is a pure function of (master_seed, indices). The
KL-loss engine (``klconc.harness``) takes one stream per block of 2048
trials: trial i is row ``i mod 2048`` of the Mult(n, p) counts that stream
(master_seed, i // 2048) yields. ``Generator.multinomial`` draws rows one
after another, so drawing a block in several calls gives the same rows.
numpy's binomial and Poisson generators are exact-rejection samplers (no
normal or translated approximations), which the test suite certifies by
goodness-of-fit and Kolmogorov-distance checks.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

from .distributions import Counts, Pmf

__all__ = [
    "derive_trial_rng",
    "multinomial_counts",
    "poissonized_counts",
    "coupled_pairs",
]


def _seed_sequence(master_seed: int, spawn_key: tuple[int, ...]) -> SeedSequence:
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master seed must lie in [0, 2^64), got {master_seed}")
    return SeedSequence(master_seed, spawn_key=spawn_key)


def derive_trial_rng(master_seed: int, trial_index: int) -> Generator:
    """Statistically independent stream for one trial.

    Derivation hashes (master_seed, trial_index) directly (spawn keys),
    not sequential jumping, so stream i never depends on how many other
    streams exist or in which order they were created.
    """
    if trial_index < 0:
        raise ValueError(f"trial index must be >= 0, got {trial_index}")
    return Generator(PCG64(_seed_sequence(master_seed, (trial_index,))))


def _derive_subseed(master_seed: int, domain: int, index: int = 0) -> int:
    """64-bit sub-seed usable as a fresh master seed, e.g. one per sweep row.
    Its two-element spawn key never collides with the one-element keys of
    :func:`derive_trial_rng`, so it is disjoint from every trial stream."""
    return int(_seed_sequence(master_seed, (domain, index)).generate_state(1, np.uint64)[0])


def multinomial_counts(rng: Generator, p: Pmf, n: int) -> Counts:
    """Counts of n independent draws from p: Mult(n, p)."""
    if n < 0:
        raise ValueError(f"sample size must be >= 0, got {n}")
    return Counts(rng.multinomial(n, p.probs), total=n)


def poissonized_counts(rng: Generator, p: Pmf, n: int) -> Counts:
    """Counts under Poissonized sampling with nominal size n.

    Drawn as independent Poi(n * p_i) per symbol, which is distributed
    identically to first drawing N ~ Poi(n) and then Mult(N, p) but costs
    O(k) rather than O(N). The realized total is the Counts total.
    """
    if n < 1:
        raise ValueError(f"nominal sample size must be >= 1, got {n}")
    c = rng.poisson(n * p.probs)
    return Counts(c)


def coupled_pairs(
    rng: Generator, n: int, prob: float, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``size`` draws from the joint binomial/Poisson construction; returns
    arrays (m, m_prime, n_latent, x, y).

    ``m`` has the Bin(n, prob) marginal and ``m_prime`` the Poi(n * prob)
    marginal; ``n_latent`` is the shared latent Poi(n) total and (x, y) the
    two conditionally independent binomial pieces: x on min(n_latent, n)
    trials and y on |n - n_latent| trials. When n_latent > n the pair is
    (m, m_prime) = (x, x + y), otherwise (x + y, x); hence
    |m - m_prime| = y always.
    """
    if n < 1:
        raise ValueError(f"nominal sample size must be >= 1, got {n}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {prob}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    n_latent = rng.poisson(n, size=size)
    x = rng.binomial(np.minimum(n_latent, n), prob)
    y = rng.binomial(np.abs(n_latent - n), prob)
    over = n_latent > n
    m = np.where(over, x, x + y)
    m_prime = np.where(over, x + y, x)
    return m, m_prime, n_latent, x, y
