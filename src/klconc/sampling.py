"""Seeded, exact random generation: counter-derived trial streams and a
joint binomial/Poisson construction with both marginals exact.

Streams are derived counter-style from a 64-bit master seed and a stream
index, so any experiment is a pure function of (master_seed, indices);
``klconc.harness`` states which unit of a run each stream draws.
numpy's binomial and Poisson generators are exact-rejection samplers (no
normal or translated approximations), which the test suite certifies by
goodness-of-fit and Kolmogorov-distance checks.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

__all__ = [
    "derive_trial_rng",
    "coupled_pairs",
]


def _seed_sequence(master_seed: int, spawn_key: tuple[int, ...]) -> SeedSequence:
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master seed must lie in [0, 2^64), got {master_seed}")
    return SeedSequence(master_seed, spawn_key=spawn_key)


def derive_trial_rng(master_seed: int, trial_index: int) -> Generator:
    """Statistically independent stream for one unit of a run.

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


def coupled_pairs(rng: Generator, n: int, prob: float, size: int) -> tuple[np.ndarray, ...]:
    """``size`` draws from the joint binomial/Poisson construction, as arrays
    (m, m_prime, n_latent, x, y).

    ``m`` has the Bin(n, prob) marginal and ``m_prime`` the Poi(n * prob)
    marginal; ``n_latent`` is the shared latent Poi(n) total and (x, y) the
    two conditionally independent binomial pieces: x on min(n_latent, n)
    trials and y on |n - n_latent| trials. When n_latent > n the pair is
    (m, m_prime) = (x, x + y), otherwise (x + y, x); hence
    |m - m_prime| = y always. ``rng`` gives the n_latent draws, and copies
    of it jumped ahead once and twice, taken before any draw, give the x
    and the y draws, so the first r draws of any size are those of size r.
    The arguments are checked before anything is drawn.
    """
    if n < 1:
        raise ValueError(f"nominal sample size must be >= 1, got {n}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {prob}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    x_rng, y_rng = (Generator(rng.bit_generator.jumped(jumps)) for jumps in (1, 2))
    n_latent = rng.poisson(n, size=size)
    x = x_rng.binomial(np.minimum(n_latent, n), prob)
    y = y_rng.binomial(np.abs(n_latent - n), prob)
    over = n_latent > n
    total = x + y
    return np.where(over, x, total), np.where(over, total, x), n_latent, x, y
