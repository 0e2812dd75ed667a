"""Seeded, exact random generation: counter-derived trial streams and a
joint binomial/Poisson construction with both marginals exact.

Streams are derived counter-style from a 64-bit master seed and a stream
index, so any experiment is a pure function of (master_seed, indices). The
KL-loss engine (``klconc.harness``) takes one stream per block of 2048
trials: trial i is row ``i mod 2048`` of the block that stream
(master_seed, i // 2048) yields. When 4n <= k a row is n categorical
symbols: row-sorted uniforms mapped through the normalised cumulative pmf
(the same rows as ``Generator.choice``, sorted), one uniform per symbol;
otherwise it is a Mult(n, p) count vector from ``Generator.multinomial``.
Both consume the stream row after row, so drawing a block in sub-chunks of
at most 2^18 cells gives the same rows as one draw. The coupled
binomial/Poisson draws come in chunks of 2^16 (``_DRAW_CHUNK``) with the
same values as one draw of each array.
numpy's binomial and Poisson generators are exact-rejection samplers (no
normal or translated approximations), which the test suite certifies by
goodness-of-fit and Kolmogorov-distance checks.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random import Generator, PCG64, SeedSequence

__all__ = [
    "derive_trial_rng",
    "coupled_pairs",
]

_DRAW_CHUNK = 2**16  # draws held at once by the vectorised claims: 512 KB of int64


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


_Pairs = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def coupled_pairs(rng: Generator, n: int, prob: float, size: int) -> Iterator[_Pairs]:
    """``size`` draws from the joint binomial/Poisson construction, yielded
    as arrays (m, m_prime, n_latent, x, y) in chunks of at most 2^16 draws.

    ``m`` has the Bin(n, prob) marginal and ``m_prime`` the Poi(n * prob)
    marginal; ``n_latent`` is the shared latent Poi(n) total and (x, y) the
    two conditionally independent binomial pieces: x on min(n_latent, n)
    trials and y on |n - n_latent| trials. When n_latent > n the pair is
    (m, m_prime) = (x, x + y), otherwise (x + y, x); hence
    |m - m_prime| = y always.

    The stream gives every n_latent, then every x, then every y. Drawing x
    and y a chunk at a time consumes it in the same order, so the chunks,
    concatenated, are the arrays of one draw of each. The arguments are
    checked when this is called, before anything is drawn.
    """
    if n < 1:
        raise ValueError(f"nominal sample size must be >= 1, got {n}")
    if not 0.0 < prob <= 1.0:
        raise ValueError(f"probability must lie in (0, 1], got {prob}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    return _coupled_chunks(rng, n, prob, size)


def _coupled_chunks(rng: Generator, n: int, prob: float, size: int) -> Iterator[_Pairs]:
    n_latent = rng.poisson(n, size=size)
    x = np.empty_like(n_latent)
    bounds = [(lo, min(lo + _DRAW_CHUNK, size)) for lo in range(0, size, _DRAW_CHUNK)]
    for lo, hi in bounds:
        x[lo:hi] = rng.binomial(np.minimum(n_latent[lo:hi], n), prob)
    for lo, hi in bounds:
        latent, xs = n_latent[lo:hi], x[lo:hi]
        y = rng.binomial(np.abs(latent - n), prob)
        over = latent > n
        yield np.where(over, xs, xs + y), np.where(over, xs + y, xs), latent, xs, y
