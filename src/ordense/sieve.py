"""The package's one prime sieve and the arithmetic tables built from it.

primes_upto serves the Euler products (characters), the base primes of the
p - 1 factor sieve and the census (empirical); tables serves the Kummer
series (density).  Both caches grow to the largest limit asked for and are
never trimmed, so a smaller request is a slice of what is already held.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["primes_upto", "tables"]

_prime_cache: dict[str, np.ndarray] = {}
_table_cache: dict[str, tuple[int, list[int], list[int], list[int]]] = {}


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (cached, grow-only)."""
    cached = _prime_cache.get("primes")
    if cached is None or _prime_cache["limit"] < limit:
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        cached = np.flatnonzero(sieve).astype(np.int64)
        _prime_cache["primes"] = cached
        _prime_cache["limit"] = limit
    return cached[: int(np.searchsorted(cached, limit, side="right"))]


def tables(limit: int) -> tuple[list[int], list[int], list[int]]:
    """(spf, phi, mu) lists indexed 0..limit (cached, grow-only); spf[1] = 1.

    Built with numpy from primes_upto, returned as plain lists: the series
    evaluators do scalar lookups in tight loops where list indexing is faster.
    """
    hit = _table_cache.get("t")
    if hit is not None and hit[0] >= limit:
        return hit[1], hit[2], hit[3]
    primes = primes_upto(limit)
    spf = np.arange(limit + 1, dtype=np.int64)
    # largest prime first, so each composite keeps its smallest prime factor
    for p in primes[primes <= math.isqrt(limit)][::-1].tolist():
        spf[p * p :: p] = p
    phi = np.arange(limit + 1, dtype=np.int64)
    mu = np.ones(limit + 1, dtype=np.int64)
    for p in primes.tolist():
        phi[p::p] -= phi[p::p] // p
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    out = (limit, spf.tolist(), phi.tolist(), mu.tolist())
    _table_cache["t"] = out
    return out[1], out[2], out[3]
