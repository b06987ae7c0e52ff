"""The package's one prime sieve and the arithmetic tables built from it.

sieve_primes finds the primes in a window [lo, hi]; primes_upto caches its
primes up to a limit for the Euler products (characters) and the base
primes of the p - 1 factor sieve (empirical), and tables serves the Kummer
series (density).  Both caches grow to the largest limit asked for and are
never trimmed, so a smaller request is a slice of what is already held.
The census (empirical) needs every prime up to its x only once, and each
segment of the p - 1 factor sieve (empirical) needs only its own window, so
both call the uncached sieve_primes and own what it returns.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["primes_upto", "sieve_primes", "tables"]

_prime_cache: dict[str, np.ndarray] = {}
_table_cache: dict[str, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}


def sieve_primes(hi: int, lo: int = 2) -> np.ndarray:
    """The primes in [lo, hi] as an int64 array, uncached: the caller owns it.

    Crosses off, over the window alone, the multiples of the primes up to
    sqrt(hi), which it finds by sieving [2, sqrt(hi)] the same way.
    """
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    prime = np.ones(hi - lo + 1, dtype=bool)
    for s in sieve_primes(math.isqrt(hi)).tolist():
        start = max(s * s, -(-lo // s) * s)
        prime[start - lo :: s] = False
    primes = np.flatnonzero(prime).astype(np.int64, copy=False)
    primes += lo
    return primes


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (cached, grow-only)."""
    cached = _prime_cache.get("primes")
    if cached is None or _prime_cache["limit"] < limit:
        cached = sieve_primes(limit)
        _prime_cache["primes"] = cached
        _prime_cache["limit"] = limit
    return cached[: int(np.searchsorted(cached, limit, side="right"))]


def tables(limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(spf, phi, mu) int64 arrays indexed 0..limit or further; spf[1] = 1.

    Cached and grow-only, so the arrays are shared and read-only.
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
    for arr in (spf, phi, mu):
        arr.flags.writeable = False
    out = (limit, spf, phi, mu)
    _table_cache["t"] = out
    return out[1], out[2], out[3]
