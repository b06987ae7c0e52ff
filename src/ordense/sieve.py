"""The package's one prime sieve and the arithmetic tables built from it.

sieve_primes finds the primes in a window [lo, hi]; primes_upto joins its
windows of _WINDOW numbers over [2, limit] and caches the primes for the
Euler products (characters), the base primes of the p - 1 factor sieve
(empirical) and the crossing-off primes of tables, the phi and mu arrays
of the Kummer series (density).  tables crosses off only the primes up to
sqrt(limit); every v then has at most one prime factor left, which
whole-array operations take out of phi and mu.  Both caches grow to the
largest limit asked for and are never trimmed, so a smaller request is a
slice of what is already held.
The census (empirical) needs every prime up to its x only once, and each
segment of the p - 1 factor sieve (empirical) needs only its own window, so
both call the uncached sieve_primes and own what it returns.  sieve_primes
holds one flag per odd number of its window, so 2 is never a crossing-off
stride, and the flag of the number 1 stands for 2.
check_prime_cutoff bounds the Euler products' prime cutoff where its primes
are sieved, so TruncationConfig checks it without importing characters.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["DEFAULT_PRIME_CUTOFF", "check_prime_cutoff", "primes_upto", "sieve_primes", "tables"]

DEFAULT_PRIME_CUTOFF = 10**7
# largest prime cutoff accepted: the primes below 1e8 take 46 MB in the
# cache; 1e8 is also the census's bound
_PRIME_CUTOFF_LIMIT = 10**8

# numbers per window of primes_upto: each window's flags stay cache-sized,
# and every limit up to 2^22 + 1 is one window, kept with no copy
_WINDOW = 1 << 22
_prime_cache: dict[str, np.ndarray] = {}
_table_cache: dict[str, tuple[int, np.ndarray, np.ndarray]] = {}


def check_prime_cutoff(prime_cutoff: int) -> None:
    """Refuse a prime cutoff outside [100, 1e8] before anything is sieved."""
    if prime_cutoff < 100:
        raise ValueError("prime_cutoff must be at least 100")
    if prime_cutoff > _PRIME_CUTOFF_LIMIT:
        raise ValueError("prime_cutoff must be <= 1e8")


def sieve_primes(hi: int, lo: int = 2) -> np.ndarray:
    """The primes in [lo, hi] as an int64 array, uncached: the caller owns it.

    Sieves the odd numbers alone: index i of its bool array stands for
    o + 2i, o the largest odd <= lo.  Each odd prime s up to sqrt(hi),
    found by sieving [2, sqrt(hi)] the same way, crosses off its odd
    multiples from the first one >= max(s^2, lo), which is stride s in the
    index.  When lo = 2, index 0 (the number 1, never crossed off) stands
    for 2 and is overwritten in the output.
    """
    lo = max(lo, 2)
    if hi < lo:
        return np.empty(0, dtype=np.int64)
    o = lo - 1 + lo % 2
    prime = np.ones((hi - o) // 2 + 1, dtype=bool)
    if lo > 2 and lo % 2 == 0:
        prime[0] = False  # o = lo - 1 lies below the window
    for s in sieve_primes(math.isqrt(hi)).tolist()[1:]:
        m = -(-lo // s) * s
        start = max(s * s, m if m % 2 else m + s)
        prime[(start - o) // 2 :: s] = False
    primes = np.flatnonzero(prime).astype(np.int64, copy=False)
    primes *= 2
    primes += o
    if lo == 2:
        primes[0] = 2
    return primes


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (cached, grow-only).

    Sieved by sieve_primes in windows of _WINDOW numbers, whose flags stay
    cache-sized, and joined.  Cached by hand, not by argument: a smaller
    limit reuses the larger array as a slice, and a larger one replaces it.
    """
    cached = _prime_cache.get("primes")
    if cached is None or _prime_cache["limit"] < limit:
        windows = [
            sieve_primes(min(lo + _WINDOW - 1, limit), lo)
            for lo in range(2, max(limit, 2) + 1, _WINDOW)
        ]
        # one window is kept as it is: joining copies it
        cached = windows[0] if len(windows) == 1 else np.concatenate(windows)
        _prime_cache["primes"] = cached
        _prime_cache["limit"] = limit
    return cached[: int(np.searchsorted(cached, limit, side="right"))]


def tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi, mu) int64 arrays indexed 0..limit or further.

    Cached and grow-only, so the arrays are shared and read-only.  Cached by
    hand, not by argument: any limit up to the held one reads the same arrays.
    """
    hit = _table_cache.get("t")
    if hit is not None and hit[0] >= limit:
        return hit[1], hit[2]
    small = primes_upto(math.isqrt(limit)).tolist()
    phi = np.arange(limit + 1, dtype=np.int64)
    mu = np.ones(limit + 1, dtype=np.int64)
    # rest[v] is v with its primes <= sqrt(limit) divided out: 1, or the one
    # prime factor of v above sqrt(limit), which every such v has at most once
    rest = np.arange(limit + 1, dtype=np.int64)
    for p in small:
        phi[p::p] -= phi[p::p] // p
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        pk = p
        while pk <= limit:
            rest[pk::pk] //= p
            pk *= p
    big = rest > 1
    # phi[v] still has the factor rest[v], so the division is exact
    np.floor_divide(phi, rest, out=rest, where=big)
    np.subtract(phi, rest, out=phi, where=big)
    del rest
    np.negative(mu, out=mu, where=big)
    for arr in (phi, mu):
        arr.flags.writeable = False
    _table_cache["t"] = (limit, phi, mu)
    return phi, mu
