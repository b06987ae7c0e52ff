import tracemalloc

import numpy as np
import pytest
from conftest import spf_table

import ordense.sieve as sieve
from ordense.arith import euler_phi, factorize, is_prime, moebius
from ordense.empirical import X_LIMIT
from ordense.sieve import primes_upto, sieve_primes, tables


def test_tables_match_arith():
    phi, mu = tables(3000)
    # the arrays are the shared cache: callers cannot write into it
    assert not any(x.flags.writeable for x in (phi, mu))
    # the oracles' factoring table
    spf = spf_table(3000)
    assert spf[:2].tolist() == [0, 1]
    for n in range(2, 3001):
        assert spf[n] == min(factorize(n).primes), n
        assert phi[n] == euler_phi(n), n
        assert mu[n] == moebius(n), n


def _tables_by_loop(limit):
    """(phi, mu) with every prime <= limit crossed off in a Python loop."""
    primes = sieve_primes(limit)
    phi = np.arange(limit + 1, dtype=np.int64)
    mu = np.ones(limit + 1, dtype=np.int64)
    for p in primes.tolist():
        phi[p::p] -= phi[p::p] // p
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return phi, mu


def test_tables_match_loop(monkeypatch):
    # the primes above sqrt(limit) leave phi and mu through whole-array
    # operations: every limit up to 300 (squares and the numbers beside
    # them), larger ones, and a table grown from a smaller limit
    runs = [[limit] for limit in range(301)] + [[4096], [10**5], [1000, 25_000], [961, 1024]]
    for limits in runs:
        monkeypatch.setattr(sieve, "_table_cache", {})
        for limit in limits:
            got = tables(limit)
        want = _tables_by_loop(limits[-1])
        for name, a, b in zip(("phi", "mu"), got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), (limits, name)


# windows from the bottom of the range; windows starting just below, at and
# just above a square p^2, where p starts crossing off, and windows ending
# there, with lo and hi of both parities; one around 1e6.  Then tiny windows
# from lo = 2 (2 takes the flag of the number 1), 3 and 4 (an even lo > 2
# drops the odd number below it), and one just below X_LIMIT
WINDOWS = [(lo, 1000) for lo in (0, 1, 2, 3)]
WINDOWS += [(p * p + k, p * p + 3 * p + k) for p in (2, 3, 5, 7, 31, 997) for k in (-1, 0, 1)]
WINDOWS += [(10**6 - 1000, 10**6 + 1000)]
WINDOWS += [(p * p + k, p * p + 3 * p + k + 1) for p in (2, 3, 5, 7, 31, 997) for k in (-1, 0, 1)]
WINDOWS += [
    (p * p - 2 * p + j, p * p + k) for p in (2, 3, 5, 7, 31, 997) for j in (0, 1) for k in (-1, 0, 1)
]
WINDOWS += [(lo, hi) for lo in (2, 3, 4) for hi in range(lo, 10)]
WINDOWS += [(X_LIMIT - 2000, X_LIMIT)]
# one id per window: a repeated one would rename both
WINDOWS = list(dict.fromkeys(WINDOWS))


@pytest.mark.parametrize("lo, hi", WINDOWS)
def test_sieve_primes_window(lo, hi):
    got = sieve_primes(hi, lo)
    assert got.dtype == "int64"
    assert got.tolist() == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_sieve_primes_empty_and_single_windows():
    assert sieve_primes(10, 11).tolist() == []
    assert sieve_primes(1).tolist() == []
    assert sieve_primes(1, 0).tolist() == []
    assert sieve_primes(2).tolist() == [2]
    assert sieve_primes(961, 961).tolist() == []  # 31^2
    assert sieve_primes(997, 997).tolist() == [997]


def test_primes_upto_after_a_larger_call(monkeypatch):
    monkeypatch.setattr(sieve, "_prime_cache", {})
    assert len(primes_upto(10**5)) == 9592
    for limit in (996, 997, 1000):
        assert primes_upto(limit).tolist() == [n for n in range(limit + 1) if is_prime(n)]
    assert sieve._prime_cache["limit"] == 10**5


def test_primes_upto_joins_windows(monkeypatch):
    # limits inside the first window, at its end and straddling the second
    w = sieve._WINDOW
    for limit in (10**6, w + 1, w + 2, w + 10**5):
        monkeypatch.setattr(sieve, "_prime_cache", {})
        got = primes_upto(limit)
        assert got.dtype == "int64"
        assert np.array_equal(got, sieve_primes(limit)), limit


def test_primes_upto_memory_windowed(monkeypatch):
    # the windows and their join stay under sieve_primes' own bound
    monkeypatch.setattr(sieve, "_prime_cache", {})
    tracemalloc.start()
    try:
        primes_upto(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


def test_sieve_primes_memory_half_width():
    # one flag per odd number (5e6 bytes) and the 664579 int64 primes
    # (5.3e6 bytes); a flag per number, or 2 prepended by copying the
    # primes, goes past 12 MiB
    tracemalloc.start()
    try:
        sieve_primes(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak
