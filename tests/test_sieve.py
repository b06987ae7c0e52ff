import pytest

import ordense.sieve as sieve
from ordense.arith import euler_phi, factorize, is_prime, moebius
from ordense.sieve import primes_upto, sieve_primes, tables


def test_tables_match_arith():
    spf, phi, mu = tables(3000)
    assert spf[:2].tolist() == [0, 1]
    # the arrays are the shared cache: callers cannot write into it
    assert not any(x.flags.writeable for x in (spf, phi, mu))
    for n in range(2, 3001):
        assert spf[n] == min(factorize(n).primes), n
        assert phi[n] == euler_phi(n), n
        assert mu[n] == moebius(n), n


# windows from the bottom of the range; windows starting just below, at and
# just above a square p^2, where p starts crossing off; one around 1e6
WINDOWS = [(lo, 1000) for lo in (0, 1, 2, 3)]
WINDOWS += [(p * p + k, p * p + 3 * p + k) for p in (2, 3, 5, 7, 31, 997) for k in (-1, 0, 1)]
WINDOWS += [(10**6 - 1000, 10**6 + 1000)]


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
