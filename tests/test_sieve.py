from ordense.arith import euler_phi, factorize, moebius
from ordense.sieve import tables


def test_tables_match_arith():
    spf, phi, mu = tables(3000)
    assert spf[:2].tolist() == [0, 1]
    # the arrays are the shared cache: callers cannot write into it
    assert not any(x.flags.writeable for x in (spf, phi, mu))
    for n in range(2, 3001):
        assert spf[n] == min(factorize(n).primes), n
        assert phi[n] == euler_phi(n), n
        assert mu[n] == moebius(n), n

