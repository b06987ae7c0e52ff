import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordense.arith import (
    Factorization,
    discriminant_sqrt,
    euler_phi,
    factorize,
    is_prime,
    kronecker,
    moebius,
    nu2,
    odd_prime_power,
    parse_rational,
    squarefree_kernel,
    valuation,
)


def test_factorize_unit():
    assert factorize(1).pairs == ()
    assert factorize(1).n == 1


def test_factorize_84():
    assert factorize(84).pairs == ((2, 2), (3, 1), (7, 1))


def test_factorize_mersenne_prime():
    m61 = 2**61 - 1
    assert factorize(m61).pairs == ((m61, 1),)
    assert is_prime(m61)


def test_factorize_semiprime_of_large_primes():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q).pairs == ((p, 1), (q, 1))


def test_factorize_splits_above_the_trial_cap():
    # every factor lies far above the trial-division bases (primes up to 41),
    # so Pollard rho splits these
    m31, p32 = 2**31 - 1, 2**32 - 5
    assert factorize(1_048_583 * 1_048_589).pairs == ((1_048_583, 1), (1_048_589, 1))
    assert factorize(m31 * m31).pairs == ((m31, 2),)
    assert factorize(m31 * p32).pairs == ((m31, 1), (p32, 1))


def _trial_division_pairs(n):
    pairs, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return tuple(pairs)


def test_factorize_matches_trial_division():
    for n in range(1, 20_001):
        assert factorize(n).pairs == _trial_division_pairs(n), n


def test_factorize_just_above_the_bases():
    # the smallest primes that trial division by the bases (up to 41) leaves
    # to is_prime and Pollard rho, alone, in powers and in products
    cases = {
        43**2: ((43, 2),),
        43**3: ((43, 3),),
        43 * 47 * 53: ((43, 1), (47, 1), (53, 1)),
        37**2 * 41: ((37, 2), (41, 1)),
        1009 * 10007: ((1009, 1), (10007, 1)),
    }
    for n, pairs in cases.items():
        assert factorize(n).pairs == pairs, n
        assert all(is_prime(p) for p, _ in pairs)


def test_is_prime_matches_trial_division():
    assert [n for n in range(5000) if is_prime(n)] == [
        n for n in range(2, 5000) if _trial_division_pairs(n) == ((n, 1),)
    ]


def test_is_prime_refuses_psi12():
    # 399165290221 * 798330580441, the smallest strong pseudoprime to every
    # prime base up to 37; base 41 exposes it
    assert is_prime(318665857834031151167461) is False


def test_factorize_range_errors():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)


def test_factorization_invariants():
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        Factorization(((2, 0),))


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_factorize_reconstructs(n):
    assert factorize(n).n == n


def test_moebius_phi_valuation_units():
    assert moebius(1) == 1
    assert euler_phi(1) == 1
    assert moebius(6) == 1
    assert moebius(12) == 0
    assert moebius(30) == -1
    assert euler_phi(8) == 4
    assert valuation(2, 48) == 4
    assert valuation(3, 5) == 0


def test_odd_prime_power():
    powers = [(3, 1), (3, 2), (5, 2), (2**61 - 1, 1)]
    assert [odd_prime_power(q**s) for q, s in powers] == powers
    assert [odd_prime_power(n) for n in (-9, 0, 1, 2, 4, 6, 45)] == [None] * 7


def test_valuation_needs_prime():
    with pytest.raises(ValueError):
        valuation(6, 36)


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
@settings(max_examples=150, deadline=None)
def test_multiplicative_on_coprime(a, b):
    if math.gcd(a, b) != 1:
        return
    assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
    assert moebius(a * b) == moebius(a) * moebius(b)


def _legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_kronecker_examples():
    assert kronecker(5, 3) == -1
    assert all(kronecker(1, n) == 1 for n in range(1, 40))
    assert kronecker(-3, 7) == 1
    assert kronecker(5, 2) == -1  # 5 = 5 (mod 8)
    assert kronecker(1, 2) == 1  # 1 = 1 (mod 8)
    assert kronecker(4, 2) == 0
    with pytest.raises(ValueError):
        kronecker(0, 0)


def test_kronecker_matches_legendre_all_odd_primes_below_200():
    primes = [p for p in range(3, 200) if is_prime(p)]
    for p in primes:
        squares = {x * x % p for x in range(1, p)}
        for a in range(-2 * p, 2 * p + 1):
            if a % p == 0:
                assert kronecker(a, p) == 0
            else:
                expect = 1 if a % p in squares else -1
                assert kronecker(a, p) == expect == _legendre(a, p)


@given(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
)
@settings(max_examples=300, deadline=None)
def test_kronecker_multiplicative(a, m, n):
    if (a == 0 and (m == 0 or n == 0)) or (m * n == 0 and a == 0):
        return
    if m == 0 or n == 0:
        return
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)
    if m > 0:
        b = n  # reuse as second numerator
        assert kronecker(a * b, m) == kronecker(a, m) * kronecker(b, m)


def test_kronecker_reciprocity_identity():
    # (a|b) = (2|b)^r * (-1)^((a~-1)/2 * (b-1)/2) * (b|a~), b > 0 odd, a = 2^r a~
    for b in range(1, 120, 2):
        for a in range(-120, 121):
            if a == 0 or math.gcd(a, b) != 1:
                continue
            r = 0
            atil = a
            while atil % 2 == 0:
                atil //= 2
                r += 1
            rhs = (
                kronecker(2, b) ** r
                * (-1) ** (((atil - 1) // 2) * ((b - 1) // 2))
                * kronecker(b, abs(atil))
            )
            assert kronecker(a, b) == rhs, (a, b)


def test_discriminant_examples():
    assert discriminant_sqrt(Fraction(5)) == 5
    assert discriminant_sqrt(Fraction(-3)) == -3
    assert discriminant_sqrt(Fraction(2)) == 8
    assert discriminant_sqrt(Fraction(3)) == 12
    assert discriminant_sqrt(Fraction(1, 2)) == 8
    assert discriminant_sqrt(Fraction(-1)) == -4
    assert discriminant_sqrt(Fraction(12)) == 12  # kernel 3
    for bad in (Fraction(0), Fraction(4), Fraction(9, 4), Fraction(1)):
        with pytest.raises(ValueError):
            discriminant_sqrt(bad)


def test_discriminant_normalization():
    for g in (Fraction(5), Fraction(-3), Fraction(2), Fraction(7, 3), Fraction(-6, 5)):
        d = discriminant_sqrt(g)
        assert d % 4 in (0, 1)


def test_conductor_divisibility_via_symbol():
    # Q(sqrt(g)) lies in Q(zeta_n) iff |D| divides n: at symbol level, the
    # character (D|.) is trivial on residues 1 mod n exactly then.
    for d in (5, -3, 8, 12, -4, -8, 13, -20):
        for n in range(1, 49):
            trivial = all(
                kronecker(d, b) == 1
                for b in range(1, 8 * abs(d) * n + 2)
                if b % n == 1 % n and math.gcd(b, 2 * d) == 1
            )
            assert trivial == (n % abs(d) == 0), (d, n)


def test_squarefree_kernel():
    assert squarefree_kernel(12) == 3
    assert squarefree_kernel(-18) == -2
    assert squarefree_kernel(1) == 1


def test_parse_rational():
    assert parse_rational("2") == 2
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational(" 16/81 ") == Fraction(16, 81)


def test_parse_rational_refuses_malformed_text_and_zero_denominator():
    for text in ("1/0", "abc", "1/", "3/4/5"):
        with pytest.raises(ValueError, match=f"bad rational {text!r}"):
            parse_rational(text)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: moebius(0), "moebius expects n >= 1", id="moebius"),
        pytest.param(lambda: euler_phi(0), "euler_phi expects n >= 1", id="euler_phi"),
        pytest.param(lambda: valuation(3, 0), "valuation expects n >= 1", id="valuation"),
        pytest.param(lambda: nu2(0), r"nu2\(0\) is undefined", id="nu2"),
        pytest.param(
            lambda: squarefree_kernel(0), r"squarefree_kernel\(0\) is undefined", id="kernel"
        ),
    ],
)
def test_refuses_zero(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_kronecker_at_zero():
    # (a|0) = 1 iff a = +-1
    assert kronecker(1, 0) == kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
