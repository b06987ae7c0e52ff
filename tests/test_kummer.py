import math
from fractions import Fraction

import pytest

from ordense.arith import euler_phi, kronecker
from ordense.decomp import decompose
from ordense.kummer import (
    UNSUPPORTED,
    entanglement_coefficient,
    epsilon,
    intersection_degree,
    kummer_degree,
    sqrt_qstar_in_kvv,
)
from ordense.sieve import primes_upto

G_PANEL = [
    2, 3, 5, 6, 7, 8, 10, 27, -2, -3, -4, -5, -8, -27, 4, 9,
    Fraction(2, 3), Fraction(16, 81), Fraction(-9, 2), Fraction(5, 4),
]


def test_epsilon_examples():
    d2 = decompose(2)
    assert epsilon(d2, 8, 2) == 2  # n_4 = 8 divides 8
    assert epsilon(d2, 4, 4) == 1  # n_1 = 8 does not divide 4
    dm3 = decompose(-3)
    assert epsilon(dm3, 3, 1) == 1  # m = 6 does not divide 3, k odd
    with pytest.raises(ValueError):
        epsilon(d2, 8, 3)


def test_epsilon_half_branch():
    # g < 0, odd ratio, even k with 2^(nu2(h)+1) not dividing k
    dm2 = decompose(-2)  # h = 1, threshold 2
    # need k even, k not divisible by 2 -> impossible at h odd; use h = 2
    dm4 = decompose(-4)  # h = 2, threshold 4
    # kr = k = 2: ratio 1 odd, m = 4 does not divide 2, k = 2 even, 4 does not divide 2
    assert epsilon(dm4, 2, 2) == Fraction(1, 2)
    # K(2,2) = Q(sqrt(-4)) = Q(i): phi(2)*2 / ((1/2) * gcd(2,2)) = 2
    assert kummer_degree(dm4, 2, 2) == 2

def test_kummer_degree_examples():
    d2 = decompose(2)
    assert kummer_degree(d2, 8, 2) == 4  # sqrt(2) already in Q(zeta_8)
    assert kummer_degree(d2, 4, 4) == 8
    for g in G_PANEL:
        dec = decompose(g)
        for q in (7, 11, 13):
            assert kummer_degree(dec, q, 1) == q - 1


def test_degree_odd_extension_law():
    # [K(zw, v) : Q] = z [K(w, v) : Q] for v | w and z an odd divisor of w
    for g in (2, 8, -3, -4, Fraction(2, 3), 27, -27, 10):
        dec = decompose(g)
        for w in range(1, 201):
            for v in _divisors(w):
                base = kummer_degree(dec, w, v)
                for z in _divisors(w):
                    if z % 2 == 1:
                        assert kummer_degree(dec, z * w, v) == z * base, (g, w, v, z)


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def test_degree_integrality_panel():
    assert len(G_PANEL) == 20
    for g in G_PANEL:
        dec = decompose(g)
        for kr in range(2, 501):
            for k in _divisors(kr):
                deg = kummer_degree(dec, kr, k)
                assert deg >= 1


def test_degree_empirical_splitting_oracle():
    # 1/[K(s,r):Q] is the density of primes p = 1 (mod s) with g an r-th
    # power mod p, by Chebotarev; check the degree formula against counts.
    primes = [int(p) for p in primes_upto(300_000)]
    cases = [
        (2, 8, 2), (2, 4, 4), (2, 8, 8), (2, 12, 3),
        (5, 5, 1), (5, 10, 2), (-3, 3, 3), (-3, 12, 2),
        (-4, 12, 3), (8, 6, 3), (Fraction(1, 2), 8, 2),
    ]
    for g, s, r in cases:
        dec = decompose(Fraction(g))
        deg = kummer_degree(dec, s, r)
        num, den = Fraction(g).numerator, Fraction(g).denominator
        hits = total = 0
        for p in primes:
            if p % s != 1 or num % p == 0 or den % p == 0:
                continue
            total += 1
            gm = num * pow(den, p - 2, p) % p
            if pow(gm, (p - 1) // r, p) == 1:
                hits += 1
        expect = euler_phi(s) / deg  # conditional density within p = 1 (mod s)
        freq = hits / total
        sigma = math.sqrt(expect * (1 - expect) / total) if 0 < expect < 1 else 0
        assert abs(freq - expect) <= max(5 * sigma, 2e-3), (g, s, r, freq, expect)


def test_intersection_degree_examples():
    d2 = decompose(2)
    assert intersection_degree(d2, 8, 2) == 2
    assert intersection_degree(d2, 3, 2) == 1
    for v in (1, 2, 5, 12):
        assert intersection_degree(d2, v, v) == 1


def test_intersection_degree_in_range_panel():
    for g in G_PANEL[:12]:
        dec = decompose(g)
        for f in range(1, 40):
            for v in range(1, 40):
                assert intersection_degree(dec, f, v) in (1, 2)


def test_sqrt_qstar_examples():
    d5 = decompose(5)
    assert sqrt_qstar_in_kvv(d5, 5, 0, 2)  # K(2,2) = Q(sqrt 5)
    d2 = decompose(2)
    for v in (1, 2, 3, 4, 6, 8):
        assert not sqrt_qstar_in_kvv(d2, 5, 0, v)  # 5 does not divide D(2) = 8
    # s >= 1 never yields the quadratic field
    assert not sqrt_qstar_in_kvv(d5, 5, 1, 2)
    with pytest.raises(ValueError):
        sqrt_qstar_in_kvv(d5, 5, 0, 10)  # q | v
    with pytest.raises(ValueError):
        sqrt_qstar_in_kvv(d5, 9, 0, 2)


def test_sqrt_qstar_negative_g_condition():
    dm4 = decompose(-4)  # h = 2, threshold 4; D(g0) = 8, no odd prime
    assert not sqrt_qstar_in_kvv(dm4, 3, 0, 2)
    dm12 = decompose(-12)  # g0 = 12? no: 12 not a power; g0 = 12, D = 12? kernel 3 -> D = 12... odd prime 3
    # pick g = -3: D(g0) = 12, n1 = m = 6, n1/3 = 2
    dm3 = decompose(-3)
    assert sqrt_qstar_in_kvv(dm3, 3, 0, 2)  # 2 | v even, hc2 = 2 | v holds
    assert not sqrt_qstar_in_kvv(dm3, 3, 0, 1)  # n1/q = 2 does not divide 1


def test_cg_examples():
    d5 = decompose(5)
    assert entanglement_coefficient(d5, 2, 5, 2) == 0  # (5|2) = -1
    assert entanglement_coefficient(d5, 4, 5, 2) == 1  # (4|5) = +1
    d2 = decompose(2)
    assert entanglement_coefficient(d2, 2, 5, 2) == 1  # trivial intersection
    # b = 1 (mod f) always gives 1
    for g in (2, 5, -3):
        dec = decompose(g)
        for f in (3, 5, 9, 15):
            for v in (1, 2, 6, 8):
                assert entanglement_coefficient(dec, 1 + 3 * f, f, v) == 1


def test_cg_validation():
    d2 = decompose(2)
    with pytest.raises(ValueError):
        entanglement_coefficient(d2, 3, 9, 2)


def test_cg_unsupported_two_adic():
    # g = 2, f = 8, v = 2: Q(zeta_8) ∩ K(2,2) = Q(sqrt 2), a jump no odd
    # prime accounts for
    d2 = decompose(2)
    assert entanglement_coefficient(d2, 3, 8, 2) is UNSUPPORTED
    with pytest.raises(TypeError):
        bool(UNSUPPORTED)


def test_cg_composite_f_single_odd_prime_jump():
    # g = 5, f = 15, v = 2: intersection is Q(sqrt 5); decidable through (5|b)
    d5 = decompose(5)
    for b in (2, 4, 7, 11, 13, 14):
        if math.gcd(b, 15) != 1:
            continue
        expect = (1 + kronecker(5, b)) // 2
        assert entanglement_coefficient(d5, b, 15, 2) == expect, b


def test_cg_reciprocity_consistency():
    # on quadratic-jump instances (q*|b) equals the Legendre symbol (b|q)
    for q in (3, 5, 7, 13):
        qstar = kronecker(-1, q) * q
        for b in range(1, 4 * q):
            if b % q == 0:
                continue
            assert kronecker(qstar, b) == kronecker(b, q), (q, b)


def test_cg_stability():
    # f1 | f2 with matching normalized degrees force equal coefficients
    for g in (2, 5, -3, 8):
        dec = decompose(g)
        for f1 in range(1, 31):
            for mult in (2, 3, 5):
                f2 = f1 * mult
                if f2 > 60:
                    continue
                for v in range(1, 25):
                    lhs = Fraction(kummer_degree(dec, math.lcm(f1, v), v), euler_phi(f1))
                    rhs = Fraction(kummer_degree(dec, math.lcm(f2, v), v), euler_phi(f2))
                    if lhs != rhs:
                        continue
                    for b in range(1, 20):
                        if math.gcd(b, f1 * f2) != 1:
                            continue
                        c1 = entanglement_coefficient(dec, b, f1, v)
                        c2 = entanglement_coefficient(dec, b, f2, v)
                        if c1 is UNSUPPORTED or c2 is UNSUPPORTED:
                            continue
                        assert c1 == c2, (g, b, f1, f2, v)


def test_cg_congruence_modulus_reduction():
    # c_g(1+ta, d*t, n*t) = c_g(1+ta, d*t_d, n*t) with t_d the (t,d)-part of t
    for g in (2, 5, -3, 8):
        dec = decompose(g)
        for d in (3, 9, 5):
            for a in range(d):
                for t in range(1, 31):
                    b = 1 + t * a
                    if math.gcd(b, d) != 1:
                        continue
                    td = 1
                    tt = t
                    for p in (3, 5):
                        if d % p == 0:
                            while tt % p == 0:
                                td *= p
                                tt //= p
                    for n in (1, 2, 3, 5, 6, 7, 10):
                        if math.gcd(n, d) % d and a % math.gcd(n, d):
                            continue
                        full = entanglement_coefficient(dec, b, d * t, n * t)
                        red = entanglement_coefficient(dec, b, d * td, n * t)
                        if full is UNSUPPORTED or red is UNSUPPORTED:
                            continue
                        assert full == red, (g, d, a, t, n)
