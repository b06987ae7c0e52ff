import math
from fractions import Fraction

import numpy as np
import pytest

from ordense.arith import euler_phi, kronecker, nu2
from ordense.decomp import decompose, n_r
from ordense.kummer import (
    UNSUPPORTED,
    _eps2,
    entanglement_coefficient,
    entanglement_jumps,
    eps2s,
    intersection_degree,
    jump_coefficients,
    kummer_degree,
    kummer_degrees,
)
from ordense.sieve import primes_upto, tables

G_PANEL = [
    2, 3, 5, 6, 7, 8, 10, 27, -2, -3, -4, -5, -8, -27, 4, 9,
    Fraction(2, 3), Fraction(16, 81), Fraction(-9, 2), Fraction(5, 4),
]


def test_epsilon_examples():
    # _eps2 is 2 * eps
    d2 = decompose(2)
    assert _eps2(d2, 8, 2) == 4  # n_4 = 8 divides 8
    assert _eps2(d2, 4, 4) == 2  # n_1 = 8 does not divide 4
    dm3 = decompose(-3)
    assert _eps2(dm3, 3, 1) == 2  # m = 6 does not divide 3, k odd
    with pytest.raises(ValueError):
        _eps2(d2, 8, 3)


def test_epsilon_half_branch():
    # g < 0, odd ratio, even k with 2^(nu2(h)+1) not dividing k
    dm2 = decompose(-2)  # h = 1, threshold 2
    # need k even, k not divisible by 2 -> impossible at h odd; use h = 2
    dm4 = decompose(-4)  # h = 2, threshold 4
    # kr = k = 2: ratio 1 odd, m = 4 does not divide 2, k = 2 even, 4 does not divide 2
    assert _eps2(dm4, 2, 2) == 1  # eps = 1/2
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


def test_kummer_degrees_match_scalar():
    # the array kernels equal _eps2 and kummer_degree elementwise: int64
    # arrays over the panel, object arrays where D(g0) has 92 bits
    pairs = [(kr, k) for kr in range(1, 501) for k in _divisors(kr)]
    kr = np.array([p[0] for p in pairs])
    k = np.array([p[1] for p in pairs])
    phi = np.array([euler_phi(x) for x in kr.tolist()])
    for g in G_PANEL:
        dec = decompose(g)
        eps2 = eps2s(dec, kr, k)
        assert eps2.tolist() == [_eps2(dec, x, y) for x, y in pairs], g
        want = [kummer_degree(dec, x, y) for x, y in pairs]
        assert kummer_degrees(dec, k, phi, eps2).tolist() == want, g
    # g = -4 reaches the eps = 1/2 branch
    assert any(_eps2(decompose(-4), x, y) == 1 for x, y in pairs)
    big = Fraction(2**61 - 1, 2**31 - 1)
    assert decompose(big).disc_g0.bit_length() == 92
    for g in (big, -big):
        dec = decompose(g)
        want = [kummer_degree(dec, x, y) for x, y in pairs]
        kro, ko = kr.astype(object), k.astype(object)
        got = kummer_degrees(dec, ko, phi.astype(object), eps2s(dec, kro, ko))
        assert got.tolist() == want, g


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
    # at an odd prime q not dividing v, degree 2 means sqrt(q*) lies in K(v, v)
    d5 = decompose(5)
    assert intersection_degree(d5, 5, 2) == 2  # K(2,2) = Q(sqrt 5)
    d2 = decompose(2)
    for v in (1, 2, 3, 4, 6, 8):
        assert intersection_degree(d2, 5, v) == 1  # 5 does not divide D(2) = 8


def test_sqrt_qstar_negative_g_condition():
    dm4 = decompose(-4)  # h = 2, threshold 4; D(g0) = 8, no odd prime
    assert intersection_degree(dm4, 3, 2) == 1
    # g = -3: D(g0) = 12, n1 = m = 6, n1/3 = 2
    dm3 = decompose(-3)
    assert intersection_degree(dm3, 3, 2) == 2  # 2 | v even, hc2 = 2 | v holds
    assert intersection_degree(dm3, 3, 1) == 1  # n1/q = 2 does not divide 1


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


CG_PANEL = [2, 3, 5, 12, -3, -4, -2, Fraction(1, 2), Fraction(-1, 2)]
BIG = Fraction(2**61 - 1, 2**31 - 1)  # D(g0) has 92 bits


def _kf(dec, f):
    return math.lcm(f, dec.m, dec.disc_g0, 2 << (nu2(dec.h) + nu2(f)))


def _cg_int(dec, b, f, v):
    c = entanglement_coefficient(dec, b, f, v)
    return -1 if c is UNSUPPORTED else c


def test_cg_reads_b_mod_f_and_gcd_v_kf():
    # c_g(b, f, v) = c_g(b mod f, f, gcd(v, K_f)), UNSUPPORTED included
    seen = set()
    for g in CG_PANEL:
        dec = decompose(g)
        for d in (4, 6, 8, 12, 24):
            for f in (d, 2 * d, 3 * d):
                kf = _kf(dec, f)
                for b in range(1, 2 * f, 3):
                    if math.gcd(b, f) != 1:
                        continue
                    for v in range(1, 201):
                        c = _cg_int(dec, b, f, v)
                        assert c == _cg_int(dec, b % f, f, math.gcd(v, kf)), (g, b, f, v)
                        seen.add(c)
    assert seen == {-1, 0, 1}


def _cg_array(dec, b, f, v, eps2=None):
    """c_g elementwise as int64, -1 for UNSUPPORTED, composed from the split
    the double series runs: step (1) and the b = 1 (mod f) shortcut here,
    then entanglement_jumps and jump_coefficients at the jumps past them."""
    if eps2 is None:
        eps2 = eps2s(dec, np.lcm(f, v), v)
    c = ((b - 1) % np.gcd(f, v) == 0).astype(np.int64)
    at, q = entanglement_jumps(dec, f, v, eps2)
    keep = (c[at] == 1) & ((b[at] - 1) % f[at] != 0)
    c[at[keep]] = jump_coefficients(b[at[keep]], q[keep])
    return c


def test_entanglement_coefficients_over_kf_keys():
    # the array form equals the scalar at every key of the test above,
    # UNSUPPORTED included, and step (3) decides keys of g = 12 and -3 at
    # d = 12 and 24: past steps (1) and (2) some key reads 1 (every b here
    # is 1 mod 3, a square)
    for g in CG_PANEL:
        dec = decompose(g)
        keys = [
            (b, f, v)
            for d in (4, 6, 8, 12, 24)
            for f in (d, 2 * d, 3 * d)
            for b in range(1, 2 * f, 3)
            if math.gcd(b, f) == 1
            for v in range(1, 201)
        ]
        b, f, v = np.array(keys).T
        got = _cg_array(dec, b, f, v)
        assert got.tolist() == [_cg_int(dec, *key) for key in keys], g
        jump = (
            ((b - 1) % np.gcd(f, v) == 0)
            & ((b - 1) % f != 0)
            & (eps2s(dec, np.lcm(f, v), v) != eps2s(dec, v, v))
        )
        if g in (12, -3):
            assert (got[jump & (f % 12 == 0)] == 1).any(), g


def _table_inputs(dtype):
    # b = 1 + t*a, f = d*t_d (t's part on the primes of d) and v = n*t, d = 12, a = 5
    d, a = 12, 5
    t = np.array([x for x in range(1, 61) if math.gcd(1 + x * a, d) == 1])
    td = np.array([math.gcd(x, d**6) for x in t.tolist()])
    i = np.repeat(np.arange(len(t)), 30)
    v = np.tile(np.arange(1, 31), len(t)) * t[i]
    return (1 + t * a).astype(dtype), (d * td).astype(dtype), i, v.astype(dtype)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_entanglement_coefficients_match_scalar(dtype):
    b, f, i, v = _table_inputs(dtype)
    seen = set()
    for g in CG_PANEL + [BIG, -BIG]:
        dec = decompose(g)
        want = [_cg_int(dec, int(b[k]), int(f[k]), int(x)) for k, x in zip(i, v.tolist())]
        got = _cg_array(dec, b[i], f[i], v)
        assert got.tolist() == want, g
        seen.update(want)
    assert seen == {-1, 0, 1}


def test_entanglement_coefficients_at_a_61_bit_prime():
    # q = 2^61 - 1 divides D(g0) of BIG, and sqrt(q*) lies in K(v, v) for
    # v = 4(2^31 - 1), and for BIG also at v = 2(2^31 - 1): step (3) decides
    # through b mod q with Python ints
    q = 2**61 - 1
    keys = [(b, q, v) for b in (2, 3, 5, 7) for v in (2**32 - 2, 2**33 - 4)]
    b, f, v = np.array(keys, dtype=object).T
    for g in (BIG, -BIG):
        dec = decompose(g)
        want = [_cg_int(dec, *key) for key in keys]
        assert set(want) == {0, 1}, g
        assert _cg_array(dec, b, f, v).tolist() == want, g


def _powmod(x, e, p):
    """x^e mod p elementwise over int64 arrays, p < 2^31 so products fit."""
    r = np.ones_like(p)
    x = x % p
    while e.any():
        r = np.where(e & 1, r * x % p, r)
        x = x * x % p
        e = e >> 1
    return r


def test_cg_chebotarev_splitting_counts():
    # by Chebotarev, the primes p = b (mod f) with p = 1 (mod v) and g a v-th
    # power mod p have density c_g(b, f, v) / [K(lcm(f, v), v) : Q]: their
    # Frobenius is sigma_b on Q(zeta_f) and the identity on K(v, v).  Checked
    # at the keys past steps (1) and (2), on both forms, against counts below
    # 1e6: c = 0 admits no prime, c = 1 about pi(x) / degree of them
    p = primes_upto(10**6)
    fs = (3, 5, 7, 12, 15, 20, 21, 24, 28, 30)
    residues = {f: p % f for f in fs}
    n = np.gcd(p - 1, 24)  # every v below divides 24, so v | p - 1 iff v | n
    decided = {0: 0, 1: 0}
    for g in (12, -3, 5, -7, Fraction(5, 4), -15, 21):
        dec = decompose(g)
        num, den = Fraction(g).numerator, Fraction(g).denominator
        good = (2 * num * den) % p != 0
        # g^((p-1)/v) = y^(n/v) mod p
        y = _powmod(num % p * _powmod(den % p, p - 2, p), (p - 1) // n, p)
        for v in (1, 2, 4, 6, 8, 12):
            split = good & (n % v == 0) & (_powmod(y, n // v, p) == 1)
            keys = [
                (b, f, v)
                for f in fs
                for b in range(2, f)
                if math.gcd(b, f) == 1
                and (b - 1) % math.gcd(f, v) == 0
                and intersection_degree(dec, f, v) == 2
            ]
            b, f, vv = np.array(keys, dtype=np.int64).reshape(-1, 3).T
            got = _cg_array(dec, b, f, vv)
            for key, c in zip(keys, got.tolist()):
                assert c == _cg_int(dec, *key), (g, key)
                if c < 0:
                    continue
                count = np.count_nonzero(split & (residues[key[1]] == key[0]))
                mean = len(p) / kummer_degree(dec, math.lcm(key[1], v), v)
                if c == 0:
                    assert count == 0, (g, key, count)
                else:
                    assert abs(count - mean) <= 5 * math.sqrt(mean), (g, key, count, mean)
                decided[c] += 1
    assert decided == {0: 302, 1: 203}, decided


def _degree_ratio(dec, q, v, phi_v):
    """(q-1)[K(v,v):Q] / [K(qv,v):Q] from the array kernels, for q prime to v.

    It is also eps2s(qv, v) / eps2s(v, v), which the level-q series reads.
    """
    num = (q - 1) * kummer_degrees(dec, v, phi_v, eps2s(dec, v, v))
    den = kummer_degrees(dec, v, (q - 1) * phi_v, eps2s(dec, q * v, v))
    assert (num % den == 0).all()
    split = eps2s(dec, q * v, v) == 2 * eps2s(dec, v, v)
    assert (split == (num == 2 * den)).all()
    return num // den


def _series_keys(d_max, t_max, n_max):
    """(b, f, v, a, d) at every key of the double series: b = 1 + ta, f = dt,
    v = nt for d <= d_max, a mod d, t <= t_max with gcd(1 + ta, d) = 1 and
    squarefree n <= n_max with gcd(n, d) | a."""
    _, mu = tables(n_max)
    sqf = 1 + np.flatnonzero(mu[1 : n_max + 1])
    out = []
    for d in range(2, d_max + 1):
        for a in range(d):
            t = np.arange(1, t_max + 1)
            t = t[np.gcd(1 + t * a, d) == 1]
            n = sqf[a % np.gcd(sqf, d) == 0]
            t, n = np.repeat(t, len(n)), np.tile(n, len(t))
            out.append([1 + t * a, d * t, n * t, np.full(len(t), a), np.full(len(t), d)])
    return np.concatenate(out, axis=1)


def test_series_keys_split_cg_into_jumps_and_b():
    # the lemma the double series relies on: on its keys step (1) of c_g
    # always holds and b = 1 (mod f) exactly when d | a, so c_g is 1 away
    # from the jumps (entanglement_jumps, which read no b) and
    # jump_coefficients decides the rest; both forms agree with that split
    b, f, v, a, d = _series_keys(30, 60, 60)
    assert ((b - 1) % np.gcd(f, v) == 0).all()
    assert np.array_equal((b - 1) % f == 0, a == 0)
    seen = set()
    for g in (2, -4, Fraction(1, 2), 5, -7, 21, -15, 12):
        dec = decompose(g)
        eps2 = eps2s(dec, np.lcm(f, v), v)
        at, q = entanglement_jumps(dec, f, v, eps2)
        at, q = at[a[at] != 0], q[a[at] != 0]
        split = np.ones(len(b), dtype=np.int64)
        split[at] = jump_coefficients(b[at], q)
        assert np.array_equal(split, _cg_array(dec, b, f, v, eps2)), g
        # the scalar at every third jump and every 31st key
        for k in np.union1d(at[::3], np.arange(0, len(b), 31)).tolist():
            assert split[k] == _cg_int(dec, int(b[k]), int(f[k]), int(v[k])), (g, k)
        seen.update(zip(split[at].tolist(), (q != 0).tolist()))
    # UNSUPPORTED, and both answers of step (3)
    assert seen == {(-1, False), (0, True), (1, True)}


def test_sqrt_qstar_array_matches_scalar():
    # 2[K(qv,v):Q] = (q-1)[K(v,v):Q], that is eps2s(qv, v) = 2 eps2s(v, v),
    # exactly where the scalar intersection degree is 2
    for g in G_PANEL + [BIG, -BIG]:
        dec = decompose(g)
        for q in (3, 5, 7, 13):
            v = np.array([x for x in range(1, 400) if x % q])
            phi_v = np.array([euler_phi(x) for x in v.tolist()])
            want = [intersection_degree(dec, q, x) for x in v.tolist()]
            for dt in (np.int64, object):
                got = _degree_ratio(dec, q, v.astype(dt), phi_v.astype(dt))
                assert got.tolist() == want, (g, q, dt)
    # 3 | D(g0), which has 96 bits, with n_1 / 3 | v reached: phi of a
    # 95-bit v is out of reach, so the scalar alone
    dec = decompose(3 * BIG)
    w = n_r(dec, 1) // 3
    v = [1, 2, 4, w, 2 * w, 4 * w, 5 * w]
    assert [intersection_degree(dec, 3, x) == 2 for x in v] == [False] * 3 + [True] * 4


def test_kernels_take_int64_for_any_n1():
    # D(g0) of 3 * BIG has 96 bits, and every n_r at least 95 (n_1 = m = D/2
    # for -3 * BIG): they and n_1 / 3 lie above every int64 entry and divide
    # none, so both kernels keep int64 and match the scalars
    pairs = [(kr, k) for kr in range(1, 301) for k in _divisors(kr)]
    kr, k = np.array(pairs).T
    phi = np.array([euler_phi(x) for x in kr.tolist()])
    v = np.array([x for x in range(1, 400) if x % 3])
    for g in (3 * BIG, -3 * BIG):
        dec = decompose(g)
        assert n_r(dec, 1).bit_length() == (96 if g > 0 else 95)
        got = kummer_degrees(dec, k, phi, eps2s(dec, kr, k))
        assert got.dtype == np.int64, g
        assert got.tolist() == [kummer_degree(dec, x, y) for x, y in pairs], g
        ratio = _degree_ratio(dec, 3, v, np.array([euler_phi(x) for x in v.tolist()]))
        assert ratio.dtype == np.int64, g
        assert ratio.tolist() == [intersection_degree(dec, 3, x) for x in v.tolist()], g


@pytest.mark.parametrize("f, v", [(0, 2), (2, 0)])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda f, v: intersection_degree(decompose(2), f, v), id="intersection"),
        pytest.param(lambda f, v: entanglement_coefficient(decompose(2), 1, f, v), id="cg"),
    ],
)
def test_refuses_nonpositive_f_or_v(call, f, v):
    with pytest.raises(ValueError, match="f and v must be positive"):
        call(f, v)
