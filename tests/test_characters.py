import cmath
import math
import tracemalloc

import numpy as np
import pytest
from conftest import spf_table

import ordense.characters
from ordense.arith import euler_phi, factorize, moebius, valuation
from ordense.characters import (
    CharacterGroup,
    a_chi,
    artin_constant,
    c_chi,
    character_group,
)
from ordense.density import TruncationConfig
from ordense.sieve import primes_upto, tables

# computed independently via a prime-zeta expansion of log A at 50 digits
ARTIN_REFERENCE = 0.37395581361920228805


def test_group_sizes_and_orders():
    g3 = character_group(3)
    assert sorted(c.order for c in g3) == [1, 2]
    g5 = character_group(5)
    assert sorted(c.order for c in g5) == [1, 2, 4, 4]
    g9 = character_group(9)
    assert len(g9) == 6
    g25 = character_group(25)
    assert len(g25) == 20
    for bad in (8, 15, 4, 1):
        with pytest.raises(ValueError):
            character_group(bad)


def test_group_closure_and_conjugation():
    grp = character_group(7)
    chars = set(grp.characters)
    for c1 in grp:
        assert c1.conjugate() in chars
        for c2 in grp:
            # the pointwise product of two characters is the character whose
            # index is the sum of theirs
            prod = grp.characters[(c1.index + c2.index) % grp.phi]
            assert np.allclose(c1.value_table() * c2.value_table(), prod.value_table())
    # principal character and power relation chi^(o_chi) = chi_0
    for c in grp:
        assert np.allclose(c.value_table() ** c.order, grp.principal.value_table())


def test_character_values():
    grp = character_group(5)
    for chi in grp:
        assert chi(10) == 0
        for n in range(1, 30):
            if n % 5:
                assert abs(abs(chi(n)) - 1) < 1e-14
                # total multiplicativity
                assert abs(chi(n * 7) - chi(n) * chi(7)) < 1e-14


def test_orthogonality():
    for q in (3, 5, 7, 9):
        grp = character_group(q)
        for b in range(1, q):
            if math.gcd(b, q) > 1:
                continue
            s = sum(chi(b) for chi in grp)
            expect = len(grp) if b % q == 1 else 0
            assert abs(s - expect) < 1e-10, (q, b)


def h_chi(chi, v: int) -> complex:
    """Moebius convolution of chi at v: multiplicative, chi(p^e) - chi(p^(e-1))."""
    out = 1 + 0j
    for p, e in factorize(v):
        c = chi(p)
        if c == 0:
            if e >= 2:
                return 0j
            out *= -1
        else:
            out *= c ** (e - 1) * (c - 1)
    return out


def test_h_chi_examples():
    g3 = character_group(3)
    chi0, chi1 = g3.characters
    assert h_chi(chi0, 1) == 1
    assert h_chi(chi0, 2) == 0
    assert abs(h_chi(chi0, 3) + 1) < 1e-15
    assert abs(h_chi(chi1, 2) + 2) < 1e-12  # chi(2) - 1 = -2


def test_h_chi_matches_direct_convolution():
    import random

    rng = random.Random(7)
    for q in (3, 5, 9, 7):
        grp = character_group(q)
        vs = [rng.randrange(1, 10**4) for _ in range(40)] + list(range(1, 40))
        for chi in grp:
            for v in vs:
                direct = sum(chi(t) * moebius(v // t) for t in range(1, v + 1) if v % t == 0)
                assert abs(h_chi(chi, v) - direct) < 1e-9, (q, chi.index, v)


def test_divisor_transition_identity():
    # sum_{t = b (f), t | v} mu(v/t) = (1/phi(f)) sum_chi conj(chi(b)) h_chi(v)
    for q in (3, 5, 7):
        grp = character_group(q)
        for v in range(1, 150):
            for b in range(1, q):
                direct = sum(
                    moebius(v // t) for t in range(1, v + 1) if v % t == 0 and t % q == b
                )
                viachar = sum(chi(b).conjugate() * h_chi(chi, v) for chi in grp) / (q - 1)
                assert abs(direct - viachar) < 1e-9, (q, v, b)


def test_a_chi_principal_exact():
    for q in (3, 5, 7, 9):
        val = a_chi(character_group(q).principal, 10**6)
        assert val.value == 1 and val.tail_bound == 0.0


def test_a_chi_conjugate_symmetry(pmax):
    for q in (5, 7):
        grp = character_group(q)
        for chi in grp:
            v1 = a_chi(chi, pmax)
            v2 = a_chi(chi.conjugate(), pmax)
            assert abs(v2.value - v1.value.conjugate()) < 1e-13


def test_quarter_turn_values_exact():
    # chi(n) in {1, i, -1, -i} is exact, so a real character's product is
    # real (+0.0 imaginary part) and order-4 conjugates are exact conjugates
    for q in (3, 5, 7, 9, 11, 13, 25):
        for chi in character_group(q):
            v = a_chi(chi, 10**6).value
            if chi.order <= 2:
                assert v.imag == 0.0 and math.copysign(1.0, v.imag) == 1.0, (q, chi.index)
            if chi.order == 4:
                assert a_chi(chi.conjugate(), 10**6).value == v.conjugate(), (q, chi.index)


def test_a_chi_tail_bound_honest():
    for q in (3, 5):
        for chi in character_group(q):
            coarse = a_chi(chi, 10**5)
            fine = a_chi(chi, 10**6)
            assert abs(fine.value - coarse.value) <= coarse.tail_bound, (q, chi.index)


def _clear_euler_caches():
    for fn in (ordense.characters._generic_log, ordense.characters._class_sums, a_chi, c_chi):
        fn.cache_clear()


def test_a_chi_memory_bounded():
    # whole-length values and factors over the 664579 primes below 1e7 would
    # peak near 41 MB; factors built one chunk at a time keep it under 12 MB
    primes_upto(10**7)
    _clear_euler_caches()
    tracemalloc.start()
    try:
        a_chi(character_group(5).characters[1], 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


def test_a_chi_sums_built_once_per_modulus(monkeypatch):
    # the modulus-free sum of w_0 is one pass per cutoff, shared by every
    # modulus and by Artin's constant; the per-class prime sums are one pass
    # per (modulus, cutoff), whatever the number of characters.  Each pass
    # reads _series_primes once, named here by the largest prime it returns.
    _clear_euler_caches()
    tops_read = []
    series_primes = ordense.characters._series_primes

    def counting_series_primes(prime_cutoff):
        primes = series_primes(prime_cutoff)
        tops_read.append(int(primes[-1]))
        return primes

    monkeypatch.setattr(ordense.characters, "_series_primes", counting_series_primes)
    cutoffs = (10**5, 3 * 10**5, 10**6)
    artin_constant(cutoffs[1])
    for cutoff in cutoffs:
        for q in (3, 5, 1009):
            for chi in character_group(q):
                a_chi(chi, cutoff)
        artin_constant(cutoff)
    t0, t1, t2 = (int(primes_upto(cutoff)[-1]) for cutoff in cutoffs)
    # Artin's generic sum at t1; then per cutoff the generic sum (a miss only
    # at t0 and t2) and the class sums of q = 3, 5, 1009
    assert tops_read == [t1, t0, t0, t0, t0, t1, t1, t1, t2, t2, t2, t2]
    assert ordense.characters._generic_log.cache_info().misses == 3
    assert ordense.characters._class_sums.cache_info().misses == 9


def _class_sums_int_residue(modulus, prime_cutoff):
    """_class_sums with the residue taken as int64 p % modulus."""
    chars = ordense.characters
    primes = chars._series_primes(prime_cutoff)
    sums = np.zeros((2, modulus))
    squares = int(np.searchsorted(primes, chars._SQUARES_UPTO, side="right"))
    for i in range(0, len(primes), chars._CHUNK):
        chunk = primes[i : i + chars._CHUNK]
        residue = chunk % modulus
        p = chunk.astype(np.float64)
        x = 1.0 / (p * (p * p - p - 1.0))
        y = 1.0 / (p * p)
        sums[0] += np.bincount(residue, x + y, minlength=modulus)
        k = squares - i
        if k > 0:
            x, y = x[:k], y[:k]
            sums[1] += np.bincount(residue[:k], (y * y - x * x) / 2.0, minlength=modulus)
    return sums


def test_class_sums_float_residue_bit_identical():
    # the residue p - floor(p / modulus) * modulus is exact in float64
    for modulus in (3, 5, 7, 9, 11, 25, 101, 4001):
        got = ordense.characters._class_sums(modulus, 10**6)
        want = _class_sums_int_residue(modulus, 10**6)
        assert got.tobytes() == want.tobytes(), modulus


def test_equal_characters_share_cache_entries():
    # a character of a fresh group equals and hashes as the cached group's
    # one, so a_chi reads the entry the cached character filled
    cached = character_group(5).characters[1]
    fresh = CharacterGroup(5).characters[1]
    assert fresh is not cached and fresh == cached and hash(fresh) == hash(cached)
    assert fresh != CharacterGroup(5).characters[3] and fresh != character_group(7).characters[1]
    want = a_chi(cached, 10**4)
    before = a_chi.cache_info()
    assert a_chi(fresh, 10**4) is want
    after = a_chi.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_a_chi_memory_bounded_for_large_modulus():
    # one chunk of the class-sum pass plus O(q) sums and value table
    primes_upto(10**7)
    _clear_euler_caches()
    tracemalloc.start()
    try:
        a_chi(character_group(1009).characters[1], 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def test_character_group_memory_linear_in_q():
    # a group holds O(q): each value table is built when asked for, where
    # eager phi(q) x q complex tables held 15.7 MB at q = 1009
    tracemalloc.start()
    try:
        ordense.characters.CharacterGroup(1009)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_value_table_matches_calls():
    for q in (3, 25, 1009):
        grp = character_group(q)
        for chi in grp.characters[:: max(1, grp.phi // 7)]:
            want = [chi(n) for n in range(q)]
            assert chi.value_table().tolist() == want, (q, chi.index)


def _a_chi_direct_product(chi, prime_cutoff):
    """A_chi as one product of the generic factor over the primes <= prime_cutoff, p != q."""
    primes = primes_upto(prime_cutoff)
    primes = primes[primes != chi._group.prime]
    p, c = primes.astype(np.float64), chi.value_table()[primes % chi.modulus]
    return complex(np.prod(1.0 + (c - 1.0) * p / ((p * p - c) * (p - 1.0))))


def test_a_chi_matches_direct_product():
    # cutoffs on both sides of P0 = 1000; at q = 1009 > P0 the prime q falls
    # in the class-sum range
    for q in (3, 5, 7, 9, 11, 25, 1009):
        chars = character_group(q).characters[1:]
        for cutoff in (100, 997, 1000, 1009, 1013, 10**5, 3 * 10**6):
            for chi in chars[:: max(1, len(chars) // 12)]:
                got = a_chi(chi, cutoff).value
                want = _a_chi_direct_product(chi, cutoff)
                assert abs(got - want) <= 1e-12 * abs(want), (q, chi.index, cutoff, got, want)
            p = primes_upto(cutoff).astype(np.float64)
            want = float(np.prod(1.0 - 1.0 / (p * (p - 1.0))))
            assert abs(artin_constant(cutoff).value - want) <= 1e-12 * want, cutoff


def _log_one_plus(z):
    """log(1 + z) for small complex z, to about an ulp of |z|."""
    a, b = z.real, z.imag
    return 0.5 * np.log1p(a * (2.0 + a) + b * b) + 1j * np.arctan2(b, 1.0 + a)


def test_series_truncation_within_remainder():
    # the log series of every factor above P0 as it is evaluated (M = 2 up
    # to P1, the c^2 term dropped above), against the log of the factor
    # itself: the sum of the differences is what the tail bound adds as
    # _SERIES_REMAINDER
    remainder = ordense.characters._SERIES_REMAINDER
    squares_upto = ordense.characters._SQUARES_UPTO
    for cutoff in (10**5, 3 * 10**5):
        primes = primes_upto(cutoff)
        for q in (5, 11):
            for chi in character_group(q).characters[1:]:
                kept = primes[(primes > 1000) & (primes != q)]
                p, c = kept.astype(np.float64), chi.value_table()[kept % q]
                u, x, y = 1 / (p * (p - 1)), 1 / (p**3 - p**2 - p), 1 / p**2
                series = -(u + u**2 / 2) + c * (x + y)
                series += np.where(kept <= squares_upto, c**2 * (y**2 - x**2) / 2, 0)
                exact = _log_one_plus((c - 1) * p / ((p * p - c) * (p - 1)))
                assert abs(np.sum(exact - series)) <= remainder, (cutoff, q, chi.index)
                val = a_chi(chi, cutoff)
                omitted = abs(val.value) * math.expm1(5.2 / (cutoff * math.log(cutoff)))
                # 0.99: the difference of two roundings of about 3e-6 each
                assert val.tail_bound - omitted >= 0.99 * abs(val.value) * remainder, (
                    cutoff, q, chi.index,
                )


def test_artin_constant_reference():
    val = artin_constant(10**6)
    assert abs(val.value - ARTIN_REFERENCE) <= val.tail_bound
    assert abs(val.value - ARTIN_REFERENCE) < 1e-6
    finer = artin_constant(2 * 10**6)
    assert abs(finer.value - val.value) <= val.tail_bound


def test_c_chi_basic_identities(pmax):
    for q in (3, 5, 7):
        grp = character_group(q)
        for chi in grp:
            # C(1, q, 1) = A_chi: identical local factors, so no correction
            assert c_chi(chi, 1, q, 1, pmax).value == a_chi(chi, pmax).value
        # C_chi0(1, q, 2) = 0: the local factor at 2 vanishes for the
        # principal character
        assert c_chi(grp.principal, 1, q, 2, pmax).value == 0
        # sign of s is immaterial
        for chi in grp:
            assert c_chi(chi, 2, q, -8, pmax).value == c_chi(chi, 2, q, 8, pmax).value


def test_c_chi_gcd_rs_zero(pmax):
    grp = character_group(3)
    for chi in grp:
        assert c_chi(chi, 1, 6, 2, pmax).value == 0  # 2 | r and 2 | s


def _c_chi_direct(chi, h, r, s, vmax):
    """Truncated direct summation of the defining series, with a crude tail."""
    spf = spf_table(vmax).tolist()
    phi = tables(vmax)[0][: vmax + 1].tolist()
    total = 0j
    hval = {}
    for v in range(s, vmax + 1, s):
        if math.gcd(v, r) != 1:
            continue
        # multiplicative h_chi from the spf chain
        acc = 1 + 0j
        m = v
        while m > 1 and acc != 0:
            p = spf[m]
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            key = (p, e)
            f = hval.get(key)
            if f is None:
                c = chi(p)
                f = c ** (e - 1) * (c - 1) if c != 0 else (-1 if e == 1 else 0)
                hval[key] = f
            acc *= f
        if acc != 0:
            total += acc * math.gcd(h, v) / (v * phi[v])
    # |h_chi(v) (h,v) / (v phi(v))| <= d(v) h / (v phi(v)); crude integral tail
    tail = 6.0 * h * math.log(vmax) / vmax
    return total, tail


def test_c_chi_against_direct_summation(pmax):
    cases = [
        (3, 1, 3, 1), (3, 1, 3, 8), (3, 2, 3, 4), (3, 4, 15, 2),
        (5, 1, 5, 12), (5, 3, 5, 10), (7, 2, 7, 6), (9, 1, 9, 2),
    ]
    for q, h, r, s in cases:
        for chi in character_group(q):
            euler = c_chi(chi, h, r, s, pmax)
            direct, tail = _c_chi_direct(chi, h, r, s, 200_000)
            assert abs(euler.value - direct) <= tail + euler.tail_bound, (
                q, chi.index, h, r, s, euler.value, direct,
            )


def _c_chi_direct_product(chi, h, r, s, prime_cutoff):
    """C_chi as one product over the primes <= prime_cutoff, built without A_chi.

    Primes dividing r contribute 1 and the other primes dividing h, s or q
    their local factor, summed from the defining series over v = p^e with
    p^alpha | v; every other prime p <= prime_cutoff gives the generic factor
    1 + (c-1)p / ((p^2-c)(p-1)).
    """
    s = abs(s)
    if math.gcd(r, s) > 1:
        return 0j
    q = chi._group.prime
    special = sorted(
        p for p in set(factorize(h).primes) | set(factorize(s).primes) | {q} if r % p
    )
    value = 1 + 0j
    for p in special:
        alpha, nu = valuation(p, s), valuation(p, h)
        c = chi(p)
        local = 1 + 0j if alpha == 0 else 0j
        for e in range(max(alpha, 1), 60):
            h_pe = c ** (e - 1) * (c - 1) if c != 0 else (-1 if e == 1 else 0)
            local += h_pe * p ** min(e, nu) / (p**e * p ** (e - 1) * (p - 1))
        value *= local
    primes = primes_upto(prime_cutoff)
    skip = [*special, *factorize(r).primes]
    primes = primes[~np.isin(primes, skip)]
    c = chi.value_table()[primes % chi.modulus]
    keep = c != 0
    p, c = primes[keep].astype(np.float64), c[keep]
    return value * complex(np.prod(1.0 + (c - 1.0) * p / ((p * p - c) * (p - 1.0))))


def test_c_chi_matches_direct_product(pmax):
    # primes above 100 in h, r and s; special primes above the cutoff
    # (101 at P = 100); r-primes above the cutoff; r = 1, so q is special
    cases = [
        (1, None, 1, pmax), (2, None, 8, pmax), (12, 1, 1, pmax), (9, 2, 25, pmax),
        (8, 15, -4, pmax), (6, 35, 9, 100), (202, 309, 107, pmax),
        (202, 309, 107, 100), (101, None, 1, 100), (101, 1, 202, 100),
        (1, 101 * 103, 1, 100), (4, 6, 2, pmax), (18, 5, 3, 1000),
    ]
    for q in (3, 5, 7, 9, 11):
        for chi in character_group(q):
            for h, r, s, cutoff in cases:
                r = q if r is None else r
                got = c_chi(chi, h, r, s, cutoff).value
                want = _c_chi_direct_product(chi, h, r, s, cutoff)
                if want == 0:
                    assert got == 0, (q, chi.index, h, r, s, cutoff, got)
                else:
                    assert abs(got - want) <= 1e-12 * abs(want), (
                        q, chi.index, h, r, s, cutoff, got, want,
                    )


def test_c_chi_vanishes_when_q_divides_s(pmax):
    # s | v forces q | v, contradicting (r, v) = 1 for r = q
    grp = character_group(5)
    for chi in grp:
        assert c_chi(chi, 2, 5, 15, pmax).value == 0


def test_primes_upto():
    ps = primes_upto(100)
    assert len(ps) == 25 and ps[0] == 2 and ps[-1] == 97
    assert len(primes_upto(10)) == 4


def test_euler_product_value_validation():
    from ordense.characters import EulerProductValue

    with pytest.raises(ValueError):
        EulerProductValue(1 + 0j, -1.0)
    with pytest.raises(ValueError):
        EulerProductValue(complex("inf"), 0.0)


def test_prime_cutoff_range_checked_before_sieving(monkeypatch):
    def boom(*args, **kw):
        raise AssertionError("an out-of-range cutoff reached the sieve")

    monkeypatch.setattr(ordense.characters, "primes_upto", boom)
    chi = character_group(5).characters[1]
    for cutoff, message in ((99, "at least 100"), (10**8 + 1, "<= 1e8"), (10**9, "<= 1e8")):
        for call in (
            lambda: a_chi(chi, cutoff),
            lambda: a_chi(character_group(5).principal, cutoff),
            lambda: c_chi(chi, 2, 5, 1, cutoff),
            lambda: artin_constant(cutoff),
            lambda: TruncationConfig(prime_cutoff=cutoff),
        ):
            with pytest.raises(ValueError, match=message):
                call()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda chi: c_chi(chi, 0, 1, 1, 1000), "need h >= 1", id="c_chi-h"),
        pytest.param(lambda chi: c_chi(chi, 1, 0, 1, 1000), "need h >= 1", id="c_chi-r"),
        pytest.param(lambda chi: c_chi(chi, 1, 1, 0, 1000), "need h >= 1", id="c_chi-s"),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call(character_group(5).characters[1])
