import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordense.decomp
from ordense.arith import discriminant_sqrt, nu2
from ordense.decomp import GDecomposition, decompose, n_r


def test_decompose_examples():
    d = decompose(8)
    assert (d.sign, d.g0, d.h) == (1, 2, 3)
    assert d.m == math.lcm(4, 8) == 8

    d = decompose(-4)
    assert (d.sign, d.g0, d.h) == (-1, 2, 2)
    assert d.m == 4  # nu2(h)=1 and D(2)=8=0 (mod 8): m = D/2

    d = decompose(-3)
    assert (d.sign, d.g0, d.h) == (-1, 3, 1)
    assert d.m == 6  # nu2(h)=0 and D(3)=12=4 (mod 8): m = D/2

    d = decompose(Fraction(16, 81))
    assert (d.sign, d.g0, d.h) == (1, Fraction(2, 3), 4)


def test_decompose_rejects_units():
    for g in (0, 1, -1, Fraction(1), Fraction(-1)):
        with pytest.raises(ValueError):
            decompose(g)


def test_decompose_memoised_per_value():
    # equal rationals share one frozen result, a refusal is never cached,
    # and the memo stays bounded however many distinct g are asked for
    assert decompose(Fraction(4, 2)) is decompose(2)
    assert decompose(Fraction(-12, 16)) is decompose(Fraction(-3, 4))
    for _ in range(3):
        with pytest.raises(ValueError):
            decompose(1)
    info = ordense.decomp._decompose.cache_info
    for g in range(2, info().maxsize + 50):
        assert decompose(g).g == g
    assert info().currsize <= info().maxsize


def test_disc_g0_positive():
    for g in (2, -2, 8, -8, Fraction(9, 2), Fraction(-49, 8)):
        assert decompose(g).disc_g0 > 0


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_decompose_reconstructs(num, den, negative):
    g = Fraction(num, den)
    if negative:
        g = -g
    if g in (0, 1, -1):
        return
    d = decompose(g)
    assert d.sign * d.g0**d.h == g
    assert d.g0 > 0
    # g0 is power-free: its exponent gcd is 1
    assert decompose(d.g0).h == 1 if d.g0 != 1 else True


def test_decompose_reconstructs_bulk():
    import random

    rng = random.Random(20240917)
    for _ in range(10_000):
        g = Fraction(rng.randrange(1, 10**6 + 1), rng.randrange(1, 10**6 + 1))
        if rng.random() < 0.5:
            g = -g
        if g in (0, 1, -1):
            continue
        d = decompose(g)
        assert d.sign * d.g0**d.h == g


def test_n_r_examples():
    d2 = decompose(2)
    assert [n_r(d2, r) for r in (1, 2, 3, 4, 6)] == [8, 8, 8, 8, 8]
    assert n_r(d2, 8) == 16  # nu2(8)+1 = 4 wins over D = 8
    d3 = decompose(3)
    assert n_r(d3, 1) == math.lcm(2, 12) == 12
    dm3 = decompose(-3)
    assert n_r(dm3, 1) == 6
    assert n_r(dm3, 2) == math.lcm(4, 12) == 12


def test_n_r_depends_only_on_nu2():
    for g in (2, 8, -4, -3, Fraction(5, 3), -50):
        dec = decompose(g)
        for r in range(1, 1001):
            assert n_r(dec, r) == n_r(dec, 2 ** nu2(r))


def test_n_r_odd_h_closed_form():
    # for odd h, n_r = lcm(2^(nu2(r)+1), |D(g)|)
    for g in (2, 3, 8, 27, -2, -3, -27, Fraction(5, 2)):
        dec = decompose(g)
        if dec.h % 2 == 0:
            continue
        absD = abs(discriminant_sqrt(Fraction(g)))
        for r in (1, 2, 3, 4, 8, 12):
            if dec.sign < 0 and r % 2 == 1:
                continue
            assert n_r(dec, r) == math.lcm(2 ** (nu2(r) + 1), absD), (g, r)


def test_n_r_positive_g_ignores_odd_part():
    for g in (2, 5, 18):
        dec = decompose(g)
        assert n_r(dec, 3) == n_r(dec, 1)
        assert n_r(dec, 12) == n_r(dec, 4)


def test_is_generic():
    # g is generic (not +-g0**h with h > 1) exactly when its exponent h is 1
    assert decompose(2).h == 1
    assert decompose(8).h != 1
    assert decompose(-4).h != 1
    assert decompose(-2).h == 1
    assert decompose(Fraction(2, 3)).h == 1
    assert decompose(Fraction(16, 81)).h != 1


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: n_r(decompose(2), 0), "r must be positive", id="n_r"),
        pytest.param(
            # 2**2 is not 8
            lambda: GDecomposition(Fraction(8), 1, Fraction(2), 2, 8, 8),
            "does not reconstruct g",
            id="reconstruct",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
