"""Canonical power decomposition g = sign * g0**h with auxiliary 2-adic data.

Every rational g outside {-1, 0, 1} factors uniquely as sign(g) * g0**h with
g0 > 0 not an exact power of a rational.  The quantities D(g0), m and n_r
attached to the decomposition drive all Kummer degree formulas downstream.
decompose is memoised in a bounded LRU cache, so every request for one g
shares one factorisation and one frozen result.  check_g is the package's
one refusal of g in {-1, 0, 1}; the counting functions call it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import discriminant_sqrt, factorize, nu2

__all__ = ["GDecomposition", "check_g", "decompose", "n_r"]


@dataclass(frozen=True)
class GDecomposition:
    """g = sign * g0**h with g0 > 0 power-free; disc_g0 = disc of Q(sqrt(g0))."""

    g: Fraction
    sign: int
    g0: Fraction
    h: int
    disc_g0: int
    m: int

    def __post_init__(self):
        if self.sign * self.g0**self.h != self.g:
            raise ValueError("decomposition does not reconstruct g")

    @property
    def hc2(self) -> int:
        """2^(nu2(h)+1), the even threshold in the half-degree conditions."""
        return 2 << nu2(self.h)


def _exponent_gcd(n: int) -> tuple[int, dict[int, int]]:
    fac = dict(factorize(n).pairs)
    g = 0
    for e in fac.values():
        g = math.gcd(g, e)
    return g, fac


def check_g(g: Fraction | int) -> Fraction:
    """g as a Fraction, refused (ValueError) when it is -1, 0 or 1."""
    g = Fraction(g)
    if g in (0, 1, -1):
        raise ValueError(f"g must avoid -1, 0, 1; got {g}")
    return g


def decompose(g: Fraction | int) -> GDecomposition:
    """Canonical decomposition of g not in {-1, 0, 1}, memoised per rational value.

    Equal values share one (frozen) result: decompose(Fraction(4, 2)) is
    decompose(2).
    """
    return _decompose(check_g(g))


# bounded: a long-lived caller may ask for any number of distinct g
@lru_cache(maxsize=256)
def _decompose(g: Fraction) -> GDecomposition:
    sign = 1 if g > 0 else -1
    num, den = abs(g.numerator), g.denominator
    gn, fn = _exponent_gcd(num)
    gd, fd = _exponent_gcd(den)
    h = math.gcd(gn, gd)  # gcd with 0 handles num == 1 or den == 1
    num0 = 1
    for p, e in fn.items():
        num0 *= p ** (e // h)
    den0 = 1
    for p, e in fd.items():
        den0 *= p ** (e // h)
    g0 = Fraction(num0, den0)
    disc = discriminant_sqrt(g0)  # g0 > 0 and power-free, so disc > 0
    if nu2(h) == 0 and disc % 8 == 4 or nu2(h) == 1 and disc % 8 == 0:
        m = disc // 2
    else:
        m = math.lcm(2 << (nu2(h) + 1), disc)
    return GDecomposition(g=g, sign=sign, g0=g0, h=h, disc_g0=disc, m=m)


def n_r(dec: GDecomposition, r: int) -> int:
    """The modulus n_r: m for negative g with r odd, else lcm(2^(nu2(hr)+1), D(g0)).

    Depends on r only through nu2(r), so n_r = n_{2^nu2(r)}.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if dec.sign < 0 and r % 2 == 1:
        return dec.m
    return math.lcm(2 << nu2(dec.h * r), dec.disc_g0)

