"""Dirichlet characters mod odd prime powers and their Euler-product constants.

The group of characters mod q^s is cyclic; a character is stored as an index
j with chi(gen^k) = exp(2*pi*i*j*k/phi).  Values are kept as exact
root-of-unity exponents and only turned into complex floats inside Euler
products and final sums.

Constants:

    h_chi(v)      multiplicative, h_chi(p^e) = chi(p^e) - chi(p^(e-1))
                  (the Moebius convolution of chi)
    A_chi         prod over chi(p) != 0 of
                  1 + (chi(p)-1)*p / ((p^2-chi(p))*(p-1))
    C_chi(h,r,s)  sum over v coprime to r with s | v of
                  h_chi(v) * gcd(h,v) / (v*phi(v)); an Euler product that
                  differs from A_chi only at the primes dividing h*r*s*q,
                  so it is evaluated as A_chi times exact local corrections
                  there (closed-form local factor over generic factor)

Partial products run over the primes up to a cutoff P.  At a prime p not
dividing q, with c = chi(p), A_chi's factor factors exactly as

    1 + (c-1)p / ((p^2-c)(p-1)) = (1-u)(1+cx)/(1-cy),
    u = 1/(p(p-1)),  x = 1/(p^3-p^2-p),  y = 1/p^2.

The primes up to P0 = 1000 give exact factors.  Above P0 each log is
expanded in powers of u, x and y, so the factor's log is

    w_0(p) + c w_1(p) + c^2 w_2(p),
    w_0 = -u - u^2/2,  w_1 = x + y,  w_2 = (y^2 - x^2)/2,

with w_2 kept only up to P1 = 2*10^5: M = 2 terms of each series up to
P1 and, for the series in c, M = 1 above it.  w_0 depends on neither the
modulus nor the character, so one pass over the primes P0 < p <= P sums
it, once per cutoff.  Artin's constant reads that sum; A_chi subtracts
w_0(q) when P0 < q <= P, q being the one prime with chi(q) = 0.  The
class sums S[m, r] of w_m(p), m = 1, 2, over the primes P0 < p <= P with
p = r (mod q^s) are one more pass per (modulus, cutoff); each character
then costs exp(generic sum + sum over r of chi(r) S[1, r] +
chi(r)^2 S[2, r]), O(q) work.

Both sums, a_chi and c_chi are memoised by their arguments with
functools.lru_cache (characters compare and hash by modulus and index), so
a_chi.cache_info() and the like report each cache's hits and misses.

Two rigorous bounds make up the tail bound.  Each omitted factor (p > P)
differs from 1 by at most 2.05/p^2, and sum_{p>P} 1/p^2 <= 2.52/(P log P)
by partial summation against pi(t) <= 1.26 t/log t.  Since x, y < u, the
M = 2 truncation of the three series leaves at most 3u^3/(3(1-u)) =
u^3/(1-u) per prime, and over the odd p > P0 that sums to at most the sum
over even k >= 1000 of k^-6 (times 1 + 1e-6) <= 1.1e-16.  Above P1 the
M = 1 truncation of log(1 + cx) and -log(1 - cy) leaves at most
(x^2 + y^2)/(2(1 - y)) <= y^2 = 1/p^4 per prime, and over the odd p > P1
at most 1/(6(P1 - 1)^3) <= 2.1e-17.  The total, under 1.4e-16, is taken
as 2.0e-16.  Both bounds enter through the log, as |value| expm1(sum of
the two).  Sums are accumulated in fixed-size chunks in a fixed order, so
results are bit-identical however the work is scheduled.  The primes come
from the package's one sieve, ordense.sieve.primes_upto.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import factorize, odd_prime_power, valuation
# bound here and called through this module global, so a wrapper installed
# on ordense.characters.primes_upto sees every Euler product's sieve call
from .sieve import DEFAULT_PRIME_CUTOFF, check_prime_cutoff, primes_upto

__all__ = [
    "DirichletCharacter",
    "CharacterGroup",
    "character_group",
    "EulerProductValue",
    "a_chi",
    "c_chi",
    "artin_constant",
]

_TAIL_CONST = 5.2  # 2 * 1.021 * 2.52, see module docstring
_SERIES_FROM = 1000  # P0: primes above it enter through the series sums
_SQUARES_UPTO = 200_000  # P1: the class sums keep the c^2 term up to it
_SERIES_REMAINDER = 2.0e-16  # truncation bound over all p > P0, see module docstring
# primes per bincount pass: a chunk's float temporaries stay near 1 MB
_CHUNK = 1 << 14


@dataclass(frozen=True)
class EulerProductValue:
    """Partial Euler product with a rigorous bound on the omitted tail."""

    value: complex
    tail_bound: float

    def __post_init__(self):
        if self.tail_bound < 0 or not cmath.isfinite(self.value):
            raise ValueError("malformed Euler product value")


class DirichletCharacter:
    """Character mod an odd prime power q^s, determined by an index j.

    chi(gen^k) = exp(2*pi*i*j*k/phi); order = phi/gcd(j, phi); chi(n) = 0
    whenever gcd(n, modulus) > 1.
    """

    __slots__ = ("modulus", "phi", "index", "order", "_group")

    def __init__(self, group: "CharacterGroup", index: int):
        self._group = group
        self.modulus = group.modulus
        self.phi = group.phi
        self.index = index % group.phi
        self.order = group.phi // math.gcd(self.index, group.phi)

    def exponent(self, n: int) -> int | None:
        """k with chi(n) = exp(2*pi*i*k/phi), or None when chi(n) = 0."""
        n %= self.modulus
        dl = self._group.dlog[n]
        if dl < 0:
            return None
        return (self.index * dl) % self.phi

    def __call__(self, n: int) -> complex:
        k = self.exponent(n)
        return 0j if k is None else complex(self._group.roots[k])

    def value_table(self) -> np.ndarray:
        """chi on residues 0..modulus-1 as complex128 (0 on non-units), built on each call."""
        grp = self._group
        table = np.zeros(self.modulus, dtype=np.complex128)
        units = grp.dlog >= 0
        table[units] = grp.roots[(self.index * grp.dlog[units]) % self.phi]
        return table

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    def conjugate(self) -> "DirichletCharacter":
        return self._group.characters[(-self.index) % self.phi]

    def __eq__(self, other):
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.modulus, self.index))

    def __repr__(self):
        return f"chi_{self.index} (mod {self.modulus}, order {self.order})"


class CharacterGroup:
    """All phi(q^s) Dirichlet characters mod an odd prime power q^s."""

    def __init__(self, modulus: int):
        qs = odd_prime_power(modulus)
        if qs is None:
            raise ValueError(f"modulus must be an odd prime power, got {modulus}")
        q, s = qs
        self.modulus = modulus
        self.prime = q
        self.phi = q ** (s - 1) * (q - 1)
        self.generator = self._primitive_root()
        self.dlog = self._dlog_table()
        k = np.arange(self.phi)
        self.roots = np.exp(2j * np.pi * k / self.phi)
        # exp leaves -1 + 1.2e-16j at a half turn; the quarter turns are exact
        quarter = 4 * k % self.phi == 0
        self.roots[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // self.phi]
        self.characters = tuple(DirichletCharacter(self, j) for j in range(self.phi))

    def _primitive_root(self) -> int:
        fac_phi = factorize(self.phi)
        for g in range(2, self.modulus):
            if math.gcd(g, self.modulus) != 1:
                continue
            if all(pow(g, self.phi // p, self.modulus) != 1 for p, _ in fac_phi):
                return g
        raise AssertionError(f"no primitive root mod {self.modulus}")

    def _dlog_table(self) -> np.ndarray:
        table = np.full(self.modulus, -1, dtype=np.int64)
        x = 1
        for k in range(self.phi):
            table[x] = k
            x = x * self.generator % self.modulus
        return table

    @property
    def principal(self) -> DirichletCharacter:
        return self.characters[0]

    def __iter__(self):
        return iter(self.characters)

    def __len__(self):
        return self.phi


@lru_cache(maxsize=None)
def character_group(modulus: int) -> CharacterGroup:
    return CharacterGroup(modulus)


def _generic_factor(p, c):
    """A_chi's factor 1 + (c-1)*p / ((p^2-c)*(p-1)) at a prime p, c = chi(p) != 0.

    Takes arrays (a_chi, primes <= P0) or scalars (c_chi).  Never 0: its numerator
    p^3 - p^2 - p + c has no root with |c| = 1.
    """
    return 1.0 + (c - 1.0) * p / ((p * p - c) * (p - 1.0))


def _tail_factor(prime_cutoff: int, tail_const: float = _TAIL_CONST) -> float:
    """Relative tail bound: the omitted primes plus, above P0, the series truncation."""
    log_bound = tail_const / (prime_cutoff * math.log(prime_cutoff))
    if prime_cutoff > _SERIES_FROM:
        log_bound += _SERIES_REMAINDER
    return math.expm1(log_bound)


def _w0(p):
    """The generic log weight w_0(p) = -u - u^2/2, u = 1/(p(p-1)): arrays or floats."""
    u = 1.0 / (p * (p - 1.0))
    return -u - u * u / 2.0


def _generic_sum(primes: np.ndarray) -> float:
    """Sum of w_0(p) over the given primes, one chunk of _CHUNK primes at a time."""
    total = 0.0
    for i in range(0, len(primes), _CHUNK):
        total += float(_w0(primes[i : i + _CHUNK].astype(np.float64)).sum())
    return total


def _sum_by_class(primes: np.ndarray, modulus: int) -> np.ndarray:
    """S[m - 1, r] = sum of w_m(p) over the given primes p = r (mod modulus), m = 1, 2.

    w_1 = x + y over every given prime, w_2 = (y^2 - x^2)/2 only over those
    <= P1 (the primes are sorted), as in the module docstring.  One bincount
    per weight and chunk of _CHUNK primes, so the temporaries stay bounded
    whatever the number of primes.
    """
    sums = np.zeros((2, modulus))
    squares = int(np.searchsorted(primes, _SQUARES_UPTO, side="right"))
    for i in range(0, len(primes), _CHUNK):
        p = primes[i : i + _CHUNK].astype(np.float64)
        # exact for p < 2^53: the rounded p / modulus has the true floor
        residue = (p - np.floor(p / modulus) * modulus).astype(np.intp)
        pp = p * p
        x = 1.0 / (p * (pp - p - 1.0))
        y = 1.0 / pp
        sums[0] += np.bincount(residue, x + y, minlength=modulus)
        k = squares - i
        if k > 0:
            x, y = x[:k], y[:k]
            sums[1] += np.bincount(residue[:k], (y * y - x * x) / 2.0, minlength=modulus)
    return sums


def _series_primes(prime_cutoff: int) -> np.ndarray:
    """The primes P0 < p <= prime_cutoff: a slice, so a view of the cached primes."""
    primes = primes_upto(prime_cutoff)
    return primes[int(np.searchsorted(primes, _SERIES_FROM, side="right")) :]


@lru_cache(maxsize=None)
def _generic_log(prime_cutoff: int) -> float:
    """_generic_sum over the primes P0 < p <= prime_cutoff, memoised per cutoff."""
    return _generic_sum(_series_primes(prime_cutoff))


@lru_cache(maxsize=None)
def _class_sums(modulus: int, prime_cutoff: int) -> np.ndarray:
    """_sum_by_class over the primes P0 < p <= prime_cutoff, memoised per (modulus, cutoff).

    Read-only: every character mod the modulus shares the one array.
    """
    sums = _sum_by_class(_series_primes(prime_cutoff), modulus)
    sums.flags.writeable = False
    return sums


@lru_cache(maxsize=None)
def a_chi(chi: DirichletCharacter, prime_cutoff: int) -> EulerProductValue:
    """Partial product for A_chi over primes <= prime_cutoff.

    Exact factors at the primes up to P0 = 1000, times exp of the generic
    sum and the class sums weighted by chi(r)^m above P0 (see the module
    docstring).  The principal character gives exactly 1 (every factor is
    1).
    """
    check_prime_cutoff(prime_cutoff)
    if chi.is_principal:
        return EulerProductValue(1 + 0j, 0.0)
    table = chi.value_table()
    # chi(p) = 0 exactly at p = q, the prime of the modulus q^s, so q is
    # left out of the exact product and its weight out of the generic sum
    q = chi._group.prime
    exact = primes_upto(min(prime_cutoff, _SERIES_FROM))
    exact = exact[exact != q]
    value = complex(
        np.prod(_generic_factor(exact.astype(np.float64), table[exact % chi.modulus]))
    )
    if prime_cutoff > _SERIES_FROM:
        generic = _generic_log(prime_cutoff)
        if _SERIES_FROM < q <= prime_cutoff:
            generic -= _w0(q)
        # the class sums need no such correction: q's class is not a unit
        sums = _class_sums(chi.modulus, prime_cutoff)
        log = complex(generic) + complex(table @ sums[0]) + complex((table * table) @ sums[1])
        value *= cmath.exp(log)
    return EulerProductValue(value, abs(value) * _tail_factor(prime_cutoff))


def _local_factor(chi: DirichletCharacter, p: int, alpha: int, nu: int) -> complex:
    """Local factor of C_chi at a prime p not dividing r.

    alpha = nu_p(s) and nu = nu_p(h).  The factor is 1 + T(1) when alpha = 0
    and T(alpha) otherwise, where T(E) sums
    h_chi(p^e) * gcd(h, p^e) / (p^e * phi(p^e)) over e >= E: finitely many
    terms up to e = nu plus a geometric tail in chi(p)/p^2.
    """
    c = chi(p)
    fin = 0j
    for e in range(max(alpha, 1), nu + 1):
        fin += c ** (e - 1) * (c - 1) / (p ** (e - 1) * (p - 1))
    e2 = max(max(alpha, 1), nu + 1)
    geo = (
        (c - 1)
        * p**nu
        / (p - 1)
        * (c ** (e2 - 1) / p ** (2 * e2 - 1))
        / (1 - c / p**2)
    )
    t = fin + geo
    return 1 + t if alpha == 0 else t


@lru_cache(maxsize=None)
def c_chi(chi: DirichletCharacter, h: int, r: int, s: int, prime_cutoff: int) -> EulerProductValue:
    """Partial Euler product for C_chi(h, r, s) with a rigorous tail bound.

    Invariant under the sign of s (|s| is used; a negative s is memoised
    apart from |s|, with the same value).  C_chi differs from A_chi
    only at the primes p dividing h*r*s*q.  A prime dividing r forces v
    coprime to it: if it also divides s the sum is empty (exact 0),
    otherwise its local factor is 1.  The other such primes get exact
    closed-form local factors.  So the value is a_chi's partial product with
    the generic factor of each such p divided out (when p <= prime_cutoff
    and chi(p) != 0) and its local factor multiplied in: the same partial
    product over the primes <= prime_cutoff, with the same tail bound.
    """
    if h < 1 or r < 1 or s == 0:
        raise ValueError("need h >= 1, r >= 1, s != 0")
    check_prime_cutoff(prime_cutoff)
    s = abs(s)
    if math.gcd(r, s) > 1:
        return EulerProductValue(0j, 0.0)
    corrected = {*factorize(h).primes, *factorize(r).primes, *factorize(s).primes}
    value = a_chi(chi, prime_cutoff).value
    for p in sorted(corrected | {chi._group.prime}):
        c = chi(p)
        if p <= prime_cutoff and c != 0:
            value /= _generic_factor(float(p), c)
        if r % p:
            value *= _local_factor(chi, p, valuation(p, s), valuation(p, h))
    return EulerProductValue(value, abs(value) * _tail_factor(prime_cutoff))


def artin_constant(prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> EulerProductValue:
    """Artin's constant prod_p (1 - 1/(p(p-1))) over primes <= prime_cutoff."""
    check_prime_cutoff(prime_cutoff)
    p = primes_upto(min(prime_cutoff, _SERIES_FROM)).astype(np.float64)
    value = float(np.prod(1.0 - 1.0 / (p * (p - 1.0))))
    if prime_cutoff > _SERIES_FROM:
        # the factor is 1 - u, whose log is the weight w_0
        value *= math.exp(_generic_log(prime_cutoff))
    # |factor - 1| = 1/(p(p-1)) <= 1.02/p^2 here, same tail shape as a_chi
    tail = abs(value) * _tail_factor(prime_cutoff, 2.6)
    return EulerProductValue(value, tail)
