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

Partial products run over primes up to a cutoff P and carry a rigorous tail
bound: each omitted factor differs from 1 by at most 2.05/p^2, and
sum_{p>P} 1/p^2 <= 2.52/(P log P) by partial summation against
pi(t) <= 1.26 t/log t.  Products are accumulated in fixed-size chunks in a
fixed order, so results are bit-identical however the work is scheduled.
The primes come from the package's one sieve, ordense.sieve.primes_upto.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import factorize, valuation
# bound here and called through this module global, so a wrapper installed
# on ordense.characters.primes_upto sees every Euler product's sieve call
from .sieve import primes_upto

__all__ = [
    "DirichletCharacter",
    "CharacterGroup",
    "character_group",
    "EulerProductValue",
    "h_chi",
    "a_chi",
    "c_chi",
    "artin_constant",
]

_TAIL_CONST = 5.2  # 2 * 1.021 * 2.52, see module docstring
_CHUNK = 1 << 16
DEFAULT_PRIME_CUTOFF = 10**7
# largest prime cutoff accepted: the sieve holds one byte per integer up to
# it; 1e8 is also the census's bound
_PRIME_CUTOFF_LIMIT = 10**8


@dataclass(frozen=True)
class EulerProductValue:
    """Partial Euler product with a rigorous bound on the omitted tail."""

    value: complex
    tail_bound: float
    prime_cutoff: int

    def __post_init__(self):
        if self.tail_bound < 0 or not cmath.isfinite(self.value):
            raise ValueError("malformed Euler product value")


class DirichletCharacter:
    """Character mod an odd prime power q^s, determined by an index j.

    chi(gen^k) = exp(2*pi*i*j*k/phi); order = phi/gcd(j, phi); chi(n) = 0
    whenever gcd(n, modulus) > 1.
    """

    __slots__ = ("modulus", "phi", "generator", "index", "order", "_group")

    def __init__(self, group: "CharacterGroup", index: int):
        self._group = group
        self.modulus = group.modulus
        self.phi = group.phi
        self.generator = group.generator
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
        """chi on residues 0..modulus-1 as complex128 (0 on non-units)."""
        return self._group.value_tables[self.index]

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
        fac = factorize(modulus)
        if len(fac) != 1 or fac.pairs[0][0] == 2:
            raise ValueError(f"modulus must be an odd prime power, got {modulus}")
        q, s = fac.pairs[0]
        self.modulus = modulus
        self.prime = q
        self.phi = q ** (s - 1) * (q - 1)
        self.generator = self._primitive_root()
        self.dlog = self._dlog_table()
        self.roots = np.exp(2j * np.pi * np.arange(self.phi) / self.phi)
        self.characters = tuple(DirichletCharacter(self, j) for j in range(self.phi))
        self.value_tables = self._value_tables()

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

    def _value_tables(self) -> np.ndarray:
        tables = np.zeros((self.phi, self.modulus), dtype=np.complex128)
        units = self.dlog >= 0
        for j in range(self.phi):
            tables[j, units] = self.roots[(j * self.dlog[units]) % self.phi]
        return tables

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


def h_chi(chi: DirichletCharacter, v: int) -> complex:
    """Moebius convolution of chi at v: multiplicative, chi(p^e) - chi(p^(e-1))."""
    if v < 1:
        raise ValueError("v must be positive")
    out = 1 + 0j
    for p, e in factorize(v):
        k = chi.exponent(p)
        if k is None:
            if e >= 2:
                return 0j
            out *= -1
        else:
            c = complex(chi._group.roots[k])
            out *= c ** (e - 1) * (c - 1)
    return out


def _chunked_prod(factors: np.ndarray) -> complex:
    out = 1 + 0j
    for i in range(0, len(factors), _CHUNK):
        out *= complex(np.prod(factors[i : i + _CHUNK]))
    return out


def _generic_factor(p, c):
    """A_chi's factor 1 + (c-1)*p / ((p^2-c)*(p-1)) at a prime p, c = chi(p) != 0.

    Takes arrays (a_chi) or scalars (c_chi).  Never 0: its numerator
    p^3 - p^2 - p + c has no root with |c| = 1.
    """
    return 1.0 + (c - 1.0) * p / ((p * p - c) * (p - 1.0))


def check_prime_cutoff(prime_cutoff: int) -> None:
    """Refuse a prime cutoff outside [100, 1e8] before anything is sieved."""
    if prime_cutoff < 100:
        raise ValueError("prime_cutoff must be at least 100")
    if prime_cutoff > _PRIME_CUTOFF_LIMIT:
        raise ValueError("prime_cutoff must be <= 1e8")


def _tail_factor(prime_cutoff: int) -> float:
    return math.expm1(_TAIL_CONST / (prime_cutoff * math.log(prime_cutoff)))


_euler_cache: dict[tuple, EulerProductValue] = {}


def a_chi(
    chi: DirichletCharacter, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> EulerProductValue:
    """Partial product for A_chi over primes <= prime_cutoff.

    The principal character gives exactly 1 (every factor is 1).
    """
    check_prime_cutoff(prime_cutoff)
    if chi.is_principal:
        return EulerProductValue(1 + 0j, 0.0, prime_cutoff)
    key = ("a", chi.modulus, chi.index, prime_cutoff)
    hit = _euler_cache.get(key)
    if hit is not None:
        return hit
    primes = primes_upto(prime_cutoff)
    c = chi.value_table()[primes % chi.modulus]
    keep = c != 0
    # rebinding c frees the full-length values before the factors are built
    p, c = primes[keep].astype(np.float64), c[keep]
    value = _chunked_prod(_generic_factor(p, c))
    out = EulerProductValue(value, abs(value) * _tail_factor(prime_cutoff), prime_cutoff)
    _euler_cache[key] = out
    return out


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


def c_chi(
    chi: DirichletCharacter,
    h: int,
    r: int,
    s: int,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
) -> EulerProductValue:
    """Partial Euler product for C_chi(h, r, s) with a rigorous tail bound.

    Invariant under the sign of s (|s| is used).  C_chi differs from A_chi
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
    key = ("c", chi.modulus, chi.index, h, r, s, prime_cutoff)
    hit = _euler_cache.get(key)
    if hit is not None:
        return hit
    if math.gcd(r, s) > 1:
        out = EulerProductValue(0j, 0.0, prime_cutoff)
        _euler_cache[key] = out
        return out
    corrected = {*factorize(h).primes, *factorize(r).primes, *factorize(s).primes}
    value = a_chi(chi, prime_cutoff).value
    for p in sorted(corrected | {chi._group.prime}):
        c = chi(p)
        if p <= prime_cutoff and c != 0:
            value /= _generic_factor(float(p), c)
        if r % p:
            value *= _local_factor(chi, p, valuation(p, s), valuation(p, h))
    out = EulerProductValue(value, abs(value) * _tail_factor(prime_cutoff), prime_cutoff)
    _euler_cache[key] = out
    return out


def artin_constant(prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> EulerProductValue:
    """Artin's constant prod_p (1 - 1/(p(p-1))) over primes <= prime_cutoff."""
    check_prime_cutoff(prime_cutoff)
    p = primes_upto(prime_cutoff).astype(np.float64)
    value = _chunked_prod(1.0 - 1.0 / (p * (p - 1.0))).real
    # |factor - 1| = 1/(p(p-1)) <= 1.02/p^2 here, same tail shape as a_chi
    tail = abs(value) * math.expm1(2.6 / (prime_cutoff * math.log(prime_cutoff)))
    return EulerProductValue(value, tail, prime_cutoff)
