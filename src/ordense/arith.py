"""Exact integer and rational arithmetic primitives.

Factorization of 64-bit integers (trial division by the Miller-Rabin
bases, then Pollard rho) and the odd-prime-power parse built on it,
the classical multiplicative functions (Moebius, Euler phi, p-adic
valuation), the full Kronecker symbol, and discriminants of quadratic
fields Q(sqrt(g)) for rational g.

All functions are pure, deterministic and reentrant; they can be called
concurrently without synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Factorization",
    "factorize",
    "odd_prime_power",
    "is_prime",
    "require_odd_prime",
    "moebius",
    "euler_phi",
    "valuation",
    "nu2",
    "kronecker",
    "squarefree_kernel",
    "discriminant_sqrt",
    "parse_rational",
]

_MAX_INPUT = (1 << 63) - 1

# The first 13 primes: Miller-Rabin to these bases is a proven test below
# psi_13 = 3317044064679887385961981 (about 2**81.4; Sorenson and Webster,
# Math. Comp. 86, 2017), and factorize trial-divides by them.  Above psi_13
# a True from is_prime means a strong probable prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        last = 1
        for p, e in self.pairs:
            if p <= last or e < 1:
                raise ValueError(f"malformed factorization: {self.pairs}")
            last = p

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


def is_prime(n: int) -> bool:
    """Miller-Rabin to _MR_BASES: proven for n < psi_13 = 3317044064679887385961981
    (so for every 64-bit n), a strong probable prime test above it."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    # no base divides n, so a composite n would have a factor above 41
    if n < _MR_BASES[-1] ** 2:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(q: int) -> None:
    """Refuse a modulus q that is not an odd prime; every evaluator family reads it."""
    if q == 2:
        raise ValueError("the modulus prime must be odd")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (deterministic seeding)."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> Factorization:
    """Exact prime factorization of n with 1 <= n <= 2**63 - 1."""
    if not 1 <= n <= _MAX_INPUT:
        raise ValueError(f"factorize expects 1 <= n <= 2**63-1, got {n}")
    fac: dict[int, int] = {}
    for p in _MR_BASES:
        if p * p > n:
            break
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    # what is left is 1, a prime, or odd with no prime factor up to 41
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return Factorization(tuple(sorted(fac.items())))


def odd_prime_power(n: int) -> tuple[int, int] | None:
    """(q, s) with n = q**s for an odd prime q, or None when n is no such power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1 or fac.pairs[0][0] == 2:
        return None
    return fac.pairs[0]


def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius expects n >= 1")
    out = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        out = -out
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def valuation(p: int, n: int) -> int:
    """Exponent of the prime p in n (n >= 1)."""
    if not is_prime(p):
        raise ValueError(f"valuation expects a prime, got {p}")
    if n < 1:
        raise ValueError("valuation expects n >= 1")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def nu2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("nu2(0) is undefined")
    n = abs(n)
    return (n & -n).bit_length() - 1


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for every integer pair except (0,0).

    Extends the Jacobi symbol by (a|2) = 0, 1, -1 for a even, a = +-1 (8),
    a = +-3 (8), and (a|-1) = sign(a) with (a|0) = 1 iff a = +-1.  Totally
    multiplicative in each argument and equal to the Legendre symbol when n
    is an odd prime not dividing a.
    """
    if a == 0 and n == 0:
        raise ValueError("kronecker(0, 0) is undefined")
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        r = nu2(n)
        n >>= r
        if r % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    # n is now odd and positive; run the Jacobi algorithm
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def squarefree_kernel(n: int) -> int:
    """Squarefree part of |n|, carrying the sign of n."""
    if n == 0:
        raise ValueError("squarefree_kernel(0) is undefined")
    out = 1
    for p, e in factorize(abs(n)):
        if e % 2:
            out *= p
    return out if n > 0 else -out


def _is_rational_square(g: Fraction) -> bool:
    if g < 0:
        return False
    nr = math.isqrt(g.numerator)
    dr = math.isqrt(g.denominator)
    return nr * nr == g.numerator and dr * dr == g.denominator


def discriminant_sqrt(g: Fraction | int) -> int:
    """Discriminant of the quadratic field Q(sqrt(g)).

    With k the squarefree kernel of numerator*denominator (signed like g),
    the discriminant is k when k = 1 (mod 4) and 4k otherwise.  Its absolute
    value is the conductor of the field.
    """
    g = Fraction(g)
    if g == 0 or _is_rational_square(g):
        raise ValueError(f"Q(sqrt({g})) is not a quadratic field")
    # numerator and denominator are coprime, so the kernel splits
    k = squarefree_kernel(g.numerator) * squarefree_kernel(g.denominator)
    return k if k % 4 == 1 else 4 * k


def parse_rational(text: str) -> Fraction:
    """Parse 'u/v' or an integer literal into a Fraction in lowest terms.

    Malformed text and a zero denominator raise ValueError.
    """
    num, slash, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from None
