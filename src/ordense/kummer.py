"""Degrees of the fields K(s, r) = Q(zeta_s, g^(1/r)) and entanglement coefficients.

The degree of K(kr, k) over Q is phi(kr)*k / (eps(kr,k) * gcd(k,h)) where the
correction eps in {1/2, 1, 2} records whether the cyclotomic level kr already
contains the quadratic entanglement field n_r attached to g.  From eps one
reads off the degree of the intersection Q(zeta_f) with K(v, v) over the
obvious cyclotomic subfield, which is what decides the coefficients
c_g(b, f, v) in {0, 1}: does the automorphism zeta_f -> zeta_f^b act
trivially on that intersection?

eps is defined once, in _eps2, coded as the integer 2*eps in {1, 2, 4} so
every degree is computed with integers only; epsilon returns it as a
Fraction.  delta_general_series keeps one inline copy of it in its pair loop
(see the comment there), pinned to kummer_degree by the tests.

The intersection is the plain cyclotomic Q(zeta_gcd(f,v)) or a quadratic
extension of it.  When the quadratic jump is attributable to a single odd
prime q (f a power of q), the extension is Q(sqrt(q*)) with
q* = (-1|q) * q, and the action of b on it is the Kronecker symbol
(q*|b).  For other f the quadratic generator is not identified here and
UNSUPPORTED is returned instead of a guess.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import euler_phi, factorize, is_prime, kronecker
from .decomp import GDecomposition, n_r

__all__ = [
    "UNSUPPORTED",
    "epsilon",
    "kummer_degree",
    "intersection_degree",
    "sqrt_qstar_in_kvv",
    "entanglement_coefficient",
]


class _Unsupported:
    """Sentinel: the coefficient is 0 or 1 but this code cannot decide which."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNSUPPORTED"

    def __bool__(self):
        raise TypeError("UNSUPPORTED has no truth value; compare with 'is'")


UNSUPPORTED = _Unsupported()


def _eps2(dec: GDecomposition, kr: int, k: int) -> int:
    """2 * eps(kr, k) in {1, 2, 4}; requires k | kr."""
    if k < 1 or kr < 1 or kr % k:
        raise ValueError(f"need k | kr, got kr={kr}, k={k}")
    r = kr // k
    if kr % n_r(dec, r) == 0:
        return 4
    if dec.sign < 0 and r % 2 and k % 2 == 0 and k % dec.hc2:
        return 1
    return 2


def epsilon(dec: GDecomposition, kr: int, k: int) -> Fraction:
    """Degree correction eps(kr, k) in {1/2, 1, 2}; requires k | kr."""
    return Fraction(_eps2(dec, kr, k), 2)


def kummer_degree(dec: GDecomposition, kr: int, k: int, phi_kr: int | None = None) -> int:
    """[Q(zeta_kr, g^(1/k)) : Q] = phi(kr) * k / (eps(kr,k) * gcd(k, h))."""
    eps2 = _eps2(dec, kr, k)
    if phi_kr is None:
        phi_kr = euler_phi(kr)
    deg, rem = divmod(2 * phi_kr * k, eps2 * math.gcd(k, dec.h))
    if rem or deg <= 0:
        raise AssertionError(f"non-integral Kummer degree at kr={kr}, k={k}")
    return deg


def intersection_degree(dec: GDecomposition, f: int, v: int) -> int:
    """[Q(zeta_f) ∩ K(v,v) : Q(zeta_gcd(f,v))] = eps(lcm(f,v), v) / eps(v, v) in {1, 2}."""
    if f < 1 or v < 1:
        raise ValueError("f and v must be positive")
    quot, rem = divmod(_eps2(dec, math.lcm(f, v), v), _eps2(dec, v, v))
    assert not rem and quot in (1, 2), f"intersection degree outside {{1,2}} at f={f}, v={v}"
    return quot


def sqrt_qstar_in_kvv(dec: GDecomposition, q: int, s: int, v: int) -> bool:
    """Whether Q(zeta_{q^(s+1)}) ∩ K(q^s v, q^s v) is Q(sqrt(q*)) rather than Q(zeta_{q^s}).

    Requires q an odd prime not dividing v and s >= 0.  True exactly when
    s = 0, q divides D(g0), (n_1 / q) divides v, and (for negative g with v
    even) 2^(nu2(h)+1) divides v.
    """
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if v < 1 or v % q == 0:
        raise ValueError(f"need q coprime to v, got q={q}, v={v}")
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s != 0 or dec.disc_g0 % q != 0:
        return False
    n1 = n_r(dec, 1)
    if v % (n1 // q) != 0:
        return False
    if dec.sign < 0 and v % 2 == 0 and v % dec.hc2 != 0:
        return False
    return True


def entanglement_coefficient(dec: GDecomposition, b: int, f: int, v: int):
    """c_g(b, f, v) in {0, 1}, or UNSUPPORTED when the quadratic part is unnamed.

    Decides whether the automorphism sending zeta_f to zeta_f^b restricts to
    the identity on Q(zeta_f) ∩ K(v, v).  Steps: (1) b must be 1 modulo
    u = gcd(f, v), and b = 1 (mod f) settles it at once; (2) if the
    intersection is exactly Q(zeta_u) we are done;
    (3) if the quadratic jump is attributable to a single odd prime q (q
    divides f and D(g0), not v, and sqrt(q*) lies in K(v, v)), then the
    intersection is Q(zeta_u, sqrt(q*)) by degree count, with conductor
    |q*| = q dividing f but not u, and the answer is (1 + (q*|b)) / 2;
    (4) any other quadratic jump (2-adic entanglement through an even f) is
    UNSUPPORTED rather than guessed.
    """
    if f < 1 or v < 1:
        raise ValueError("f and v must be positive")
    if math.gcd(b, f) != 1:
        raise ValueError(f"need gcd(b, f) = 1, got b={b}, f={f}")
    u = math.gcd(f, v)
    if (b - 1) % u != 0:
        return 0
    if (b - 1) % f == 0:
        return 1  # sigma_b is the identity on all of Q(zeta_f)
    if intersection_degree(dec, f, v) == 1:
        return 1
    shared = math.gcd(f, dec.disc_g0)
    candidates = [
        q
        for q, _ in factorize(shared)
        if q != 2 and v % q != 0 and sqrt_qstar_in_kvv(dec, q, 0, v)
    ]
    if not candidates:
        return UNSUPPORTED
    # two such primes would put a biquadratic field inside the intersection
    assert len(candidates) == 1, f"multiple quadratic jumps at f={f}, v={v}"
    q = candidates[0]
    qstar = kronecker(-1, q) * q
    return (1 + kronecker(qstar, b)) // 2
