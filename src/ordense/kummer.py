"""Degrees of the fields K(s, r) = Q(zeta_s, g^(1/r)) and entanglement coefficients.

The degree of K(kr, k) over Q is phi(kr)*k / (eps(kr,k) * gcd(k,h)) where the
correction eps in {1/2, 1, 2} records whether the cyclotomic level kr already
contains the quadratic entanglement field n_r attached to g.  From eps one
reads off the degree of the intersection Q(zeta_f) with K(v, v) over the
obvious cyclotomic subfield, which is what decides the coefficients
c_g(b, f, v) in {0, 1}: does the automorphism zeta_f -> zeta_f^b act
trivially on that intersection?

eps is coded as the integer 2*eps in {1, 2, 4}, so every degree is computed
with integers only.  _eps2 and kummer_degree give it and the degree for one
(kr, k); kummer_degrees applies the same case split to whole arrays, and is
where both series of ordense.density take their degrees from.  All three
read n_r from decomp.n_r, the one place its formula lives.

The intersection is the plain cyclotomic Q(zeta_gcd(f,v)) or a quadratic
extension of it.  When the quadratic jump is attributable to a single odd
prime q (f a power of q), the extension is Q(sqrt(q*)) with
q* = (-1|q) * q, and the action of b on it is the Kronecker symbol
(q*|b).  For other f the quadratic generator is not identified here and
UNSUPPORTED is returned instead of a guess.

Every decision about which inputs c_g reads lives here: eps alone decides
whether sqrt(q*) lies in K(v, v), and coefficient_table derives K_f for the
double series and calls entanglement_coefficient once per reduced key.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import euler_phi, factorize, kronecker, nu2
from .decomp import GDecomposition, n_r

__all__ = [
    "UNSUPPORTED",
    "kummer_degree",
    "kummer_degrees",
    "intersection_degree",
    "entanglement_coefficient",
    "coefficient_table",
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


def kummer_degree(dec: GDecomposition, kr: int, k: int, phi_kr: int | None = None) -> int:
    """[Q(zeta_kr, g^(1/k)) : Q] = phi(kr) * k / (eps(kr,k) * gcd(k, h))."""
    eps2 = _eps2(dec, kr, k)
    if phi_kr is None:
        phi_kr = euler_phi(kr)
    deg, rem = divmod(2 * phi_kr * k, eps2 * math.gcd(k, dec.h))
    if rem or deg <= 0:
        raise AssertionError(f"non-integral Kummer degree at kr={kr}, k={k}")
    return deg


def kummer_degrees(
    dec: GDecomposition, kr: np.ndarray, k: np.ndarray, phi_kr: np.ndarray
) -> np.ndarray:
    """kummer_degree elementwise over arrays with k | kr and phi_kr = phi(kr).

    Applies _eps2's case split with no memo, taking n_r from decomp.n_r once
    per power of two up to the largest 2-part of r = kr / k (n_r depends on
    r only through it).  An n_r above every kr divides none and is skipped,
    so the arrays may be int64 whenever 2 * phi_kr * k stays below 2^63;
    otherwise they hold Python ints.
    """
    r = kr // k
    two = r & -r  # the 2-part of r
    top = int(kr.max(initial=0))
    eps2 = np.full(kr.shape, 2)
    if dec.sign < 0:
        eps2[(r % 2 == 1) & (k % 2 == 0) & (k % dec.hc2 != 0)] = 1
    for j in range(int(two.max(initial=1)).bit_length()):
        n = n_r(dec, 1 << j)
        if n <= top:
            at = np.flatnonzero(two == 1 << j)
            eps2[at[kr[at] % n == 0]] = 4
    num = 2 * phi_kr * k
    den = eps2 * np.gcd(k, dec.h)
    deg = num // den
    bad = np.flatnonzero((num % den != 0) | (deg <= 0))
    if len(bad):
        i = bad[0]
        raise AssertionError(f"non-integral Kummer degree at kr={kr[i]}, k={k[i]}")
    return deg


def intersection_degree(dec: GDecomposition, f: int, v: int) -> int:
    """[Q(zeta_f) ∩ K(v,v) : Q(zeta_gcd(f,v))] = eps(lcm(f,v), v) / eps(v, v) in {1, 2}.

    At an odd prime f = q not dividing v, 2 means Q(zeta_q) ∩ K(v,v) = Q(sqrt(q*)).
    """
    if f < 1 or v < 1:
        raise ValueError("f and v must be positive")
    quot, rem = divmod(_eps2(dec, math.lcm(f, v), v), _eps2(dec, v, v))
    assert not rem and quot in (1, 2), f"intersection degree outside {{1,2}} at f={f}, v={v}"
    return quot


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
        if q != 2 and v % q != 0 and intersection_degree(dec, q, v) == 2
    ]
    if not candidates:
        return UNSUPPORTED
    # two such primes would put a biquadratic field inside the intersection
    assert len(candidates) == 1, f"multiple quadratic jumps at f={f}, v={v}"
    q = candidates[0]
    qstar = kronecker(-1, q) * q
    return (1 + kronecker(qstar, b)) // 2


def coefficient_table(dec: GDecomposition, b: np.ndarray, f: np.ndarray):
    """table(i, v)[k] = c_g(b[i[k]], f[i[k]], v[k]) as int64, -1 for UNSUPPORTED.

    b and f are integer arrays (int64 or Python ints) with gcd(b, f) = 1; i
    indexes them and v is a positive integer array of i's shape.

    entanglement_coefficient reads v only through divisibility by divisors
    of K_f = lcm(f, m, D(g0), 2^(nu2(h)+nu2(f)+1)): gcd(f, v), n_r(r) for
    r | f and hc2, and n_1 / q through eps(qv, v).  It reads b only mod f: (q*|b) has period q,
    which divides f.  So the table keeps one id per distinct (f, b mod f)
    and one memo for its lifetime, and calls the scalar once per distinct
    (b mod f, f, gcd(v, K_f)), at those arguments.  Its keys are int64 when
    len(b) * (max K_f + 1) < 2^63, else Python ints.
    """
    fs, f_id = np.unique(f, return_inverse=True)
    fs = fs.tolist()
    kfs = [math.lcm(x, dec.m, dec.disc_g0, 2 << (nu2(dec.h) + nu2(x))) for x in fs]
    width = max(kfs, default=0) + 1
    kt = np.int64 if len(b) * width < 1 << 63 else object
    # (f, b mod f) keyed as f's id * width + b mod f, since b mod f < f <= K_f
    keys, pair_id = np.unique(f_id.astype(kt) * width + (b % f).astype(kt), return_inverse=True)
    pairs = [divmod(k, width) for k in keys.tolist()]
    pair_key = pair_id.astype(kt) * width
    kf = np.array(kfs, dtype=kt)[f_id]
    memo: dict[int, int] = {}

    def table(i: np.ndarray, v: np.ndarray) -> np.ndarray:
        key = pair_key[i] + np.gcd(v, kf[i]).astype(kt, copy=False)
        keys, inverse = np.unique(key, return_inverse=True)
        vals = []
        for k in keys.tolist():
            c = memo.get(k)
            if c is None:
                p, u = divmod(k, width)
                fi, r = pairs[p]
                c = entanglement_coefficient(dec, r, fs[fi], u)
                c = memo[k] = -1 if c is UNSUPPORTED else c
            vals.append(c)
        return np.array(vals, dtype=np.int64)[inverse]

    return table
