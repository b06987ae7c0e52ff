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
(kr, k); eps2s applies the same case split to whole arrays and
kummer_degrees reads degrees from it.  All of them take n_r from decomp.n_r,
the one place its formula lives.

The intersection is the plain cyclotomic Q(zeta_gcd(f,v)) or a quadratic
extension of it.  When the jump comes from a single odd prime q (f may be
composite, as f = 15 for g = 5), the extension is Q(sqrt(q*)) with
q* = (-1|q) * q, and b acts on it by (q*|b) = (b|q).  Any other jump is
UNSUPPORTED rather than guessed.  entanglement_coefficient decides one key,
for the cg command and as the tests' oracle.  Whole arrays are decided in
two parts, from the split eps2s that the double series also takes its
degrees from: entanglement_jumps, the jumps of step (2) and the primes of
step (3) that name them, reads no b, so the double series takes it once
per block; jump_coefficients then applies each residue class's b at the
jumps.  Step (1) and the b = 1 (mod f) shortcut are left to the caller:
on the double series' keys the first always holds and the second holds
exactly in class 0.

n_1 = n_r(dec, 1) names q: for an odd prime q not dividing v, sqrt(q*) lies
in K(v, v), that is eps2(qv, v) = 2 eps2(v, v), exactly when
q = n_1 / gcd(v, n_1).  Proof: with r = q odd, n_q = n_1, so eps2(qv, v) is
4 exactly when n_1 | qv, and otherwise the negative-g branch, which reads
only the sign of g, v and hc2, gives it the value it gives eps2(v, v).  So
the degree doubles exactly when n_1 | qv, n_1 does not divide v and
eps2(v, v) != 1.  The odd part of n_1, that of D(g0), is squarefree, so the
first two hold for q = n_1 / gcd(v, n_1) alone; then n_1 / q divides v, and
with it the 2-part of n_1, at least hc2, so the third holds too.  Such a q,
odd and prime, never divides v, as q^2 does not divide n_1.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import euler_phi, is_prime, kronecker
from .decomp import GDecomposition, n_r

__all__ = [
    "UNSUPPORTED",
    "kummer_degree",
    "eps2s",
    "kummer_degrees",
    "intersection_degree",
    "entanglement_coefficient",
    "entanglement_jumps",
    "jump_coefficients",
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


def eps2s(dec: GDecomposition, kr: np.ndarray, k: np.ndarray) -> np.ndarray:
    """_eps2 elementwise over int64 or Python-int arrays with k | kr, as int64.

    Takes n_r once per 2-part of r = kr / k (n_r reads r only through it),
    and skips an n_r above every kr.
    """
    r = kr // k
    two = r & -r  # the 2-part of r
    top = int(kr.max(initial=0))
    eps2 = np.full(kr.shape, 2)
    if dec.sign < 0:
        low = k & -k  # the 2-part of k
        eps2[(two == 1) & (low > 1) & (low < dec.hc2)] = 1
    for j in range(int(two.max(initial=1)).bit_length()):
        n = n_r(dec, 1 << j)
        if n <= top:
            at = np.flatnonzero(two == 1 << j)
            eps2[at[kr[at] % n == 0]] = 4
    return eps2


def kummer_degrees(
    dec: GDecomposition, k: np.ndarray, phi_kr: np.ndarray, eps2: np.ndarray
) -> np.ndarray:
    """kummer_degree elementwise, from phi_kr = phi(kr) and eps2 = eps2s(dec, kr, k).

    The arrays may be int64 while 2 * phi_kr * k stays below 2^63, else Python ints.
    """
    num = 2 * phi_kr * k
    den = eps2 * np.gcd(k, dec.h) if dec.h > 1 else eps2
    deg = num // den
    bad = np.flatnonzero((deg * den != num) | (num < den))
    if len(bad):
        i = bad[0]
        raise AssertionError(f"non-integral Kummer degree at k={k[i]}, phi(kr)={phi_kr[i]}")
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
    (3) if q = n_1 / gcd(v, n_1) is an odd prime dividing f, sqrt(q*) is the
    jump (module docstring), the intersection is Q(zeta_u, sqrt(q*)) by
    degree count, and the answer is (1 + (b|q)) / 2; (4) any other jump
    (2-adic entanglement through an even f) is UNSUPPORTED rather than
    guessed.
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
    n1 = n_r(dec, 1)
    q = n1 // math.gcd(v, n1)
    if q % 2 == 0 or f % q or not is_prime(q):
        return UNSUPPORTED
    return (1 + kronecker(b, q)) // 2


def entanglement_jumps(
    dec: GDecomposition, f: np.ndarray, v: np.ndarray, eps2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The part of c_g that reads no b: the jumps of step (2) and their names from step (3).

    Returns (at, q): at lists the keys where Q(zeta_f) ∩ K(v, v) is a
    quadratic extension of Q(zeta_gcd(f, v)), that is eps2 !=
    eps2s(dec, v, v), with eps2 = eps2s(dec, lcm(f, v), v); q[k] is the odd
    prime q = n_1 / gcd(v, n_1) at key at[k] when q divides f there, and 0
    where the jump is unnamed.  q is int64, or Python ints when n_1 >= 2^63.
    """
    at = np.flatnonzero(eps2 != eps2s(dec, v, v))
    n1 = n_r(dec, 1)
    big = n1 >> 63 != 0
    q = np.zeros(len(at), dtype=object if big else np.int64)
    if n1 & (n1 - 1):  # D(g0) has an odd prime
        # a Python int above int64 needs object entries
        qa = n1 // np.gcd(v[at].astype(object) if big else v[at], n1)
        for p in filter(is_prime, set(qa[qa % 2 == 1].tolist())):
            hit = (qa == p) & (f[at] % p == 0)
            q[hit] = p
    return at, q


def jump_coefficients(b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """c_g at jump keys past step (1) with b != 1 (mod f), from entanglement_jumps' q.

    (1 + (b|q)) / 2 where q names the jump, -1 (UNSUPPORTED) where q = 0.
    """
    c = np.full(len(q), -1)
    rest = np.flatnonzero(q)
    while len(rest):
        p = q[rest[0]]
        hit = q[rest] == p
        c[rest[hit]] = _is_square(b[rest[hit]], int(p))
        rest = rest[~hit]
    return c


def _is_square(x: np.ndarray, q: int) -> np.ndarray:
    """x^((q-1)/2) = 1 (mod q): x, prime to the odd prime q, is a square mod q."""
    x = (x % q).astype(np.int64 if q < 1 << 31 else object)  # so that x * x fits
    r = np.ones_like(x)
    for bit in bin(q >> 1)[:1:-1]:  # the bits of (q-1)/2, lowest first
        if bit == "1":
            r = r * x % q
        x = x * x % q
    return r == 1
