"""Character forms at level q: linear combinations of the Euler-product
constants A_chi and C_chi(h, q, s) over the character group mod q.

One assembly from C_chi serves every exponent h (its negative-g correction
X_chi is 0 at odd h).  Character forms carry the rigorous Euler tail bounds
of their constants.

The family reads nothing of the series: no Kummer degree, no entanglement
coefficient and no phi/mu table.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import kronecker, require_odd_prime
from .characters import a_chi, c_chi, character_group
from .closed import DensityValue, delta_joint_one_mod_q
from .decomp import GDecomposition, n_r
from .sieve import DEFAULT_PRIME_CUTOFF

__all__ = ["delta_charform", "delta_avg_charform"]


def _bsum(chi, q: int) -> complex:
    """sum of conj(chi(b)) over 1 <= b <= q-1 with (1-b | q) = -1."""
    tot = 0j
    for b in range(2, q):
        if kronecker(1 - b, q) == -1:
            tot += chi(b).conjugate()
    return tot


def _charform_pair(dec: GDecomposition, a: int, q: int, prime_cutoff: int):
    """(delta0, delta) at level q from C_chi constants: one assembly for every h.

    delta0(a,q) = 1/(q-1) + (1 - q^(1-nu)/( q+1))/(q-1)^2
                  - (1/(q-1)^2) sum_chi chi(-a) (C_chi(h,q,1) + C_chi(h,q,s2) + X_chi)
    where s2 = n_q / gcd(n_q, q).  X_chi = -C_chi(h,q,2)/2 +
    C_chi(h,q,2^(nu2(h)+1))/2 is the correction for negative g with even h;
    X_chi = 0 for positive g and at every odd h.  When q | D(g0) the full
    density subtracts
    (2/(q-1)^2) sum_chi chi(-a) C_chi(h,q,s2) * sum_b conj(chi(b)).
    At h = 1 this is the same sum as the explicit product form of
    Lenstra-Stevenhagen-Moree (sum_chi chi(-a) A_chi times a finite product
    over the primes of 2D(g)), which the tests keep as its oracle.

    For negative g with even h the assembly follows the same convolution
    identity but that branch has no independent closed form here, so the
    result is flagged rigorous=False (validate against the series form).
    """
    h = dec.h
    n1 = n_r(dec, 1)
    qdiv = dec.disc_g0 % q == 0
    s2 = n1 // q if qdiv else n1
    grp = character_group(q)
    crosscheck_needed = dec.sign < 0 and h % 2 == 0
    tot = 0j
    totc = 0j
    err = 0.0
    for chi in grp:
        c1 = c_chi(chi, h, q, 1, prime_cutoff)
        c2 = c_chi(chi, h, q, s2, prime_cutoff)
        comb = c1.value + c2.value
        cerr = c1.tail_bound + c2.tail_bound
        if crosscheck_needed:
            x1 = c_chi(chi, h, q, 2, prime_cutoff)
            x2 = c_chi(chi, h, q, dec.hc2, prime_cutoff)
            comb += (x2.value - x1.value) / 2
            cerr += (x1.tail_bound + x2.tail_bound) / 2
        w = chi(-a)
        tot += w * comb
        err += cerr
        if qdiv:
            s = _bsum(chi, q)
            totc += w * c2.value * s
            err += 2 * abs(s) * c2.tail_bound
    scale = (q - 1) ** 2
    nul = delta_joint_one_mod_q(dec, q, a).exact
    base = 1.0 / (q - 1) + float(nul)
    if abs(tot.imag) > 1e-12 * scale or abs(totc.imag) > 1e-12 * scale:
        raise AssertionError("character sum has a nonvanishing imaginary part")
    err = err / scale + 1e-13
    d0 = base - tot.real / scale
    d = d0 - 2 * totc.real / scale
    rig = not crosscheck_needed
    return (
        DensityValue(d0, err, rig, "char_form"),
        DensityValue(d, err, rig, "char_form"),
    )


def delta_charform(
    dec: GDecomposition, a: int, q: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> DensityValue:
    """delta_g(a, q) for q not dividing a, via character constants."""
    require_odd_prime(q)
    a %= q
    if a == 0:
        raise ValueError("character form needs q coprime to a; use the zero-class forms")
    return _charform_pair(dec, a, q, prime_cutoff)[1]


def delta_avg_charform(
    a: int, q: int, s: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> DensityValue:
    """The g-free average density delta(a, q^s) for q not dividing a:
    q^(1-s) * (q^2/((q-1)(q^2-1)) - (1/(q-1)^2) sum_chi chi(-a) A_chi)."""
    scale = q ** (s - 1)
    # sum_chi chi(-a) A_chi and its error
    tot = 0j
    err = 0.0
    for chi in character_group(q):
        av = a_chi(chi, prime_cutoff)
        tot += chi(-a) * av.value
        err += av.tail_bound
    if abs(tot.imag) > 1e-12:
        raise AssertionError("A_chi sum has a nonvanishing imaginary part")
    val = (float(Fraction(q * q, (q - 1) * (q * q - 1))) - tot.real / (q - 1) ** 2) / scale
    return DensityValue(val, err / (q - 1) ** 2 / scale + 1e-13, True, "char_form")
