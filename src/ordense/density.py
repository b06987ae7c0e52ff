"""Density evaluators for primes classified by the residue of ord_p(g) mod d.

Three families of evaluators, kept deliberately independent so they can
cross-check each other:

  closed forms   exact rationals for the zero class, delta_g(0,q) =
                 q^(1-nu_q(h)) / (q^2-1), and for the stratum p = 1 (mod q),
                 which no longer depends on the class a;
  series         truncated sums over Kummer degrees: the j-series for the
                 zero class, the v-series for level q, and the full (t,n)
                 double series for arbitrary modulus d;
  char forms     linear combinations of the Euler-product constants A_chi
                 and C_chi(h, q, s) over the character group mod q.

Series results carry a heuristic tail bound (rigorous=False) of
C*h*d/truncation with C = 8; they are meant to be validated against the
closed and character forms rather than trusted alone.  Character forms carry
the rigorous Euler tail bounds of their constants.

For composite d that is not an odd prime power some entanglement
coefficients cannot be decided; the full series then returns an interval
[lo, hi] instead of a point value, never a guess.

The series read their spf/phi/mu tables from ordense.sieve.tables and their
Kummer degrees from ordense.kummer, where the correction eps is defined once
and coded as the integer 2*eps.  The (t, n) double series keeps the one
inline copy of that code (see the comment in delta_general_series).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import discriminant_sqrt, euler_phi, factorize, is_prime, kronecker, nu2, valuation
from .characters import CharacterGroup, a_chi, c_chi, character_group
from .decomp import GDecomposition, decompose, n_r
from .kummer import UNSUPPORTED, entanglement_coefficient, kummer_degree
from .sieve import tables

__all__ = [
    "TruncationConfig",
    "DensityValue",
    "delta_avg",
    "delta_g_zero_class",
    "zero_class_series",
    "delta_joint_one_mod_q",
    "delta_level_q_series",
    "delta_charform",
    "delta_prime_power",
    "delta_general_series",
    "evaluate_density",
]

_HEURISTIC_C = 8.0
# largest truncations accepted: sieve arrays and tables are sized by them
# (tables(10**7) alone peaks near 850 MB); 1e8 is also the census's bound
_PRIME_CUTOFF_LIMIT = 10**8
_SUM_LIMIT = 10**7
_METHODS = ("series", "char_form", "closed_form", "scaled")


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation points for the infinite sums and Euler products."""

    t_max: int = 10_000
    n_max: int = 10_000
    v_max: int = 100_000
    prime_cutoff: int = 10_000_000

    def __post_init__(self):
        if min(self.t_max, self.n_max, self.v_max, self.prime_cutoff) < 1:
            raise ValueError("all truncation parameters must be >= 1")
        if self.prime_cutoff > _PRIME_CUTOFF_LIMIT:
            raise ValueError("prime_cutoff must be <= 1e8")
        if max(self.t_max, self.n_max, self.v_max) > _SUM_LIMIT:
            raise ValueError("t_max, n_max and v_max must be <= 1e7")


DEFAULT_CONFIG = TruncationConfig()


@dataclass(frozen=True)
class DensityValue:
    """A density with an error bound, provenance, and optional exact value.

    rigorous=True means error_bound provably covers the numerical error
    (truncation tails of Euler products, float roundoff slack); heuristic
    series bounds set rigorous=False.  Closed forms carry the exact rational
    in .exact with error_bound 0.  When an evaluator cannot decide every
    term, .lo/.hi bracket the truncated sum and .value is their midpoint.
    """

    value: float
    error_bound: float
    rigorous: bool
    method: str
    exact: Fraction | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.error_bound < 0:
            raise ValueError("negative error bound")
        slack = self.error_bound + 1e-9
        if not -slack <= self.value <= 1 + slack:
            raise ValueError(f"density {self.value} outside [0, 1] by more than the bound")
        if self.exact is not None and float(self.exact) != self.value:
            raise ValueError("exact rational does not match value")


# ---------------------------------------------------------------------------
# helpers


def _distinct_primes(v: int, spf: list[int]) -> list[int]:
    out = []
    while v > 1:
        p = spf[v]
        out.append(p)
        while v % p == 0:
            v //= p
    return out


def _require_odd_prime(q: int):
    if q == 2:
        raise ValueError("the modulus prime must be odd")
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")


# ---------------------------------------------------------------------------
# exact closed forms at level q


def delta_g_zero_class(dec: GDecomposition, q: int) -> DensityValue:
    """delta_g(0, q) = q^(1 - nu_q(h)) / (q^2 - 1), exact."""
    _require_odd_prime(q)
    val = Fraction(q, q * q - 1) / q ** valuation(q, dec.h)
    return DensityValue(float(val), 0.0, True, "closed_form", exact=val)


def delta_joint_one_mod_q(dec: GDecomposition, q: int, a: int) -> DensityValue:
    """delta_g(1, q; a, q) for q not dividing a: independent of a, exact.

    Equals (1 - q^(1-nu_q(h))/(q+1)) / (q-1)^2.  For q | a the stratum is
    the whole zero class; use delta_g_zero_class instead.
    """
    _require_odd_prime(q)
    if a % q == 0:
        raise ValueError("q divides a: the stratum equals the zero class")
    nu = valuation(q, dec.h)
    val = (1 - Fraction(q, (q + 1) * q**nu)) / (q - 1) ** 2
    return DensityValue(float(val), 0.0, True, "closed_form", exact=val)


def zero_class_series(dec: GDecomposition, q: int) -> DensityValue:
    """Zero-class density as the j-series over pure q-power Kummer degrees.

    1/(q-1) - sum_j (1/[K(q^j,q^j):Q] - 1/[K(q^(j+1),q^j):Q]); the terms
    decay like q^-2j, so the sum is truncated once a term drops below 1e-18
    and the last term bounds the tail.
    """
    _require_odd_prime(q)
    total = Fraction(1, q - 1)
    floor = Fraction(1, 10**18)
    nu = valuation(q, dec.h)
    j = 1
    while True:
        term = Fraction(1, kummer_degree(dec, q**j, q**j)) - Fraction(
            1, kummer_degree(dec, q ** (j + 1), q**j)
        )
        total -= term
        if term < floor and j > nu:
            break
        j += 1
    return DensityValue(float(total), float(term), True, "series")


# ---------------------------------------------------------------------------
# the level-q v-series evaluators

_level_q_cache: dict[tuple, tuple[list[float], list[float]]] = {}


def _level_q_accumulators(dec: GDecomposition, q: int, v_max: int):
    """Per-residue-class accumulators of the two level-q v-series.

    For every class r mod q these accumulate, over v <= v_max coprime to q,
    the Moebius-weighted divisor counts M_r(v) = sum_{t|v, t=r (q)} mu(v/t)
    against the weight 1/[K(qv,v):Q] (acc1), and against the same weight
    restricted to v with sqrt(q*) in K(v,v) (acc2).
    """
    key = (dec.g, q, v_max)
    hit = _level_q_cache.get(key)
    if hit is not None:
        return hit
    spf, phi, _ = tables(v_max)
    neg = dec.sign < 0
    hc2 = dec.hc2
    qdivD = dec.disc_g0 % q == 0
    n1q = n_r(dec, 1) // q if qdivD else 0
    acc1 = [0.0] * q
    acc2 = [0.0] * q
    for v in range(1, v_max + 1):
        if v % q == 0:
            continue
        w1 = 1.0 / kummer_degree(dec, q * v, v, (q - 1) * phi[v])
        has_sqrt = (
            qdivD
            and v % n1q == 0
            and not (neg and v % 2 == 0 and v % hc2 != 0)
        )
        counts = [0] * q
        divs = [(1, 1)]
        for p in _distinct_primes(v, spf):
            divs += [(d0 * p, -s0) for d0, s0 in divs]
        for d0, s0 in divs:
            counts[(v // d0) % q] += s0
        for r in range(q):
            cnt = counts[r]
            if cnt:
                acc1[r] += cnt * w1
                if has_sqrt:
                    acc2[r] += cnt * w1
    out = (acc1, acc2)
    _level_q_cache[key] = out
    return out


def _series_tail(dec: GDecomposition, d: int, cfg: TruncationConfig, kind: str) -> float:
    if kind == "v":
        return _HEURISTIC_C * dec.h * d / cfg.v_max
    return _HEURISTIC_C * dec.h * d * (1.0 / cfg.t_max + 1.0 / cfg.n_max)


def delta_level_q_series(
    dec: GDecomposition, a: int, q: int, cfg: TruncationConfig = DEFAULT_CONFIG
) -> tuple[DensityValue, DensityValue]:
    """(delta0, delta) at level q for q not dividing a, via the v-series.

    delta0 drops every entanglement coefficient; delta subtracts the
    correction supported on v with sqrt(q*) in K(v,v), which vanishes
    identically unless q divides D(g0).
    """
    _require_odd_prime(q)
    a %= q
    if a == 0:
        raise ValueError("series form needs q coprime to a; use the zero-class forms")
    acc1, acc2 = _level_q_accumulators(dec, q, cfg.v_max)
    nul = delta_joint_one_mod_q(dec, q, a).exact
    base = 1.0 / (q - 1) + float(nul)
    cls = (-pow(a, -1, q)) % q
    d0 = base - acc1[cls]
    corr = 0.0
    for r in range(q):
        if acc2[r] and kronecker((r * a + 1) % q, q) == -1:
            corr += acc2[r]
    tail = _series_tail(dec, q, cfg, "v")
    return (
        DensityValue(d0, tail, False, "series"),
        DensityValue(d0 - corr, tail, False, "series"),
    )


# ---------------------------------------------------------------------------
# character closed forms at level q


def _bsum(chi, q: int) -> complex:
    """sum of conj(chi(b)) over 1 <= b <= q-1 with (1-b | q) = -1."""
    tot = 0j
    for b in range(2, q):
        if kronecker(1 - b, q) == -1:
            tot += chi(b).conjugate()
    return tot


def _avg_charform_terms(grp: CharacterGroup, a: int, prime_cutoff: int):
    """(value, error) of sum_chi chi(-a) A_chi."""
    tot = 0j
    err = 0.0
    for chi in grp:
        av = a_chi(chi, prime_cutoff)
        tot += chi(-a) * av.value
        err += av.tail_bound
    return tot, err


def _charform_pair_generic(dec: GDecomposition, a: int, q: int, prime_cutoff: int):
    """Explicit character form for exponent-free g (h = 1): (delta0, delta).

    delta_g(a,q) = q^2/((q-1)(q^2-1)) - (1/(q-1)^2) * sum_chi chi(-a) A_chi
    * (1 + eps_g(chi) * W * prod_{p | 2D'} p(chi(p)-1)/(p^3-p^2-p+chi(p)))
    with D' = D(g) (weight W = 1) when q does not divide D(g), else
    D' = D(g)/q and W = 1 + 2*sum_b conj(chi(b)) over (1-b|q) = -1.
    The delta0 variant always uses W = 1.
    """
    disc = discriminant_sqrt(dec.g)
    absd = abs(disc)
    v2d = nu2(absd) if absd % 2 == 0 else 0
    if v2d not in (0, 2, 3):
        raise AssertionError(f"impossible discriminant 2-part {v2d}")
    qdiv = absd % q == 0
    plist = [p for p, _ in factorize(2 * absd) if p != q]
    grp = character_group(q)
    tot0 = 0j
    tot = 0j
    err = 0.0
    for chi in grp:
        av = a_chi(chi, prime_cutoff)
        prod = 1 + 0j
        for p in plist:
            c = chi(p)
            prod *= p * (c - 1) / (p**3 - p**2 - p + c)
        if v2d == 0:
            eps = 1 + 0j
        elif v2d == 2:
            eps = chi(2) / 4
        else:
            eps = chi(2) ** 2 / 16
        inner0 = 1 + eps * prod
        if qdiv:
            inner = 1 + eps * (1 + 2 * _bsum(chi, q)) * prod
        else:
            inner = inner0
        w = chi(-a)
        tot0 += w * av.value * inner0
        tot += w * av.value * inner
        err += av.tail_bound * max(abs(inner0), abs(inner))
    const = Fraction(q * q, (q - 1) * (q * q - 1))
    scale = (q - 1) ** 2
    err = err / scale + 1e-13
    vals = []
    for t in (tot0, tot):
        if abs(t.imag) > 1e-12 * scale:
            raise AssertionError(f"character sum has imaginary part {t.imag}")
        vals.append(float(const) - t.real / scale)
    return (
        DensityValue(vals[0], err, True, "char_form"),
        DensityValue(vals[1], err, True, "char_form"),
    )


def _charform_pair_convolution(dec: GDecomposition, a: int, q: int, prime_cutoff: int):
    """Character form for general exponent h, assembled from C_chi constants.

    delta0(a,q) = 1/(q-1) + (1 - q^(1-nu)/( q+1))/(q-1)^2
                  - (1/(q-1)^2) sum_chi chi(-a) (C_chi(h,q,1) + C_chi(h,q,s2) + X_chi)
    where s2 = n_q / gcd(n_q, q), and X_chi = -C_chi(h,q,2)/2 +
    C_chi(h,q,2^(nu2(h)+1))/2 is the negative-g correction (identically 0
    for odd h).  When q | D(g0) the full density subtracts
    (2/(q-1)^2) sum_chi chi(-a) C_chi(h,q,s2) * sum_b conj(chi(b)).

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


def _charform_pair(dec: GDecomposition, a: int, q: int, prime_cutoff: int):
    if dec.h == 1:
        return _charform_pair_generic(dec, a, q, prime_cutoff)
    return _charform_pair_convolution(dec, a, q, prime_cutoff)


def delta_charform(
    dec: GDecomposition, a: int, q: int, prime_cutoff: int = 10**7
) -> DensityValue:
    """delta_g(a, q) for q not dividing a, via character constants."""
    _require_odd_prime(q)
    a %= q
    if a == 0:
        raise ValueError("character form needs q coprime to a; use the zero-class forms")
    return _charform_pair(dec, a, q, prime_cutoff)[1]


# ---------------------------------------------------------------------------
# the g-averaged density


def delta_avg(
    a: int,
    d: int,
    cfg: TruncationConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> DensityValue:
    """The g-free average density delta(a, d).

    For d an odd prime power q^s: exact q^(1-s) * q/(q^2-1) on the zero
    class, else the character closed form
    q^(1-s) * (q^2/((q-1)(q^2-1)) - (1/(q-1)^2) sum_chi chi(-a) A_chi).
    Other d fall back to the truncated double series.
    """
    if d < 2:
        raise ValueError("modulus must be at least 2")
    if method not in ("auto", "series"):
        raise ValueError("delta_avg supports methods 'auto' and 'series'")
    a %= d
    fac = factorize(d)
    if method != "series" and len(fac) == 1 and fac.pairs[0][0] != 2:
        q, s = fac.pairs[0]
        scale = q ** (s - 1)
        if a % q == 0:
            val = Fraction(q, q * q - 1) / scale
            return DensityValue(float(val), 0.0, True, "closed_form", exact=val)
        grp = character_group(q)
        tot, err = _avg_charform_terms(grp, a % q, cfg.prime_cutoff)
        if abs(tot.imag) > 1e-12:
            raise AssertionError("A_chi sum has a nonvanishing imaginary part")
        val = (float(Fraction(q * q, (q - 1) * (q * q - 1))) - tot.real / (q - 1) ** 2) / scale
        return DensityValue(val, err / (q - 1) ** 2 / scale + 1e-13, True, "char_form")
    # truncated double series, no g anywhere
    limit = max(cfg.t_max, cfg.n_max)
    _, phi, mu = tables(limit)
    phid = euler_phi(d)
    ns = []
    for n in range(1, cfg.n_max + 1):
        mun = mu[n]
        if mun == 0:
            continue
        g1 = math.gcd(n, d)
        if a % g1:
            continue
        phil = phid * phi[n] // euler_phi(g1)
        ns.append((n, mun, d * n // g1, phil))
    total = 0.0
    for t in range(1, cfg.t_max + 1):
        if math.gcd(1 + t * a, d) != 1:
            continue
        phit = phi[t]
        for n, mun, ell, phil in ns:
            g2 = math.gcd(ell, t)
            philt = phil * phit * g2 // phi[g2]
            total += mun / (philt * n * t)
    tail = _HEURISTIC_C * d * (1.0 / cfg.t_max + 1.0 / cfg.n_max)
    return DensityValue(total, tail, False, "series")


# ---------------------------------------------------------------------------
# odd prime powers by rescaling, and the general double series


def _level_q(dec, a, q, method, cfg):
    a %= q
    if a == 0:
        if method == "series":
            return zero_class_series(dec, q)
        return delta_g_zero_class(dec, q)
    if method == "series":
        return delta_level_q_series(dec, a, q, cfg)[1]
    if method in ("auto", "char"):
        return delta_charform(dec, a, q, cfg.prime_cutoff)
    raise ValueError(f"no closed form for the class {a} mod {q}; use char or series")


def delta_prime_power(
    dec: GDecomposition,
    a: int,
    q: int,
    s: int,
    method: str = "auto",
    cfg: TruncationConfig = DEFAULT_CONFIG,
) -> DensityValue:
    """delta_g(a, q^s) = q^(1-s) * delta_g(a, q), rescaled from level q."""
    _require_odd_prime(q)
    if s < 1:
        raise ValueError("s must be >= 1")
    base = _level_q(dec, a, q, method, cfg)
    if s == 1:
        return base
    scale = q ** (s - 1)
    exact = base.exact / scale if base.exact is not None else None
    return DensityValue(
        base.value / scale,
        base.error_bound / scale,
        base.rigorous,
        "scaled",
        exact=exact,
    )


def delta_general_series(
    dec: GDecomposition,
    a: int,
    d: int,
    cfg: TruncationConfig = DEFAULT_CONFIG,
) -> tuple[DensityValue, DensityValue]:
    """(delta0, delta) for arbitrary modulus d >= 2 by the (t, n) double series.

    delta = sum over t with gcd(1+ta, d) = 1 and squarefree n with
    gcd(n, d) | a of mu(n) c_g(1+ta, d t, n t) / [K(lcm(d,n)t, nt) : Q],
    with c_g evaluated after reducing the congruence modulus d*t to
    d * t_d, t_d the (t,d)-shared prime part of t.  delta0 forces every
    c_g to 1.  Terms whose coefficient is UNSUPPORTED contribute an
    interval; delta then carries lo/hi brackets around the truncated sum.
    """
    if d < 2:
        raise ValueError("modulus must be at least 2")
    a %= d
    limit = max(cfg.t_max, cfg.n_max)
    spf, phi, mu = tables(limit)
    h = dec.h
    neg = dec.sign < 0
    hc2 = dec.hc2
    phid = euler_phi(d)
    dprimes = [p for p, _ in factorize(d)]
    ns = []
    for n in range(1, cfg.n_max + 1):
        mun = mu[n]
        if mun == 0:
            continue
        g1 = math.gcd(n, d)
        if a % g1:
            continue
        ell = d * n // g1
        phil = phid * phi[n] // euler_phi(g1)
        z = ell // n
        nrz = n_r(dec, z)
        ns.append((n, mun, ell, phil, z % 2 == 1, nrz))
    total0 = 0.0
    total = 0.0
    lo = 0.0
    hi = 0.0
    for t in range(1, cfg.t_max + 1):
        b = 1 + t * a
        if math.gcd(b, d) != 1:
            continue
        phit = phi[t]
        td = 1
        tt = t
        for p in dprimes:
            while tt % p == 0:
                td *= p
                tt //= p
        f = d * td
        for n, mun, ell, phil, zodd, nrz in ns:
            v = n * t
            g2 = math.gcd(ell, t)
            philt = phil * phit * g2 // phi[g2]
            # deg = kummer_degree(dec, ell * t, v, philt), with the kernel's
            # 2*eps (kummer._eps2 at r = z) copied inline: a kernel call per
            # pair made this loop 1.3-2x slower at T = N = 300, d = 6.  The
            # copy is pinned to kummer_degree by
            # test_general_series_eps_copy_matches_kernel.
            if (ell * t) % nrz == 0:
                eps2 = 4
            elif neg and zodd and v % 2 == 0 and v % hc2 != 0:
                eps2 = 1
            else:
                eps2 = 2
            deg, rem = divmod(2 * philt * v, eps2 * math.gcd(v, h))
            if rem:
                raise AssertionError(f"non-integral degree at t={t}, n={n}")
            term = mun / deg
            total0 += term
            c = entanglement_coefficient(dec, b, f, v)
            if c is UNSUPPORTED:
                lo += min(0.0, term)
                hi += max(0.0, term)
            elif c:
                total += term
    tail = _series_tail(dec, d, cfg, "tn")
    d0 = DensityValue(total0, tail, False, "series")
    if lo == 0.0 and hi == 0.0:
        return d0, DensityValue(total, tail, False, "series")
    mid = total + (lo + hi) / 2
    return d0, DensityValue(mid, tail, False, "series", lo=total + lo, hi=total + hi)


# ---------------------------------------------------------------------------
# dispatcher


def evaluate_density(
    g: Fraction | int,
    a: int,
    d: int,
    method: str = "auto",
    cfg: TruncationConfig = DEFAULT_CONFIG,
) -> DensityValue:
    """Best available evaluation of delta_g(a, d); see the module docstring.

    method 'auto' prefers closed > char > series; the chosen route is
    reported in the returned value's .method field.
    """
    if method not in ("auto", "closed", "char", "series"):
        raise ValueError(f"unknown method {method!r}")
    dec = decompose(g)
    if d < 2:
        raise ValueError("modulus must be at least 2")
    a %= d
    fac = factorize(d)
    if len(fac) == 1 and fac.pairs[0][0] != 2:
        q, s = fac.pairs[0]
        if method == "series" and s > 1:
            return delta_general_series(dec, a, d, cfg)[1]
        if method == "closed" and a % q != 0:
            raise ValueError("closed form exists only for the zero class mod q")
        return delta_prime_power(dec, a, q, s, method, cfg)
    if method in ("closed", "char"):
        raise ValueError(f"only the series form handles modulus {d}")
    return delta_general_series(dec, a, d, cfg)[1]
