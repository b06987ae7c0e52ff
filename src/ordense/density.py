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
                 and C_chi(h, q, s) over the character group mod q; one
                 assembly from C_chi serves every exponent h (its
                 negative-g correction X_chi is 0 at odd h).

Series results carry a heuristic tail bound (rigorous=False) of
C*h*d/truncation with C = 8; they are meant to be validated against the
closed and character forms rather than trusted alone.  Character forms carry
the rigorous Euler tail bounds of their constants.

evaluate_density rescales an odd prime power d = q^s (arith.odd_prime_power)
from level q through delta_prime_power, the one place that picks a level-q
route for a method; only method 'series' at s > 1 takes the double series
instead.  For composite d that is not an odd prime power some entanglement
coefficients cannot be decided; the full series then returns an interval
[lo, hi] instead of a point value, never a guess.

The series read their phi and mu tables from ordense.sieve.tables, and
their Kummer degrees and the coefficients c_g from ordense.kummer.  Both
series are numpy arrays over bounded blocks: the (t, n) double series sums
BLOCK pairs at a time, the level-q v-series a block of v with at most
V_CELLS (v, class) cells.  Each block computes the eps case split once,
with kummer.eps2s, and reads from it its degrees (kummer_degrees), at level
q also sqrt(q*) in K(v, v) as eps2(qv, v) = 2 eps2(v, v), and in the double
series also c_g (kummer.entanglement_coefficients).
Their integer arrays are int64 whenever the integers each series forms fit
(below 4q v_max^2 at level q): kummer reads n_r from ordense.decomp and
skips any modulus too large to divide.  Each series adds its terms in the
order of the scalar loop it replaced, so its sums are bit-identical to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import euler_phi, is_prime, kronecker, odd_prime_power, valuation
from .characters import (
    DEFAULT_PRIME_CUTOFF,
    a_chi,
    c_chi,
    character_group,
    check_prime_cutoff,
)
from .decomp import GDecomposition, decompose, n_r
from .kummer import entanglement_coefficients, eps2s, kummer_degree, kummer_degrees
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
# largest sum truncations accepted: tables are sized by them
# (a process that builds tables(3 * 10**6) peaks near 110 MB)
_SUM_LIMIT = 10**7
# pairs per block of the (t, n) double series: bounds its arrays, so their
# size stays flat in t_max and n_max
BLOCK = 1 << 12
_METHODS = ("series", "char_form", "closed_form", "scaled")


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation points for the infinite sums and Euler products."""

    t_max: int = 10_000
    n_max: int = 10_000
    v_max: int = 100_000
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF

    def __post_init__(self):
        if min(self.t_max, self.n_max, self.v_max, self.prime_cutoff) < 1:
            raise ValueError("all truncation parameters must be >= 1")
        check_prime_cutoff(self.prime_cutoff)
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

# (v, class) cells per block of the level-q v-series: a block holds at most
# B = V_CELLS // max(q, 16) values of v, which also bounds its lists of
# divisor pairs (s, c), about B ln(max v) + sqrt(max v) of them, so the
# arrays stay flat in v_max and q; sqrt(max v) <= sqrt(_SUM_LIMIT) < V_CELLS
# keeps the pairs within the cells a block already fills.  Blocks four times
# larger ran no faster at v_max = 2.5e4 and raised a process's peak RSS by
# about 1.5 MB.
V_CELLS = 1 << 14


def _class_counts(v: np.ndarray, q: int, mu: np.ndarray) -> np.ndarray:
    """M[i, r] = sum over d | v[i] of mu(d) [v[i]/d = r (mod q)], exact, as float64.

    v is increasing.  Lists the divisor pairs (s, c), s <= c, whose product
    lies in [v[0], v[-1]]: s runs over 1..isqrt(v[-1]), each with its run of
    cofactors c.  A pair whose product is some v[i] adds mu(s) at class
    c mod q and, when c != s, mu(c) at class s mod q; any other pair lands
    in a spare row past the last, and one bincount sums them all.
    """
    if not len(v):
        return np.zeros((0, q))
    lo, hi = int(v[0]), int(v[-1])
    s = np.arange(1, math.isqrt(hi) + 1)
    c0 = np.maximum(s, -(-lo // s))
    runs = np.maximum(hi // s - c0 + 1, 0)
    s = np.repeat(s, runs)
    c = np.arange(len(s)) + np.repeat(c0 - np.cumsum(runs) + runs, runs)
    pos = np.full(hi - lo + 1, len(v))
    pos[v - lo] = np.arange(len(v))
    row = pos[s * c - lo] * q
    idx = np.concatenate((row + c % q, row + s % q))
    w = np.concatenate((mu[s], np.where(c > s, mu[c], 0)))
    counts = np.bincount(idx, weights=w, minlength=(len(v) + 1) * q)
    return counts[: len(v) * q].reshape(len(v), q)


@lru_cache(maxsize=None)
def _level_q_accumulators(dec: GDecomposition, q: int, v_max: int):
    """Per-residue-class accumulators of the two level-q v-series.

    For every class r mod q these accumulate, over v <= v_max coprime to q,
    the Moebius-weighted divisor counts M_r(v) = sum_{t|v, t=r (q)} mu(v/t)
    against the weight 1/[K(qv,v):Q] (acc1), and against the same weight
    restricted to v with sqrt(q*) in K(v,v) (acc2): the v where
    eps2(qv, v) = 2 eps2(v, v), which needs q | D(g0).  acc2 is summed only
    when q | D(g0); otherwise it stays +0.0 in every class.

    The v run in blocks of at most V_CELLS // max(q, 16) values, so a
    block's (v, class) matrix has at most V_CELLS cells (q cells when q
    exceeds V_CELLS).  The sums are exactly the scalar loop over v in
    increasing order: M is an exact integer matrix, each M_r(v) * w(v) is
    the one float product the loop forms, and a column cumsum seeded with
    the running sums adds the products left to right; a class with
    M_r(v) = 0 or a v outside the sqrt(q*) support adds a signed 0.0, which
    leaves a running sum unchanged.  The integers are int64 when the degree
    numerators 2(q-1)phi(v)v, below 4q v_max^2, fit, else Python ints.
    Memoised per (dec, q, v_max); callers only read the lists.
    """
    phi, mu = tables(v_max)
    dt = _int_dtype(4 * q * v_max**2)
    qdiv = dec.disc_g0 % q == 0
    acc1 = np.zeros(q)
    acc2 = np.zeros(q)
    block = max(1, V_CELLS // max(q, 16))
    for v0 in range(1, v_max + 1, block):
        vs = np.arange(v0, min(v0 + block, v_max + 1))
        vs = vs[vs % q != 0]
        v = vs.astype(dt)
        phi_v = phi[vs].astype(dt)
        eps2 = eps2s(dec, q * v, v)
        w1 = np.asarray(1.0 / kummer_degrees(dec, v, (q - 1) * phi_v, eps2), dtype=np.float64)
        counts = _class_counts(vs, q, mu)
        acc1 = np.cumsum(np.vstack((acc1, counts * w1[:, None])), axis=0)[-1]
        if qdiv:
            w2 = np.where(eps2 == 2 * eps2s(dec, v, v), w1, 0.0)
            acc2 = np.cumsum(np.vstack((acc2, counts * w2[:, None])), axis=0)[-1]
    return acc1.tolist(), acc2.tolist()


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
    tail = _HEURISTIC_C * dec.h * q / cfg.v_max
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
    _require_odd_prime(q)
    a %= q
    if a == 0:
        raise ValueError("character form needs q coprime to a; use the zero-class forms")
    return _charform_pair(dec, a, q, prime_cutoff)[1]


# ---------------------------------------------------------------------------
# the (t, n) pairs of the double series, in blocks


def _int_dtype(bound: int):
    """int64 when every integer a series computes stays below bound, else Python ints."""
    return np.int64 if bound < 1 << 63 else object


def _pair_blocks(a: int, d: int, cfg: TruncationConfig, dt):
    """The (t, n) pairs both double series sum over, as arrays of dtype dt.

    Keeps the t <= t_max with gcd(1 + ta, d) = 1 and the squarefree
    n <= n_max with gcd(n, d) | a.  Returns (t, n, mu(n), ell = lcm(d, n),
    blocks): blocks yields (i, j, philt) for runs of at most BLOCK
    consecutive pairs in loop order (t outer, n inner), each pair
    (t[i], n[j]) with philt = phi(ell[j] * t[i]).
    """
    limit = max(cfg.t_max, cfg.n_max)
    phi, mu = tables(limit)
    phi = phi[: limit + 1].astype(dt)
    mun = mu[1 : cfg.n_max + 1]
    n = np.arange(1, cfg.n_max + 1).astype(dt)
    g1 = np.gcd(n, d)
    keep = (mun != 0) & (a % g1 == 0)
    n, g1, mun = n[keep], g1[keep], mun[keep]
    ell = d * n // g1
    phil = euler_phi(d) * phi[n.astype(np.intp)] // phi[g1.astype(np.intp)]
    t = np.arange(1, cfg.t_max + 1).astype(dt)
    t = t[np.gcd(1 + t * a, d) == 1]
    phit = phi[t.astype(np.intp)]

    def blocks():
        pairs = len(t) * len(n)
        for p0 in range(0, pairs, BLOCK):
            i, j = np.divmod(np.arange(p0, min(p0 + BLOCK, pairs)), len(n))
            g2 = np.gcd(ell[j], t[i])
            yield i, j, phil[j] * phit[i] * g2 // phi[g2.astype(np.intp)]

    return t, n, mun, ell, blocks()


def _terms(mun: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """mu / deg as float64, each rounded once, as Python's int / int is."""
    term = np.asarray(mun / deg, dtype=np.float64)
    # numpy rounds deg to a float first, which is exact only up to 2^53
    big = np.flatnonzero(deg > 1 << 53)
    if len(big):
        term[big] = [m / x for m, x in zip(mun[big].tolist(), deg[big].tolist())]
    return term


def _running_sum(start: float, x: np.ndarray) -> float:
    """start + x[0] + x[1] + ..., added left to right as a scalar loop adds."""
    if not len(x):
        return start
    return float(np.cumsum(np.concatenate(([start], x)))[-1])


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
    qs = odd_prime_power(d)
    if method != "series" and qs is not None:
        q, s = qs
        scale = q ** (s - 1)
        if a % q == 0:
            val = Fraction(q, q * q - 1) / scale
            return DensityValue(float(val), 0.0, True, "closed_form", exact=val)
        # sum_chi chi(-a) A_chi and its error
        tot = 0j
        err = 0.0
        for chi in character_group(q):
            av = a_chi(chi, cfg.prime_cutoff)
            tot += chi(-a) * av.value
            err += av.tail_bound
        if abs(tot.imag) > 1e-12:
            raise AssertionError("A_chi sum has a nonvanishing imaginary part")
        val = (float(Fraction(q * q, (q - 1) * (q * q - 1))) - tot.real / (q - 1) ** 2) / scale
        return DensityValue(val, err / (q - 1) ** 2 / scale + 1e-13, True, "char_form")
    # truncated double series, no g anywhere: the degree is philt * n * t
    dt = _int_dtype(d * (cfg.n_max * cfg.t_max) ** 2)
    t, n, mun, _, blocks = _pair_blocks(a, d, cfg, dt)
    total = 0.0
    for i, j, philt in blocks:
        total = _running_sum(total, _terms(mun[j], philt * n[j] * t[i]))
    tail = _HEURISTIC_C * d * (1.0 / cfg.t_max + 1.0 / cfg.n_max)
    return DensityValue(total, tail, False, "series")


# ---------------------------------------------------------------------------
# odd prime powers by rescaling, and the general double series


def delta_prime_power(
    dec: GDecomposition,
    a: int,
    q: int,
    s: int,
    method: str = "auto",
    cfg: TruncationConfig = DEFAULT_CONFIG,
) -> DensityValue:
    """delta_g(a, q^s) = q^(1-s) * delta_g(a, q), rescaled from level q.

    Level q is the j- or v-series under method 'series'.  Under 'auto',
    'char' and 'closed' it is the exact closed form on the zero class and
    the character form on the other classes, which 'closed' refuses.  An
    exact result's value is its rescaled rational rounded once, so it stays
    float(exact).
    """
    _require_odd_prime(q)
    if s < 1:
        raise ValueError("s must be >= 1")
    if method not in ("auto", "closed", "char", "series"):
        raise ValueError(f"unknown method {method!r}")
    a %= q
    if method == "series":
        base = delta_level_q_series(dec, a, q, cfg)[1] if a else zero_class_series(dec, q)
    elif a == 0:
        base = delta_g_zero_class(dec, q)
    elif method == "closed":
        raise ValueError("closed form exists only for the zero class mod q")
    else:
        base = delta_charform(dec, a, q, cfg.prime_cutoff)
    if s == 1:
        return base
    scale = q ** (s - 1)
    exact = base.exact / scale if base.exact is not None else None
    return DensityValue(
        base.value / scale if exact is None else float(exact),
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
    gcd(n, d) | a of mu(n) c_g(1+ta, d t, n t) / [K(lcm(d,n)t, nt) : Q].
    delta0 forces every c_g to 1.  Terms whose coefficient is UNSUPPORTED
    contribute an interval; delta then carries lo/hi brackets around the
    truncated sum.

    The pairs are summed in blocks of at most BLOCK pairs, in loop order, so
    every sum equals the scalar (t, n) loop's.  The integers are int64 when
    the degree numerators, at most 2*d*(n_max*t_max)^2, stay below 2^63,
    else Python ints.  Each block computes eps2s at (lcm(d, n)t, nt) once;
    the degrees and kummer.entanglement_coefficients both read it, since
    lcm(dt, nt) = lcm(d, n)t.
    """
    if d < 2:
        raise ValueError("modulus must be at least 2")
    a %= d
    dt = _int_dtype(2 * d * (cfg.n_max * cfg.t_max) ** 2)
    t, n, mun, ell, blocks = _pair_blocks(a, d, cfg, dt)
    total0 = 0.0
    total = 0.0
    lo = 0.0
    hi = 0.0
    for i, j, philt in blocks:
        v = n[j] * t[i]
        eps2 = eps2s(dec, ell[j] * t[i], v)
        term = _terms(mun[j], kummer_degrees(dec, v, philt, eps2))
        c = entanglement_coefficients(dec, 1 + t[i] * a, d * t[i], v, eps2)
        undecided = c < 0
        total0 = _running_sum(total0, term)
        total = _running_sum(total, term[c == 1])
        lo = _running_sum(lo, term[undecided & (term < 0)])
        hi = _running_sum(hi, term[undecided & (term > 0)])
    tail = _HEURISTIC_C * dec.h * d * (1.0 / cfg.t_max + 1.0 / cfg.n_max)
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
    reported in the returned value's .method field.  Method 'series' at an
    odd prime power q^s with s >= 2 takes the (t, n) double series, not
    delta_prime_power's rescaled level-q series.
    """
    if method not in ("auto", "closed", "char", "series"):
        raise ValueError(f"unknown method {method!r}")
    dec = decompose(g)
    if d < 2:
        raise ValueError("modulus must be at least 2")
    a %= d
    qs = odd_prime_power(d)
    if qs is not None and (method != "series" or qs[1] == 1):
        return delta_prime_power(dec, a, *qs, method, cfg)
    if method in ("closed", "char"):
        raise ValueError(f"only the series form handles modulus {d}")
    return delta_general_series(dec, a, d, cfg)[1]
