"""Truncated sums over Kummer degrees: the j-series for the zero class, the
v-series for level q, and the full (t, n) double series for arbitrary
modulus d, with its g-free form for the average density.

Series results carry a heuristic tail bound (rigorous=False) of
C*h*d/truncation with C = 8; they are meant to be validated against the
closed and character forms rather than trusted alone.  For composite d that
is not an odd prime power some entanglement coefficients cannot be decided;
the full series then returns an interval [lo, hi] instead of a point value,
never a guess.

The series read their phi and mu tables from ordense.sieve.tables, and
their Kummer degrees and the coefficients c_g from ordense.kummer.  Both
series are numpy arrays over bounded blocks: the (t, n) double series sums
at most BLOCK pairs at a time, rows of t cut by one span rule
(_pair_blocks), the level-q v-series a block of v with at most V_CELLS
(v, class) cells.  Each block computes the eps case split once,
with kummer.eps2s, and reads from it its degrees (kummer_degrees), at level
q also sqrt(q*) in K(v, v) as eps2(qv, v) = 2 eps2(v, v), and in the double
series also the part of c_g that reads no b (kummer.entanglement_jumps).
Their integer arrays are int64 whenever the integers each series forms fit
(below 4q v_max^2 at level q): kummer reads n_r from ordense.decomp and
skips any modulus too large to divide.  Each series adds its terms in the
order of the scalar loop it replaced, every block through one seeded sum,
_running_sum, so its sums are bit-identical to that loop.

Both series sum every residue class at once where they can, and memoise
the sums per argument: _level_q_accumulators every class mod q, and
_general_sums the classes of the double series summed so far for (g, d,
t_max, n_max).  Only the masks and c_g(1 + ta, dt, nt) of a term read the
class a; its degree, eps split and phi do not.  On these keys step (1) of
c_g always holds, since gcd(dt, nt) = t gcd(d, n) divides ta, and
1 + ta = 1 (mod dt) exactly when d | a, so class 0 reads no c_g and every
other class reads it only at the jumps of step (2).  A class of a key that
holds no class yet is summed alone over its own pairs; the next class
asked for runs one pass over class 0's pairs, which hold every class's,
and sums all d classes of d <= SHARED_CLASSES from each block's shared
terms.

The family reads nothing of the character form: no Dirichlet character and
no Euler product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .arith import euler_phi, kronecker, require_odd_prime, valuation
from .closed import DEFAULT_CONFIG, DensityValue, TruncationConfig, delta_joint_one_mod_q
from .decomp import GDecomposition
from .kummer import (
    entanglement_jumps,
    eps2s,
    jump_coefficients,
    kummer_degree,
    kummer_degrees,
)
from .sieve import tables

__all__ = [
    "zero_class_series",
    "delta_level_q_series",
    "delta_general_series",
    "delta_avg_series",
]

_HEURISTIC_C = 8.0
# pairs per block of the (t, n) double series: bounds its arrays, so their
# size stays flat in t_max and n_max
BLOCK = 1 << 12
# the largest d whose classes one pass of the double series sums together.
# It guards memory only: the memo keeps about 250 bytes per class, so a
# key's d classes stay within 1 MB, a quarter of the 4 MB a pass is held to.
# Sharing pays off for verify, the one caller that asks for more than one
# class (it asks for all d), at every d measured: at T = N = 300, all
# classes of d = 256 took 0.35 s shared against 1.7 s one at a time, and of
# d = 1024 1.3 s against 7.4 s
SHARED_CLASSES = 1 << 12


def zero_class_series(dec: GDecomposition, q: int) -> DensityValue:
    """Zero-class density as the j-series over pure q-power Kummer degrees.

    1/(q-1) - sum_j (1/[K(q^j,q^j):Q] - 1/[K(q^(j+1),q^j):Q]); the terms
    decay like q^-2j, so the sum is truncated once a term drops below 1e-18
    and the last term bounds the tail.
    """
    require_odd_prime(q)
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
# arrays stay flat in v_max and q; sqrt(closed._SUM_LIMIT) < V_CELLS
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
    the one float product the loop forms, and _running_sum, seeded with the
    running sums, adds each class's products left to right; a class with
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
        acc1 = _running_sum(acc1, (counts * w1[:, None]).T)
        if qdiv:
            w2 = np.where(eps2 == 2 * eps2s(dec, v, v), w1, 0.0)
            acc2 = _running_sum(acc2, (counts * w2[:, None]).T)
    return acc1.tolist(), acc2.tolist()


def delta_level_q_series(
    dec: GDecomposition, a: int, q: int, cfg: TruncationConfig = DEFAULT_CONFIG
) -> tuple[DensityValue, DensityValue]:
    """(delta0, delta) at level q for q not dividing a, via the v-series.

    delta0 drops every entanglement coefficient; delta subtracts the
    correction supported on v with sqrt(q*) in K(v,v), which vanishes
    identically unless q divides D(g0).
    """
    require_odd_prime(q)
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
# the (t, n) pairs of the double series, in blocks


def _int_dtype(bound: int):
    """int64 when every integer a series computes stays below bound, else Python ints."""
    return np.int64 if bound < 1 << 63 else object


def _pair_blocks(a: int, d: int, cfg: TruncationConfig, dt):
    """The (t, n) pairs both double series sum over, as arrays of dtype dt.

    Keeps the t <= t_max with gcd(1 + ta, d) = 1 and the squarefree
    n <= n_max with gcd(n, d) | a (n = 1 always).  Returns (t, n,
    ell = lcm(d, n), gcd(n, d), blocks): blocks yields (i, j, v, mun, philt),
    the pairs (t[i], n[j]) row by row for slices i and j with the flat
    arrays v = t n, mu(n) and phi(ell[j] * t[i]).  One span rule cuts them
    in loop order (t outer, n inner), at most BLOCK pairs a block: rows of
    max(1, BLOCK // len(n)) t, each row cut into runs of at most BLOCK n.
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
    rows = max(1, BLOCK // len(n))

    def blocks():
        for i0 in range(0, len(t), rows):
            i = slice(i0, i0 + rows)
            for j0 in range(0, len(n), BLOCK):
                j = slice(j0, j0 + BLOCK)
                g2 = np.gcd(ell[j], t[i, None])
                philt = phil[j] * phit[i, None] * g2 // phi[g2.astype(np.intp)]
                yield i, j, (t[i, None] * n[j]).ravel(), np.tile(mun[j], len(t[i])), philt.ravel()

    return t, n, ell, g1, blocks()


def _terms(mun: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """mu / deg as float64, each rounded once, as Python's int / int is."""
    term = np.asarray(mun / deg, dtype=np.float64)
    # numpy rounds deg to a float first, which is exact only up to 2^53
    big = np.flatnonzero(deg > 1 << 53)
    if len(big):
        term[big] = [m / x for m, x in zip(mun[big].tolist(), deg[big].tolist())]
    return term


def _running_sum(start: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    """start + x[..., 0] + x[..., 1] + ..., along the last axis, added left to right.

    start is a scalar or holds one start per row of x; each row is added as
    a scalar loop adds it, so an empty row returns its start and -0.0 terms
    leave a +0.0 start +0.0.
    """
    return np.cumsum(np.concatenate((np.asarray(start)[..., None], x), -1), -1)[..., -1]


def delta_avg_series(a: int, d: int, cfg: TruncationConfig = DEFAULT_CONFIG) -> DensityValue:
    """The g-free average density delta(a, d) by the truncated double series."""
    # no g anywhere: the degree is philt * n * t
    dt = _int_dtype(d * (cfg.n_max * cfg.t_max) ** 2)
    *_, blocks = _pair_blocks(a, d, cfg, dt)
    total = 0.0
    for _, _, v, mun, philt in blocks:
        total = _running_sum(total, _terms(mun, philt * v))
    tail = _HEURISTIC_C * d * (1.0 / cfg.t_max + 1.0 / cfg.n_max)
    return DensityValue(float(total), tail, False, "series")


@lru_cache(maxsize=None)
def _general_sums(dec: GDecomposition, d: int, t_max: int, n_max: int) -> dict:
    """class a -> [total0, total, lo, hi] of the double series, for the classes summed so far.

    Memoised per (dec, d, t_max, n_max); only delta_general_series fills it.
    """
    return {}


def _general_pass(dec: GDecomposition, d: int, classes: list, cfg: TruncationConfig) -> list:
    """[total0, total, lo, hi] of each class in classes, from one blocked pass.

    The pass runs over the pairs of classes[0], which must hold those of
    every class listed: [a] alone, or every class with class 0 first, whose
    pairs hold all others.  Each block computes its degrees, terms, eps
    split and the part of c_g that reads no b (kummer.entanglement_jumps)
    once.  A class b then takes its rows (gcd(1 + tb, d) = 1) and columns
    (gcd(n, d) | b) of the block, masks it forms in its own turn so that
    a block's arrays do not grow with d, and applies b at the jumps
    (kummer.jump_coefficients).  On these keys step (1) of c_g always holds,
    as gcd(dt, nt) = t gcd(d, n) divides tb, and b = 1 (mod dt) exactly
    when d | b, so class 0 reads no c_g and an unnamed jump is UNSUPPORTED
    in every other class.  A term whose c_g is not 1 becomes -0.0, which
    leaves a running sum unchanged, so each class adds the same terms in the
    same order as a pass over its own pairs.
    """
    dt = _int_dtype(2 * d * (cfg.n_max * cfg.t_max) ** 2)
    t, n, ell, g1, blocks = _pair_blocks(classes[0], d, cfg, dt)
    sums = np.zeros((len(classes), 4))
    for i, j, v, mun, philt in blocks:
        tb = t[i]
        width = len(n[j])
        eps2 = eps2s(dec, (tb[:, None] * ell[j]).ravel(), v)
        term = _terms(mun, kummer_degrees(dec, v, philt, eps2))
        if any(classes):  # class 0 alone reads no c_g
            at, q = entanglement_jumps(dec, np.repeat(d * tb, width), v, eps2)
            unnamed, named, q = at[q == 0], at[q != 0], q[q != 0]
            nr, nc = np.divmod(named, width)
            # kept[0] every term, kept[1] those c_g keeps before the named
            # jumps; lohi[0] the negative UNSUPPORTED terms, lohi[1] the
            # positive ones
            kept = np.array((term, term))
            kept[1, unnamed] = -0.0
            grid = kept.reshape(2, len(tb), width)
            und = term[unnamed]
            lohi = np.array((np.where(und < 0, und, -0.0), np.where(und > 0, und, -0.0)))
            ur, uc = np.divmod(unnamed, width)
        for k, b in enumerate(classes):
            acc = sums[k]
            if b == 0:
                acc[:2] = _running_sum(acc[0], term)
                continue
            rows = np.gcd(tb * b + 1, d) == 1
            cols = b % g1[j] == 0
            fail = None
            if len(named):
                inb = rows[nr] & cols[nc]
                fail = named[inb][jump_coefficients(1 + tb[nr[inb]] * b, q[inb]) == 0]
                kept[1, fail] = -0.0
            x = grid.take(np.flatnonzero(rows), axis=1).take(np.flatnonzero(cols), axis=2)
            if fail is not None:
                kept[1, fail] = term[fail]
            # (total0, total) over the class's pairs, (lo, hi) over its unnamed jumps
            acc[:2] = _running_sum(acc[:2], x.reshape(2, -1))
            acc[2:] = _running_sum(acc[2:], lohi[:, rows[ur] & cols[uc]])
    return sums.tolist()


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

    The sums come from _general_sums.  A class of a key it holds no class
    of is summed alone, over its own pairs; any other class missing there
    is summed with every class of d in one _general_pass over class 0's
    pairs, when d <= SHARED_CLASSES.  The pairs are summed in blocks of at
    most BLOCK pairs, in loop order, so every sum equals the scalar (t, n)
    loop's.  The integers are int64 when the degree numerators, at most
    2*d*(n_max*t_max)^2, stay below 2^63, else Python ints.  Each block
    computes eps2s at (lcm(d, n)t, nt) once; the degrees and
    kummer.entanglement_jumps both read it, since lcm(dt, nt) = lcm(d, n)t.
    """
    if d < 2:
        raise ValueError("modulus must be at least 2")
    a %= d
    sums = _general_sums(dec, d, cfg.t_max, cfg.n_max)
    if a not in sums:
        classes = list(range(d)) if sums and d <= SHARED_CLASSES else [a]
        sums.update(zip(classes, _general_pass(dec, d, classes, cfg)))
    total0, total, lo, hi = sums[a]
    tail = _HEURISTIC_C * dec.h * d * (1.0 / cfg.t_max + 1.0 / cfg.n_max)
    d0 = DensityValue(total0, tail, False, "series")
    if lo == 0.0 and hi == 0.0:
        return d0, DensityValue(total, tail, False, "series")
    mid = total + (lo + hi) / 2
    return d0, DensityValue(mid, tail, False, "series", lo=total + lo, hi=total + hi)
