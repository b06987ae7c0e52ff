"""Empirical verification: sieve primes, compute orders, count residue classes.

For every prime p up to x with p dividing neither numerator nor denominator
of g, the multiplicative order ord_p(g) is computed from the distinct prime
factors l of p - 1: each l is stripped from the exponent while
g^(E/l) = 1 (mod p), and the stripped factors make up the index
(p - 1) / ord.

The factor sieve runs in segments of SEGMENT numbers, and x is refused
beyond X_LIMIT.  Each segment's primes come from the package's one sieve,
ordense.sieve.sieve_primes, and the primes dividing p - 1 from its cached
primes_upto.  It leaves, per segment, the primes, the flat list of their
factors and the bounds of each prime's slice of that list.  Factorizations
of p - 1 are independent of g and are cached, so counting runs for several
g over the same x pay the sieve cost once.  The census takes its primes
from the same sieve uncached (sieve_primes), so they are freed on return.

The orders are computed by one numpy kernel over blocks of BLOCK primes of a
segment, so its temporaries stay bounded at any segment size.  It reduces g
mod p once (inverting a denominator by Fermat), then runs masked
square-and-multiply rounds over the (p, l) pairs still being stripped.  Every
residue is below 2^30, so products stay below 2^60 and the int64 arithmetic
is exact.  sieve_orders, count_residues and count_joint all read its arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .arith import factorize, is_prime
from .sieve import primes_upto, sieve_primes

__all__ = [
    "OrderRecord",
    "CountTable",
    "CompareReport",
    "sieve_orders",
    "count_residues",
    "count_joint",
    "compare",
    "census_exceptional",
]

X_LIMIT = 10**9
# numbers per segment of the factor sieve: bounds its arrays at any x
SEGMENT = 1 << 24
# primes per kernel block: bounds the kernel's temporaries at any segment size
BLOCK = 1 << 14
_BITS = 30
_MASK = (1 << _BITS) - 1
# residues mod p <= X_LIMIT fit in 30 bits, so their products stay below 2^60 in int64
assert X_LIMIT < 1 << _BITS


@dataclass(frozen=True)
class OrderRecord:
    """(p, ord_p(g), index r_g(p)) with ord * index = p - 1."""

    p: int
    ord: int
    index: int


@dataclass
class CountTable:
    """Counts of primes <= x per residue class of ord (and of p when joint)."""

    x: int
    d: int
    d1: int | None
    counts: dict
    primes_considered: int
    excluded: int

    def frequency(self, key) -> float:
        return self.counts.get(key, 0) / self.primes_considered


def _segment_factored(lo: int, hi: int, base: np.ndarray):
    """Primes p in [lo, hi) with the distinct prime factors of each p - 1.

    Returns (primes list, factor lists).  The one sieve finds the primes;
    then, over the window [lo-1, hi), every base prime s collects which
    p - 1 it divides, and division chains expose the single factor
    exceeding sqrt(hi) if present.
    """
    pvals = sieve_primes(hi - 1, lo)
    if len(pvals) == 0:
        empty = np.empty(0, dtype=np.int64)
        return pvals, empty, np.zeros(1, dtype=np.int64)
    # factor the p-1 window values
    wlo = lo - 1
    n = hi - wlo
    tpos = pvals - 1 - wlo
    # index of each prime at position p - 1 - wlo, else -1; int32 suffices
    # (a segment holds far fewer than 2^31 numbers) and halves this largest array
    tid = np.full(n, -1, dtype=np.int32)
    tid[tpos] = np.arange(len(tpos))
    rem = (pvals - 1).copy()
    pair_t: list[np.ndarray] = []
    pair_f: list[np.ndarray] = []
    for s in base:
        s = int(s)
        if s >= hi:
            break
        start = ((wlo + s - 1) // s) * s
        idx = tid[start - wlo :: s]
        sel = idx[idx >= 0]
        if len(sel) == 0:
            continue
        pair_t.append(sel)
        pair_f.append(np.full(len(sel), s, dtype=np.int64))
        cur = sel
        while len(cur):
            rem[cur] //= s
            cur = cur[rem[cur] % s == 0]
    big = np.flatnonzero(rem > 1)
    if len(big):
        pair_t.append(big)
        pair_f.append(rem[big])
    tcat = np.concatenate(pair_t) if pair_t else np.empty(0, dtype=np.int64)
    fcat = np.concatenate(pair_f) if pair_f else np.empty(0, dtype=np.int64)
    order = np.argsort(tcat, kind="stable")
    fcat = fcat[order]
    bounds = np.searchsorted(tcat[order], np.arange(len(pvals) + 1))
    return pvals, fcat, bounds


_factored_cache: dict = {"key": None, "chunks": None}


def check_x(x: int) -> None:
    """Refuse an x beyond X_LIMIT before anything is sieved."""
    if x > X_LIMIT:
        raise ValueError(f"x beyond the supported range {X_LIMIT}")


def _factored_chunks(x: int):
    """Cached list of (primes, factor lists) segment chunks covering [2, x]."""
    check_x(x)
    key = (x, SEGMENT)
    if _factored_cache["key"] == key:
        return _factored_cache["chunks"]
    base = primes_upto(math.isqrt(x) + 1)
    chunks = []
    lo = 2
    while lo <= x:
        hi = min(lo + SEGMENT, x + 1)
        chunks.append(_segment_factored(lo, hi, base))
        lo = hi
    _factored_cache["key"] = key
    _factored_cache["chunks"] = chunks
    return chunks


def sieve_orders(g: Fraction | int, x: int) -> Iterator[OrderRecord]:
    """Stream one OrderRecord per prime p <= x with nu_p(g) = 0.

    g may be any rational other than -1, 0, 1, of any size.
    """
    g = _check_g(g)
    for p, o in _orders(g, x):
        for pi, oi, ii in zip(p.tolist(), o.tolist(), ((p - 1) // o).tolist()):
            yield OrderRecord(pi, oi, ii)


def _check_g(g) -> Fraction:
    g = Fraction(g)
    if g in (0, 1, -1):
        raise ValueError("g must avoid -1, 0, 1")
    return g


def _orders(g: Fraction, x):
    """(primes, orders) array pairs, one per kernel block, over p <= x with nu_p(g) = 0."""
    for pvals, fcat, bounds in _factored_chunks(x):
        for i0 in range(0, len(pvals), BLOCK):
            i1 = min(i0 + BLOCK, len(pvals))
            lo, hi = bounds[i0], bounds[i1]
            yield _block_orders(
                g, pvals[i0:i1], fcat[lo:hi], np.diff(bounds[i0 : i1 + 1])
            )


def _block_orders(g: Fraction, p: np.ndarray, ells: np.ndarray, nfac: np.ndarray):
    """ord_p(g) for a block of primes p; ells lists the distinct prime factors
    of each p - 1 in turn, nfac[i] of them for p[i].

    Every (p, ell) pair is stripped independently: while ell divides the
    exponent E (starting at p - 1) and g^(E/ell) = 1 (mod p), E becomes E/ell.
    The index (p - 1) / ord is the product of the stripped ells.
    """
    # a prime dividing g leaves gm = 0, which never strips; it is dropped last
    gm = _residue(g.numerator, p)
    keep = gm != 0
    if g.denominator != 1:
        dm = _residue(g.denominator, p)
        keep &= dm != 0
        gm = gm * _powmod(dm, p - 2, p) % p
    owner = np.repeat(np.arange(len(p)), nfac)
    pm, gp = p[owner], gm[owner]
    exp = pm - 1
    index = np.ones_like(p)
    act = np.arange(len(ells))
    while len(act):
        ell = ells[act]
        e = exp[act] // ell
        hit = _powmod(gp[act], e, pm[act]) == 1
        act = act[hit]
        exp[act] = e[hit]
        np.multiply.at(index, owner[act], ells[act])
        act = act[exp[act] % ells[act] == 0]
    p = p[keep]
    return p, (p - 1) // index[keep]


def _residue(n: int, p: np.ndarray) -> np.ndarray:
    """n mod p for an integer n of any size, by Horner over 30-bit limbs
    (each step stays below 2^60 + 2^30, exact in int64)."""
    a = abs(n)
    r = np.zeros_like(p)
    for shift in reversed(range(0, max(a.bit_length(), 1), _BITS)):
        r = ((r << _BITS) + (a >> shift & _MASK)) % p
    return -r % p if n < 0 else r


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise base^exp mod mod by right-to-left square-and-multiply;
    base < mod < 2^30 keeps every product below 2^60."""
    result = np.ones_like(base)
    while True:
        result = np.where(exp & 1, result * base % mod, result)
        exp = exp >> 1
        if not exp.any():
            return result
        base = base * base % mod


def count_residues(g: Fraction | int, d: int, x: int) -> CountTable:
    """Counts of ord_p(g) mod d over primes p <= x with nu_p(g) = 0."""
    if d < 1:
        raise ValueError("d must be positive")
    g = _check_g(g)
    excluded = _count_excluded(g, x)
    counts = np.zeros(d, dtype=np.int64)
    for _, o in _orders(g, x):
        counts += np.bincount(o % d, minlength=d)
    considered = int(counts.sum())
    return CountTable(x, d, None, dict(enumerate(counts.tolist())), considered, excluded)


def count_joint(g: Fraction | int, d1: int, d2: int, x: int) -> CountTable:
    """Joint counts keyed by (p mod d1, ord_p(g) mod d2); only keys that occur."""
    if d1 < 1 or d2 < 1:
        raise ValueError("moduli must be positive")
    g = _check_g(g)
    excluded = _count_excluded(g, x)
    # p and ord are below 2^30, so a larger modulus leaves their classes
    # unchanged and both classes fit one int64 key
    m1, m2 = min(d1, 1 << _BITS), min(d2, 1 << _BITS)
    counts: dict = {}
    for p, o in _orders(g, x):
        keys, cnts = np.unique((p % m1) << _BITS | o % m2, return_counts=True)
        for k, c in zip(keys.tolist(), cnts.tolist()):
            key = (k >> _BITS, k & _MASK)
            counts[key] = counts.get(key, 0) + c
    considered = sum(counts.values())
    return CountTable(x, d2, d1, counts, considered, excluded)


def _count_excluded(g: Fraction, x: int) -> int:
    bad = set(factorize(abs(g.numerator)).primes) | set(factorize(g.denominator).primes)
    return sum(1 for p in bad if p <= x)


@dataclass
class CompareReport:
    """Per-class empirical frequencies against analytic predictions."""

    g: Fraction
    d: int
    x: int
    primes_considered: int
    tolerance: float
    rows: list = field(default_factory=list)  # (a, count, freq, predicted, deviation, ok)

    @property
    def ok(self) -> bool:
        return all(r[5] for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "g": str(self.g),
            "d": self.d,
            "x": self.x,
            "primes_considered": self.primes_considered,
            "tolerance": self.tolerance,
            "ok": self.ok,
            "classes": [
                {
                    "a": a,
                    "count": c,
                    "frequency": f,
                    "predicted": p,
                    "deviation": dev,
                    "ok": okk,
                }
                for a, c, f, p, dev, okk in self.rows
            ],
        }


def compare(g: Fraction | int, d: int, x: int, analytic) -> CompareReport:
    """Count ord classes mod d up to x and compare with analytic densities.

    analytic maps class -> predicted density (a dict, or a sequence indexed
    by class; entries may be floats or objects with a .value attribute).
    A class fails when |frequency - predicted| exceeds
    max(0.002, 3/sqrt(primes_considered)).  Raises ValueError, before
    counting, when a class mod d has no prediction, and after counting when
    no prime p <= x has nu_p(g) = 0.
    """
    if not isinstance(analytic, dict):
        analytic = dict(enumerate(analytic))
    missing = [a for a in range(d) if analytic.get(a) is None]
    if missing:
        raise ValueError(f"no prediction for the classes {missing} mod {d}")
    table = count_residues(g, d, x)
    if not table.primes_considered:
        raise ValueError(f"no prime p <= {x} has nu_p(g) = 0 for g = {Fraction(g)}")
    tol = max(0.002, 3.0 / math.sqrt(table.primes_considered))
    report = CompareReport(Fraction(g), d, x, table.primes_considered, tol)
    for a in range(d):
        pred = getattr(analytic[a], "value", analytic[a])
        freq = table.frequency(a)
        dev = abs(freq - pred)
        report.rows.append((a, table.counts.get(a, 0), freq, pred, dev, dev <= tol))
    return report


def census_exceptional(q: int, x: int) -> int:
    """Number of 1 <= g <= x whose quadratic discriminant D(g) has no prime
    divisor p = 1 (mod q).

    Equivalent to the squarefree kernel of g having no such prime divisor;
    perfect squares count vacuously.  Marks, for each prime p = 1 (mod q),
    the g with odd nu_p(g) and counts the unmarked rest.
    """
    if q % 2 == 0 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    if x < 1 or x > 10**8:
        raise ValueError("census supports 1 <= x <= 1e8")
    excluded = np.zeros(x + 1, dtype=bool)
    primes = sieve_primes(x)
    for p in primes[primes % q == 1]:
        p = int(p)
        pk = p
        k = 1
        while pk <= x:
            if k % 2 == 1:
                idx = np.arange(pk, x + 1, pk)
                idx = idx[idx % (pk * p) != 0]
                excluded[idx] = True
            pk *= p
            k += 1
    return int(x - np.count_nonzero(excluded[1:]))

