"""Empirical verification: sieve primes, compute orders, count residue classes.

For every prime p up to x with p dividing neither numerator nor denominator
of g, the multiplicative order ord_p(g) is computed from the distinct prime
factors l of p - 1: l is stripped from p - 1 once for each j >= 1 with
g^((p - 1)/l^j) = 1 (mod p), and the stripped factors make up the index
(p - 1) / ord.

The factor sieve runs in segments of SEGMENT numbers, and x is refused
beyond X_LIMIT.  Each segment's primes come from the package's one sieve,
ordense.sieve.sieve_primes, and the primes dividing p - 1 from its cached
primes_upto.  It leaves, per segment, the primes, the flat list of their
factors and the bounds of each prime's slice of that list.  Every p - 1 of
an odd p is even, so the sieve's index array covers only the even numbers
of the window, and each factor found goes straight to its prime's next
fill slot of the flat list, which therefore needs no sort.

The segments are streamed: each one reaches the kernel as soon as it is
sieved, so memory stays flat in x: one segment's temporaries (a few MB) and
the segment before it.  Factorizations of p - 1 are independent of g, so a
run over [2, x] that is one segment (x <= SEGMENT + 1, which covers every
x <= 1e6) leaves it cached, and later counts for any g over the same x (the
requests of one verify panel) pay the sieve cost once.  A run of several
segments keeps none of them, and every count over it sieves afresh.  The
census takes its primes from the same sieve uncached (sieve_primes), so
they are freed on return.

The orders are computed by one numpy kernel over blocks of a segment's
primes that hold at most BLOCK (p, l) pairs in all, so its working set
(about 100 bytes per pair) stays bounded at any segment size and whatever
the primes' number of factors.  It reduces g mod p once (inverting a
denominator by Fermat; a g with numerator +-1 is counted as 1/g, which has
the same orders and no denominator) and tables g^0 .. g^7 mod p per prime.
Then two left-to-right powers with 3-bit windows (WINDOW) read that table:
one at (p - 1)/l for every (p, l) pair, and one at every deeper
(p - 1)/l^j, j >= 2, of the pairs the first one hit; each hit strips one
l.  A block keeps its residues in float64 when its largest prime is below
2^26, and in int64 otherwise; both are exact (see _mulmod).  A float64
product stays below 2^52, within the 53-bit significand, and its
rounded quotient by p has the true floor; an int64 product stays below
2^60, since every residue is below 2^30.  sieve_orders reads exact orders
from it.
count_residues and count_joint need the order only mod d, and a factor
l = 1 (mod d) of p - 1 changes it only by powers of l, each = 1 (mod d):
so their kernel strips only the pairs with l != 1 (mod d), and returns
ord_p(g) times powers of such l.  They count only the classes that occur,
and take the primes dividing g from the kernel, which drops them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .arith import require_odd_prime
from .sieve import primes_upto, sieve_primes

__all__ = [
    "OrderRecord",
    "CountTable",
    "check_x",
    "sieve_orders",
    "count_residues",
    "count_joint",
    "compare",
    "census_exceptional",
]

X_LIMIT = 10**9
# numbers per segment of the factor sieve: its temporaries stay a few MB at
# any x, and every x <= 1e6 is one segment, which stays cached
SEGMENT = 1 << 21
# (p, l) pairs per kernel block: bounds the kernel's working set (about
# 100 bytes per pair) at any segment size
BLOCK = 1 << 14
# exponent bits per window of the fixed-window power: each prime tables
# 2^WINDOW powers of its base
WINDOW = 3
_BITS = 30
_MASK = (1 << _BITS) - 1
# residues mod p <= X_LIMIT fit in 30 bits, so their products stay below 2^60 in int64
assert X_LIMIT < 1 << _BITS
# a kernel block whose primes are below 2^_FLOAT_BITS keeps its residues in
# float64: their products fit the 53-bit significand exactly (see _mulmod)
_FLOAT_BITS = 26
assert 2 * _FLOAT_BITS <= np.finfo(np.float64).nmant + 1


@dataclass(frozen=True)
class OrderRecord:
    """(p, ord_p(g), index r_g(p)) with ord * index = p - 1."""

    p: int
    ord: int
    index: int


@dataclass
class CountTable:
    """Counts of primes <= x per residue class of ord (and of p when joint)."""

    g: Fraction
    x: int
    counts: dict
    primes_considered: int
    excluded: int

    def require_primes(self) -> int:
        """primes_considered, or ValueError when no prime p <= x has nu_p(g) = 0."""
        if not self.primes_considered:
            raise ValueError(f"no prime p <= {self.x} has nu_p(g) = 0 for g = {self.g}")
        return self.primes_considered

    def frequency(self, key) -> float:
        return self.counts.get(key, 0) / self.require_primes()


def _segment_factored(lo: int, hi: int, base: np.ndarray):
    """Primes p in [lo, hi) with the distinct prime factors of each p - 1.

    Returns (pvals, fcat, bounds): the primes, the flat list of their
    factors and the bounds of each prime's slice of it, factors in
    ascending order with the single one exceeding sqrt(hi), if present,
    last.  p = 2 has none.  Every other p - 1 is even, so tid indexes only
    the even numbers of the window [lo - 1, hi), and the base primes s
    collect which p - 1 they divide: s = 2 takes every odd prime, an odd s
    visits the multiples of 2s, stride s in tid.  Division chains expose
    the factor beyond sqrt(hi).  Each factor goes to a per-prime fill slot,
    so the flat list needs no sort.
    """
    pvals = sieve_primes(hi - 1, lo)
    # the smallest even >= lo - 1; tid[j] stands for e0 + 2j
    e0 = lo - lo % 2
    # p = 2, first when lo <= 2, has p - 1 = 1 and no factor
    odd = np.arange(int(lo <= 2), len(pvals), dtype=np.int32)
    # index of each odd prime at position (p - 1 - e0) / 2, else -1; int32
    # suffices (a segment holds far fewer than 2^31 numbers)
    tid = np.full((hi - e0) // 2, -1, dtype=np.int32)
    tid[(pvals[odd] - 1 - e0) >> 1] = odd
    rem = pvals - 1
    # p - 1 < 2^30 has at most 9 distinct prime factors, so counts fit uint8
    fill = np.zeros(len(pvals), dtype=np.uint8)
    found: list[tuple[np.ndarray, np.ndarray, int | np.ndarray]] = []
    for s in base.tolist():
        if s >= hi:
            break
        if s == 2:
            sel = odd
            # the lowest set bit of each p - 1 is its whole power of 2
            rem //= rem & -rem
        else:
            start = -(-e0 // (2 * s)) * 2 * s
            sel = tid[(start - e0) // 2 :: s]
            sel = sel[sel >= 0]
            cur = sel
            while len(cur):
                rem[cur] //= s
                cur = cur[rem[cur] % s == 0]
        found.append((sel, fill[sel], s))
        fill[sel] += 1
    del tid  # the largest array; no view of it is left, so this frees it before fcat
    big = np.flatnonzero(rem > 1)
    found.append((big, fill[big], rem[big]))
    fill[big] += 1
    bounds = np.zeros(len(pvals) + 1, dtype=np.int64)
    np.cumsum(fill, dtype=np.int64, out=bounds[1:])
    fcat = np.empty(int(bounds[-1]), dtype=np.int64)
    for sel, slot, f in found:
        fcat[bounds[sel] + slot] = f
    return pvals, fcat, bounds


_factored_cache: dict = {"key": None, "chunks": None}


def check_x(x: int) -> None:
    """Refuse an x beyond X_LIMIT before anything is sieved."""
    if x > X_LIMIT:
        raise ValueError(f"x beyond the supported range {X_LIMIT}")


def _factored_chunks(x: int):
    """Yield the (primes, factor lists) segment chunks covering [2, x], in order.

    Each segment is yielded as soon as it is sieved.  When [2, x] is one
    segment it stays cached, so the next run over the same x only reads it;
    a run of several segments keeps none, and each is freed once its
    consumer moves on.  The cache is kept by hand, not by argument: it holds
    at most one x and drops it before the next x is sieved.
    """
    check_x(x)
    key = (x, SEGMENT)
    if _factored_cache["key"] == key:
        yield from _factored_cache["chunks"]
        return
    # the previous x's segment is not read again
    _factored_cache["key"] = _factored_cache["chunks"] = None
    base = primes_upto(math.isqrt(x) + 1)
    lo = 2
    while lo <= x:
        hi = min(lo + SEGMENT, x + 1)
        chunk = _segment_factored(lo, hi, base)
        if lo == 2 and hi == x + 1:
            _factored_cache["key"] = key
            _factored_cache["chunks"] = [chunk]
        yield chunk
        lo = hi


def sieve_orders(g: Fraction | int, x: int) -> Iterator[OrderRecord]:
    """Stream one OrderRecord per prime p <= x with nu_p(g) = 0.

    g may be any rational other than -1, 0, 1, of any size.  The first
    record comes from the first kernel block of the first segment.
    """
    g = _check_g(g)
    for _, p, o in _orders(g, x):
        for pi, oi, ii in zip(p.tolist(), o.tolist(), ((p - 1) // o).tolist()):
            yield OrderRecord(pi, oi, ii)


def _check_g(g) -> Fraction:
    g = Fraction(g)
    if g in (0, 1, -1):
        raise ValueError("g must avoid -1, 0, 1")
    return g


def _orders(g: Fraction, x, m=1 << _BITS):
    """(block size, primes, orders) per kernel block, over p <= x with nu_p(g) = 0.

    A block is the longest run of a segment's primes whose factors of p - 1
    number at most BLOCK in all (one prime, when its own exceed BLOCK); its
    size counts the primes dividing g too, which the kernel drops.  The
    orders are exact mod m (see _block_orders), and exact at the default.
    ord_p(1/g) = ord_p(g), and both exclude the same primes, so a g with
    numerator +-1 is counted as 1/g, which needs no inverse mod p.
    """
    if abs(g.numerator) == 1:
        g = 1 / g
    for pvals, fcat, bounds in _factored_chunks(x):
        i0, n = 0, len(pvals)
        while i0 < n:
            end = np.searchsorted(bounds, bounds[i0] + BLOCK, side="right") - 1
            i1 = max(int(end), i0 + 1)
            lo, hi = bounds[i0], bounds[i1]
            p, o = _block_orders(
                g, pvals[i0:i1], fcat[lo:hi], np.diff(bounds[i0 : i1 + 1]), m
            )
            yield i1 - i0, p, o
            i0 = i1


def _block_orders(
    g: Fraction, p: np.ndarray, ells: np.ndarray, nfac: np.ndarray, m: int = 1 << _BITS
):
    """ord_p(g) for a block of primes p; ells lists the distinct prime factors
    of each p - 1 in turn, nfac[i] of them for p[i].

    Each (p, ell) pair strips ell from p - 1 as often as g^((p - 1)/ell^j)
    = 1 (mod p) for j = 1, 2, ..., and the index (p - 1) / ord is the
    product of the stripped ells.  The hits of a pair are a run j = 1 .. k
    (ord divides (p - 1)/ell^j for every j up to k), so two powers suffice:
    the first tests j = 1 for every pair, the second every deeper j for the
    pairs the first one hit, and each hit strips one ell.  The powers
    g^0 .. g^(2^WINDOW - 1) mod p are tabled once per prime, and both
    powers read that table.

    The pairs with ell = 1 (mod m) are not stripped: they would only divide
    the result by powers of ell, each = 1 (mod m), so the result is ord_p(g)
    times such powers and has the class of ord_p(g) mod m.  Every ell is
    below the default m = 2^30, so there every pair strips and the result is
    ord_p(g).
    """
    # residues, and the moduli they are taken by, share one dtype; the
    # primes are sorted, so p[-1] is the largest
    dtype = np.float64 if p[-1] < 1 << _FLOAT_BITS else np.int64
    mod = p.astype(dtype, copy=False)
    # a prime dividing g leaves gm = 0, which never strips; it is dropped last
    gm = _residue(g.numerator, p).astype(dtype, copy=False)
    keep = gm != 0
    rows = np.arange(len(p))
    if g.denominator != 1:
        dm = _residue(g.denominator, p).astype(dtype, copy=False)
        keep &= dm != 0
        gm = _mulmod(gm, _powmod(_power_table(dm, mod), rows, p - 2, mod), mod)
    table = _power_table(gm, mod)
    act = np.flatnonzero(ells % m != 1 % m)
    owner = np.repeat(rows, nfac)[act]
    ell = ells[act]
    exp = (p[owner] - 1) // ell
    # gathers by integer index: by a boolean mask of random hits they took
    # several times as long
    hit = np.flatnonzero(_powmod(table, owner, exp, mod[owner]) == 1)
    owner, ell, exp = owner[hit], ell[hit], exp[hit]
    index = np.ones_like(p)
    np.multiply.at(index, owner, ell)
    # every deeper exponent (p - 1)/ell^j, j >= 2, of the pairs just hit
    deep = []
    while len(exp):
        exp, rem = np.divmod(exp, ell)
        more = np.flatnonzero(rem == 0)
        owner, ell, exp = owner[more], ell[more], exp[more]
        deep.append((owner, ell, exp))
    if deep:
        owner, ell, exp = (np.concatenate(a) for a in zip(*deep))
        hit = np.flatnonzero(_powmod(table, owner, exp, mod[owner]) == 1)
        np.multiply.at(index, owner[hit], ell[hit])
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


def _mulmod(a: np.ndarray, b: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise a * b mod mod, for residues 0 <= a, b < mod of one dtype.

    int64 residues are below 2^30, so a * b stays below 2^60.  float64 ones
    are below 2^_FLOAT_BITS = 2^26: P = a * b < 2^52 is exact, and so is the
    floor of the rounded P / mod.  The quotient is below 2^26, where rounding
    moves it by at most 2^-28, and it is either an integer or at least
    1 / mod > 2^-26 from each integer.  So P - floor(P / mod) * mod is exact
    and needs no correction.
    """
    prod = a * b
    if prod.dtype != np.float64:
        return prod % mod
    # in place on the two fresh temporaries: a fresh array per pass made a
    # count at x = 1e6 about 8 % slower
    quot = prod / mod
    np.floor(quot, out=quot)
    quot *= mod
    prod -= quot
    return prod


def _power_table(base: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Rows base^0 .. base^(2^WINDOW - 1) mod mod, one row per power and one
    column per element, in base's dtype."""
    table = np.empty((1 << WINDOW, len(base)), dtype=base.dtype)
    table[0] = 1
    table[1] = base
    for k in range(2, 1 << WINDOW):
        table[k] = _mulmod(table[k - 1], base, mod)
    return table


def _powmod(table: np.ndarray, rows: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """Elementwise b^exp mod mod, b the base of column rows of table, by a
    left-to-right fixed-window power: WINDOW squarings per window of exp,
    then one multiply by the column's entry for that window's digit, read
    at digit * n + rows of the flat table, each by _mulmod in the table's
    dtype."""
    flat = table.ravel()
    n = table.shape[1]
    digit = (1 << WINDOW) - 1
    # the top window holds bit nbits - 1; when every exponent is 0 or 1 (a
    # block of p = 2 alone, whose Fermat exponent p - 2 is 0), the one
    # window at shift 0 is the whole power
    nbits = int(exp.max(initial=0)).bit_length()
    shift = max(nbits - 1, 0) // WINDOW * WINDOW
    result = flat[(exp >> shift & digit) * n + rows]
    while shift:
        shift -= WINDOW
        for _ in range(WINDOW):
            result = _mulmod(result, result, mod)
        result = _mulmod(result, flat[(exp >> shift & digit) * n + rows], mod)
    return result


def count_residues(g: Fraction | int, d: int, x: int) -> CountTable:
    """Counts of ord_p(g) mod d over primes p <= x with nu_p(g) = 0; only
    the classes that occur are keys.

    The kernel skips the pairs (p, l) with l = 1 (mod d), which cannot move
    the class of the order (see _block_orders).
    """
    if d < 1:
        raise ValueError("d must be positive")
    g = _check_g(g)
    counts, excluded = _count(g, x, 1, d)
    return CountTable(g, x, {a: c for (_, a), c in counts.items()}, sum(counts.values()), excluded)


def count_joint(g: Fraction | int, d1: int, d2: int, x: int) -> CountTable:
    """Joint counts keyed by (p mod d1, ord_p(g) mod d2); only keys that occur.

    The kernel skips the pairs (p, l) with l = 1 (mod d2), as count_residues
    does for d.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("moduli must be positive")
    g = _check_g(g)
    counts, excluded = _count(g, x, d1, d2)
    return CountTable(g, x, counts, sum(counts.values()), excluded)


def _count(g: Fraction, x: int, d1: int, d2: int):
    """({(p mod d1, ord_p(g) mod d2): count} over the keys that occur, and the
    number of primes p <= x dividing g's numerator or denominator).

    p and the kernel's results are below 2^30, so a larger modulus leaves
    their classes unchanged and both classes fit one int64 key.
    """
    m1, m2 = min(d1, 1 << _BITS), min(d2, 1 << _BITS)
    counts: dict = {}
    excluded = 0
    for n, p, o in _orders(g, x, m2):
        excluded += n - len(p)
        keys, cnts = np.unique((p % m1) << _BITS | o % m2, return_counts=True)
        for k, c in zip(keys.tolist(), cnts.tolist()):
            key = (k >> _BITS, k & _MASK)
            counts[key] = counts.get(key, 0) + c
    return counts, excluded


def compare(g: Fraction | int, d: int, x: int, analytic) -> dict:
    """Count ord classes mod d up to x and compare with analytic densities.

    analytic maps class -> predicted density (a dict, or a sequence indexed
    by class; entries may be floats or objects with a .value attribute).
    A class fails when |frequency - predicted| exceeds
    max(0.002, 3/sqrt(primes_considered)).  Raises ValueError, before
    counting, when a class mod d has no prediction, and after counting when
    no prime p <= x has nu_p(g) = 0.

    Returns the report as a dict with the keys g (a string), d, x,
    primes_considered, tolerance, ok (every class passes) and classes: one
    dict per class a = 0 .. d - 1 with the keys a, count, frequency,
    predicted, deviation and ok.
    """
    if not isinstance(analytic, dict):
        analytic = dict(enumerate(analytic))
    missing = [a for a in range(d) if analytic.get(a) is None]
    if missing:
        raise ValueError(f"no prediction for the classes {missing} mod {d}")
    table = count_residues(g, d, x)
    considered = table.require_primes()
    tol = max(0.002, 3.0 / math.sqrt(considered))
    classes = []
    for a in range(d):
        pred = getattr(analytic[a], "value", analytic[a])
        count = table.counts.get(a, 0)
        freq = table.frequency(a)
        dev = abs(freq - pred)
        classes.append(
            dict(a=a, count=count, frequency=freq, predicted=pred, deviation=dev, ok=dev <= tol)
        )
    return {
        "g": str(table.g),
        "d": d,
        "x": x,
        "primes_considered": considered,
        "tolerance": tol,
        "ok": all(c["ok"] for c in classes),
        "classes": classes,
    }


def census_exceptional(q: int, x: int) -> int:
    """Number of 1 <= g <= x whose quadratic discriminant D(g) has no prime
    divisor p = 1 (mod q).

    Equivalent to the squarefree kernel of g having no such prime divisor;
    perfect squares count vacuously.  Marks, for each prime p = 1 (mod q),
    the g with odd nu_p(g) and counts the unmarked rest.
    """
    require_odd_prime(q)
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

