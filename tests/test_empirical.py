import io
import math
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import ordense.cli as cli
import ordense.empirical as emp
import ordense.sieve as sieve
from ordense.arith import factorize, is_prime, squarefree_kernel
from ordense.decomp import decompose
from ordense.empirical import (
    OrderRecord,
    census_exceptional,
    compare,
    count_joint,
    count_residues,
    sieve_orders,
)

HAND_ORDERS_G2 = {3: 2, 5: 4, 7: 3, 11: 10, 13: 12, 17: 8, 19: 18}


def test_hand_table_orders_of_two():
    recs = {r.p: r for r in sieve_orders(2, 19)}
    assert {p: r.ord for p, r in recs.items()} == HAND_ORDERS_G2
    assert recs[7].index == 2
    assert recs[11].index == 1
    assert 2 not in recs  # p divides the numerator


def test_inverse_has_same_order():
    half = {r.p: r.ord for r in sieve_orders(Fraction(1, 2), 19)}
    assert half == HAND_ORDERS_G2
    # record for record, so the same primes are excluded
    for g in (3, -3):
        assert list(sieve_orders(Fraction(1, g), 3 * 10**5)) == list(sieve_orders(g, 3 * 10**5)), g


def test_unit_numerator_needs_no_inverse(monkeypatch):
    # a g with numerator +-1 is counted as 1/g: one power table per block,
    # where a denominator otherwise tables its own powers for Fermat's inverse
    kernel, power_table = emp._block_orders, emp._power_table
    tables = []

    def block(*args):
        tables.append(0)
        return kernel(*args)

    def counted(base, mod):
        tables[-1] += 1
        return power_table(base, mod)

    monkeypatch.setattr(emp, "_block_orders", block)
    monkeypatch.setattr(emp, "_power_table", counted)
    for g, per_block in ((Fraction(1, 2), 1), (Fraction(-1, 18), 1), (Fraction(9, 2), 2)):
        tables.clear()
        count_residues(g, 3, 10**5)
        assert tables and set(tables) == {per_block}, g


def test_rational_g():
    # ord_7(3/2): 3*2^-1 = 3*4 = 12 = 5 (mod 7); 5 has order 6
    recs = {r.p: r for r in sieve_orders(Fraction(3, 2), 10)}
    assert recs[7].ord == 6
    assert set(recs) == {5, 7}  # p = 2 and p = 3 are excluded


def test_order_record_invariants_random_spot_check():
    rng = random.Random(11)
    recs = list(sieve_orders(2, 2_000_000))
    assert len(recs) > 10**5
    for rec in recs:
        assert rec.ord * rec.index == rec.p - 1
    for rec in rng.sample(recs, 100_000):
        assert pow(2, rec.ord, rec.p) == 1
        for ell, _ in factorize(rec.ord):
            assert pow(2, rec.ord // ell, rec.p) != 1, rec


def test_frequency_refuses_table_without_a_coprime_prime():
    # every prime <= x divides g: frequency used to divide by zero
    for table in (count_residues(2, 3, 2), count_joint(6, 3, 3, 3)):
        assert table.primes_considered == 0
        with pytest.raises(ValueError, match=re.escape(f"p <= {table.x} has nu_p(g) = 0")):
            table.frequency(0)


def test_count_residues_example():
    tab = count_residues(2, 3, 20)
    assert tab.counts == {0: 3, 1: 2, 2: 2}
    assert tab.primes_considered == 7
    assert tab.excluded == 1  # p = 2


def test_counts_partition():
    tab = count_residues(2, 5, 10_000)
    assert sum(tab.counts.values()) == tab.primes_considered
    n_below = 1229  # pi(10^4)
    assert tab.primes_considered + tab.excluded == n_below


def test_count_joint_example_and_marginals():
    jt = count_joint(2, 3, 3, 20)
    assert jt.counts[(1, 0)] == 3  # p in {7, 13, 19}
    marg = {}
    for (_, a2), c in jt.counts.items():
        marg[a2] = marg.get(a2, 0) + c
    tab = count_residues(2, 3, 20)
    assert marg == {k: v for k, v in tab.counts.items() if v}
    # joint over a larger range still marginalizes exactly
    jt = count_joint(2, 4, 3, 5000)
    tab = count_residues(2, 3, 5000)
    marg = {}
    for (_, a2), c in jt.counts.items():
        marg[a2] = marg.get(a2, 0) + c
    assert marg == tab.counts


def test_count_joint_huge_moduli():
    jt = count_joint(2, 2**70, 2**64 + 1, 20)
    assert jt.counts == {(p, o): 1 for p, o in HAND_ORDERS_G2.items()}


def test_count_residues_huge_modulus():
    # counters for the classes that occur only: d counters per block asked
    # for 2^73 bytes
    tab = count_residues(2, 2**70, 20)
    assert tab.counts == {o: 1 for o in sorted(HAND_ORDERS_G2.values())}
    assert (tab.primes_considered, tab.excluded) == (7, 1)


def test_joint_zero_class_forces_one_mod_q():
    jt = count_joint(2, 3, 3, 50_000)
    for (a1, a2), c in jt.counts.items():
        if a2 == 0 and c:
            assert a1 == 1


def test_segmented_equals_monolithic(monkeypatch):
    # the default size, one segment (SEGMENT = x), 2^14-wide segments; the
    # chunk cache is keyed on SEGMENT, so each size sieves afresh
    c = count_residues(2, 3, 100_000)
    monkeypatch.setattr(emp, "SEGMENT", 100_000)
    a = count_residues(2, 3, 100_000)
    monkeypatch.setattr(emp, "SEGMENT", 1 << 14)
    b = count_residues(2, 3, 100_000)
    assert a.counts == b.counts
    assert a.primes_considered == b.primes_considered
    assert a.counts == c.counts


# a segment size that cuts [2, 1e6] into four segments, which are streamed
STREAMED_1E6 = 1 << 18


def _cache_paths(monkeypatch):
    """Yield twice, with an empty chunk cache each time: first with the
    default SEGMENT (x = 1e6 is one segment, which stays cached and later
    counts read it), then with SEGMENT = STREAMED_1E6 (x = 1e6 takes four
    segments, none cached, so every count streams its own sieve)."""
    for size in (emp.SEGMENT, STREAMED_1E6):
        monkeypatch.setattr(emp, "SEGMENT", size)
        monkeypatch.setattr(emp, "_factored_cache", {"key": None, "chunks": None})
        yield size


def _count_sieves(monkeypatch):
    """A list that gains one entry per _segment_factored call from now on."""
    calls = []
    segment = emp._segment_factored

    def counted(lo, hi, base):
        calls.append(lo)
        return segment(lo, hi, base)

    monkeypatch.setattr(emp, "_segment_factored", counted)
    return calls


def test_sieve_orders_streams_its_first_record(monkeypatch):
    # the first record needs the first segment only, not all of [2, x]
    monkeypatch.setattr(emp, "SEGMENT", 1000)
    monkeypatch.setattr(emp, "_factored_cache", {"key": None, "chunks": None})
    calls = _count_sieves(monkeypatch)
    assert next(sieve_orders(2, 10**5)) == OrderRecord(3, 2, 1)
    assert calls == [2]


def test_one_segment_runs_share_one_sieve(monkeypatch):
    # the three requests of a verify panel at x = 1e6 sieve its one segment
    # once; over four segments each of them sieves [2, x] afresh
    calls = _count_sieves(monkeypatch)
    for size in _cache_paths(monkeypatch):
        calls.clear()
        count_residues(2, 3, 10**6)
        count_residues(-3, 5, 10**6)
        count_joint(Fraction(1, 2), 3, 3, 10**6)
        cached = size != STREAMED_1E6
        assert len(calls) == (1 if cached else 12), size
        assert emp._factored_cache["key"] == ((10**6, size) if cached else None), size


def test_count_memory_flat_in_x(monkeypatch):
    # traced peak of a count at 3e7: one segment sieved while the one before
    # it is counted; measured 18.6 MiB.  Caching every segment of
    # [2, x] peaked at 115 MiB, and grows by about 2.6 bytes per unit of x.
    monkeypatch.setattr(emp, "_factored_cache", {"key": None, "chunks": None})
    tracemalloc.start()
    try:
        tab = count_residues(2, 6, 3 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tab.primes_considered == 1857858  # pi(3e7) - 1
    assert emp._factored_cache["key"] is None
    assert peak < 32 * 2**20, peak


def test_kernel_block_working_set(monkeypatch):
    # every block of the kernel holds at most BLOCK (p, l) pairs, and its
    # traced working set stays near 100 bytes a pair (1.3 MiB measured at
    # BLOCK = 2^14); blocks of 2^14 primes (57k pairs) took 6.3 MiB.  g =
    # 2^64 hits most pairs of l = 2 at every level, so its second stripping
    # power is the largest
    kernel = emp._block_orders
    blocks = []

    def traced(g, p, ells, nfac, m):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = kernel(g, p, ells, nfac, m)
        blocks.append((len(ells), tracemalloc.get_traced_memory()[1] - before))
        return out

    monkeypatch.setattr(emp, "_block_orders", traced)
    tracemalloc.start()
    try:
        count_residues(2, 6, 10**6)
        count_residues(2**64, 6, 10**6)
    finally:
        tracemalloc.stop()
    assert len(blocks) > 1
    assert max(pairs for pairs, _ in blocks) <= emp.BLOCK
    assert max(peak for _, peak in blocks) < 2.5 * 2**20, blocks


def test_chunks_hold_every_prime_and_factor(monkeypatch):
    # the scalar oracle reads these same chunks, so it cannot see a prime
    # or a factor of p - 1 lost at a segment edge; odd and even segment
    # sizes start windows at both parities of lo, and sizes 1 and 2 give
    # windows of one or two numbers
    for size, x in ((1, 300), (2, 300), (997, 10**5), (1000, 10**5)):
        monkeypatch.setattr(emp, "SEGMENT", size)
        chunks = list(emp._factored_chunks(x))
        assert len(chunks) == -(-(x - 1) // size)  # the x - 1 numbers of [2, x]
        primes = [p for pvals, _, _ in chunks for p in pvals.tolist()]
        assert primes == sieve.primes_upto(x).tolist()
        for pvals, fcat, bounds in chunks:
            _assert_factors_of_p_minus_1(pvals, fcat, bounds)


def _assert_factors_of_p_minus_1(pvals, fcat, bounds):
    assert pvals.dtype == fcat.dtype == bounds.dtype == "int64"
    assert len(bounds) == len(pvals) + 1 and bounds[0] == 0 and bounds[-1] == len(fcat)
    for i, p in enumerate(pvals.tolist()):
        # ascending, so the factor beyond sqrt(hi) comes last
        assert fcat[bounds[i] : bounds[i + 1]].tolist() == list(factorize(p - 1).primes), p


# only the prime 2; 2 and 3; no prime; odd lo; just below X_LIMIT
@pytest.mark.parametrize(
    "lo, hi", [(2, 3), (2, 4), (24, 29), (3, 1000), (emp.X_LIMIT - 4000, emp.X_LIMIT + 1)]
)
def test_segment_factored_window(lo, hi):
    pvals, fcat, bounds = emp._segment_factored(lo, hi, sieve.primes_upto(math.isqrt(hi) + 1))
    assert pvals.tolist() == [n for n in range(lo, hi) if is_prime(n)]
    _assert_factors_of_p_minus_1(pvals, fcat, bounds)


def test_segment_factored_memory_half_width():
    # a 2^22 window: int32 ids of its even numbers only, and no sort of the
    # (prime, factor) pairs peak near 25 MiB; ids of every number and an
    # argsort of the pairs peak near 73 MiB
    hi = 2**22 + 2
    base = sieve.primes_upto(math.isqrt(hi) + 1)
    tracemalloc.start()
    try:
        emp._segment_factored(2, hi, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, peak


def test_x_beyond_limit_refused_before_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("worked before refusing x")

    monkeypatch.setattr(emp, "_segment_factored", no_work)
    monkeypatch.setattr(cli, "evaluate_density", no_work)
    big = emp.X_LIMIT + 1
    with pytest.raises(ValueError, match="supported range"):
        count_residues(2, 3, big)
    with pytest.raises(ValueError, match="supported range"):
        count_joint(2, 3, 3, big)
    with pytest.raises(ValueError, match="supported range"):
        list(sieve_orders(2, big))
    for extra in ([], ["--d1", "3"]):
        out, err = io.StringIO(), io.StringIO()
        argv = ["verify", "--g", "2", "--d", "5", "--x", str(big), *extra]
        assert cli.run(argv, out, err) == 2, extra
        assert out.getvalue() == "" and "supported range" in err.getvalue()


def test_g_validation():
    with pytest.raises(ValueError):
        list(sieve_orders(1, 100))
    with pytest.raises(ValueError):
        list(sieve_orders(0, 100))
    with pytest.raises(ValueError):
        count_residues(-1, 3, 100)
    with pytest.raises(ValueError):
        count_joint(1, 3, 3, 100)


def test_g_refusal_reads_the_same_everywhere():
    # decompose and the counts refuse g through one check; sieve_orders is a
    # generator, so it refuses on its first next
    refusals = {
        "1": lambda: decompose(1),
        "-1": lambda: next(sieve_orders(-1, 100)),
        "0": lambda: count_joint(0, 3, 3, 100),
    }
    for g, refuse in refusals.items():
        with pytest.raises(ValueError) as info:
            refuse()
        assert str(info.value) == f"g must avoid -1, 0, 1; got {g}"


def test_invalid_input_rejected_before_sieving(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieved before validating the input")

    monkeypatch.setattr(emp, "_factored_chunks", no_sieve)
    with pytest.raises(ValueError, match="g must avoid"):
        count_residues(1, 3, 10**6)
    with pytest.raises(ValueError, match="d must be positive"):
        count_residues(2**70 + 1, 0, 10**6)
    with pytest.raises(ValueError, match="moduli must be positive"):
        count_joint(Fraction(1, 2**64), 3, 0, 10**6)


def _scalar_orders(g, x):
    """Reference (p, ord, index) triples: one Python pow per prime and factor."""
    num, den = g.numerator, g.denominator
    for pvals, fcat, bounds in emp._factored_chunks(x):
        plist = pvals.tolist()
        flat = fcat.tolist()
        blist = bounds.tolist()
        for i, p in enumerate(plist):
            if num % p == 0 or den % p == 0:
                continue
            if den == 1:
                gm = num % p
            else:
                gm = num * pow(den, p - 2, p) % p
            o = p - 1
            for ell in flat[blist[i] : blist[i + 1]]:
                while o % ell == 0 and pow(gm, o // ell, p) == 1:
                    o //= ell
            yield p, o, (p - 1) // o


ORACLE_X = 300_000
ORACLE_G = [2, 3, -3, 4, 8, Fraction(1, 2), Fraction(9, 2), Fraction(-3, 4), 5832]
# beyond factorize's range; 2^64 strips l = 2 at many levels
ORACLE_BIG_G = [2**70 + 1, Fraction(-(2**70 + 1), 3**41), 2**64]


@pytest.fixture(scope="module")
def oracle():
    return {g: list(_scalar_orders(Fraction(g), ORACLE_X)) for g in ORACLE_G + ORACLE_BIG_G}


# many segments each inside one block; odd segments cut into ragged blocks
# of at most 1000 (p, l) pairs; one segment (SEGMENT = x) of six blocks, the
# last partial
@pytest.mark.parametrize(
    "size,block",
    [
        (1 << 12, emp.BLOCK),
        (100_003, 1000),
        (ORACLE_X, emp.BLOCK),
    ],
)
def test_kernel_matches_scalar_oracle(oracle, monkeypatch, size, block):
    # the segments of the smaller sizes are streamed; SEGMENT = x is one
    # segment, which stays cached
    monkeypatch.setattr(emp, "SEGMENT", size)
    monkeypatch.setattr(emp, "BLOCK", block)
    monkeypatch.setattr(emp, "_factored_cache", {"key": None, "chunks": None})
    for g, ref in oracle.items():
        recs = [(r.p, r.ord, r.index) for r in sieve_orders(g, ORACLE_X)]
        assert recs == ref, g
        tab = count_residues(g, 12, ORACLE_X)
        want = {a: 0 for a in range(12)}
        for _, o, _ in ref:
            want[o % 12] += 1
        assert tab.counts == want, g
        assert tab.primes_considered == len(ref)
        assert tab.excluded == len(sieve.sieve_primes(ORACLE_X)) - len(ref), g
        jt = count_joint(g, 4, 3, ORACLE_X)
        want = {}
        for p, o, _ in ref:
            want[(p % 4, o % 3)] = want.get((p % 4, o % 3), 0) + 1
        assert jt.counts == want, g
    cached = emp._factored_cache["key"]
    assert cached == ((ORACLE_X, size) if size == ORACLE_X else None), size


# the count moduli: 2 (only l = 2 strips), odd primes, prime powers, composites
# and one above the 2^30 cap, where no pair is skipped
COUNT_D = [2, 3, 4, 5, 6, 7, 8, 12, 24, 2**30 + 1]
JOINT_D = [(4, 3), (3, 7), (5, 2), (2**70, 2**64 + 1)]


@pytest.mark.parametrize("size", [1 << 16, ORACLE_X])
def test_counts_mod_d_match_scalar_oracle(oracle, monkeypatch, size):
    # counts skip the pairs with l = 1 (mod d) yet equal the classes of the
    # oracle's exact orders; streamed segments at 2^16, one cached at x
    monkeypatch.setattr(emp, "SEGMENT", size)
    monkeypatch.setattr(emp, "_factored_cache", {"key": None, "chunks": None})
    for g, ref in oracle.items():
        for d in COUNT_D:
            want = Counter(o % d for _, o, _ in ref)
            assert count_residues(g, d, ORACLE_X).counts == want, (g, d)
        for d1, d2 in JOINT_D:
            want = Counter((p % d1, o % d2) for p, o, _ in ref)
            assert count_joint(g, d1, d2, ORACLE_X).counts == want, (g, d1, d2)


def _block_powers(monkeypatch):
    """A list that gains, per kernel block from now on, one list per
    _powmod call of the block: (p - 1) / e for each of its exponents e.

    For an integer g every _powmod of a block strips: the first powers each
    pair's (p - 1) / l, and a second the deeper (p - 1) / l^j, j >= 2."""
    kernel, powmod = emp._block_orders, emp._powmod
    blocks = []

    def block(*args):
        blocks.append([])
        return kernel(*args)

    def power(table, rows, exp, mod):
        blocks[-1].append(((mod - 1) // exp).tolist())
        return powmod(table, rows, exp, mod)

    monkeypatch.setattr(emp, "_block_orders", block)
    monkeypatch.setattr(emp, "_powmod", power)
    return blocks


def test_counts_skip_pairs_with_ell_one_mod_d(monkeypatch):
    blocks = _block_powers(monkeypatch)

    def powered():
        ells = [ell for powers in blocks if powers for ell in powers[0]]
        blocks.clear()
        return Counter(ells)

    x = 10**5
    count_residues(2, 2, x)
    assert set(powered()) == {2}
    count_residues(2, 3, x)
    ells = powered()
    assert ells[3] and ells[2] and not [ell for ell in ells if ell % 3 == 1]
    # exact orders power every pair
    list(sieve_orders(2, x))
    every = Counter(ell for _, fcat, _ in emp._factored_chunks(x) for ell in fcat.tolist())
    assert powered() == every


@pytest.mark.parametrize("g", [2, 2**64, -3], ids=["2", "2^64", "-3"])
def test_block_strips_in_two_powers(monkeypatch, g):
    # the second power, when there is one, tests only prime powers l^j, j >= 2
    blocks = _block_powers(monkeypatch)
    list(sieve_orders(g, 10**5))
    assert len(blocks) > 1 and max(map(len, blocks)) <= 2
    deeper = [int(q) for powers in blocks for second in powers[1:] for q in second]
    assert deeper and not any(map(is_prime, deeper))


@pytest.mark.parametrize("g", [Fraction(1, 3), Fraction(5, 3), Fraction(1, 2)])
@pytest.mark.parametrize("x", [2, 3])
def test_tiny_x_matches_scalar_oracle(g, x):
    # at p = 2 the Fermat exponent p - 2 of a denominator is 0
    recs = [(r.p, r.ord, r.index) for r in sieve_orders(g, x)]
    assert recs == list(_scalar_orders(g, x))


def test_block_of_p_two_alone(monkeypatch):
    # SEGMENT = 1 puts p = 2 alone in the first block: its largest exponent
    # is 0 (the inverse of a denominator) and it has no (p, l) pair
    monkeypatch.setattr(emp, "SEGMENT", 1)
    assert next(emp._factored_chunks(30))[0].tolist() == [2]
    for g in (Fraction(1, 3), Fraction(5, 3), Fraction(1, 2), Fraction(3)):
        recs = [(r.p, r.ord, r.index) for r in sieve_orders(g, 30)]
        assert recs == list(_scalar_orders(g, 30)), g


# the float64 residues' bound, and the largest prime below it
FLOAT_TOP = 1 << emp._FLOAT_BITS
FLOAT_TOP_PRIME = 67108859


def test_powmod_matches_pow():
    # int64 residues mod primes near X_LIMIT, and float64 ones mod primes
    # just below 2^26, up to the largest there
    rng = random.Random(5)
    for top, dtype in ((emp.X_LIMIT, np.int64), (FLOAT_TOP, np.float64)):
        mods = sieve.sieve_primes(top, top - 2000)
        assert dtype is np.int64 or mods[-1] == FLOAT_TOP_PRIME
        mods = np.concatenate([[2, 3, 5, 7], mods]).astype(dtype)
        base = np.array([rng.randrange(int(m)) for m in mods], dtype=dtype)
        table = emp._power_table(base, mods)
        assert table.dtype == dtype
        rows = np.arange(len(mods))
        exps = ([0] * len(mods), [1] * len(mods), [7, 8, 9, 63, 64, 65] * len(mods))
        for exp in exps + ([rng.randrange(int(m)) for m in mods],):
            exp = np.array(exp[: len(mods)])
            got = emp._powmod(table, rows, exp, mods)
            want = [pow(int(b), int(e), int(m)) for b, e, m in zip(base, exp, mods)]
            assert got.dtype == dtype and got.tolist() == want, (dtype, exp[:6])


def test_mulmod_exact_at_float_bound():
    m = FLOAT_TOP_PRIME
    assert is_prime(m) and not any(map(is_prime, range(m + 1, FLOAT_TOP)))
    rng = np.random.default_rng(11)
    # (m - 1)^2 = 1 (mod m): its quotient lies 1/m below an integer
    edge = np.array([m - 1, m - 2, 0])
    a = np.concatenate([np.repeat(edge, 3), rng.integers(0, m, 10**6)])
    b = np.concatenate([np.tile(edge, 3), rng.integers(0, m, 10**6)])
    got = emp._mulmod(a.astype(np.float64), b.astype(np.float64), np.full(len(a), float(m)))
    assert got.dtype == np.float64
    assert np.array_equal(got, a * b % m)


def _factor_lists(p):
    """The kernel's ells and nfac for the primes p, by trial division."""
    facs = [factorize(int(q) - 1).primes for q in p]
    ells = np.array([ell for f in facs for ell in f], dtype=np.int64)
    return ells, np.array([len(f) for f in facs], dtype=np.int64)


def test_block_residue_dtype(monkeypatch):
    # float64 while a block's largest prime is below 2^26, int64 from there
    mulmod = emp._mulmod
    seen = set()

    def traced(a, b, mod):
        seen.add((a.dtype, b.dtype, mod.dtype))
        return mulmod(a, b, mod)

    monkeypatch.setattr(emp, "_mulmod", traced)
    f64, i64 = np.dtype(np.float64), np.dtype(np.int64)
    for lo, hi, dtype in [
        (2, 1000, f64),
        (FLOAT_TOP - 1000, FLOAT_TOP, f64),
        (FLOAT_TOP - 1000, FLOAT_TOP + 1000, i64),
        (emp.X_LIMIT - 1000, emp.X_LIMIT, i64),
    ]:
        seen.clear()
        p = sieve.sieve_primes(hi, lo)
        emp._block_orders(Fraction(9, 2), p, *_factor_lists(p))
        assert seen == {(dtype,) * 3}, (lo, hi)
    # every block of a count up to 1e6 runs in float64
    seen.clear()
    count_residues(2, 6, 10**6)
    assert seen == {(f64,) * 3}


def _order_by_definition(gm, p):
    """The least o | p - 1 with gm^o = 1 (mod p), from Python's pow alone."""
    o = p - 1
    for ell in factorize(p - 1).primes:
        while o % ell == 0 and pow(gm, o // ell, p) == 1:
            o //= ell
    assert pow(gm, o, p) == 1
    assert all(pow(gm, o // ell, p) != 1 for ell in factorize(o).primes)
    return o


# primes just below X_LIMIT (int64 residues near 2^30, products near 2^60);
# just below 2^26 (float64 residues at their bound, products near 2^52); and
# straddling 2^26, which runs in int64
TOP_WINDOWS = {
    "": (emp.X_LIMIT - 4400, emp.X_LIMIT),
    "-float": (FLOAT_TOP - 4400, FLOAT_TOP),
    "-straddle": (FLOAT_TOP - 2200, FLOAT_TOP + 2200),
}


@pytest.mark.parametrize(
    "g, lo, hi",
    [
        pytest.param(g, lo, hi, id=f"g{i}{tag}")
        for i, g in enumerate([Fraction(2), Fraction(-3), Fraction(9, 2), Fraction(2**70 + 1)])
        for tag, (lo, hi) in TOP_WINDOWS.items()
    ],
)
def test_kernel_at_top_of_range(g, lo, hi):
    p = sieve.sieve_primes(hi, lo)
    assert len(p) >= 200
    _assert_block_by_definition(g, p)


def _assert_block_by_definition(g, p):
    kept, orders = emp._block_orders(g, p, *_factor_lists(p))
    want = []
    for q in p.tolist():
        if g.numerator % q and g.denominator % q:
            gm = g.numerator * pow(g.denominator, -1, q) % q
            want.append((q, _order_by_definition(gm, q)))
    assert list(zip(kept.tolist(), orders.tolist())) == want


# primes whose p - 1 has a large 2-part or 3-part, such as 65537 = 2^16 + 1
# and 995329 = 2^12 * 3^5 + 1: one block below 2^26 (float64 residues) and
# one above (int64)
DEEP_PRIMES = [
    [1459, 39367, 52489, 65537, 472393, 786433, 995329, 7340033, 8503057, 19131877, 23068673,
     57395629],
    [86093443, 104857601, 167772161, 258280327, 469762049, 998244353],
]


@pytest.mark.parametrize("g", [Fraction(2), Fraction(2**64), Fraction(-(3**40)), Fraction(9, 2)])
def test_kernel_strips_deep_prime_powers(g):
    for p in DEEP_PRIMES:
        _assert_block_by_definition(g, np.array(p))


# count_residues(g, 12, 10**6) and count_joint(g, 4, 3, 10**6) as computed
# by the per-prime pow loop; 78497 primes considered and p = 2 (or 3) excluded
PINNED_1E6 = {
    "2": (
        [12240, 1486, 2460, 7023, 12754, 2080, 8612, 961, 7670, 1576, 11814, 9821],
        {(1, 0): 14693, (1, 1): 14779, (1, 2): 9703, (3, 0): 14758, (3, 1): 12236, (3, 2): 12328},
    ),
    "3": (
        [4908, 1005, 3250, 2449, 19116, 9640, 19666, 1019, 2074, 2434, 3283, 9653],
        {(1, 0): 14672, (1, 1): 20738, (1, 2): 3765, (2, 1): 1, (3, 0): 14785, (3, 1): 3684,
         (3, 2): 20852},
    ),
    "-3": (
        [4908, 1620, 2023, 9733, 19116, 1657, 4883, 1631, 2074, 9933, 19293, 1626],
        {(1, 0): 14672, (1, 1): 20807, (1, 2): 3696, (2, 1): 1, (3, 0): 14785, (3, 1): 20852,
         (3, 2): 3684},
    ),
    "4": (
        [2454, 2452, 11570, 8640, 2893, 11892, 9786, 2455, 1184, 8571, 4777, 11823],
        {(1, 0): 14693, (1, 1): 8838, (1, 2): 15644, (3, 0): 14758, (3, 1): 3739, (3, 2): 20825},
    ),
    "8": (
        [4070, 3794, 5387, 513, 16841, 4462, 2890, 1474, 11753, 2333, 14609, 10371],
        {(1, 0): 4874, (1, 1): 19617, (1, 2): 14684, (3, 0): 4932, (3, 1): 17101, (3, 2): 17289},
    ),
    "1/2": (
        [12240, 1486, 2460, 7023, 12754, 2080, 8612, 961, 7670, 1576, 11814, 9821],
        {(1, 0): 14693, (1, 1): 14779, (1, 2): 9703, (3, 0): 14758, (3, 1): 12236, (3, 2): 12328},
    ),
}


def test_count_tables_pinned_at_1e6(monkeypatch):
    # on the cached path (one segment) and on the streamed one (four)
    for size in _cache_paths(monkeypatch):
        for g, (residues, joint) in PINNED_1E6.items():
            tab = count_residues(Fraction(g), 12, 10**6)
            assert tab.counts == dict(enumerate(residues)), (g, size)
            assert (tab.primes_considered, tab.excluded) == (78497, 1), (g, size)
            assert count_joint(Fraction(g), 4, 3, 10**6).counts == joint, (g, size)


def _brute_census(q, x):
    cnt = 0
    for g in range(1, x + 1):
        k = squarefree_kernel(g)
        if all(p % q != 1 for p, _ in factorize(k)):
            cnt += 1
    return cnt


def test_census_brute_force():
    for q, x in ((3, 30), (3, 500), (5, 400), (7, 300)):
        assert census_exceptional(q, x) == _brute_census(q, x), (q, x)


def test_census_leaves_no_primes_cached(monkeypatch):
    # the census's primes <= x are freed on return, not kept in the prime cache
    monkeypatch.setattr(sieve, "_prime_cache", {})
    census_exceptional(3, 10**6)
    assert sieve._prime_cache == {}


def test_census_monotone_and_thinning():
    assert census_exceptional(3, 1000) <= census_exceptional(3, 2000)
    fracs = [census_exceptional(3, x) / x for x in (10**4, 10**5, 10**6)]
    assert fracs[0] > fracs[1] > fracs[2], fracs


@pytest.mark.parametrize("x", [0, 10**8 + 1])
def test_census_refuses_x_out_of_range(x):
    with pytest.raises(ValueError, match="census supports 1 <= x <= 1e8"):
        census_exceptional(3, x)


@pytest.mark.parametrize("q, message", [(2, "the modulus prime must be odd"), (9, "9 is not prime")])
def test_census_refuses_q_through_the_shared_refusal(q, message):
    with pytest.raises(ValueError, match=message):
        census_exceptional(q, 100)


def test_compare_self_is_exact():
    tab = count_residues(2, 3, 10_000)
    freqs = {a: tab.counts[a] / tab.primes_considered for a in range(3)}
    rep = compare(2, 3, 10_000, freqs)
    assert rep["ok"]
    assert all(row["deviation"] == 0 for row in rep["classes"])


def test_compare_flags_bad_prediction():
    rep = compare(2, 3, 10_000, {0: 0.9, 1: 0.05, 2: 0.05})
    assert not rep["ok"]
    assert rep["classes"][0]["predicted"] == 0.9
    assert not rep["classes"][0]["ok"]


@pytest.mark.parametrize(
    "analytic, missing",
    [({0: 0.375}, "[1, 2]"), ({0: 0.375, 1: None, 2: 0.3}, "[1]"), ([0.375], "[1, 2]")],
)
def test_compare_refuses_missing_classes(analytic, missing):
    # a class without a prediction used to be dropped, with the report still ok
    with pytest.raises(ValueError, match=re.escape(f"classes {missing} mod 3")):
        compare(2, 3, 10_000, analytic)


@pytest.mark.parametrize("g, x", [(2, 2), (6, 3), (Fraction(1, 6), 4)])
def test_compare_refuses_x_without_a_coprime_prime(g, x):
    # the tolerance 3/sqrt(primes_considered) used to divide by zero
    with pytest.raises(ValueError, match=re.escape(f"p <= {x} has nu_p(g) = 0 for g = {g}")):
        compare(g, 3, x, [0.375, 0.3, 0.325])
