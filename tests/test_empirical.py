import io
import random
import re
from fractions import Fraction

import pytest

import ordense.cli as cli
import ordense.empirical as emp
import ordense.sieve as sieve
from ordense.arith import factorize, squarefree_kernel
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


def test_chunks_hold_every_prime_and_factor(monkeypatch):
    # the scalar oracle reads these same chunks, so it cannot see a prime
    # or a factor of p - 1 lost at a segment edge
    monkeypatch.setattr(emp, "SEGMENT", 997)
    chunks = emp._factored_chunks(10**5)
    assert len(chunks) > 100
    primes = [p for pvals, _, _ in chunks for p in pvals.tolist()]
    assert primes == sieve.primes_upto(10**5).tolist()
    for pvals, fcat, bounds in chunks:
        for i, p in enumerate(pvals.tolist()):
            ells = fcat[bounds[i] : bounds[i + 1]].tolist()
            assert sorted(ells) == sorted(factorize(p - 1).primes), p


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


def test_oversized_g_rejected_before_sieving(monkeypatch):
    def no_sieve(*args):
        raise AssertionError("sieved before validating g")

    monkeypatch.setattr(emp, "_factored_chunks", no_sieve)
    with pytest.raises(ValueError, match="factorize"):
        count_residues(2**70 + 1, 3, 10**6)
    with pytest.raises(ValueError, match="factorize"):
        count_joint(Fraction(1, 2**64), 3, 3, 10**6)


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
# beyond factorize's range: only sieve_orders accepts these
ORACLE_BIG_G = [2**70 + 1, Fraction(-(2**70 + 1), 3**41)]


@pytest.fixture(scope="module")
def oracle():
    return {g: list(_scalar_orders(Fraction(g), ORACLE_X)) for g in ORACLE_G + ORACLE_BIG_G}


# many segments each inside one block; odd segments cut into ragged blocks;
# one segment (SEGMENT = x) of two blocks, the second partial
@pytest.mark.parametrize(
    "size,block",
    [
        (1 << 12, emp.BLOCK),
        (100_003, 1000),
        (ORACLE_X, emp.BLOCK),
    ],
)
def test_kernel_matches_scalar_oracle(oracle, monkeypatch, size, block):
    monkeypatch.setattr(emp, "SEGMENT", size)
    monkeypatch.setattr(emp, "BLOCK", block)
    for g, ref in oracle.items():
        recs = [(r.p, r.ord, r.index) for r in sieve_orders(g, ORACLE_X)]
        assert recs == ref, g
        if g in ORACLE_BIG_G:
            continue
        tab = count_residues(g, 12, ORACLE_X)
        want = {a: 0 for a in range(12)}
        for _, o, _ in ref:
            want[o % 12] += 1
        assert tab.counts == want, g
        assert tab.primes_considered == len(ref)
        jt = count_joint(g, 4, 3, ORACLE_X)
        want = {}
        for p, o, _ in ref:
            want[(p % 4, o % 3)] = want.get((p % 4, o % 3), 0) + 1
        assert jt.counts == want, g


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


def test_count_tables_pinned_at_1e6():
    for g, (residues, joint) in PINNED_1E6.items():
        tab = count_residues(Fraction(g), 12, 10**6)
        assert tab.counts == dict(enumerate(residues)), g
        assert (tab.primes_considered, tab.excluded) == (78497, 1), g
        assert count_joint(Fraction(g), 4, 3, 10**6).counts == joint, g


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


def test_compare_self_is_exact():
    tab = count_residues(2, 3, 10_000)
    freqs = {a: tab.counts[a] / tab.primes_considered for a in range(3)}
    rep = compare(2, 3, 10_000, freqs)
    assert rep.ok
    assert all(row[4] == 0 for row in rep.rows)


def test_compare_flags_bad_prediction():
    rep = compare(2, 3, 10_000, {0: 0.9, 1: 0.05, 2: 0.05})
    assert not rep.ok
    d = rep.to_dict()
    assert d["classes"][0]["predicted"] == 0.9
    assert not d["classes"][0]["ok"]


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
