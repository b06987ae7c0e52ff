"""Acceptance suite.

Every criterion runs at its stated tolerance and prints one PASS/FAIL line;
run `pytest tests/test_acceptance.py -s` to see them.  The empirical checks
sieve to x = 10^7 and the character constants use the full default prime
cutoff 10^7, so this file is the slow part of the test suite (a few minutes
on one desktop core).
"""

import math
import time
from fractions import Fraction

import pytest
from conftest import spf_table

from ordense.arith import is_prime, kronecker, moebius
from ordense.characters import a_chi, artin_constant, c_chi, character_group
from ordense.decomp import decompose
from ordense.density import (
    TruncationConfig,
    zero_class_series,
    delta_avg,
    delta_charform,
    delta_level_q_series,
    delta_g_zero_class,
    delta_general_series,
    delta_joint_one_mod_q,
    delta_prime_power,
)
from ordense.empirical import count_joint, count_residues

PMAX = 10**7
CFG = TruncationConfig(v_max=100_000, prime_cutoff=PMAX)
X_EMP = 10**7

CLOSED_PANEL = [(g, q) for g in (2, 3, 5, 8, 27, -2, -3) for q in (3, 5, 7)]
CROSS_PANEL_G = (2, 3, 5, 6, 7, -2, -3)

_cache: dict = {}


def _report(num: int, ok: bool, desc: str) -> bool:
    print(f"\n[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {desc}")
    return ok


def test_criterion_01_closed_form_identities():
    t0 = time.perf_counter()
    ok = True
    for g, q in CLOSED_PANEL:
        dec = decompose(g)
        nu = 0
        h = dec.h
        while h % q == 0:
            h //= q
            nu += 1
        expect = Fraction(q, q * q - 1) / q**nu
        ok &= delta_g_zero_class(dec, q).exact == expect
        ok &= abs(zero_class_series(dec, q).value - float(expect)) < 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _report(
        1, ok, f"zero-class closed forms exact on 21 pairs, series to 1e-12 ({elapsed:.2f}s)"
    )


def test_criterion_02_stratum_identity():
    t0 = time.perf_counter()
    ok = True
    for g, q in CLOSED_PANEL:
        dec = decompose(g)
        lhs = (
            delta_g_zero_class(dec, q).exact
            + (q - 1) * delta_joint_one_mod_q(dec, q, 1).exact
        )
        ok &= lhs == Fraction(1, q - 1)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert _report(2, ok, f"stratum identity exact on 21 pairs ({elapsed:.2f}s)")


def _cross_values():
    if "cross" not in _cache:
        vals = {}
        for g in CROSS_PANEL_G:
            dec = decompose(g)
            for q in (3, 5):
                for a in range(1, q):
                    s = delta_level_q_series(dec, a, q, CFG)[1]
                    c = delta_charform(dec, a, q, PMAX)
                    vals[(g, q, a)] = (s, c)
        _cache["cross"] = vals
    return _cache["cross"]


def test_criterion_03_method_cross_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for (g, q, a), (s, c) in _cross_values().items():
        diff = abs(s.value - c.value)
        worst = max(worst, diff)
        ok &= diff <= s.error_bound + 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    assert _report(
        3,
        ok,
        f"series vs char form within tail+1e-6 on 42 values, worst {worst:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_04_partition():
    ok = True
    for g in CROSS_PANEL_G:
        dec = decompose(g)
        for q in (3, 5):
            zero = delta_g_zero_class(dec, q).value
            tot_c = zero + sum(
                _cross_values()[(g, q, a)][1].value for a in range(1, q)
            )
            tot_s = zero + sum(
                _cross_values()[(g, q, a)][0].value for a in range(1, q)
            )
            ok &= abs(tot_c - 1) < 1e-6
            tails = sum(_cross_values()[(g, q, a)][0].error_bound for a in range(1, q))
            ok &= abs(tot_s - 1) <= tails
    assert _report(4, ok, "densities sum to 1 (char to 1e-6, series within tails)")


def test_criterion_05_scaling_law():
    cfg = TruncationConfig(t_max=1000, n_max=1000, v_max=100_000, prime_cutoff=PMAX)
    ok = True
    worst = 0.0
    for g in (2, 5):
        dec = decompose(g)
        for a in range(9):
            _, dg = delta_general_series(dec, a, 9, cfg)
            sc = delta_prime_power(dec, a, 3, 2, "auto", cfg)
            diff = abs(dg.value - sc.value)
            worst = max(worst, diff)
            ok &= diff <= dg.error_bound + sc.error_bound
    assert _report(
        5, ok, f"general series at d=9 matches q^(1-j)-scaled level 3, worst {worst:.2e}"
    )


def test_criterion_06_genericity():
    dec = decompose(7)
    worst = 0.0
    for a in (1, 2):
        cf = delta_charform(dec, a, 3, PMAX)
        av = delta_avg(a, 3, CFG)
        worst = max(worst, abs(cf.value - av.value))
    ok = worst < 1e-12
    assert _report(
        6, ok, f"g=7, q=3: char form collapses to the g-free average, worst {worst:.2e}"
    )


def _empirical_tables():
    if "emp" not in _cache:
        t0 = time.perf_counter()
        joint2 = count_joint(2, 3, 3, X_EMP)
        counts2 = {}
        for (_, a2), c in joint2.counts.items():
            counts2[a2] = counts2.get(a2, 0) + c
        table8 = count_residues(8, 3, X_EMP)
        _cache["emp"] = (joint2, counts2, table8, time.perf_counter() - t0)
    return _cache["emp"]


def test_criterion_07_empirical_densities():
    joint2, counts2, table8, elapsed = _empirical_tables()
    ok = elapsed < 120.0
    considered = joint2.primes_considered
    for g, counts, total in ((2, counts2, considered), (8, table8.counts, table8.primes_considered)):
        dec = decompose(g)
        preds = {0: delta_g_zero_class(dec, 3).value}
        for a in (1, 2):
            preds[a] = delta_charform(dec, a, 3, PMAX).value
        for a in range(3):
            dev = abs(counts.get(a, 0) / total - preds[a])
            ok &= dev < 0.002
    ok &= abs(counts2[0] / considered - 0.375) < 0.002
    ok &= abs(table8.counts[0] / table8.primes_considered - 0.125) < 0.002
    assert _report(
        7,
        ok,
        f"x=1e7 counts for g=2,8 within 0.002 of predictions (sieve {elapsed:.0f}s)",
    )


def test_criterion_08_joint_empirical():
    joint2, _, _, _ = _empirical_tables()
    freq = joint2.counts.get((1, 0), 0) / joint2.primes_considered
    dev = abs(freq - 0.375)
    ok = dev < 0.002
    assert _report(
        8, ok, f"N_2(1,3;0,3)(1e7) frequency {freq:.5f} vs 3/8, dev {dev:.2e}"
    )


ARTIN_REFERENCE = 0.37395581361920228805  # independent prime-zeta evaluation


def test_criterion_09_constants():
    ok = True
    for q in (3, 5, 7):
        av = a_chi(character_group(q).principal, PMAX)
        ok &= av.value == 1 and av.tail_bound == 0.0
    art = artin_constant(PMAX)
    dev = abs(art.value - ARTIN_REFERENCE)
    ok &= dev < 1e-6
    assert _report(
        9, ok, f"A_chi0 = 1 exactly; Artin constant dev {dev:.2e} at P=1e7"
    )


def test_criterion_10_oracle_suites():
    ok = True
    # Kronecker vs Legendre enumeration, all odd primes < 200
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            ok &= kronecker(a, p) == (1 if a in squares else -1)
    # C_chi Euler product vs direct truncated summation (h<=4, r<=15, s<=12)
    from ordense.sieve import tables

    spf = spf_table(200_000).tolist()
    phi = tables(200_000)[0][:200_001].tolist()
    cases = [(3, 1, 3, 1), (3, 2, 3, 4), (3, 4, 15, 2), (5, 1, 5, 12), (7, 4, 7, 6), (9, 2, 9, 8)]
    for q, h, r, s in cases:
        for chi in character_group(q):
            euler = c_chi(chi, h, r, s, 10**6)
            direct = 0j
            for v in range(s, 200_001, s):
                if math.gcd(v, r) != 1:
                    continue
                acc = 1 + 0j
                m = v
                while m > 1 and acc != 0:
                    pp = spf[m]
                    e = 0
                    while m % pp == 0:
                        m //= pp
                        e += 1
                    cc = chi(pp)
                    acc *= cc ** (e - 1) * (cc - 1) if cc != 0 else (-1 if e == 1 else 0)
                if acc != 0:
                    direct += acc * math.gcd(h, v) / (v * phi[v])
            tail = 6.0 * h * math.log(200_000) / 200_000
            ok &= abs(euler.value - direct) <= tail + euler.tail_bound
    # hand table of (p, ord_2(p)) for p <= 19
    from ordense.empirical import sieve_orders

    hand = {3: 2, 5: 4, 7: 3, 11: 10, 13: 12, 17: 8, 19: 18}
    got = {r.p: r.ord for r in sieve_orders(2, 19)}
    ok &= got == hand
    assert _report(10, ok, "Kronecker/Legendre, C_chi direct-sum, and order hand-table oracles")


def test_criterion_11_sign_symmetry():
    worst = 0.0
    for g in (2, 6, 10):
        for q in (3, 5):
            dp = decompose(g)
            dn = decompose(-g)
            for a in range(1, q):
                worst = max(
                    worst,
                    abs(
                        delta_charform(dp, a, q, PMAX).value
                        - delta_charform(dn, a, q, PMAX).value
                    ),
                )
    ok = worst < 1e-12
    assert _report(11, ok, f"delta_g = delta_(-g) for odd h with 8 | D(g), worst {worst:.2e}")
