import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ordense.density as density
from ordense.arith import discriminant_sqrt, euler_phi, factorize, kronecker, moebius, nu2
from ordense.characters import a_chi, character_group
from ordense.decomp import decompose
from ordense.density import (
    DensityValue,
    TruncationConfig,
    _bsum,
    _charform_pair,
    _level_q_accumulators,
    zero_class_series,
    delta_avg,
    delta_charform,
    delta_level_q_series,
    delta_g_zero_class,
    delta_general_series,
    delta_joint_one_mod_q,
    delta_prime_power,
    evaluate_density,
)
from ordense.kummer import (
    UNSUPPORTED,
    entanglement_coefficient,
    epsilon,
    kummer_degree,
    sqrt_qstar_in_kvv,
)
from ordense.sieve import tables

CFG = TruncationConfig(t_max=600, n_max=600, v_max=30_000, prime_cutoff=10**6)


def _table_lists(limit):
    """(spf, phi, mu) indexed 0..limit as lists, for the scalar oracles."""
    return [x[: limit + 1].tolist() for x in tables(limit)]


def test_zero_class_closed_forms():
    assert delta_g_zero_class(decompose(2), 3).exact == Fraction(3, 8)
    assert delta_g_zero_class(decompose(8), 3).exact == Fraction(1, 8)
    assert delta_g_zero_class(decompose(2), 5).exact == Fraction(5, 24)
    assert delta_g_zero_class(decompose(2**9), 3).exact == Fraction(1, 24)
    with pytest.raises(ValueError):
        delta_g_zero_class(decompose(2), 2)


def test_classico_matches_closed_form():
    for g in (2, 3, 5, 8, 27, -2, -3, -4, Fraction(16, 81)):
        dec = decompose(g)
        for q in (3, 5, 7):
            cs = zero_class_series(dec, q)
            zc = delta_g_zero_class(dec, q)
            assert abs(cs.value - zc.value) < 1e-12, (g, q)
            assert cs.error_bound < 1e-15


def test_joint_one_mod_q():
    assert delta_joint_one_mod_q(decompose(2), 3, 1).exact == Fraction(1, 16)
    assert delta_joint_one_mod_q(decompose(8), 3, 2).exact == Fraction(3, 16)
    assert delta_joint_one_mod_q(decompose(2), 5, 2).exact == Fraction(1, 96)
    with pytest.raises(ValueError):
        delta_joint_one_mod_q(decompose(2), 3, 6)


def test_stratum_identity_exact():
    # delta_g(0,q) + (q-1) * delta_g(1,q;a,q) = 1/(q-1) as rationals
    for g in (2, 3, 5, 8, 27, -2, -3, -4):
        dec = decompose(g)
        for q in (3, 5, 7):
            lhs = (
                delta_g_zero_class(dec, q).exact
                + (q - 1) * delta_joint_one_mod_q(dec, q, 1).exact
            )
            assert lhs == Fraction(1, q - 1), (g, q)


def test_series_charform_agreement():
    # the full method-agreement panel, including q = 7 and powerful g
    for g in (2, 3, 5, 8, -2, -3, 6, 7, -4):
        dec = decompose(g)
        for q in (3, 5, 7):
            for a in range(1, q):
                d0s, ds = delta_level_q_series(dec, a, q, CFG)
                d0c, dc = _charform_pair(dec, a, q, CFG.prime_cutoff)
                assert abs(ds.value - dc.value) < 3e-6, (g, q, a)
                assert abs(d0s.value - d0c.value) < 3e-6, (g, q, a)
                assert abs(ds.value - dc.value) < ds.error_bound + dc.error_bound


def _charform_pair_generic(dec, a: int, q: int, prime_cutoff: int):
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


# exponent-free g: D(g) with 2-part 0, 2 and 3, both signs, and q | D(g)
# for every q of the panel (3 | D(-3), 5 | D(5), 7 | D(-7), ...)
_GENERIC_G = (
    *(2, 3, 5, 6, 7, 10, 11, 13, 15, 21, Fraction(1, 2), Fraction(2, 3)),
    *(-2, -3, -5, -6, -7, -10, -11, -13, -15, -21, Fraction(-1, 2), Fraction(-3, 5)),
)


def test_charform_routes_agree_for_generic_g():
    # at h = 1 the C_chi assembly must equal the explicit product form,
    # which shares only the A_chi engine with it
    two_parts = set()
    for g in _GENERIC_G:
        dec = decompose(g)
        assert dec.h == 1, g
        absd = abs(discriminant_sqrt(dec.g))
        two_parts.add(nu2(absd) if absd % 2 == 0 else 0)
        for q in (3, 5, 7, 11, 13):
            for a in range(1, q):
                ref = _charform_pair_generic(dec, a, q, CFG.prime_cutoff)
                got = _charform_pair(dec, a, q, CFG.prime_cutoff)
                for r, c in zip(ref, got):
                    diff = abs(r.value - c.value)
                    assert diff < 1e-12, (g, q, a)
                    assert c.rigorous and diff <= c.error_bound, (g, q, a)
    assert two_parts == {0, 2, 3}


def test_partition_sums_to_one():
    for g in (2, 5, -3, 8):
        dec = decompose(g)
        for q in (3, 5):
            tot_c = delta_g_zero_class(dec, q).value
            tot_s = tot_c
            for a in range(1, q):
                tot_c += delta_charform(dec, a, q, CFG.prime_cutoff).value
                tot_s += delta_level_q_series(dec, a, q, CFG)[1].value
            assert abs(tot_c - 1) < 1e-6, (g, q)
            assert abs(tot_s - 1) < _level_q_tail(dec, q), (g, q)


def _level_q_tail(dec, q):
    return 8.0 * dec.h * q / CFG.v_max * (q - 1) + 1e-9


def _mobius_class_counts(q, v_max):
    """M_r(v) = sum over t | v with t = r (mod q) of mu(v/t), by a divisor sieve."""
    _, _, mu = _table_lists(v_max)
    counts = [[0] * q for _ in range(v_max + 1)]
    for t in range(1, v_max + 1):
        for v in range(t, v_max + 1, t):
            counts[v][t % q] += mu[v // t]
    return counts


def test_remark_rewrite_consistency():
    # the sqrt(q*)-restricted accumulator equals the smooth-weight rewrite
    # sum_v M_r(v) * (2/[K(qv,v):Q] - 2/((q-1)[K(v,v):Q])) over v coprime to q
    v_max = 20_000
    _, phi, _ = _table_lists(v_max)
    for q in (3, 5):
        counts = _mobius_class_counts(q, v_max)
        for g in (5, -3, 27, 2):
            dec = decompose(g)
            smooth = [0.0] * q
            for v in range(1, v_max + 1):
                if v % q == 0:
                    continue
                deg_qv = kummer_degree(dec, q * v, v, (q - 1) * phi[v])
                deg_vv = kummer_degree(dec, v, v, phi[v])
                w = 2.0 / deg_qv - 2.0 / ((q - 1) * deg_vv)
                for r in range(q):
                    smooth[r] += counts[v][r] * w
            _, acc2 = _level_q_accumulators(dec, q, v_max)
            for r in range(q):
                assert abs(acc2[r] - smooth[r]) < 1e-12, (g, q, r)


def test_general_series_eps_copy_matches_kernel():
    # delta0 recomputed pair by pair with kummer_degree, over the series' own
    # (t, n) pairs in its order, so the float sums must agree exactly
    T = N = 60
    half = 0
    for g in (2, -3, 4, -4, 8, Fraction(1, 2), 12):
        dec = decompose(g)
        for d in (4, 6, 8, 9, 12):
            for a in (0, 1):
                total = 0.0
                for t in range(1, T + 1):
                    if math.gcd(1 + t * a, d) != 1:
                        continue
                    for n in range(1, N + 1):
                        mun = moebius(n)
                        if mun == 0 or a % math.gcd(n, d):
                            continue
                        kr, k = math.lcm(d, n) * t, n * t
                        total += mun / kummer_degree(dec, kr, k)
                        if g == -4 and epsilon(dec, kr, k) == Fraction(1, 2):
                            half += 1
                cfg = TruncationConfig(t_max=T, n_max=N)
                assert delta_general_series(dec, a, d, cfg)[0].value == total, (g, d, a)
    assert half  # g = -4 reaches the half-degree branch


def _kept_n(a, d, N):
    """(n, mu(n), lcm(d, n), phi(lcm(d, n))) over squarefree n <= N with gcd(n, d) | a."""
    _, phi, mu = _table_lists(N)
    out = []
    for n in range(1, N + 1):
        g1 = math.gcd(n, d)
        if mu[n] and a % g1 == 0:
            out.append((n, mu[n], d * n // g1, euler_phi(d) * phi[n] // euler_phi(g1)))
    return out


def _general_series_oracle(dec, a, d, T, N):
    """The scalar (t, n) loop of the double series: (delta0, delta, lo, hi).

    One kummer_degree and one entanglement_coefficient call per pair, in
    Python ints; lo and hi are None when no coefficient is UNSUPPORTED.
    """
    a %= d
    _, phi, _ = _table_lists(max(T, N))
    dprimes = [p for p, _ in factorize(d)]
    ns = _kept_n(a, d, N)
    total0 = total = lo = hi = 0.0
    for t in range(1, T + 1):
        b = 1 + t * a
        if math.gcd(b, d) != 1:
            continue
        td = 1
        rest = t
        for p in dprimes:
            while rest % p == 0:
                td *= p
                rest //= p
        for n, mun, ell, phil in ns:
            v = n * t
            g2 = math.gcd(ell, t)
            term = mun / kummer_degree(dec, ell * t, v, phil * phi[t] * g2 // phi[g2])
            total0 += term
            c = entanglement_coefficient(dec, b, d * td, v)
            if c is UNSUPPORTED:
                lo += min(0.0, term)
                hi += max(0.0, term)
            elif c:
                total += term
    if lo == 0.0 and hi == 0.0:
        return total0, total, None, None
    return total0, total + (lo + hi) / 2, total + lo, total + hi


def _series_outputs(dec, a, d, T, N):
    d0, dv = delta_general_series(dec, a, d, TruncationConfig(t_max=T, n_max=N))
    assert d0.lo is None and d0.hi is None
    return d0.value, dv.value, dv.lo, dv.hi


@pytest.mark.parametrize("g", [2, -2, -3, 4, -4, 8, Fraction(1, 2), 12, 9])
def test_general_series_matches_scalar_oracle(g):
    # every output of every class, exactly: the blocks sum in loop order
    dec = decompose(g)
    for d in (4, 6, 8, 9, 10, 12, 24):
        for a in range(d):
            assert _series_outputs(dec, a, d, 80, 80) == _general_series_oracle(
                dec, a, d, 80, 80
            ), (g, d, a)


def test_general_series_blocks_split_pairs_of_one_t(monkeypatch):
    # blocks of 1 and 7 pairs end in the middle of a t's run of n
    cases = [(g, d, a) for g in (2, -4, Fraction(1, 2)) for d in (6, 8) for a in range(d)]
    want = {c: _general_series_oracle(decompose(c[0]), c[2], c[1], 40, 40) for c in cases}
    for block in (1, 7):
        monkeypatch.setattr(density, "BLOCK", block)
        for g, d, a in cases:
            assert _series_outputs(decompose(g), a, d, 40, 40) == want[g, d, a], (block, g, d, a)


def test_general_series_exact_beyond_int64():
    # D(g0) has 92 bits, and d = 3 * 2^42 puts 2*d*(N*T)^2 above 2^63: both
    # need Python ints, where int64 raises OverflowError or wraps silently
    big_g = decompose(Fraction(2**61 - 1, 2**31 - 1))
    assert big_g.disc_g0.bit_length() == 92
    for dec, d in ((big_g, 6), (decompose(2), 3 * 2**42)):
        assert _series_outputs(dec, 1, d, 40, 40) == _general_series_oracle(dec, 1, d, 40, 40)


def test_series_terms_round_once():
    # 1/float(D) != 1/D for this D > 2^53: numpy would round twice
    D = 652208343242985395
    assert 1 / float(D) != 1 / D
    mun = np.array([1, -1, 1])
    deg = np.array([D, D, 6])
    assert density._terms(mun, deg).tolist() == [1 / D, -1 / D, 1 / 6]


def test_general_series_memory_bounded():
    # the 5.5e6 pairs at T = N = 3000 would need hundreds of MB as whole
    # arrays; the blocks keep the peak of the Python heap under 4 MB
    cfg = TruncationConfig(t_max=3000, n_max=3000)
    tables(3000)
    tracemalloc.start()
    try:
        delta_general_series(decompose(2), 0, 6, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def _avg_series_oracle(a, d, T, N):
    """The scalar (t, n) loop of delta_avg's g-free series."""
    a %= d
    _, phi, _ = _table_lists(max(T, N))
    ns = _kept_n(a, d, N)
    total = 0.0
    for t in range(1, T + 1):
        if math.gcd(1 + t * a, d) != 1:
            continue
        for n, mun, ell, phil in ns:
            g2 = math.gcd(ell, t)
            total += mun / (phil * phi[t] * g2 // phi[g2] * n * t)
    return total


def test_avg_series_matches_scalar_oracle():
    cfg = TruncationConfig(t_max=200, n_max=200)
    for d in (3, 4, 6, 12):
        for a in range(d):
            assert delta_avg(a, d, cfg, method="series").value == _avg_series_oracle(
                a, d, 200, 200
            ), (d, a)


def test_theorem_equality_when_q_does_not_divide_disc():
    # q not dividing D(g0) forces delta = delta0 exactly
    for g, q in ((2, 3), (2, 5), (5, 3), (8, 5)):
        dec = decompose(g)
        for a in range(1, q):
            d0, d = delta_level_q_series(dec, a, q, CFG)
            assert d0.value == d.value, (g, q, a)
            c0, c = _charform_pair(dec, a, q, CFG.prime_cutoff)
            assert abs(c0.value - c.value) < 1e-15


def test_correction_branch_fires():
    dec = decompose(5)
    hit = False
    for a in range(1, 5):
        d0, d = delta_level_q_series(dec, a, 5, CFG)
        if abs(d0.value - d.value) > 1e-4:
            hit = True
    assert hit  # 5 divides D(5) = 5: the sqrt(q*) correction is nonzero


def test_example_stratum_series_oracle():
    # the complementary stratum p = 2 (mod 3): direct v-sum over
    # sqrt(-3) not in K(v,v) of sum_{t = a (3), t | v} mu(v/t) / [K(3v,v):Q]
    from ordense.arith import moebius

    for g in (2, 5):
        dec = decompose(g)
        vmax = 4000
        for a in (1, 2):
            total = 0.0
            for v in range(1, vmax + 1):
                if v % 3 == 0:
                    continue
                if dec.disc_g0 % 3 == 0 and sqrt_qstar_in_kvv(dec, 3, 0, v):
                    continue
                inner = sum(
                    moebius(v // t) for t in range(1, v + 1) if v % t == 0 and t % 3 == a
                )
                if inner:
                    total += inner / kummer_degree(dec, 3 * v, v)
            ref = (
                delta_level_q_series(dec, a, 3, CFG)[1].value
                - delta_joint_one_mod_q(dec, 3, a).value
            )
            assert abs(total - ref) < 2e-3, (g, a, total, ref)


def test_trivial_class_equality_when_d_divides_a():
    # a = 0 (mod d) makes every congruence automorphism trivial: delta = delta0
    cfg = TruncationConfig(t_max=200, n_max=200)
    for g in (2, 5, -3):
        dec = decompose(g)
        for d in (6, 9, 15):
            d0, dv = delta_general_series(dec, 0, d, cfg)
            assert dv.lo is None
            assert d0.value == dv.value, (g, d)


def test_general_series_matches_level_q():
    cfg = TruncationConfig(t_max=600, n_max=600, v_max=30_000, prime_cutoff=10**6)
    for g in (2, -3):
        dec = decompose(g)
        for a in range(3):
            _, dg = delta_general_series(dec, a, 3, cfg)
            if a == 0:
                ref = delta_g_zero_class(dec, 3).value
            else:
                ref = delta_level_q_series(dec, a, 3, cfg)[1].value
            assert abs(dg.value - ref) < 2e-3, (g, a)
            assert abs(dg.value - ref) < dg.error_bound


def test_prime_power_scaling():
    dec = decompose(2)
    lvl = delta_charform(dec, 1, 3, CFG.prime_cutoff)
    sc = delta_prime_power(dec, 1, 3, 2, "auto", CFG)
    assert abs(sc.value - lvl.value / 3) < 1e-15
    assert sc.method == "scaled"
    assert delta_prime_power(dec, 1, 3, 1, "auto", CFG).method == "char_form"
    # exact zero-class scaling
    z9 = delta_prime_power(dec, 0, 3, 2, "auto", CFG)
    assert z9.exact == Fraction(1, 8)
    # partition over all classes mod 9
    tot = sum(delta_prime_power(dec, a, 3, 2, "auto", CFG).value for a in range(9))
    assert abs(tot - 1) < 1e-6


def test_general_series_scaling_law_d9():
    cfg = TruncationConfig(t_max=500, n_max=500, v_max=30_000, prime_cutoff=10**6)
    for g in (2, 5):
        dec = decompose(g)
        for a in (0, 1, 4, 7):
            _, dg = delta_general_series(dec, a, 9, cfg)
            sc = delta_prime_power(dec, a, 3, 2, "auto", cfg)
            assert abs(dg.value - sc.value) < dg.error_bound + sc.error_bound
            assert abs(dg.value - sc.value) < 2e-3, (g, a)


def test_avg_closed_values():
    assert delta_avg(0, 3).exact == Fraction(3, 8)
    assert delta_avg(0, 5).exact == Fraction(5, 24)
    assert delta_avg(0, 9).exact == Fraction(1, 8)
    v3 = delta_avg(1, 3, CFG)
    v9 = delta_avg(1, 9, CFG)
    assert abs(v9.value - v3.value / 3) < 1e-14  # one-prime rescaling
    tot = sum(delta_avg(a, 3, CFG).value for a in range(3))
    assert abs(tot - 1) < 1e-6
    tot9 = sum(delta_avg(a, 9, CFG).value for a in range(9))
    assert abs(tot9 - 1) < 1e-6


def test_avg_series_matches_char():
    cfg = TruncationConfig(t_max=800, n_max=800, prime_cutoff=10**6)
    for a in range(3):
        s = delta_avg(a, 3, cfg, method="series")
        c = delta_avg(a, 3, cfg)
        assert abs(s.value - c.value) < 2e-3, a
        assert abs(s.value - c.value) < s.error_bound


def test_genericity_annihilation():
    # 7 = 1 (mod 3) divides D(7) = 28, so chi(7) = 1 kills every correction
    dec = decompose(7)
    for a in (1, 2):
        cf = delta_charform(dec, a, 3, CFG.prime_cutoff)
        av = delta_avg(a, 3, CFG)
        assert abs(cf.value - av.value) < 1e-12, a
    assert delta_g_zero_class(dec, 3).exact == Fraction(3, 8)


def test_sign_symmetry():
    # odd h with 8 | D(g): delta_g = delta_(-g)
    for g in (2, 6, 10):
        for q in (3, 5):
            dp = decompose(g)
            dn = decompose(-g)
            for a in range(1, q):
                vp = delta_charform(dp, a, q, CFG.prime_cutoff)
                vn = delta_charform(dn, a, q, CFG.prime_cutoff)
                assert abs(vp.value - vn.value) < 1e-12, (g, q, a)


def test_limit_toward_average():
    # along 2, 10, 46, 226 (exponent-free, 8 | D) the distance to the
    # g-free average shrinks
    avg = {a: delta_avg(a, 3, CFG).value for a in (1, 2)}
    dists = []
    for g in (2, 10, 46, 226):
        dec = decompose(g)
        dists.append(
            max(abs(delta_charform(dec, a, 3, CFG.prime_cutoff).value - avg[a]) for a in (1, 2))
        )
    assert all(dists[i + 1] <= dists[i] + 1e-12 for i in range(len(dists) - 1)), dists
    assert dists[-1] < dists[0] / 4


def test_interval_output_for_two_adic_modulus():
    cfg = TruncationConfig(t_max=150, n_max=150)
    dec = decompose(2)
    n_intervals = 0
    lo = hi = 0.0
    for a in range(8):
        d0, dv = delta_general_series(dec, a, 8, cfg)
        if dv.lo is not None:
            n_intervals += 1
            assert dv.lo <= dv.value <= dv.hi
            lo += dv.lo
            hi += dv.hi
        else:
            lo += dv.value
            hi += dv.value
    assert n_intervals > 0
    assert lo - 8 * dv.error_bound <= 1 <= hi + 8 * dv.error_bound


def test_densityvalue_validation():
    with pytest.raises(ValueError):
        DensityValue(2.0, 0.0, True, "series")
    with pytest.raises(ValueError):
        DensityValue(0.5, -1.0, True, "series")
    with pytest.raises(ValueError):
        DensityValue(0.5, 0.0, True, "nonsense")
    with pytest.raises(ValueError):
        DensityValue(0.5, 0.0, True, "closed_form", exact=Fraction(1, 3))


def test_evaluate_density_dispatch():
    v = evaluate_density(2, 0, 3, "auto", CFG)
    assert v.method == "closed_form" and v.exact == Fraction(3, 8)
    v = evaluate_density(2, 1, 3, "auto", CFG)
    assert v.method == "char_form"
    v = evaluate_density(2, 1, 3, "series", CFG)
    assert v.method == "series"
    small = TruncationConfig(t_max=120, n_max=120)
    v = evaluate_density(2, 1, 15, "auto", small)
    assert v.method == "series"
    with pytest.raises(ValueError):
        evaluate_density(2, 1, 3, "closed", CFG)
    with pytest.raises(ValueError):
        evaluate_density(2, 1, 15, "char", CFG)
    with pytest.raises(ValueError):
        evaluate_density(1, 1, 3, "auto", CFG)


def test_negative_even_exponent_flagged():
    dec = decompose(-4)
    val = delta_charform(dec, 1, 3, CFG.prime_cutoff)
    assert not val.rigorous  # cross-check-required branch
    ref = delta_level_q_series(dec, 1, 3, CFG)[1]
    assert abs(val.value - ref.value) < 3e-6


def test_spec_and_config_types():
    with pytest.raises(ValueError):
        TruncationConfig(t_max=0)
