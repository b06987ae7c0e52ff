import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import spf_table

import ordense.series as series
from ordense.arith import (
    discriminant_sqrt,
    euler_phi,
    factorize,
    kronecker,
    moebius,
    nu2,
    odd_prime_power,
)
from ordense.characters import a_chi, c_chi, character_group
from ordense.charform import _bsum, _charform_pair
from ordense.decomp import decompose, n_r
from ordense.density import (
    DensityValue,
    TruncationConfig,
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
from ordense.empirical import compare
from ordense.kummer import (
    UNSUPPORTED,
    _eps2,
    entanglement_coefficient,
    intersection_degree,
    kummer_degree,
)
from ordense.series import _level_q_accumulators
from ordense.sieve import tables

CFG = TruncationConfig(t_max=600, n_max=600, v_max=30_000, prime_cutoff=10**6)


def _table_lists(limit):
    """(phi, mu) indexed 0..limit as lists, for the scalar oracles."""
    return [x[: limit + 1].tolist() for x in tables(limit)]


def test_zero_class_closed_forms():
    assert delta_g_zero_class(decompose(2), 3).exact == Fraction(3, 8)
    assert delta_g_zero_class(decompose(8), 3).exact == Fraction(1, 8)
    assert delta_g_zero_class(decompose(2), 5).exact == Fraction(5, 24)
    assert delta_g_zero_class(decompose(2**9), 3).exact == Fraction(1, 24)
    with pytest.raises(ValueError):
        delta_g_zero_class(decompose(2), 2)


def test_zero_class_refuses_composite_modulus():
    with pytest.raises(ValueError, match="15 is not prime"):
        delta_g_zero_class(decompose(2), 15)


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
    _, mu = _table_lists(v_max)
    counts = [[0] * q for _ in range(v_max + 1)]
    for t in range(1, v_max + 1):
        for v in range(t, v_max + 1, t):
            counts[v][t % q] += mu[v // t]
    return counts


def test_remark_rewrite_consistency():
    # the sqrt(q*)-restricted accumulator equals the smooth-weight rewrite
    # sum_v M_r(v) * (2/[K(qv,v):Q] - 2/((q-1)[K(v,v):Q])) over v coprime to q
    v_max = 20_000
    phi, _ = _table_lists(v_max)
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


def _level_q_oracle(dec, q, v_max):
    """The scalar v loop of the level-q accumulators: (acc1, acc2).

    One kummer_degree call per v, its squarefree divisors listed from spf,
    and the sqrt(q*) condition written out, summed in increasing v.
    """
    spf = spf_table(v_max).tolist()
    phi, _ = _table_lists(v_max)
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
        has_sqrt = qdivD and v % n1q == 0 and not (neg and v % 2 == 0 and v % hc2 != 0)
        counts = [0] * q
        divs = [(1, 1)]
        rest = v
        while rest > 1:
            p = spf[rest]
            divs += [(d0 * p, -s0) for d0, s0 in divs]
            while rest % p == 0:
                rest //= p
        for d0, s0 in divs:
            counts[(v // d0) % q] += s0
        for r in range(q):
            cnt = counts[r]
            if cnt:
                acc1[r] += cnt * w1
                if has_sqrt:
                    acc2[r] += cnt * w1
    return acc1, acc2


_LEVEL_Q_G = (2, -2, -3, 4, -4, 5, 8, -8, 9, 12, Fraction(1, 2), -27)


def _fresh_accumulators(dec, q, v_max):
    _level_q_accumulators.cache_clear()
    return _level_q_accumulators(dec, q, v_max)


def test_level_q_matches_scalar_oracle():
    # every class of both accumulators, exactly: the blocks sum in v order
    for g in _LEVEL_Q_G:
        dec = decompose(g)
        for q in (3, 5, 7, 11, 13):
            for v_max in (1, 2, 100, 5000):
                want = _level_q_oracle(dec, q, v_max)
                assert _fresh_accumulators(dec, q, v_max) == want, (g, q, v_max)


@pytest.mark.parametrize("rows", [1, 7])
def test_level_q_small_blocks(monkeypatch, rows):
    # blocks of 1 and 7 values of v, some of them left empty by v = 0 (mod q)
    for g in _LEVEL_Q_G:
        dec = decompose(g)
        for q in (3, 5, 7, 11, 13):
            monkeypatch.setattr(series, "V_CELLS", rows * max(q, 16))
            want = _level_q_oracle(dec, q, 150)
            assert _fresh_accumulators(dec, q, 150) == want, (rows, g, q)


def test_level_q_exact_beyond_int64():
    # n_1 has 93 to 96 bits here, so the eps and sqrt(q*) keys need Python
    # ints; q | D(g0) for the first two
    big = Fraction(2**61 - 1, 2**31 - 1)
    for g, q in ((3 * big, 3), (-3 * big, 3), (big, 5), (-big, 7)):
        dec = decompose(g)
        assert n_r(dec, 1) >= 1 << 63
        want = _level_q_oracle(dec, q, 3000)
        assert _fresh_accumulators(dec, q, 3000) == want, g


def test_level_q_large_modulus():
    # blocks of 16 values of v against 1009 classes
    for g in (2, -3):
        dec = decompose(g)
        want = _level_q_oracle(dec, 1009, 2000)
        assert _fresh_accumulators(dec, 1009, 2000) == want, g


@pytest.mark.parametrize("rows", [1, 7, None])
def test_class_counts_match_divisor_sieve(monkeypatch, rows):
    # every block the accumulators form, of 1 or 7 values of v or of the
    # default size, against the divisor sieve; among them empty blocks (every
    # v a multiple of q), the block holding v = 1, and blocks that begin or
    # end on a square s^2, where the pair (s, s) counts once
    class_counts = series._class_counts
    seen = []

    def record(v, q, mu):
        got = class_counts(v, q, mu)
        seen.append((v.tolist(), got))
        return got

    monkeypatch.setattr(series, "_class_counts", record)
    squares = {s * s for s in range(2, 55)}
    kinds = set()
    for q in (3, 5, 7, 11, 13, 1009):
        if rows:
            monkeypatch.setattr(series, "V_CELLS", rows * max(q, 16))
        want = _mobius_class_counts(q, 3000)
        seen.clear()
        _fresh_accumulators(decompose(2), q, 3000)
        assert sum(len(v) for v, _ in seen) == 3000 - 3000 // q, q
        for v, got in seen:
            assert got.dtype == np.float64 and got.shape == (len(v), q), (q, v)
            assert got.tolist() == [want[x] for x in v], (q, v)
            if not v:
                kinds.add("empty")
                continue
            hits = (("one", v[0] == 1), ("first", v[0] in squares), ("last", v[-1] in squares))
            kinds.update(kind for kind, hit in hits if hit)
    assert kinds == ({"empty"} if rows == 1 else set()) | {"one", "first", "last"}


def test_level_q_acc2_zero_unless_q_divides_disc():
    # q does not divide D(g0) = 8 at g = 2, so no v has sqrt(q*) in K(v, v):
    # acc2 is +0.0 in every class and the correction leaves delta0 as it is
    dec = decompose(2)
    cfg = TruncationConfig(v_max=5000)
    for q in (3, 5, 7):
        assert dec.disc_g0 % q
        _, acc2 = _fresh_accumulators(dec, q, cfg.v_max)
        assert acc2 == [0.0] * q and all(math.copysign(1, x) == 1 for x in acc2), q
        for a in range(1, q):
            d0, d = delta_level_q_series(dec, a, q, cfg)
            assert d0.value == d.value, (q, a)


def test_level_q_second_class_reads_the_cache():
    # the accumulators hold every class mod q, so a second class sums nothing
    _level_q_accumulators.cache_clear()
    dec = decompose(2)
    cfg = TruncationConfig(v_max=2000)
    delta_level_q_series(dec, 1, 7, cfg)
    delta_level_q_series(dec, 2, 7, cfg)
    info = _level_q_accumulators.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_charform_second_class_reads_the_cache():
    # at q = 7 and g = 2 the first class builds C_chi(1, 7, 1) and
    # C_chi(1, 7, 8) for each of the 6 characters, each from one A_chi; the
    # second class reads every one of them
    for fn in (a_chi, c_chi):
        fn.cache_clear()
    dec = decompose(2)
    delta_charform(dec, 1, 7, 10**5)
    first = (a_chi.cache_info().misses, c_chi.cache_info().misses)
    delta_charform(dec, 2, 7, 10**5)
    assert first == (6, 12)
    assert (a_chi.cache_info().misses, c_chi.cache_info().misses) == first
    assert c_chi.cache_info().hits == 12


@pytest.mark.parametrize("d", [9, 25, 27, 49, 81, 121, 125, 243])
def test_prime_power_zero_class_is_exact(d):
    # the value is the rescaled rational rounded once: rescaling the float
    # of delta_g(0, q) rounds twice, and at d = 25 and 49 missed float(exact)
    q, s = odd_prime_power(d)
    for g in (2, 3, -3, 5, Fraction(1, 2)):
        want = delta_g_zero_class(decompose(g), q).exact / q ** (s - 1)
        for a in (0, q):
            got = evaluate_density(g, a, d)
            assert got.exact == want and got.value == float(want), (g, a)


def test_level_q_memory_bounded():
    # whole-range lists of phi and mu at v_max = 1e6 would take tens of MB;
    # the blocks keep the peak of the Python heap under 4 MB (q = 13 fills
    # more cells per block than q = 3)
    tables(10**6)
    _level_q_accumulators.cache_clear()
    tracemalloc.start()
    try:
        _level_q_accumulators(decompose(2), 13, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


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
                        if g == -4 and _eps2(dec, kr, k) == 1:  # eps = 1/2
                            half += 1
                cfg = TruncationConfig(t_max=T, n_max=N)
                assert delta_general_series(dec, a, d, cfg)[0].value == total, (g, d, a)
    assert half  # g = -4 reaches the half-degree branch


def _kept_n(a, d, N):
    """(n, mu(n), lcm(d, n), phi(lcm(d, n))) over squarefree n <= N with gcd(n, d) | a."""
    phi, mu = _table_lists(N)
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
    phi, _ = _table_lists(max(T, N))
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
    # blocks of 1 and 7 pairs end in the middle of a t's run of n; the memo
    # is cleared so that each block size sums afresh
    cases = [(g, d, a) for g in (2, -4, Fraction(1, 2)) for d in (6, 8) for a in range(d)]
    want = {c: _general_series_oracle(decompose(c[0]), c[2], c[1], 40, 40) for c in cases}
    for block in (1, 7):
        monkeypatch.setattr(series, "BLOCK", block)
        series._general_sums.cache_clear()
        for g, d, a in cases:
            assert _series_outputs(decompose(g), a, d, 40, 40) == want[g, d, a], (block, g, d, a)


def _cold_outputs(dec, a, d, T, N):
    series._general_sums.cache_clear()
    return _series_outputs(dec, a, d, T, N)


@pytest.mark.parametrize("block, T", [(1, 12), (7, 12), (series.BLOCK, 30)])
def test_general_series_shared_pass_matches_cold_classes(monkeypatch, block, T):
    # a class summed alone (memo cleared) and the same class read from the
    # pass a second class runs over class 0's pairs for every class agree
    # bit for bit, and with the scalar loop
    monkeypatch.setattr(series, "BLOCK", block)
    N = T
    bracketed = 0
    for g in (2, -4, Fraction(1, 2), 5, -7, 21, -15):
        dec = decompose(g)
        for d in (4, 6, 8, 10, 12, 15, 24):
            cold = [_cold_outputs(dec, a, d, T, N) for a in range(d)]
            series._general_sums.cache_clear()
            shared = [_series_outputs(dec, a, d, T, N) for a in (0, 1)]
            assert len(series._general_sums(dec, d, T, N)) == d
            shared += [_series_outputs(dec, a, d, T, N) for a in range(2, d)]
            for a in range(d):
                want = _general_series_oracle(dec, a, d, T, N)
                assert cold[a] == shared[a] == want, (g, d, a)
                bracketed += want[2] is not None
    assert bracketed


def _counting_pair_blocks(monkeypatch):
    """Wraps series._pair_blocks; the list it returns gets the pairs each pass visits."""
    visited = []
    pair_blocks = series._pair_blocks

    def counting(*args):
        *arrays, blocks = pair_blocks(*args)

        def tally():
            for block in blocks:
                visited[-1] += len(block[2])
                yield block

        visited.append(0)
        return (*arrays, tally())

    monkeypatch.setattr(series, "_pair_blocks", counting)
    return visited


def _class_pairs(a, d, T, N):
    """|T_a| * |N_a|, the (t, n) pairs of class a."""
    ta = sum(math.gcd(1 + t * a, d) == 1 for t in range(1, T + 1))
    na = sum(moebius(n) != 0 and a % math.gcd(n, d) == 0 for n in range(1, N + 1))
    return ta * na


def test_general_series_single_class_stays_single(monkeypatch):
    # a cold class-1 request at d = 6 visits class 1's pairs, |T_1| * |N_1|
    # of them, and fills no other class
    T = N = 300
    visited = _counting_pair_blocks(monkeypatch)
    series._general_sums.cache_clear()
    dec = decompose(2)
    delta_general_series(dec, 1, 6, TruncationConfig(t_max=T, n_max=N))
    assert visited == [_class_pairs(1, 6, T, N)]
    assert list(series._general_sums(dec, 6, T, N)) == [1]


@pytest.mark.parametrize("d, cap", [(6, 5), (3 * 2**42, series.SHARED_CLASSES)])
def test_general_series_above_shared_classes_sums_each_class_alone(monkeypatch, d, cap):
    # above SHARED_CLASSES every class asked for is summed alone over its
    # own pairs, the second and third too, and the memo holds only those
    # classes: at d = 3 * 2^42 a list of every class could not be built
    monkeypatch.setattr(series, "SHARED_CLASSES", cap)
    visited = _counting_pair_blocks(monkeypatch)
    series._general_sums.cache_clear()
    dec = decompose(2)
    T = N = 40
    asked = [1, 0, 5]
    for a in asked:
        assert _series_outputs(dec, a, d, T, N) == _general_series_oracle(dec, a, d, T, N), a
    assert visited == [_class_pairs(a, d, T, N) for a in asked]
    assert sorted(series._general_sums(dec, d, T, N)) == sorted(asked)


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
    assert series._terms(mun, deg).tolist() == [1 / D, -1 / D, 1 / 6]


def test_general_series_memory_bounded():
    # the 5.5e6 pairs at T = N = 3000 would need hundreds of MB as whole
    # arrays; the blocks keep the peak of the Python heap under 4 MB
    cfg = TruncationConfig(t_max=3000, n_max=3000)
    tables(3000)
    series._general_sums.cache_clear()
    tracemalloc.start()
    try:
        # class 0 alone, then every class in one pass
        delta_general_series(decompose(2), 0, 6, cfg)
        delta_general_series(decompose(2), 1, 6, cfg)
        peak = tracemalloc.get_traced_memory()[1]
        # then the most classes one pass fills, whose memo stays under the
        # bound as well
        d = series.SHARED_CLASSES
        small = TruncationConfig(t_max=12, n_max=12)
        tracemalloc.reset_peak()
        delta_general_series(decompose(2), 0, d, small)
        delta_general_series(decompose(2), 1, d, small)
        peak_d = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert peak_d < 4 * 2**20, peak_d
    assert len(series._general_sums(decompose(2), d, 12, 12)) == d


def _avg_series_oracle(a, d, T, N):
    """The scalar (t, n) loop of delta_avg's g-free series."""
    a %= d
    phi, _ = _table_lists(max(T, N))
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
                if intersection_degree(dec, 3, v) == 2:
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


def test_prime_power_rejects_unknown_method():
    # the zero class once took the closed form and the class 1 reported a
    # missing closed form, both hiding the bad method
    dec = decompose(2)
    for a in (0, 1):
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            delta_prime_power(dec, a, 3, 1, method="bogus")


def test_prime_power_series_rescales_level_q():
    # method "series" at 9 rescales the level-3 v-series (a != 0 mod 3) or
    # j-series (a = 0 mod 3); evaluate_density's series route at 9 is the
    # (t, n) double series instead
    dec = decompose(2)
    cfg = TruncationConfig(t_max=60, n_max=60, v_max=2000)
    for a in (0, 1, 3, 5):
        val = delta_prime_power(dec, a, 3, 2, "series", cfg)
        base = delta_level_q_series(dec, a, 3, cfg)[1] if a % 3 else zero_class_series(dec, 3)
        assert val.method == "scaled", a
        assert (val.value, val.error_bound) == (base.value / 3, base.error_bound / 3), a
        series = evaluate_density(2, a, 9, "series", cfg)
        assert series == delta_general_series(dec, a, 9, cfg)[1], a


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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda dec: evaluate_density(2, 1, 3, "bogus"), "unknown method 'bogus'", id="method"
        ),
        pytest.param(
            lambda dec: delta_level_q_series(dec, 0, 3), "series form needs q coprime", id="level_q"
        ),
        pytest.param(
            lambda dec: delta_charform(dec, 3, 3), "character form needs q coprime", id="charform"
        ),
        pytest.param(lambda dec: delta_avg(1, 1), "modulus must be at least 2", id="avg-d"),
        pytest.param(
            lambda dec: delta_avg(1, 3, method="char"), "supports methods 'auto'", id="avg-method"
        ),
        pytest.param(lambda dec: delta_prime_power(dec, 1, 3, 0), "s must be >= 1", id="s"),
        pytest.param(
            lambda dec: delta_general_series(dec, 1, 1), "modulus must be at least 2", id="general"
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call(decompose(2))


def test_negative_even_exponent_flagged():
    dec = decompose(-4)
    val = delta_charform(dec, 1, 3, CFG.prime_cutoff)
    assert not val.rigorous  # cross-check-required branch
    ref = delta_level_q_series(dec, 1, 3, CFG)[1]
    assert abs(val.value - ref.value) < 3e-6


def test_spec_and_config_types():
    with pytest.raises(ValueError):
        TruncationConfig(t_max=0)


def test_composite_modulus_brackets_hold_the_sieve():
    # the honesty of the brackets, not their midpoints, which can lie far
    # outside the tolerance: every class's [lo - tol, hi + tol] (a point
    # result's [value - tol, value + tol]) holds the frequency sieved to 1e6,
    # with tol the tolerance of compare
    cfg = TruncationConfig(t_max=300, n_max=300)
    for g in (2, -2, 3, -3, -4, 12, Fraction(1, 2), 9):
        dec = decompose(g)
        for d in (4, 6, 8, 12):
            vals = [delta_general_series(dec, a, d, cfg)[1] for a in range(d)]
            rep = compare(g, d, 10**6, vals)
            tol = rep["tolerance"]
            for val, row in zip(vals, rep["classes"]):
                lo = val.value if val.lo is None else val.lo
                hi = val.value if val.hi is None else val.hi
                assert lo - tol <= row["frequency"] <= hi + tol, (g, d, row["a"])
