"""Identities between densities of different g and d, checked without the sieve.

Two facts about cyclic groups relate the order of g mod p to that of
another base: ord_p(g^k) = o/gcd(o, k), and for odd p, ord_p(-g) is 2o
when o is odd, o/2 when o = 2 (mod 4), and o when 4 | o, for o = ord_p(g).
Only finitely many p are excluded on either side, so

    delta_{g^k}(b, d) = sum of delta_g(a, dk) over a mod dk with a/gcd(a, k) = b (mod d),
    delta_{-g}(b, d)  = sum of delta_g(a, 4d) over a mod 4d whose sign image is b (mod d)

hold exactly.  The two sides go through different routes: another g (so
another h, D(g0) and eps split), another modulus, and often another family
(the character form at d against the double series at dk or 4d).  The maps
live here, outside every evaluator family.
"""

import math
from fractions import Fraction

import pytest

from ordense.density import TruncationConfig, evaluate_density

CUTOFF = 10**6


def _power_image(a: int, k: int) -> int:
    """The order of g^k from an order a of g: a/gcd(a, k), with gcd(0, k) = k."""
    return a // math.gcd(a, k)


def _sign_image(a: int) -> int:
    """The order of -g at an odd prime from an order a of g."""
    if a % 2:
        return 2 * a
    return a // 2 if a % 4 == 2 else a


def _sides(g, d, base, modulus, image, cfg):
    """For each class b mod d: (value of the left side, its bound, value of the
    right side, its bound), the left at g mod d and the right summed over the
    classes a mod modulus of base whose image is b mod d."""
    right = [evaluate_density(base, a, modulus, "auto", cfg) for a in range(modulus)]
    out = []
    for b in range(d):
        left = evaluate_density(g, b, d, "auto", cfg)
        terms = [right[a] for a in range(modulus) if image(a) % d == b]
        assert all(v.lo is None for v in [left, *terms]), (g, b, d)
        out.append(
            (
                left.value,
                left.error_bound,
                sum(v.value for v in terms),
                sum(v.error_bound for v in terms),
                all(v.rigorous for v in [left, *terms]),
            )
        )
    return out


def _power_map(g, k, d, cfg):
    return _sides(g**k, d, g, d * k, lambda a: _power_image(a, k), cfg)


def _sign_map(g, d, cfg):
    return _sides(-g, d, g, 4 * d, _sign_image, cfg)


def test_images_match_orders_mod_p():
    # the maps read the class of ord_p(g) mod dk (or 4d) and give the class
    # of the new base's order mod d, at every odd prime below 400
    for p in (q for q in range(3, 400, 2) if all(q % r for r in range(3, math.isqrt(q) + 1, 2))):
        for g in (2, 3, 5, 6):
            if g % p == 0:
                continue
            o = next(e for e in range(1, p) if pow(g, e, p) == 1)
            for k in (2, 3, 5):
                ok = next(e for e in range(1, p) if pow(g, k * e, p) == 1)
                for d in (3, 4, 5):
                    assert _power_image(o % (d * k), k) % d == ok % d, (p, g, k, d)
            om = next(e for e in range(1, p) if pow(-g, e, p) == 1)
            for d in (3, 4, 5):
                assert _sign_image(o % (4 * d)) % d == om % d, (p, g, d)


@pytest.mark.parametrize(
    "g, k, d",
    [(2, 3, 3), (3, 5, 5), (-3, 3, 3), (Fraction(1, 2), 3, 3), (5, 3, 3), (12, 3, 3),
     (2, 5, 5), (6, 7, 7)],
)
def test_power_map_at_odd_prime_powers(g, k, d):
    # both sides are character or closed forms at odd prime powers, rigorous,
    # so the identity holds within their summed bounds
    cfg = TruncationConfig(prime_cutoff=CUTOFF)
    for b, (left, left_err, right, right_err, rigorous) in enumerate(_power_map(g, k, d, cfg)):
        assert rigorous, (g, k, d, b)
        assert abs(left - right) <= left_err + right_err, (g, k, d, b)


def _gap(sides) -> float:
    return max(abs(left - right) for left, _, right, _, _ in sides)


@pytest.mark.parametrize(
    "identity",
    [
        pytest.param(lambda cfg: _power_map(5, 2, 3, cfg), id="power-5-2-3"),
        pytest.param(lambda cfg: _power_map(2, 3, 5, cfg), id="power-2-3-5"),
        pytest.param(lambda cfg: _sign_map(5, 3, cfg), id="sign-5-3"),
        # these three reach step (3) of c_g: sqrt(5) or sqrt(-7) lies in
        # K(v, v), and a coefficient (b|q) of the wrong sign leaves a gap of
        # 0.09 to 0.18 that does not shrink
        pytest.param(lambda cfg: _power_map(5, 2, 5, cfg), id="power-5-2-5"),
        pytest.param(lambda cfg: _sign_map(5, 5, cfg), id="sign-5-5"),
        pytest.param(lambda cfg: _power_map(-7, 2, 7, cfg), id="power-m7-2-7"),
    ],
)
def test_composite_identities_converge(identity):
    # the right side is a double series with heuristic bounds: a wrong
    # coefficient leaves a gap that does not shrink, truncation one that
    # falls like 1/T
    gaps = [
        _gap(identity(TruncationConfig(t_max=t, n_max=t, prime_cutoff=CUTOFF)))
        for t in (250, 1000)
    ]
    assert gaps[1] <= gaps[0] / 2, gaps
