"""Density evaluators for primes classified by the residue of ord_p(g) mod d.

Three families of evaluators, one module each, kept deliberately
independent so they can cross-check each other:

  closed forms   ordense.closed: exact rationals at level q, with the value
                 and truncation types every family shares;
  series         ordense.series: truncated sums over Kummer degrees;
  char forms     ordense.charform: linear combinations of Euler-product
                 constants over the character group mod q.

This module only routes a request to them, and re-exports their public
names.  evaluate_density rescales an odd prime power d = q^s
(arith.odd_prime_power) from level q through delta_prime_power, the one
place that picks a level-q route for a method; only method 'series' at
s > 1 takes the double series instead.  Any other d takes the double series.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import odd_prime_power, require_odd_prime
from .charform import delta_avg_charform, delta_charform
from .closed import (
    DEFAULT_CONFIG,
    DensityValue,
    TruncationConfig,
    delta_g_zero_class,
    delta_joint_one_mod_q,
)
from .decomp import GDecomposition, decompose
from .series import delta_avg_series, delta_general_series, delta_level_q_series, zero_class_series

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


def delta_avg(
    a: int,
    d: int,
    cfg: TruncationConfig = DEFAULT_CONFIG,
    method: str = "auto",
) -> DensityValue:
    """The g-free average density delta(a, d).

    For d an odd prime power q^s: exact q^(1-s) * q/(q^2-1) on the zero
    class, else the character closed form (charform.delta_avg_charform).
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
        if a % q == 0:
            val = Fraction(q, q * q - 1) / q ** (s - 1)
            return DensityValue(float(val), 0.0, True, "closed_form", exact=val)
        return delta_avg_charform(a, q, s, cfg.prime_cutoff)
    return delta_avg_series(a, d, cfg)


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
    require_odd_prime(q)
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
