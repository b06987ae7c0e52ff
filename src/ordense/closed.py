"""Exact closed forms at level q, and the value and truncation types every
evaluator family shares.

The closed forms are exact rationals: the zero class, delta_g(0, q) =
q^(1-nu_q(h)) / (q^2-1), and the stratum p = 1 (mod q), which no longer
depends on the class a.

They are primitives that every family may read, not a family the others
are checked against.  The level-q v-series (ordense.series) and the
character form (ordense.charform) both take their base term from
delta_joint_one_mod_q, so an error in it would move both alike and their
agreement would not show it.  The check on it is the sieve: the
p = 1 (mod q) rows of `ordense verify --d1 q --d q` compare it with
empirical.count_joint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import require_odd_prime, valuation
from .decomp import GDecomposition
from .sieve import DEFAULT_PRIME_CUTOFF, check_prime_cutoff

__all__ = [
    "TruncationConfig",
    "DensityValue",
    "delta_g_zero_class",
    "delta_joint_one_mod_q",
]

# largest sum truncations accepted: tables are sized by them
# (a process that builds tables(3 * 10**6) peaks near 110 MB)
_SUM_LIMIT = 10**7
_METHODS = ("series", "char_form", "closed_form", "scaled")


@dataclass(frozen=True)
class TruncationConfig:
    """Truncation points for the infinite sums and Euler products."""

    t_max: int = 10_000
    n_max: int = 10_000
    v_max: int = 100_000
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF

    def __post_init__(self):
        if min(self.t_max, self.n_max, self.v_max, self.prime_cutoff) < 1:
            raise ValueError("all truncation parameters must be >= 1")
        check_prime_cutoff(self.prime_cutoff)
        if max(self.t_max, self.n_max, self.v_max) > _SUM_LIMIT:
            raise ValueError("t_max, n_max and v_max must be <= 1e7")


DEFAULT_CONFIG = TruncationConfig()


@dataclass(frozen=True)
class DensityValue:
    """A density with an error bound, provenance, and optional exact value.

    rigorous=True means error_bound provably covers the numerical error
    (truncation tails of Euler products, float roundoff slack); heuristic
    series bounds set rigorous=False.  Closed forms carry the exact rational
    in .exact with error_bound 0.  When an evaluator cannot decide every
    term, .lo/.hi bracket the truncated sum and .value is their midpoint.
    """

    value: float
    error_bound: float
    rigorous: bool
    method: str
    exact: Fraction | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.error_bound < 0:
            raise ValueError("negative error bound")
        slack = self.error_bound + 1e-9
        if not -slack <= self.value <= 1 + slack:
            raise ValueError(f"density {self.value} outside [0, 1] by more than the bound")
        if self.exact is not None and float(self.exact) != self.value:
            raise ValueError("exact rational does not match value")


def delta_g_zero_class(dec: GDecomposition, q: int) -> DensityValue:
    """delta_g(0, q) = q^(1 - nu_q(h)) / (q^2 - 1), exact."""
    require_odd_prime(q)
    val = Fraction(q, q * q - 1) / q ** valuation(q, dec.h)
    return DensityValue(float(val), 0.0, True, "closed_form", exact=val)


def delta_joint_one_mod_q(dec: GDecomposition, q: int, a: int) -> DensityValue:
    """delta_g(1, q; a, q) for q not dividing a: independent of a, exact.

    Equals (1 - q^(1-nu_q(h))/(q+1)) / (q-1)^2.  For q | a the stratum is
    the whole zero class; use delta_g_zero_class instead.
    """
    require_odd_prime(q)
    if a % q == 0:
        raise ValueError("q divides a: the stratum equals the zero class")
    nu = valuation(q, dec.h)
    val = (1 - Fraction(q, (q + 1) * q**nu)) / (q - 1) ** 2
    return DensityValue(float(val), 0.0, True, "closed_form", exact=val)
