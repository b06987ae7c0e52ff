import math

import numpy as np
import pytest

from ordense.sieve import sieve_primes

# unit tests run Euler products at a smaller cutoff than the defaults;
# the acceptance suite uses the full spec settings
UNIT_PMAX = 10**6


def spf_table(limit):
    """Smallest prime factor of 0..limit as an int64 array, spf[1] = 1.

    The factoring table of the scalar oracles; the package itself keeps none.
    """
    spf = np.arange(limit + 1, dtype=np.int64)
    # largest prime first, so each composite keeps its smallest prime factor
    for p in sieve_primes(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    return spf


@pytest.fixture(scope="session")
def pmax():
    return UNIT_PMAX
