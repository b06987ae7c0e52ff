"""ordense: densities of primes by the residue class of ord_p(g).

For a rational g outside {-1, 0, 1} and a residue class a mod d, the primes
p with multiplicative order ord_p(g) congruent to a mod d have a natural
density (conditional on GRH).  This package evaluates those densities to
certified precision through exact closed forms, truncated Kummer-degree
series and Dirichlet-character Euler products, and verifies them by
sieving and counting primes at desk scale.
"""

from .arith import (
    Factorization,
    discriminant_sqrt,
    euler_phi,
    factorize,
    is_prime,
    kronecker,
    moebius,
    parse_rational,
    valuation,
)
from .characters import (
    CharacterGroup,
    DirichletCharacter,
    EulerProductValue,
    a_chi,
    artin_constant,
    c_chi,
    character_group,
)
from .decomp import GDecomposition, decompose, n_r
from .density import (
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
from .empirical import (
    CountTable,
    OrderRecord,
    census_exceptional,
    compare,
    count_joint,
    count_residues,
    sieve_orders,
)
from .kummer import UNSUPPORTED, entanglement_coefficient, kummer_degree

__version__ = "0.1.0"
