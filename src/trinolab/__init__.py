"""Exact computational toolkit for permutation trinomials over GF(3^2k)."""

from .gf3m import (DEFAULT_MAX_K, FieldCtx, SpecialConstants, ctx_create,
                   default_modulus, format_modulus, parse_element, parse_modulus,
                   primitive_element, solve_epsilon, solve_theta)
from .permtest import MapReport, is_bijection_on, mu_enumerate, zieve_criterion
from .polyring import Poly, poly_gcd, pow_mod, quadratic_factors, roots_in_set
from .conjlab import (ExclusionReport, FractionalMap, LemmaCase,
                      QuadFactorWitness, SweepReport, SweepRow, TrinomialSpec,
                      UVReport, UVWitness, VerificationError,
                      count_solutions_quintic, count_solutions_septic,
                      denominator_nonvanishing, distinct_root_exclusion,
                      fiber_polynomial, fractional_map, g_permutes_mu,
                      harvest_witnesses, sweep, trinomial_decompose,
                      trinomial_family, trinomial_map, uv_identity_check)

__version__ = "0.1.0"
