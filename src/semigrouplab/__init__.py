"""Numerical laboratory for sequences of Fourier-multiplier generators.

Builds spectral multiplier realizations of generator families and their
once-integrated semigroups on periodic grids, solves regularized Cauchy
problems with distributional data, and measures moderateness, association,
growth bounds, and perturbation behavior of the resulting sequences.
"""

from .spectral import (Grid, GridFunction, DistributionRep, mollifier,
                       transform, inverse_transform, lp_norm, mollify)
from .symbols import (SymbolSeq, ModerateSeq, fit_moderate,
                      make_poly_symbol_seq, make_fractional_symbol_seq,
                      heat_symbol_seq, perturbed_heat_seq)
from .semigroup import (MultiplierOp, GrowthCertificate, phi, apply_S,
                        laplace_identity_residual,
                        pseudoresolvent_residual, bromwich_S, certify_growth)
from .cauchy import (ForcingSeq, MildSolutionSeq, SpaceTimeTestFunction,
                     duhamel_solve, solve_sequence, integral_equation_residual,
                     very_weak_pairing, weak_limit_extract,
                     bump_test_function)
from .association import (AssociationReport, check_association, generator_level,
                          resolvent_level, semigroup_level, derivative_level,
                          check_resolvent_norm_bounds, check_derivative_bounds,
                          crosscheck_comparison_theorems,
                          bundled_test_sequences, bundled_family_pairs)
from .perturbation import (BoundedMultiplierSeq, perturbation_claims_suite,
                           constant_coefficient_example)

__version__ = "0.1.0"

__all__ = [
    "Grid", "GridFunction", "DistributionRep", "mollifier",
    "transform", "inverse_transform", "lp_norm", "mollify",
    "SymbolSeq", "ModerateSeq", "fit_moderate",
    "make_poly_symbol_seq", "make_fractional_symbol_seq",
    "heat_symbol_seq", "perturbed_heat_seq",
    "MultiplierOp", "GrowthCertificate", "phi", "apply_S",
    "laplace_identity_residual", "pseudoresolvent_residual", "bromwich_S",
    "certify_growth",
    "ForcingSeq", "MildSolutionSeq", "SpaceTimeTestFunction",
    "duhamel_solve", "solve_sequence", "integral_equation_residual",
    "very_weak_pairing", "weak_limit_extract",
    "bump_test_function",
    "AssociationReport",
    "check_association", "generator_level", "resolvent_level", "semigroup_level",
    "derivative_level", "check_resolvent_norm_bounds", "check_derivative_bounds",
    "crosscheck_comparison_theorems", "bundled_test_sequences", "bundled_family_pairs",
    "BoundedMultiplierSeq", "perturbation_claims_suite",
    "constant_coefficient_example",
]
