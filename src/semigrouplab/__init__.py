"""Numerical laboratory for sequences of Fourier-multiplier generators.

Builds spectral multiplier realizations of generator families and their
once-integrated semigroups on periodic grids, solves regularized Cauchy
problems with distributional data, and measures moderateness, association,
growth bounds, and perturbation behavior of the resulting sequences.
"""

from .spectral import (Grid, GridFunction, DistributionRep, mollifier,
                       transform, inverse_transform, lp_norm, mollify)
from .symbols import (SymbolSeq, ModerateSeq, fit_moderate, constant_symbol_seq,
                      make_poly_symbol_seq, heat_symbol_seq, perturbed_heat_seq)
from .semigroup import (Evaluations, MultiplierOp, GrowthCertificate, phi,
                        laplace_identity_residual,
                        pseudoresolvent_residual, bromwich_S, certify_growth,
                        Level, generator_level, resolvent_level, semigroup_level,
                        derivative_level, operator_sups)
from .cauchy import (ForcingSeq, SliceSums, SpaceTimeTestFunction,
                     duhamel_solve, integral_equation_residual,
                     very_weak_pairing, weak_limit_extract,
                     bump_test_function)
from .association import (AssociationReport, check_association,
                          check_resolvent_norm_bounds, crosscheck_comparison_theorems,
                          bundled_test_sequences, bundled_family_pairs)
from .perturbation import perturbation_claims_suite

__version__ = "0.1.0"

__all__ = [
    "Grid", "GridFunction", "DistributionRep", "mollifier",
    "transform", "inverse_transform", "lp_norm", "mollify",
    "SymbolSeq", "ModerateSeq", "fit_moderate", "constant_symbol_seq",
    "make_poly_symbol_seq", "heat_symbol_seq", "perturbed_heat_seq",
    "Evaluations", "MultiplierOp", "GrowthCertificate", "phi",
    "laplace_identity_residual", "pseudoresolvent_residual", "bromwich_S",
    "certify_growth", "Level", "generator_level", "resolvent_level", "semigroup_level",
    "derivative_level", "operator_sups",
    "ForcingSeq", "SliceSums", "SpaceTimeTestFunction",
    "duhamel_solve", "integral_equation_residual",
    "very_weak_pairing", "weak_limit_extract",
    "bump_test_function",
    "AssociationReport",
    "check_association", "check_resolvent_norm_bounds",
    "crosscheck_comparison_theorems", "bundled_test_sequences", "bundled_family_pairs",
    "perturbation_claims_suite",
]
