"""Matrix perspectives of operator convex functions.

Functional calculus on Hermitian matrices, perspectives g(L, R) =
f(L R^-1) R for commuting positive pairs (eigen and symmetrized paths),
extended perspectives f(L / h(R)) h(R), superoperator realizations on
multiplication pairs, trace functionals built from them (quantum
relative entropy, two-parameter concave trace forms), and a seeded
randomized verifier for the convexity/concavity theorems the
constructions satisfy.
"""
from .atoms import (Interval, ScalarAtom, atom_names, eval_atom, list_atoms,
                    lookup_atom)
from .commuting import (CommutingPair, DEFAULT_FLOOR, MultiplicationPair,
                        apply_superop, log_quotient_identity_check,
                        make_commuting_pair, pair_from_matrices, quotient,
                        realize_multiplication_pair)
from .errors import (DomainViolation, EigendecompositionError,
                     HypothesisViolation)
from .functionals import (DensityMatrix, ProbabilityVector, classical_entropy,
                          classical_perspective, classical_relative_entropy,
                          lieb_functional, lieb_pq_functional,
                          quantum_relative_entropy_direct,
                          quantum_relative_entropy_perspective)
from .linalg import (HermitianMatrix, LoewnerVerdict, SpectralDecomposition,
                     apply_scalar_function, as_hermitian, as_matrix,
                     hermitian_from_json, hs_inner, loewner_leq,
                     matrix_from_json, matrix_to_json, op_norm,
                     spectral_decompose)
from .perspective import (check_path_agreement, extended_perspective_eigen,
                          extended_perspective_quadratic_form,
                          extended_perspective_symmetrized,
                          perspective_agreement_defect, perspective_eigen,
                          perspective_quadratic_form,
                          perspective_symmetrized)
from .checks import (check_classical_perspective_convexity,
                     check_extended_perspective_joint_convexity,
                     check_jensen_contractive, check_jensen_isometry,
                     check_lieb_concavity, check_lieb_pq_concavity,
                     check_perspective_joint_convexity,
                     check_relative_entropy_joint_convexity, scalar_geq)
from .verify import (CheckReport, THEOREM_TAGS, TrialConfig,
                     random_commuting_pair, random_contraction_pair,
                     random_density, random_hermitian_in_domain,
                     random_isometry_pair, random_positive_matrix,
                     random_probability_vector, random_unitary, run_campaign,
                     run_single, run_trial, trial_seed)

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "CommutingPair", "DEFAULT_FLOOR", "DensityMatrix",
    "DomainViolation", "EigendecompositionError", "HermitianMatrix",
    "HypothesisViolation", "Interval", "LoewnerVerdict",
    "MultiplicationPair", "ProbabilityVector", "ScalarAtom",
    "SpectralDecomposition", "THEOREM_TAGS", "TrialConfig",
    "apply_scalar_function", "apply_superop", "as_hermitian", "as_matrix",
    "atom_names", "check_classical_perspective_convexity",
    "check_extended_perspective_joint_convexity", "check_jensen_contractive",
    "check_jensen_isometry", "check_lieb_concavity",
    "check_lieb_pq_concavity", "check_path_agreement",
    "check_perspective_joint_convexity",
    "check_relative_entropy_joint_convexity", "classical_entropy",
    "classical_perspective", "classical_relative_entropy", "eval_atom",
    "extended_perspective_eigen", "extended_perspective_quadratic_form",
    "extended_perspective_symmetrized", "hermitian_from_json", "hs_inner",
    "lieb_functional", "lieb_pq_functional", "list_atoms", "loewner_leq",
    "log_quotient_identity_check", "lookup_atom", "make_commuting_pair",
    "matrix_from_json", "matrix_to_json", "op_norm", "pair_from_matrices",
    "perspective_agreement_defect", "perspective_eigen",
    "perspective_quadratic_form", "perspective_symmetrized",
    "quantum_relative_entropy_direct", "quantum_relative_entropy_perspective",
    "quotient", "random_commuting_pair", "random_contraction_pair",
    "random_density", "random_hermitian_in_domain", "random_isometry_pair",
    "random_positive_matrix", "random_probability_vector", "random_unitary",
    "realize_multiplication_pair", "run_campaign", "run_single", "run_trial",
    "scalar_geq", "spectral_decompose", "trial_seed",
]
