"""Matrix perspectives of operator convex functions.

Functional calculus on Hermitian matrices, perspectives g(L, R) =
f(L R^-1) R for commuting positive pairs (eigen and symmetrized paths),
extended perspectives f(L / h(R)) h(R), superoperator realizations on
multiplication pairs, trace functionals built from them (quantum
relative entropy, two-parameter concave trace forms), and a seeded
randomized verifier for the convexity/concavity theorems the
constructions satisfy.
"""
from .atoms import ScalarAtom, list_atoms, lookup_atom
from .commuting import CommutingPair, MultiplicationPair
from .errors import (DomainViolation, EigendecompositionError,
                     HypothesisViolation)
from .functionals import (DensityMatrix, classical_relative_entropy,
                          lieb_functional, lieb_pq_functional,
                          quantum_relative_entropy_direct,
                          quantum_relative_entropy_perspective)
from .linalg import (HermitianMatrix, LoewnerVerdict, apply_scalar_function,
                     loewner_leq)
from .perspective import (extended_perspective_quadratic_form,
                          perspective_agreement_defect, perspective_eigen,
                          perspective_quadratic_form, perspective_symmetrized)
from .checks import check_perspective_joint_convexity
from .verify import (CheckReport, THEOREM_TAGS, TrialConfig,
                     random_commuting_pair, random_density,
                     random_positive_matrix, random_unitary, run_campaign,
                     run_single)

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "CommutingPair", "DensityMatrix", "DomainViolation",
    "EigendecompositionError", "HermitianMatrix", "HypothesisViolation",
    "LoewnerVerdict", "MultiplicationPair", "ScalarAtom", "THEOREM_TAGS",
    "TrialConfig", "apply_scalar_function",
    "check_perspective_joint_convexity", "classical_relative_entropy",
    "extended_perspective_quadratic_form", "lieb_functional",
    "lieb_pq_functional", "list_atoms", "loewner_leq", "lookup_atom",
    "perspective_agreement_defect", "perspective_eigen",
    "perspective_quadratic_form", "perspective_symmetrized",
    "quantum_relative_entropy_direct", "quantum_relative_entropy_perspective",
    "random_commuting_pair", "random_density", "random_positive_matrix",
    "random_unitary", "run_campaign", "run_single",
]
