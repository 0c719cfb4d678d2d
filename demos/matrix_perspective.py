#!/usr/bin/env python3
"""The matrix perspective g(L, R) = f(L R^-1) R and its joint convexity.

For commuting positive L, R the perspective is computed in the joint
eigenbasis. For non-commuting inputs the symmetrized formula
R^(1/2) f(R^-1/2 L R^-1/2) R^(1/2) takes over; on commuting inputs the
two agree to rounding error.
"""

import numpy as np

from opconvex import (CommutingPair, check_perspective_joint_convexity,
                      loewner_leq, lookup_atom, perspective_agreement_defect,
                      perspective_eigen, perspective_symmetrized,
                      random_commuting_pair)

f = lookup_atom("xlogx")

pair = random_commuting_pair(4, seed=1)
g = perspective_eigen(f, pair)
print("eigen-path perspective, spectrum:", np.round(np.linalg.eigvalsh(g.mat), 4))
print("path agreement defect:", perspective_agreement_defect(f, pair))
print()

# joint convexity: mix two pairs and compare against the mixed perspectives
pair2 = random_commuting_pair(4, seed=2)
for c in (0.25, 0.5, 0.75):
    verdict = check_perspective_joint_convexity(f, pair, pair2, c)
    print(f"c={c:4.2f}  g(mix) <= mix of g: {verdict.holds}  "
          f"slack={verdict.slack:.3e}")
print()

# the mixture of commuting pairs does not commute, which is the whole point
L = 0.5 * pair.left.mat + 0.5 * pair2.left.mat
R = 0.5 * pair.right.mat + 0.5 * pair2.right.mat
comm = np.max(np.abs(L @ R - R @ L))
print("commutator norm of the mixed pair:", f"{comm:.4f}")

g_mix = perspective_symmetrized(f, L, R)
avg = 0.5 * perspective_eigen(f, pair).mat + 0.5 * perspective_eigen(f, pair2).mat
print("Loewner gap eigenvalues:",
      np.round(np.linalg.eigvalsh(avg - g_mix.mat), 5))
print("(all nonnegative: the perspective lies below the average)")

# homogeneity: scaling both arguments scales the perspective
t = 3.0
scaled = CommutingPair(pair.basis, t * pair.lam, t * pair.mu)
diff = np.max(np.abs(perspective_eigen(f, scaled).mat - t * g.mat))
print("positive homogeneity defect at t=3:", diff)
