"""Scalar oracles for two mixing tags, from shared-basis operands.

When every operand of a mixing check is diagonal in one unitary basis U,
so is each mixture, and the matrix inequality reduces to scalar ones on
the spectra:
- rel-entropy: the slack is the classical joint-convexity gap of the
  spectra, c D(r1||s1) + (1-c) D(r2||s2) - D(r||s) of the mixed r and s;
- lieb-s: Tr(A^s K* B^(1-s) K) = sum_jk a_j^s b_k^(1-s) |K'_kj|^2 with
  K' = U* K U, and the slack is that form at the mixture less the mix of
  its values.
Each oracle is computed with ``math`` from the spectra (and |K'|^2), and
the slack ``check_*`` reports must match it far inside ``tolerance_used``.
So a kernel that decides the right verdict from a wrong value fails here
even where no campaign draw violates the theorem.
"""
import math

import numpy as np
import pytest

from opconvex import random_unitary
from opconvex.checks import (check_lieb_concavity,
                             check_relative_entropy_joint_convexity)

DIM = 3
DRAWS = 200
SEED = 20
S = 0.4
# |slack - oracle| / tolerance_used stays below this on unmutated kernels
ORACLE_BOUND = 1e-3


def _draws():
    """(U, four spectra, c, K) per draw: U Haar, each spectrum
    log-uniform on [0.1, 10], c uniform on [0, 1] and K complex Gaussian."""
    rng = np.random.default_rng(SEED)
    for _ in range(DRAWS):
        U = random_unitary(DIM, rng)
        spectra = np.exp(rng.uniform(math.log(0.1), math.log(10.0),
                                     (4, DIM))).tolist()
        c = float(rng.uniform())
        K = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal(
            (DIM, DIM))
        yield U, spectra, c, K


def _in_basis(U, w):
    return U @ np.diag(w) @ U.conj().T


def _mix(c, x, y):
    return [c * a + (1.0 - c) * b for a, b in zip(x, y)]


def _relative_entropy(r, s):
    return sum(p * (math.log(p) - math.log(q)) for p, q in zip(r, s))


def _rel_entropy_gap(U, spectra, c, K):
    r1, s1, r2, s2 = ([x / sum(w) for x in w] for w in spectra)
    verdict = check_relative_entropy_joint_convexity(
        *(_in_basis(U, w) for w in (r1, s1, r2, s2)), c)
    oracle = (c * _relative_entropy(r1, s1)
              + (1.0 - c) * _relative_entropy(r2, s2)
              - _relative_entropy(_mix(c, r1, r2), _mix(c, s1, s2)))
    return abs(verdict.slack - oracle) / verdict.tolerance_used


def _lieb_gap(U, spectra, c, K):
    a1, b1, a2, b2 = spectra
    weights = (np.abs(U.conj().T @ K @ U) ** 2).tolist()  # |K'_kj|^2

    def form(a, b):
        return sum(a[j] ** S * b[k] ** (1.0 - S) * weights[k][j]
                   for j in range(DIM) for k in range(DIM))

    verdict = check_lieb_concavity(
        *(_in_basis(U, w) for w in (a1, b1, a2, b2)), K, S, c)
    oracle = (form(_mix(c, a1, a2), _mix(c, b1, b2))
              - c * form(a1, b1) - (1.0 - c) * form(a2, b2))
    return abs(verdict.slack - oracle) / verdict.tolerance_used


ORACLES = {"rel-entropy-convexity": _rel_entropy_gap, "lieb-s": _lieb_gap}


def oracle_gaps(tag: str) -> list:
    """|slack - oracle| / tolerance_used of ``tag``'s check on each draw."""
    return [ORACLES[tag](*draw) for draw in _draws()]


@pytest.mark.parametrize("tag", ORACLES)
def test_slack_is_the_scalar_oracle(tag):
    assert max(oracle_gaps(tag)) <= ORACLE_BOUND
