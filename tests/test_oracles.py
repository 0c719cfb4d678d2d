"""Scalar oracles for five mixing tags, from shared-basis operands.

When every operand of a mixing check is diagonal in one unitary basis U,
so is each mixture, and the matrix inequality reduces to scalar ones on
the spectra:
- rel-entropy: the slack is the classical joint-convexity gap of the
  spectra, c D(r1||s1) + (1-c) D(r2||s2) - D(r||s) of the mixed r and s;
- lieb-s and lieb-pq: Tr(A^x K* B^y K) = sum_jk a_j^x b_k^y |K'_kj|^2
  with K' = U* K U, (x, y) = (s, 1-s) or (q, p), and the slack is that
  form at the mixture less the mix of its values;
- perspective and marechal: the pairs (L_i, R_i) have eigenvalues
  (l_ij, m_ij) on U's j-th column, so the matrix gap is diagonal too,
  with entries d_j = c g(l_1j, m_1j) + (1-c) g(l_2j, m_2j) - g at the
  mixed (l_j, m_j), where g(l, m) = f(l / b(m)) b(m) with f = x log x and
  base b(m) = m (perspective) or m^T (marechal); the slack is min_j d_j.
Each oracle is computed with ``math`` from the spectra (and |K'|^2), and
the slack ``check_*`` reports must match it far inside ``tolerance_used``.
So a kernel that decides the right verdict from a wrong value fails here
even where no campaign draw violates the theorem.
"""
import math

import numpy as np
import pytest

from opconvex import CommutingPair, lookup_atom, random_unitary
from opconvex.checks import (check_extended_perspective_joint_convexity,
                             check_lieb_concavity, check_lieb_pq_concavity,
                             check_perspective_joint_convexity,
                             check_relative_entropy_joint_convexity)

DIM = 3
DRAWS = 200
SEED = 20
S = 0.4
P, Q = 0.3, 0.4
T = 0.5  # marechal's base exponent
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


def _trace_form_gap(check, exponents, x, y):
    """The gap of the Lieb form Tr(A^x K* B^y K) that ``check`` decides
    with ``exponents``."""
    def gap(U, spectra, c, K):
        a1, b1, a2, b2 = spectra
        weights = (np.abs(U.conj().T @ K @ U) ** 2).tolist()  # |K'_kj|^2

        def form(a, b):
            return sum(a[j] ** x * b[k] ** y * weights[k][j]
                       for j in range(DIM) for k in range(DIM))

        verdict = check(*(_in_basis(U, w) for w in (a1, b1, a2, b2)), K,
                        *exponents, c)
        oracle = (form(_mix(c, a1, a2), _mix(c, b1, b2))
                  - c * form(a1, b1) - (1.0 - c) * form(a2, b2))
        return abs(verdict.slack - oracle) / verdict.tolerance_used
    return gap


def _perspective_gap(check, atoms, base):
    """The gap of the perspective f(l / b(m)) b(m) of f = x log x with base
    ``base``, which ``check`` decides with ``atoms`` on pairs (L_i, R_i)."""
    def g(l, m):
        b = base(m)
        return l / b * math.log(l / b) * b

    def gap(U, spectra, c, K):
        l1, m1, l2, m2 = spectra
        verdict = check(*atoms, CommutingPair(U, l1, m1),
                        CommutingPair(U, l2, m2), c)
        oracle = min(c * g(*e1) + (1.0 - c) * g(*e2) - g(*_mix(c, e1, e2))
                     for e1, e2 in zip(zip(l1, m1), zip(l2, m2)))
        return abs(verdict.slack - oracle) / verdict.tolerance_used
    return gap


XLOGX = lookup_atom("xlogx")
ORACLES = {
    "rel-entropy-convexity": _rel_entropy_gap,
    "lieb-s": _trace_form_gap(check_lieb_concavity, (S,), S, 1.0 - S),
    "lieb-pq": _trace_form_gap(check_lieb_pq_concavity, (P, Q), Q, P),
    "perspective": _perspective_gap(check_perspective_joint_convexity,
                                    (XLOGX,), lambda m: m),
    "marechal": _perspective_gap(check_extended_perspective_joint_convexity,
                                 (XLOGX, lookup_atom("power", T)),
                                 lambda m: m ** T),
}


def oracle_gaps(tag: str) -> list:
    """|slack - oracle| / tolerance_used of ``tag``'s check on each draw."""
    return [ORACLES[tag](*draw) for draw in _draws()]


@pytest.mark.parametrize("tag", ORACLES)
def test_slack_is_the_scalar_oracle(tag):
    assert max(oracle_gaps(tag)) <= ORACLE_BOUND
