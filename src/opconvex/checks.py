"""The inequalities the verifier checks, one kernel per theorem.

Each kernel decides its inequality on stacks of operands, shape
(batch, ...), and returns the stacked (slack, tolerance_used); a gate that
fails on a row records the row's exception in a ``RowErrors`` instead of
raising, so the other rows go on. The verifier runs the kernels on whole
batches of trials. The public ``check_*`` functions validate their operands
and run the same kernels on a batch of one, raising that row's exception.

Checkers validate the theorem's hypotheses before evaluating the
inequality: a hypothesis defect raises ``HypothesisViolation``, never
counts as an inequality failure.
"""
from __future__ import annotations

import numpy as np

from .atoms import ScalarAtom
from .commuting import CommutingPair, DEFAULT_FLOOR
from .errors import HypothesisViolation
from .functionals import (_as_positive_operand, _classical, _power_atoms,
                          _relative_entropy, _require_lieb_exponent,
                          _require_pq_exponents, _trace_form, _trace_operands)
from .linalg import (LoewnerVerdict, RowErrors, _adj, _calculus, _loewner,
                     _materialize, _sym, as_hermitian, as_matrix)
from .perspective import (_eigen, _require_extended_hypotheses,
                          _require_matrix_convex, _symmetrized)

# Hypothesis fidelity bound: generated instances must satisfy their
# theorem's hypotheses (isometry defect, contraction slack, unit trace)
# this tightly before the inequality is evaluated.
HYPOTHESIS_TOL = 1e-10


def _geq(lhs, rhs, tol: float):
    """(slack, tolerance_used) of lhs >= rhs, elementwise."""
    return lhs - rhs, tol * (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))


def scalar_geq(lhs: float, rhs: float, tol: float) -> LoewnerVerdict:
    """Scalar analogue of the Loewner check: lhs >= rhs up to tol*scale."""
    return LoewnerVerdict.of(*_geq(float(lhs), float(rhs), tol))


def _verdict(kernel) -> LoewnerVerdict:
    return LoewnerVerdict.of(*RowErrors.one(kernel))


def _require_weights(c, errs: RowErrors) -> None:
    errs.fail(~((0.0 <= c) & (c <= 1.0)), lambda k: HypothesisViolation(
        f"mixing weight must be in [0, 1], got {float(c[k])}"))


def _jensen(f: ScalarAtom, A, B, T, tol: float, errs: RowErrors,
            contractive: bool):
    """f(A*TA + B*TB) <= A*f(T)A + B*f(T)B. The pair must be an isometry
    pair, or a contraction pair when ``contractive``."""
    gap = np.eye(A.shape[-1]) - (_adj(A) @ A + _adj(B) @ B)
    if contractive:
        low = np.linalg.eigvalsh(gap)[..., 0]
        errs.fail(low < -HYPOTHESIS_TOL, lambda k: HypothesisViolation(
            f"A*A + B*B exceeds the identity by {-low[k]:.3e}"))
    else:
        defect = np.max(np.abs(gap), axis=(-2, -1))
        errs.fail(defect > HYPOTHESIS_TOL, lambda k: HypothesisViolation(
            f"A*A + B*B deviates from the identity by {defect[k]:.3e}"))
    fT = _sym(_calculus(f, T, errs))
    lhs = _sym(_calculus(f, _sym(_adj(A) @ T @ A + _adj(B) @ T @ B), errs))
    rhs = _sym(_adj(A) @ fT @ A + _adj(B) @ fT @ B)
    return _loewner(lhs, rhs, tol)


def _jensen_operands(A, B, T):
    """The operands as a batch of one, checked for matching shapes."""
    Am, Bm = as_matrix(A), as_matrix(B)
    if Am.shape != Bm.shape or Am.ndim != 2:
        raise ValueError(
            f"A and B must share an m x n shape, got {Am.shape} and {Bm.shape}")
    Th = as_hermitian(T)
    if Th.dim != Am.shape[0]:
        raise ValueError(
            f"T must be {Am.shape[0]} square to match the pair, got {Th.dim}")
    return Am[None], Bm[None], Th.mat[None]


def _require_not_concave(f: ScalarAtom) -> None:
    """Reject a strictly concave atom, for which the Jensen and scalar
    perspective inequalities hold reversed. An atom that is neither convex
    nor concave (the quartic negative control) passes."""
    if f.operator_concave and not f.operator_convex:
        raise HypothesisViolation(
            f"atom {f.label} is concave; the inequality holds reversed "
            f"for it")


def check_jensen_isometry(f: ScalarAtom, A, B, T,
                          tol: float = 1e-8) -> LoewnerVerdict:
    """f(A*TA + B*TB) <= A*f(T)A + B*f(T)B for an isometry column pair."""
    _require_not_concave(f)
    ops = _jensen_operands(A, B, T)
    return _verdict(lambda errs: _jensen(f, *ops, tol, errs, False))


def _require_f0_nonpositive(f: ScalarAtom) -> None:
    if not f.f0_nonpositive:
        raise HypothesisViolation(
            f"atom {f.label} lacks f(0) <= 0; the contractive inequality "
            f"needs it because dilating A, B to an isometry pads with zero "
            f"blocks whose contribution is f(0)")


def check_jensen_contractive(f: ScalarAtom, A, B, T,
                             tol: float = 1e-8) -> LoewnerVerdict:
    """The same inequality under A*A + B*B <= I, for atoms with f(0) <= 0.

    The contraction dilates to an isometry only by padding with zero
    blocks, which inject f(0) into the right-hand side; without f(0) <= 0
    the inequality is simply false (constant atoms break it).
    """
    _require_not_concave(f)
    _require_f0_nonpositive(f)
    ops = _jensen_operands(A, B, T)
    return _verdict(lambda errs: _jensen(f, *ops, tol, errs, True))


def _perspective_convexity(f: ScalarAtom, h, pair1, pair2, c, floor: float,
                           tol: float, errs: RowErrors):
    """g(cL1+(1-c)L2, cR1+(1-c)R2) <= c g(L1,R1) + (1-c) g(L2,R2) for
    g(L, R) = f(L/h(R)) h(R) (the plain perspective when h is None) on
    stacked commuting pairs (U, lam, mu).

    Endpoints go through the eigen path; the combination generally fails
    to commute and goes through the symmetrized path.
    """
    _require_weights(c, errs)
    g1 = _sym(_eigen(f, h, *pair1, errs))
    g2 = _sym(_eigen(f, h, *pair2, errs))
    c = c[:, None, None]
    L, R = (c * _sym(_materialize(pair1[0], pair1[i]))
            + (1.0 - c) * _sym(_materialize(pair2[0], pair2[i]))
            for i in (1, 2))
    combo = _sym(_symmetrized(f, h, _sym(L), _sym(R), floor, errs))
    return _loewner(combo, _sym(c * g1 + (1.0 - c) * g2), tol)


def _check_pairs(f: ScalarAtom, h, pair1: CommutingPair,
                 pair2: CommutingPair, c: float, tol: float,
                 floor: float) -> LoewnerVerdict:
    if pair1.dim != pair2.dim:
        raise ValueError(f"dimension mismatch: {pair1.dim} vs {pair2.dim}")
    pairs = [(p.basis[None], p.lam[None], p.mu[None]) for p in (pair1, pair2)]
    return _verdict(lambda errs: _perspective_convexity(
        f, h, *pairs, np.array([float(c)]), floor, tol, errs))


def check_perspective_joint_convexity(f: ScalarAtom, pair1: CommutingPair,
                                      pair2: CommutingPair, c: float,
                                      tol: float = 1e-8,
                                      floor: float = DEFAULT_FLOOR
                                      ) -> LoewnerVerdict:
    """g(cL1+(1-c)L2, cR1+(1-c)R2) <= c g(L1,R1) + (1-c) g(L2,R2).

    Endpoints go through the eigen path; the combination generally fails
    to commute and goes through the symmetrized path.
    """
    _require_matrix_convex(f)
    return _check_pairs(f, None, pair1, pair2, c, tol, floor)


def check_extended_perspective_joint_convexity(f: ScalarAtom, h: ScalarAtom,
                                   pair1: CommutingPair, pair2: CommutingPair,
                                   c: float, tol: float = 1e-8,
                                   floor: float = DEFAULT_FLOOR
                                   ) -> LoewnerVerdict:
    """Joint convexity of the extended perspective f(L/h(R))h(R)."""
    _require_extended_hypotheses(f, h)
    return _check_pairs(f, h, pair1, pair2, c, tol, floor)


_DENSITIES = ("rho1", "sigma1", "rho2", "sigma2")


def _relative_entropy_convexity(r1, s1, r2, s2, c, tol: float,
                                errs: RowErrors):
    """c S(r1||s1) + (1-c) S(r2||s2) >= S(c r1+(1-c)r2 || c s1+(1-c)s2)."""
    _require_weights(c, errs)
    for name, D in zip(_DENSITIES, (r1, s1, r2, s2)):
        tr = np.trace(D, axis1=-2, axis2=-1).real
        errs.fail(np.abs(tr - 1.0) > HYPOTHESIS_TOL,
                  lambda k: HypothesisViolation(
                      f"{name} must have unit trace, got {float(tr[k])!r}"))
    mixture = (c * _relative_entropy(r1, s1, errs)
               + (1.0 - c) * _relative_entropy(r2, s2, errs))
    cc = c[:, None, None]
    combo = _relative_entropy(_sym(cc * r1 + (1.0 - cc) * r2),
                              _sym(cc * s1 + (1.0 - cc) * s2), errs)
    return _geq(mixture, combo, tol)


def check_relative_entropy_joint_convexity(rho1, sigma1, rho2, sigma2,
                                           c: float, tol: float = 1e-8
                                           ) -> LoewnerVerdict:
    """c S(r1||s1) + (1-c) S(r2||s2) >= S(c r1+(1-c)r2 || c s1+(1-c)s2)."""
    ops = [_as_positive_operand(x).mat
           for x in (rho1, sigma1, rho2, sigma2)]
    if len({H.shape for H in ops}) != 1:
        raise ValueError("dimension mismatch among the four operands")
    return _verdict(lambda errs: _relative_entropy_convexity(
        *(H[None] for H in ops), np.array([float(c)]), tol, errs))


def _trace_concavity(fa: ScalarAtom, fb, A1, B1, A2, B2, K, c, tol: float,
                     errs: RowErrors):
    """Tr form (cA1+(1-c)A2, cB1+(1-c)B2) >= c form(A1,B1) + (1-c)
    form(A2,B2) for the form Tr(fa(A) K* fb(B) K)."""
    _require_weights(c, errs)
    v1 = _trace_form(fa, fb, A1, B1, K, errs)
    v2 = _trace_form(fa, fb, A2, B2, K, errs)
    cc = c[:, None, None]
    combo = _trace_form(fa, fb, _sym(cc * A1 + (1.0 - cc) * A2),
                        _sym(cc * B1 + (1.0 - cc) * B2), K, errs)
    return _geq(combo, c * v1 + (1.0 - c) * v2, tol)


def _check_trace(fa: ScalarAtom, fb, A1, B1, A2, B2, K, c: float,
                 tol: float, name: str) -> LoewnerVerdict:
    A1, B1, K = _trace_operands(A1, B1, K, name)
    A2, B2, _ = _trace_operands(A2, B2, K, name)
    return _verdict(lambda errs: _trace_concavity(
        fa, fb, *(x[None] for x in (A1, B1, A2, B2, K)),
        np.array([float(c)]), tol, errs))


def check_lieb_concavity(A1, B1, A2, B2, K, s: float, c: float,
                         tol: float = 1e-8) -> LoewnerVerdict:
    """Joint concavity of Tr(A^s K* B^(1-s) K) in (A, B)."""
    s = _require_lieb_exponent(s)
    return _check_trace(*_power_atoms(s, 1.0 - s), A1, B1, A2, B2, K, c, tol,
                        "K")


def check_lieb_pq_concavity(A1, B1, A2, B2, X, p: float, q: float, c: float,
                            tol: float = 1e-8) -> LoewnerVerdict:
    """Joint concavity of Tr(A^q X* B^p X) for p, q > 0, p + q <= 1."""
    p, q = _require_pq_exponents(p, q)
    return _check_trace(*_power_atoms(q, p), A1, B1, A2, B2, X, c, tol, "X")


def _classical_convexity(f: ScalarAtom, x1, t1, x2, t2, c, tol: float,
                         errs: RowErrors):
    """Scalar joint convexity of g(x, t) = f(x/t) t on stacked scalars."""
    _require_weights(c, errs)
    errs.fail((t1 <= 0.0) | (t2 <= 0.0), lambda k: HypothesisViolation(
        f"perspective bases must be positive, got {float(t1[k])} and "
        f"{float(t2[k])}"))
    g1 = _classical(f, x1[:, None], t1, errs)[:, 0]
    g2 = _classical(f, x2[:, None], t2, errs)[:, 0]
    combo = _classical(f, (c * x1 + (1.0 - c) * x2)[:, None],
                       c * t1 + (1.0 - c) * t2, errs)[:, 0]
    return _geq(c * g1 + (1.0 - c) * g2, combo, tol)


def check_classical_perspective_convexity(f: ScalarAtom, x1: float, t1: float,
                                          x2: float, t2: float, c: float,
                                          tol: float = 1e-8) -> LoewnerVerdict:
    """Scalar joint convexity of g(x, t) = f(x/t) t."""
    _require_not_concave(f)
    ops = [np.array([float(v)]) for v in (x1, t1, x2, t2, c)]
    return _verdict(lambda errs: _classical_convexity(f, *ops, tol, errs))
