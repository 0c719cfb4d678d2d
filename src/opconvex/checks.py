"""The inequalities the verifier checks: the Jensen kernel, and one mixture
kernel for the six joint-convexity theorems.

Each of those says g(cX1 + (1-c)X2) <= c g(X1) + (1-c) g(X2) for its own
g, reversed for a concave g, in the Loewner or the scalar order; the
``*_g`` functions give each g to ``_mixture``. The kernels decide their
inequality on stacks of operands, shape (batch, ...), and return the
stacked (slack, tolerance_used); a gate that fails on a row records the
row's exception in a ``RowErrors`` instead of raising, so the other rows
go on. The verifier runs the kernels on whole batches of trials. The
public ``check_*`` functions validate their operands and run the same
kernels on a batch of one, raising that row's exception.

Checkers validate the theorem's hypotheses before evaluating the
inequality: a hypothesis defect raises ``HypothesisViolation``, never
counts as an inequality failure.
"""
from __future__ import annotations

import numpy as np

from .atoms import ScalarAtom
from .commuting import CommutingPair, DEFAULT_FLOOR
from .errors import HypothesisViolation
from .functionals import (_classical, _power_atoms, _relative_entropy,
                          _require_lieb_exponent, _require_pq_exponents,
                          _trace_form, _trace_operands)
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


def _mix(c, a, b):
    """c a + (1-c) b per row; its Hermitian part for stacks of matrices."""
    if a.ndim == 1:
        return c * a + (1.0 - c) * b
    c = c[:, None, None]
    return _sym(c * a + (1.0 - c) * b)


def _mixture(X1, X2, c, tol: float, errs: RowErrors, g, convex: bool = True,
             gate=None, lift=None, g_mix=None):
    """g(cX1 + (1-c)X2) <= c g(X1) + (1-c) g(X2) for a jointly convex g, >=
    for a concave one, on stacked endpoint tuples X1, X2 mixed entry by
    entry: in the Loewner order where g is matrix-valued, else the scalar
    order. The ``*_g`` functions give each theorem's g as keywords.

    The weight gate runs first, and a row that fails it mixes at weight 1/2
    instead, so it stays finite downstream; then ``gate(X1, X2, errs)``
    checks the theorem's per-row hypotheses. ``g_mix``, where given,
    evaluates g at the mixture by another path, on the mixed ``lift(*X1)``
    and ``lift(*X2)``.
    """
    bad = ~((0.0 <= c) & (c <= 1.0))
    errs.fail(bad, lambda k: HypothesisViolation(
        f"mixing weight must be in [0, 1], got {float(c[k])}"))
    c = np.where(bad, 0.5, c)
    if gate is not None:
        gate(X1, X2, errs)
    avg = _mix(c, g(*X1, errs), g(*X2, errs))
    if lift is not None:
        X1, X2 = lift(*X1), lift(*X2)
    combo = (g_mix or g)(*(_mix(c, a, b) for a, b in zip(X1, X2)), errs)
    lo, hi = (combo, avg) if convex else (avg, combo)
    return _loewner(lo, hi, tol) if avg.ndim > 1 else _geq(hi, lo, tol)


def _mixture_one(X1, X2, c: float, tol: float, **g) -> LoewnerVerdict:
    """``_mixture`` on a batch of one; X1 and X2 hold unstacked operands."""
    X1, X2 = ([np.asarray(x)[None] for x in X] for X in (X1, X2))
    return _verdict(lambda errs: _mixture(X1, X2, np.array([float(c)]), tol,
                                          errs, **g))


def _perspective_g(f: ScalarAtom, h, floor: float) -> dict:
    """g(L, R) = f(L/h(R)) h(R), the plain perspective when h is None, on
    commuting pairs (U, lam, mu): the eigen path at the endpoints, and the
    symmetrized path at their mixture, which generally fails to commute."""
    return {"g": lambda U, lam, mu, errs: _sym(_eigen(f, h, U, lam, mu, errs)),
            "lift": lambda U, lam, mu: (_sym(_materialize(U, lam)),
                                        _sym(_materialize(U, mu))),
            "g_mix": lambda L, R, errs: _sym(
                _symmetrized(f, h, L, R, floor, errs))}


def _check_pairs(f: ScalarAtom, h, pair1: CommutingPair,
                 pair2: CommutingPair, c: float, tol: float,
                 floor: float) -> LoewnerVerdict:
    if pair1.dim != pair2.dim:
        raise ValueError(f"dimension mismatch: {pair1.dim} vs {pair2.dim}")
    return _mixture_one(*((p.basis, p.lam, p.mu) for p in (pair1, pair2)),
                        c, tol, **_perspective_g(f, h, floor))


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


def _unit_traces(X1, X2, errs: RowErrors) -> None:
    """The endpoint densities (rho_i, sigma_i) have unit trace."""
    for name, D in zip(("rho1", "sigma1", "rho2", "sigma2"), (*X1, *X2)):
        tr = np.trace(D, axis1=-2, axis2=-1).real
        errs.fail(np.abs(tr - 1.0) > HYPOTHESIS_TOL,
                  lambda k: HypothesisViolation(
                      f"{name} must have unit trace, got {float(tr[k])!r}"))


# the relative entropy (rho, sigma) -> S(rho || sigma) as a g
_RELATIVE_ENTROPY_G = {"g": _relative_entropy, "gate": _unit_traces}


def check_relative_entropy_joint_convexity(rho1, sigma1, rho2, sigma2,
                                           c: float, tol: float = 1e-8
                                           ) -> LoewnerVerdict:
    """c S(r1||s1) + (1-c) S(r2||s2) >= S(c r1+(1-c)r2 || c s1+(1-c)s2)."""
    ops = [as_hermitian(x).mat for x in (rho1, sigma1, rho2, sigma2)]
    if len({H.shape for H in ops}) != 1:
        raise ValueError("dimension mismatch among the four operands")
    return _mixture_one(ops[:2], ops[2:], c, tol, **_RELATIVE_ENTROPY_G)


def _trace_g(fa: ScalarAtom, fb, K) -> dict:
    """The jointly concave form (A, B) -> Tr(fa(A) K* fb(B) K) as a g."""
    return {"g": lambda A, B, errs: _trace_form(fa, fb, A, B, K, errs),
            "convex": False}


def _check_trace(fa: ScalarAtom, fb, A1, B1, A2, B2, K, c: float,
                 tol: float, name: str) -> LoewnerVerdict:
    A1, B1, K = _trace_operands(A1, B1, K, name)
    A2, B2, _ = _trace_operands(A2, B2, K, name)
    return _mixture_one((A1, B1), (A2, B2), c, tol,
                        **_trace_g(fa, fb, K[None]))


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


def _positive_bases(X1, X2, errs: RowErrors) -> None:
    """The bases t of the endpoints (x_i, t_i) are positive."""
    t1, t2 = X1[1], X2[1]
    errs.fail(~((t1 > 0.0) & (t2 > 0.0)), lambda k: HypothesisViolation(
        f"perspective bases must be positive, got {float(t1[k])} and "
        f"{float(t2[k])}"))


def _classical_g(f: ScalarAtom) -> dict:
    """The scalar perspective (x, t) -> f(x/t) t as a g."""
    return {"g": lambda x, t, errs: _classical(f, x[:, None], t, errs)[:, 0],
            "gate": _positive_bases}


def check_classical_perspective_convexity(f: ScalarAtom, x1: float, t1: float,
                                          x2: float, t2: float, c: float,
                                          tol: float = 1e-8) -> LoewnerVerdict:
    """Scalar joint convexity of g(x, t) = f(x/t) t."""
    _require_not_concave(f)
    return _mixture_one((float(x1), float(t1)), (float(x2), float(t2)), c,
                        tol, **_classical_g(f))
