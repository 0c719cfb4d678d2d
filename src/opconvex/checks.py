"""The inequalities the verifier checks, each declared once, all decided by
one mixture kernel.

Each is a case of Hansen-Pedersen-Jensen, g(mix(X_1, ..., X_k)) <=
mix(g(X_1), ..., g(X_k)) for a convex g, in the Loewner or the scalar order:
the six joint-convexity theorems mix two endpoints by weight, c X1 + (1-c) X2;
Jensen mixes its one endpoint T by the congruence A*TA + B*TB.

A theorem's builder, ``_*_theorem``, checks the hypotheses of its
parameters (a defect raises ``HypothesisViolation``, never counts as an
inequality failure) and returns its kernel ``(ops, c, tol, errs) ->
(slack, tolerance_used)`` on operands stacked along a leading batch axis in
the verifier table's layout, with ``c`` the stacked mixing weights. A gate
that fails on a row records the row's exception in ``errs`` instead of
raising, so the other rows go on. The verifier runs a kernel on whole
batches of trials; the public ``check_*`` functions run it on their
operands as a batch of one, raising that row's exception.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .atoms import ScalarAtom
from .commuting import CommutingPair, DEFAULT_FLOOR, _require_floor
from .errors import HypothesisViolation
from .functionals import (_classical, _power_atoms, _relative_entropy,
                          _require_lieb_exponent, _require_pq_exponents,
                          _trace_form, _trace_operands)
from .linalg import (LoewnerVerdict, RowErrors, _adj, _calculus, _loewner,
                     _materialize, _require_tol, _sym, as_hermitian,
                     as_matrix)
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
    _require_tol(tol)
    lhs, rhs = float(lhs), float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"operands must be finite, got {lhs} and {rhs}")
    return LoewnerVerdict.of(*_geq(lhs, rhs, tol))


def _one(kernel, tol: float, ops: dict, c=None) -> LoewnerVerdict:
    """``kernel`` on a batch of one. ``ops`` holds one instance's operands
    in the table's layout, unstacked: arrays, scalars or tuples of them.
    ``c`` is a joint-convexity theorem's mixing weight, checked here."""
    if c is not None:
        c = float(c)
        if not 0.0 <= c <= 1.0:
            raise HypothesisViolation(
                f"mixing weight must be in [0, 1], got {c}")
    ops = {key: tuple(np.asarray(x)[None] for x in X) if isinstance(X, tuple)
           else np.asarray(X)[None] for key, X in ops.items()}
    return LoewnerVerdict.of(*RowErrors.one(
        lambda errs: kernel(ops, np.array([c], dtype=float), tol, errs)))


def _jensen(f: ScalarAtom, A, B, T, tol: float, errs: RowErrors,
            contractive: bool):
    """f(A*TA + B*TB) <= A*f(T)A + B*f(T)B. The pair must be an isometry
    pair, or a contraction pair when ``contractive``."""
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.eye(A.shape[-1]) - (_adj(A) @ A + _adj(B) @ B)
    finite = np.isfinite(gap).all(axis=(-2, -1))
    gap = errs.drop(~finite, lambda k: HypothesisViolation(
        "A*A + B*B is not finite: its products overflow"), gap, 0.0)
    by, what = ((-np.linalg.eigvalsh(gap)[..., 0], "exceeds") if contractive
                else (np.max(np.abs(gap), axis=(-2, -1)), "deviates from"))
    bad = ~finite | (by > HYPOTHESIS_TOL)
    # a failed row goes on with finite stand-in operands
    A, B = (errs.drop(bad, lambda k: HypothesisViolation(
        f"A*A + B*B {what} the identity by {by[k]:.3e}"), x, 0.0)
        for x in (A, B))
    return _mixture([(T,)], lambda a: _sym(_adj(A) @ a @ A + _adj(B) @ a @ B),
                    tol, errs, partial(_calculus, f))


def _require_not_concave(f: ScalarAtom) -> None:
    """Reject a strictly concave atom, for which the Jensen and scalar
    perspective inequalities hold reversed. An atom that is neither convex
    nor concave (the quartic negative control) passes."""
    if f.operator_concave and not f.operator_convex:
        raise HypothesisViolation(
            f"atom {f.label} is concave; the inequality holds reversed "
            f"for it")


def _require_f0_nonpositive(f: ScalarAtom) -> None:
    if not f.f0_nonpositive:
        raise HypothesisViolation(
            f"atom {f.label} lacks f(0) <= 0; the contractive inequality "
            f"needs it because dilating A, B to an isometry pads with zero "
            f"blocks whose contribution is f(0)")


def _jensen_theorem(f: ScalarAtom, contractive: bool):
    """Jensen on the operands "A", "B" and "T"; its contractive form, for
    atoms with f(0) <= 0, when ``contractive``."""
    _require_not_concave(f)
    if contractive:
        _require_f0_nonpositive(f)
    return lambda ops, c, tol, errs: _jensen(
        f, ops["A"], ops["B"], ops["T"], tol, errs, contractive)


def _jensen_operands(A, B, T) -> dict:
    """The operands, checked for matching shapes."""
    Am, Bm = as_matrix(A), as_matrix(B)
    if Am.shape != Bm.shape or Am.ndim != 2:
        raise ValueError(
            f"A and B must share an m x n shape, got {Am.shape} and {Bm.shape}")
    if not (np.isfinite(Am).all() and np.isfinite(Bm).all()):
        raise ValueError("A and B must be finite")
    Th = as_hermitian(T)
    if Th.dim != Am.shape[0]:
        raise ValueError(
            f"T must be {Am.shape[0]} square to match the pair, got {Th.dim}")
    return {"A": Am, "B": Bm, "T": Th.mat}


def check_jensen_isometry(f: ScalarAtom, A, B, T,
                          tol: float = 1e-8) -> LoewnerVerdict:
    """f(A*TA + B*TB) <= A*f(T)A + B*f(T)B for an isometry column pair."""
    _require_tol(tol)
    return _one(_jensen_theorem(f, False), tol, _jensen_operands(A, B, T))


def check_jensen_contractive(f: ScalarAtom, A, B, T,
                             tol: float = 1e-8) -> LoewnerVerdict:
    """The same inequality under A*A + B*B <= I, for atoms with f(0) <= 0.

    The contraction dilates to an isometry only by padding with zero
    blocks, which inject f(0) into the right-hand side; without f(0) <= 0
    the inequality is simply false (constant atoms break it).
    """
    _require_tol(tol)
    return _one(_jensen_theorem(f, True), tol, _jensen_operands(A, B, T))


def _mix(c, a, b):
    """c a + (1-c) b per row; its Hermitian part for stacks of matrices."""
    if a.ndim == 1:
        return c * a + (1.0 - c) * b
    c = c[:, None, None]
    return _sym(c * a + (1.0 - c) * b)


def _mixture(Xs, mix, tol: float, errs: RowErrors, g, gate=None, g_mix=None):
    """g(mix(X_1, ..., X_k)) <= mix(g(X_1), ..., g(X_k)) for a convex g on
    k stacked endpoint tuples Xs mixed entry by entry, in the Loewner order
    where g is matrix-valued, else the scalar order. ``gate(*Xs, errs)``
    first checks the theorem's per-row hypotheses; ``g_mix(Xs, mix, errs)``,
    where given, evaluates g at the mixture by another path.
    """
    if gate is not None:
        gate(*Xs, errs)
    avg = mix(*(g(*X, errs) for X in Xs))
    combo = g(*map(mix, *Xs), errs) if g_mix is None else g_mix(Xs, mix, errs)
    if avg.ndim > 1:
        return _loewner(combo, avg, tol, errs)
    return _geq(avg, combo, tol)


def _by_weight(g, gate=None, g_mix=None):
    """The kernel of a joint-convexity theorem: ``_mixture`` on the endpoint
    tuples ``ops["1"]`` and ``ops["2"]``, mixed by the stacked weights c."""
    return lambda ops, c, tol, errs: _mixture(
        (ops["1"], ops["2"]), partial(_mix, c), tol, errs, g, gate, g_mix)


def _perspective_theorem(f: ScalarAtom, h, floor: float):
    """Joint convexity of g(L, R) = f(L/h(R)) h(R), the plain perspective
    when h is None, on commuting endpoint pairs (U, lam, mu): the eigen
    path at the endpoints, and the symmetrized path on the mixed (L, R),
    which generally fail to commute."""
    if h is None:
        _require_matrix_convex(f)
    else:
        _require_extended_hypotheses(f, h)
    _require_floor(floor)

    def g_mix(Xs, mix, errs):  # lifts each (U, lam, mu) to (L, R) to mix
        L, R = map(mix, *((_sym(_materialize(U, lam)),
                           _sym(_materialize(U, mu))) for U, lam, mu in Xs))
        return _symmetrized(f, h, L, R, floor, errs)
    return _by_weight(partial(_eigen, f, h), g_mix=g_mix)


def _pair_operands(pair1: CommutingPair, pair2: CommutingPair) -> dict:
    if pair1.dim != pair2.dim:
        raise ValueError(f"dimension mismatch: {pair1.dim} vs {pair2.dim}")
    return {"1": (pair1.basis, pair1.lam, pair1.mu),
            "2": (pair2.basis, pair2.lam, pair2.mu)}


def check_perspective_joint_convexity(f: ScalarAtom, pair1: CommutingPair,
                                      pair2: CommutingPair, c: float,
                                      tol: float = 1e-8,
                                      floor: float = DEFAULT_FLOOR
                                      ) -> LoewnerVerdict:
    """g(cL1+(1-c)L2, cR1+(1-c)R2) <= c g(L1,R1) + (1-c) g(L2,R2).

    Endpoints go through the eigen path; the combination generally fails
    to commute and goes through the symmetrized path.
    """
    _require_tol(tol)
    return _one(_perspective_theorem(f, None, floor), tol,
                _pair_operands(pair1, pair2), c)


def check_extended_perspective_joint_convexity(f: ScalarAtom, h: ScalarAtom,
                                   pair1: CommutingPair, pair2: CommutingPair,
                                   c: float, tol: float = 1e-8,
                                   floor: float = DEFAULT_FLOOR
                                   ) -> LoewnerVerdict:
    """Joint convexity of the extended perspective f(L/h(R))h(R)."""
    _require_tol(tol)
    return _one(_perspective_theorem(f, h, floor), tol,
                _pair_operands(pair1, pair2), c)


def _unit_traces(X1, X2, errs: RowErrors) -> None:
    """The endpoint densities (rho_i, sigma_i) have unit trace."""
    for name, D in zip(("rho1", "sigma1", "rho2", "sigma2"), (*X1, *X2)):
        tr = np.trace(D, axis1=-2, axis2=-1).real
        errs.fail(np.abs(tr - 1.0) > HYPOTHESIS_TOL,
                  lambda k: HypothesisViolation(
                      f"{name} must have unit trace, got {float(tr[k])!r}"))


# the relative entropy's joint convexity, which has no parameters
_relative_entropy_kernel = _by_weight(_relative_entropy, _unit_traces)


def check_relative_entropy_joint_convexity(rho1, sigma1, rho2, sigma2,
                                           c: float, tol: float = 1e-8
                                           ) -> LoewnerVerdict:
    """c S(r1||s1) + (1-c) S(r2||s2) >= S(c r1+(1-c)r2 || c s1+(1-c)s2)."""
    _require_tol(tol)
    ops = [as_hermitian(x).mat for x in (rho1, sigma1, rho2, sigma2)]
    if len({H.shape for H in ops}) != 1:
        raise ValueError("dimension mismatch among the four operands")
    return _one(_relative_entropy_kernel, tol,
                {"1": tuple(ops[:2]), "2": tuple(ops[2:])}, c)


def _trace_theorem(fa: ScalarAtom, fb):
    """Joint concavity of Tr(fa(A) K* fb(B) K) on endpoints (A_i, B_i) and
    the shared ``ops["K"]``, decided as the joint convexity of the negated
    form: negation is exact, so no slack moves by an ulp."""
    return lambda ops, c, tol, errs: _mixture(
        (ops["1"], ops["2"]), partial(_mix, c), tol, errs,
        lambda A, B, errs: -_trace_form(fa, fb, A, B, ops["K"], errs))


def _lieb_theorem(s: float):
    s = _require_lieb_exponent(s)
    return _trace_theorem(*_power_atoms(s, 1.0 - s))


def _lieb_pq_theorem(p: float, q: float):
    p, q = _require_pq_exponents(p, q)
    return _trace_theorem(*_power_atoms(q, p))


def _trace_ops(A1, B1, A2, B2, K, name: str) -> dict:
    A1, B1, K = _trace_operands(A1, B1, K, name)
    A2, B2, _ = _trace_operands(A2, B2, K, name)
    return {"1": (A1, B1), "2": (A2, B2), "K": K}


def check_lieb_concavity(A1, B1, A2, B2, K, s: float, c: float,
                         tol: float = 1e-8) -> LoewnerVerdict:
    """Joint concavity of Tr(A^s K* B^(1-s) K) in (A, B)."""
    _require_tol(tol)
    return _one(_lieb_theorem(s), tol, _trace_ops(A1, B1, A2, B2, K, "K"), c)


def check_lieb_pq_concavity(A1, B1, A2, B2, X, p: float, q: float, c: float,
                            tol: float = 1e-8) -> LoewnerVerdict:
    """Joint concavity of Tr(A^q X* B^p X) for p, q > 0, p + q <= 1."""
    _require_tol(tol)
    return _one(_lieb_pq_theorem(p, q), tol,
                _trace_ops(A1, B1, A2, B2, X, "X"), c)


def _positive_bases(X1, X2, errs: RowErrors) -> None:
    """The bases t of the endpoints (x_i, t_i) are positive and finite."""
    t1, t2 = X1[1], X2[1]
    ok = (0.0 < t1) & (t1 < np.inf) & (0.0 < t2) & (t2 < np.inf)
    errs.fail(~ok, lambda k: HypothesisViolation(
        f"perspective bases must be positive and finite, got "
        f"{float(t1[k])} and {float(t2[k])}"))


def _classical_theorem(f: ScalarAtom):
    """Scalar joint convexity of the perspective (x, t) -> f(x/t) t on
    endpoints (x_i, t_i)."""
    _require_not_concave(f)
    return _by_weight(
        lambda x, t, errs: _classical(f, x[:, None], t, errs)[:, 0],
        _positive_bases)


def check_classical_perspective_convexity(f: ScalarAtom, x1: float, t1: float,
                                          x2: float, t2: float, c: float,
                                          tol: float = 1e-8) -> LoewnerVerdict:
    """Scalar joint convexity of g(x, t) = f(x/t) t."""
    _require_tol(tol)
    return _one(_classical_theorem(f), tol,
                {"1": (float(x1), float(t1)), "2": (float(x2), float(t2))}, c)
