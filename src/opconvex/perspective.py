"""Matrix perspectives g(L, R) = f(L/R) R and their extended variant.

Every construction comes in two computational forms. The eigen path works
on a ``CommutingPair`` and is exact up to scalar roundoff. The symmetrized
path

    R^{1/2} f(R^{-1/2} L R^{-1/2}) R^{1/2}

accepts arbitrary Hermitian L with strictly positive R, which is what
convex-combination arguments produce; on commuting inputs the two paths
must agree to ``PATH_AGREEMENT_RTOL`` relative to the output size.

The extended variant substitutes h(R) for R: f(L / h(R)) h(R) for a
strictly positive concave h. With h = identity it degenerates to the plain
perspective: both share one eigen core and one quasi-entropy core, and the
identity atom returns its input, so there the base h(R) is R bit for bit;
the symmetrized core skips h(R) for the identity, so its reduction is exact
too.

The quadratic-form entry points evaluate ``<g(L,R)(K*), K*>`` for the
superoperator pair L(X) = sigma X, R(X) = X rho; they are the bridge
between perspectives and the trace functionals. They never build the
n^2 x n^2 superoperators. The rank-one matrices u_i v_j* from the
eigenvectors of sigma and rho are a joint eigenbasis of L and R, so the
form is Petz's quasi-entropy sum

    sum_{i,j} g(s_i, r_j) |(U_sigma* K* U_rho)_{ij}|^2,

evaluated from the spectral factors of ``MultiplicationPair`` in O(n^3).
``commuting.realize_multiplication_pair`` is the explicit Kronecker
realization that tests compare this sum against.
"""
from __future__ import annotations

import math

import numpy as np

from .atoms import ScalarAtom
from .commuting import (CommutingPair, DEFAULT_FLOOR, MultiplicationPair,
                        _require_floor)
from .errors import DomainViolation, HypothesisViolation
from .linalg import (HermitianMatrix, RowErrors, _adj, _calculus, _eigh,
                     _hermitian_pair, _materialize, _square_operand, _sym,
                     op_norm)

# Required agreement between the eigen and symmetrized paths on commuting
# inputs, relative to 1 + ||output||.
PATH_AGREEMENT_RTOL = 1e-9


def _require_convexity_flag(f: ScalarAtom) -> None:
    if not (f.operator_convex or f.operator_concave):
        raise HypothesisViolation(
            f"atom {f.label} is neither matrix convex nor matrix concave; "
            f"its perspective carries no convexity structure")


def _require_matrix_convex(f: ScalarAtom) -> None:
    if not f.operator_convex:
        raise HypothesisViolation(f"atom {f.label} is not matrix convex")


def _require_extended_hypotheses(f: ScalarAtom, h: ScalarAtom) -> None:
    _require_matrix_convex(f)
    if not f.f0_nonpositive:
        raise HypothesisViolation(
            f"atom {f.label} lacks f(0) <= 0, required for the extended "
            f"perspective")
    if not h.operator_concave:
        raise HypothesisViolation(f"atom {h.label} is not matrix concave")


def _base(h, r, errs: RowErrors) -> np.ndarray:
    """The perspective's base on stacked right spectra r: r itself when h
    is None, else h(r); a row where h(r) is not strictly positive fails."""
    if h is None:
        return r
    hr = h(errs.clamp(h.domain, r))
    low = np.min(hr, axis=-1)
    return errs.drop(low <= 0.0, lambda k: _nonpositive_base(low[k]), hr, 1.0)


def _nonpositive_base(low) -> DomainViolation:
    return DomainViolation(f"h must be strictly positive on the right "
                           f"spectrum, found h value {low:.3e}")


def _overflow(what: str, x, b) -> DomainViolation:
    return DomainViolation(f"{what} {x:.3e} / {b:.3e} overflows float64")


def _scaled(f: ScalarAtom, x, b, errs: RowErrors) -> np.ndarray:
    """f(x/b) b on stacked rows x and positive finite bases b, broadcast to
    x's shape. A row fails where x/b lies outside f's domain, or where a
    finite x over b, or the value there, overflows float64."""
    b = np.broadcast_to(b, x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = x / b
        over = np.isinf(ratio) & np.isfinite(x)
        if over.any():  # recorded first, so the clamp does not name the inf
            errs.fail(over.any(axis=-1), lambda k: _overflow(
                "eigenvalue ratio", x[k][over[k]][0], b[k][over[k]][0]))
        value = f(errs.clamp(f.domain, ratio)) * b
    return errs.finite(value, lambda k: _overflow(
        f"{f.label} perspective at",
        *(y[k][~np.isfinite(value[k])][0] for y in (x, b))))


def _eigen(f: ScalarAtom, h, U, lam, mu, errs: RowErrors) -> np.ndarray:
    """U diag(f(lam/b) b) U* for stacked commuting pairs (U, lam, mu), with
    base b = ``_base(h, mu)``."""
    return _sym(_materialize(U, _scaled(f, lam, _base(h, mu, errs), errs)))


def _eigen_one(f: ScalarAtom, h, pair: CommutingPair) -> HermitianMatrix:
    return HermitianMatrix(RowErrors.one(lambda errs: _eigen(
        f, h, pair.basis[None], pair.lam[None], pair.mu[None], errs)))


def perspective_eigen(f: ScalarAtom, pair: CommutingPair) -> HermitianMatrix:
    """Perspective of f on a commuting pair, via the joint eigenbasis."""
    _require_convexity_flag(f)
    return _eigen_one(f, None, pair)


def _symmetrized(f: ScalarAtom, h, L, R, floor: float,
                 errs: RowErrors) -> np.ndarray:
    """R'^{1/2} f(R'^{-1/2} L R'^{-1/2}) R'^{1/2} for stacks of Hermitian L
    and R, with R' = h(R) (R itself when h is None or the identity). A row
    fails where R' has an eigenvalue below ``floor``, or where the argument
    of f or the result overflows float64."""
    if h is not None and h.name != "identity":
        R = _calculus(h, R, errs)
    w, U = _eigh(R)
    low = w[..., 0]
    w = errs.drop(low < floor, lambda k: DomainViolation(
        f"perspective base has eigenvalue {low[k]:.3e} below the "
        f"invertibility floor {floor:g}"), w, 1.0)
    sq = np.sqrt(w)
    half = _materialize(U, sq)
    inv_half = _materialize(U, 1.0 / sq)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = _sym(inv_half @ L @ inv_half)
        inner = errs.finite(inner, lambda k: DomainViolation(
            f"R^(-1/2) L R^(-1/2) overflows float64; the base's least "
            f"eigenvalue is {w[k, 0]:.3e}"))
        out = _sym(half @ _calculus(f, inner, errs) @ half)
    return errs.finite(out, lambda k: DomainViolation(
        f"{f.label} perspective overflows float64; the base's largest "
        f"eigenvalue is {w[k, -1]:.3e}"))


def _symmetrized_one(f: ScalarAtom, h, L, R, floor: float) -> HermitianMatrix:
    _require_floor(floor)
    Lh, Rh = _hermitian_pair(L, R)
    return HermitianMatrix(RowErrors.one(lambda errs: _symmetrized(
        f, h, Lh.mat[None], Rh.mat[None], floor, errs)))


def perspective_symmetrized(f: ScalarAtom, L, R,
                            floor: float = DEFAULT_FLOOR) -> HermitianMatrix:
    """Perspective of f on possibly non-commuting L and strictly positive R.

    R with minimum eigenvalue below ``floor`` is rejected rather than
    regularized: shifting the spectrum would mask genuine inequality
    violations downstream.
    """
    _require_convexity_flag(f)
    return _symmetrized_one(f, None, L, R, floor)


def perspective_agreement_defect(f: ScalarAtom, pair: CommutingPair) -> float:
    """Operator-norm gap between the two perspective paths on one pair."""
    eigen = perspective_eigen(f, pair)
    # half the pair's own least eigenvalue: tight enough to keep R honestly
    # invertible, loose enough that re-decomposition roundoff cannot trip it
    sym = perspective_symmetrized(f, pair.left, pair.right,
                                  floor=0.5 * float(pair.mu.min()))
    return op_norm(HermitianMatrix(eigen.mat - sym.mat))


def check_path_agreement(f: ScalarAtom, pair: CommutingPair,
                         rtol: float = PATH_AGREEMENT_RTOL) -> float:
    """Enforce the path-agreement contract; returns the measured defect.
    ``rtol`` must lie in (0, 1)."""
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must be in (0, 1), got {rtol}")
    defect = perspective_agreement_defect(f, pair)
    scale = 1.0 + op_norm(perspective_eigen(f, pair))
    if defect > rtol * scale:
        raise ValueError(
            f"perspective paths disagree: defect {defect:.3e} exceeds "
            f"{rtol:g} * (1 + ||g||) = {rtol * scale:.3e}")
    return defect


def extended_perspective_eigen(f: ScalarAtom, h: ScalarAtom,
                               pair: CommutingPair) -> HermitianMatrix:
    """Extended perspective f(L / h(R)) h(R) on a commuting pair."""
    _require_extended_hypotheses(f, h)
    return _eigen_one(f, h, pair)


def extended_perspective_symmetrized(f: ScalarAtom, h: ScalarAtom, L, R,
                                     floor: float = DEFAULT_FLOOR
                                     ) -> HermitianMatrix:
    """Extended perspective on possibly non-commuting arguments.

    Computes h(R) by functional calculus and takes the symmetrized plain
    perspective on it, which is exactly the composition the definition
    prescribes; the invertibility floor applies to h(R), the matrix whose
    inverse square root is taken.
    """
    _require_extended_hypotheses(f, h)
    return _symmetrized_one(f, h, L, R, floor)


def _quasi_entropy(f: ScalarAtom, h, mp: MultiplicationPair, K) -> float:
    """sum_ij g(s_i, r_j) |(U_sigma* K* U_rho)_ij|^2 with g(s, r) = f(s/b) b.

    The base b is r, or h(r) for an h. K None stands for the identity, so
    W = U_sigma* U_rho. Weights and g values are real, so the sum is real
    by construction.
    """
    Us, s, Ur, r = mp.factors
    if K is not None:
        Us = _square_operand(K, mp.dim, "K") @ Us
    base, low = r, float(r[0])  # eigh's eigenvalues ascend
    if h is not None:
        base = h(h.domain.clamp(r))
        low = float(base.min())
        if low <= 0.0:
            raise _nonpositive_base(low)
    # s, base > 0, so s_i / b_j overflows only if the largest ratio does
    top = float(s[-1])
    if top / low == np.inf:
        raise _overflow("eigenvalue ratio", top, low)
    W = _adj(Us) @ Ur
    with np.errstate(over="ignore", invalid="ignore"):
        g = f(f.domain.clamp(s[:, None] / base)) * base
        total = float((g * (W.real ** 2 + W.imag ** 2)).sum())
    if not math.isfinite(total):
        raise DomainViolation(f"{f.label} quasi-entropy overflows float64; "
                              f"its largest eigenvalue ratio is {top:.3e} / "
                              f"{low:.3e}")
    return total


def perspective_quadratic_form(f: ScalarAtom, mp: MultiplicationPair,
                               K) -> float:
    """<g(L,R)(K*), K*> for L(X) = sigma X, R(X) = X rho and g = f(L/R)R."""
    _require_convexity_flag(f)
    return _quasi_entropy(f, None, mp, K)


def extended_perspective_quadratic_form(f: ScalarAtom, h: ScalarAtom,
                                        mp: MultiplicationPair, K) -> float:
    """<(f(L/h(R))h(R))(K*), K*> for L(X) = sigma X, R(X) = X rho."""
    _require_extended_hypotheses(f, h)
    return _quasi_entropy(f, h, mp, K)
