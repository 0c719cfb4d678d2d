"""Trace functionals built on the superoperator perspective machinery,
plus their scalar (classical) counterparts.

Entropies are in natural log units throughout.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .atoms import ScalarAtom, lookup_atom
from .commuting import (DEFAULT_FLOOR, LEAST_FLOOR, MultiplicationPair,
                        _require_floor)
from .errors import DomainViolation, HypothesisViolation
from .linalg import (HermitianMatrix, RowErrors, _adj, _calculus, _dot_rows,
                     _eigh, _frozen, _hermitian_pair, _materialize,
                     _square_operand, _sym)
from .perspective import _quasi_entropy, _scaled

_XLOGX = lookup_atom("xlogx")

# A probability vector must sum to 1 within this absolute tolerance.
PROBABILITY_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False, slots=True)
class ProbabilityVector:
    """Finite probability measure: ``weights`` is a read-only vector of
    strictly positive weights summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if v.ndim != 1 or v.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("weights must be finite")
        low = float(np.min(v))
        if low <= 0.0:
            raise DomainViolation(
                f"weights must be strictly positive, found {low:g}")
        total = float(np.sum(v))
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            raise DomainViolation(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", _frozen(v.copy()))

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self):
        return f"ProbabilityVector({np.array2string(self.weights)})"

    def __reduce__(self):
        # Rebuilt, so a copy's weights are read-only too.
        return type(self), (self.weights,)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class DensityMatrix(HermitianMatrix):
    """A ``HermitianMatrix`` that is strictly positive with unit trace.

    The constructor takes the Hermitian part of its input, divides it by
    its trace, then rejects the result when its minimum eigenvalue falls
    below ``floor``.
    """

    floor: InitVar[float] = DEFAULT_FLOOR

    def __post_init__(self, floor):
        _require_floor(floor)
        HermitianMatrix.__post_init__(self)
        H = self.mat
        object.__setattr__(self, "mat", RowErrors.one(
            lambda errs: _normalize(H[None], floor, errs)))
        HermitianMatrix.__post_init__(self)


del DensityMatrix.floor  # an InitVar default, not the instance's floor


def _normalize(H, floor, errs: RowErrors) -> np.ndarray:
    """H / Tr H for a stack of Hermitian H. A row fails unless its trace is
    positive and the least eigenvalue of the result is at least ``floor``
    (a scalar, or one floor per row)."""
    tr = np.trace(H, axis1=-2, axis2=-1).real
    M = _sym(H / errs.drop(tr <= 0.0, lambda k: DomainViolation(
        f"trace must be positive, got {tr[k]:g}"), tr, 1.0)[..., None, None])
    low = np.linalg.eigvalsh(M)[..., 0]
    floor = np.broadcast_to(floor, low.shape)
    errs.fail(low < floor, lambda k: DomainViolation(
        f"density matrix has eigenvalue {low[k]:.3e} below the "
        f"positivity floor {floor[k]:g}"))
    return M


def _relative_entropy(r, s, errs: RowErrors) -> np.ndarray:
    """Tr r (log r - log s) for stacks of Hermitian r and s; a row fails
    unless both are strictly positive, and where a term overflows float64."""
    wr, _ = _eigh(r)
    ws, Us = _eigh(s)
    wr, ws = (errs.drop(w[..., 0] <= 0.0, lambda k: DomainViolation(
        f"{name} must be strictly positive, found eigenvalue {w[k, 0]:.3e}"),
        w, 1.0) for name, w in (("rho", wr), ("sigma", ws)))
    with np.errstate(over="ignore", invalid="ignore"):
        ent = _dot_rows(wr, np.log(wr))
        log_sigma = _materialize(Us, np.log(ws))
        value = ent - np.trace(r @ log_sigma, axis1=-2, axis2=-1).real
    return errs.finite(value, lambda k: DomainViolation(
        "Tr rho log rho or Tr rho log sigma overflows float64"))


def quantum_relative_entropy_direct(rho, sigma) -> float:
    """Tr rho (log rho - log sigma) for strictly positive rho, sigma."""
    r, s = _hermitian_pair(rho, sigma)
    return float(RowErrors.one(
        lambda errs: _relative_entropy(r.mat[None], s.mat[None], errs)))


def quantum_relative_entropy_perspective(rho, sigma) -> float:
    """The same quantity as the quadratic form of a superoperator perspective.

    Take left multiplication by rho and right multiplication by sigma, and
    evaluate the perspective of x log x at K = I:

        sum_{i,j} p_i log(p_i / q_j) |<u_i, v_j>|^2

    for rho u_i = p_i u_i and sigma v_j = q_j v_j. K = I is evaluated as
    W = U_sigma* U_rho (in ``MultiplicationPair``'s names; here the matrix
    of overlaps <u_i, v_j>), with no identity product. Agreement with the
    direct formula is an end-to-end check of the perspective machinery.
    """
    try:
        # Any eigenvalue > 0 is admissible, as on the direct path, whose
        # gate this floor makes the same test.
        mp = MultiplicationPair(rho, sigma, floor=LEAST_FLOOR)
    except DomainViolation:
        # The pair names its slots, and rho sits in the one named sigma:
        # raise the direct path's error, which names the operands.
        quantum_relative_entropy_direct(rho, sigma)
        raise
    return _quasi_entropy(_XLOGX, None, mp, None)


def _trace_form(fa: ScalarAtom, fb, A, B, K, errs: RowErrors) -> np.ndarray:
    """Tr(fa(A) K* fb(B) K) for stacks of positive A, B and square K; fb
    None stands for B -> I. A row fails where the product overflows
    float64."""
    Af = _calculus(fa, A, errs)
    Bf = (np.eye(A.shape[-1], dtype=np.complex128) if fb is None
          else _calculus(fb, B, errs))
    with np.errstate(over="ignore", invalid="ignore"):
        form = np.trace(Af @ _adj(K) @ Bf @ K, axis1=-2, axis2=-1).real
    return errs.finite(form, lambda k: DomainViolation(
        f"trace form Tr({fa.label}(A) K* "
        f"{'I' if fb is None else fb.label + '(B)'} K) overflows float64"))


def _power_atoms(a: float, b: float) -> tuple:
    """The atoms x^a and x^b of ``_trace_form``, x^0 as None."""
    fb = None if b == 0.0 else lookup_atom("power", b)
    return lookup_atom("power", a), fb


def _trace_operands(A, B, K, name: str) -> tuple:
    """A, B and K of a trace form as arrays, checked for matching shapes;
    ``name`` is K's name in the error message."""
    Ah, Bh = _hermitian_pair(A, B)
    return Ah.mat, Bh.mat, _square_operand(K, Ah.dim, name)


def _trace_form_one(fa: ScalarAtom, fb, A, B, K, name: str) -> float:
    ops = _trace_operands(A, B, K, name)
    return float(RowErrors.one(
        lambda errs: _trace_form(fa, fb, *(x[None] for x in ops), errs)))


def _require_lieb_exponent(s: float) -> float:
    s = float(s)
    if not 0.0 < s < 1.0:
        raise HypothesisViolation(f"s must satisfy 0 < s < 1, got {s}")
    return s


def lieb_functional(A, B, K, s: float) -> float:
    """Tr(A^s K* B^(1-s) K) by functional-calculus powers, 0 < s < 1.

    Jointly concave in (A, B); equals the negated quadratic form of the
    perspective of -x^s on the multiplication pair (A, B).
    """
    s = _require_lieb_exponent(s)
    return _trace_form_one(*_power_atoms(s, 1.0 - s), A, B, K, "K")


def _require_pq_exponents(p: float, q: float) -> tuple[float, float]:
    """The exponent range of ``lieb_pq_functional``, as floats."""
    p, q = float(p), float(q)
    if not 0.0 < q <= 1.0:
        raise HypothesisViolation(f"q must satisfy 0 < q <= 1, got {q}")
    if q == 1.0 and p != 0.0:
        raise HypothesisViolation(
            f"p + q <= 1 with q = 1 forces p = 0, got p = {p}")
    if q < 1.0 and not p > 0.0:
        raise HypothesisViolation(f"p must be positive, got {p}")
    if p + q > 1.0 + 1e-12:
        raise HypothesisViolation(
            f"exponents must satisfy p + q <= 1, got {p} + {q}")
    return p, q


def lieb_pq_functional(A, B, X, p: float, q: float) -> float:
    """Tr(A^q X* B^p X) for exponents p, q > 0 with p + q <= 1.

    Jointly concave in (A, B) on that exponent range. The q = 1 corner
    forces p = 0 and is evaluated directly as the linear functional
    Tr(A X* X).
    """
    p, q = _require_pq_exponents(p, q)
    return _trace_form_one(*_power_atoms(q, p), A, B, X, "X")


def _classical(f: ScalarAtom, x, t, errs: RowErrors) -> np.ndarray:
    """f(x / t) t for stacked rows x of shape (batch, k) and bases t of
    shape (batch,); a row fails unless its base is positive and finite, and
    as ``perspective._scaled`` fails it."""
    t = errs.drop(~((0.0 < t) & (t < np.inf)), lambda k: DomainViolation(
        f"perspective base must be positive and finite, got {float(t[k])}"),
        t, 1.0)
    return _scaled(f, x, t[:, None], errs)


def classical_perspective(f: ScalarAtom, x, t: float) -> np.ndarray:
    """Componentwise scalar perspective f(x_i / t) t for one finite t > 0."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    return RowErrors.one(lambda errs: _classical(
        f, xv.reshape(1, -1), np.array([float(t)]), errs)).reshape(xv.shape)


def _as_weights(name: str, p) -> np.ndarray:
    if isinstance(p, ProbabilityVector):
        return p.weights
    try:
        return ProbabilityVector(p).weights
    except (ValueError, DomainViolation) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def classical_entropy(p) -> float:
    """Shannon entropy -sum p_i log p_i of a probability vector."""
    v = _as_weights("p", p)
    return -float(np.dot(v, np.log(v)))


def classical_relative_entropy(q, p) -> float:
    """sum_i (p_i log p_i - p_i log q_i) for probability vectors q, p."""
    qv = _as_weights("q", q)
    pv = _as_weights("p", p)
    if qv.size != pv.size:
        raise ValueError(f"length mismatch: {qv.size} vs {pv.size}")
    return float(np.dot(pv, np.log(pv) - np.log(qv)))
