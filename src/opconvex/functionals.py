"""Trace functionals built on the superoperator perspective machinery,
plus their scalar (classical) counterparts.

Entropies are in natural log units throughout.
"""
from __future__ import annotations

import numpy as np

from .atoms import ScalarAtom, lookup_atom
from .commuting import DEFAULT_FLOOR, MultiplicationPair
from .errors import DomainViolation, HypothesisViolation
from .linalg import HermitianMatrix, apply_scalar_function, as_hermitian, \
    as_matrix, spectral_decompose
from .perspective import perspective_quadratic_form

# Strict positivity floor used when wrapping caller matrices into
# multiplication pairs: anything > 0 is admissible here, the theorem-level
# floors live in the verification layer.
_TINY = float(np.finfo(float).tiny)

# A probability vector must sum to 1 within this absolute tolerance.
PROBABILITY_SUM_TOL = 1e-12


class ProbabilityVector:
    """Finite probability measure: strictly positive weights summing to 1."""

    __slots__ = ("_weights",)

    def __init__(self, weights):
        v = np.atleast_1d(np.asarray(weights, dtype=float))
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
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "_weights", v)

    def __setattr__(self, name, value):
        raise AttributeError("ProbabilityVector is immutable")

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def __len__(self) -> int:
        return self._weights.size

    def __repr__(self):
        return f"ProbabilityVector({np.array2string(self._weights)})"


class DensityMatrix:
    """Strictly positive matrix normalized to unit trace.

    The constructor divides by the trace, then rejects the result when its
    minimum eigenvalue falls below ``floor``.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix, floor: float = DEFAULT_FLOOR):
        H = as_hermitian(matrix)
        tr = float(np.real(np.trace(H.mat)))
        if tr <= 0.0:
            raise DomainViolation(f"trace must be positive, got {tr:g}")
        M = HermitianMatrix(H.mat / tr)
        low = float(np.linalg.eigvalsh(M.mat)[0])
        if low < floor:
            raise DomainViolation(
                f"density matrix has eigenvalue {low:.3e} below the "
                f"positivity floor {floor:g}")
        object.__setattr__(self, "_matrix", M)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def matrix(self) -> HermitianMatrix:
        return self._matrix

    @property
    def mat(self) -> np.ndarray:
        return self._matrix.mat

    @property
    def dim(self) -> int:
        return self._matrix.dim

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def _as_positive_operand(x) -> HermitianMatrix:
    if isinstance(x, DensityMatrix):
        return x.matrix
    return as_hermitian(x)


def quantum_relative_entropy_direct(rho, sigma) -> float:
    """Tr rho (log rho - log sigma) for strictly positive rho, sigma."""
    r = _as_positive_operand(rho)
    s = _as_positive_operand(sigma)
    if r.dim != s.dim:
        raise ValueError(f"dimension mismatch: {r.dim} vs {s.dim}")
    dr, ds = spectral_decompose(r), spectral_decompose(s)
    for name, dec in (("rho", dr), ("sigma", ds)):
        if dec.eigenvalues[0] <= 0.0:
            raise DomainViolation(
                f"{name} must be strictly positive, found eigenvalue "
                f"{dec.eigenvalues[0]:.3e}")
    ent = float(np.dot(dr.eigenvalues, np.log(dr.eigenvalues)))
    Us = ds.eigenvectors
    log_sigma = (Us * np.log(ds.eigenvalues)) @ Us.conj().T
    cross = float(np.real(np.trace(r.mat @ log_sigma)))
    return ent - cross


def quantum_relative_entropy_perspective(rho, sigma) -> float:
    """The same quantity as the quadratic form of a superoperator perspective.

    Take left multiplication by rho and right multiplication by sigma, and
    evaluate the perspective of x log x at K = I:

        sum_{i,j} p_i log(p_i / q_j) |<u_i, v_j>|^2

    for rho u_i = p_i u_i and sigma v_j = q_j v_j. Agreement with the direct
    formula is an end-to-end check of the perspective machinery.
    """
    r = _as_positive_operand(rho)
    s = _as_positive_operand(sigma)
    mp = MultiplicationPair(r, s, floor=_TINY)
    return perspective_quadratic_form(lookup_atom("xlogx"), mp, np.eye(r.dim))


def lieb_functional(A, B, K, s: float) -> float:
    """Tr(A^s K* B^(1-s) K) by functional-calculus powers, 0 < s < 1.

    Jointly concave in (A, B); equals the negated quadratic form of the
    perspective of -x^s on the multiplication pair (A, B).
    """
    s = float(s)
    if not 0.0 < s < 1.0:
        raise HypothesisViolation(f"s must satisfy 0 < s < 1, got {s}")
    Ah = _as_positive_operand(A)
    Bh = _as_positive_operand(B)
    Km = as_matrix(K)
    if Ah.dim != Bh.dim:
        raise ValueError(f"dimension mismatch: {Ah.dim} vs {Bh.dim}")
    if Km.shape != (Ah.dim, Ah.dim):
        raise ValueError(f"K must be {Ah.dim}x{Ah.dim}, got shape {Km.shape}")
    As = apply_scalar_function(lookup_atom("power", s), Ah).mat
    Bs = apply_scalar_function(lookup_atom("power", 1.0 - s), Bh).mat
    return float(np.real(np.trace(As @ Km.conj().T @ Bs @ Km)))


def _require_pq_exponents(p: float, q: float) -> tuple[float, float]:
    """The exponent range of ``lieb_pq_functional``, as floats."""
    p, q = float(p), float(q)
    if not 0.0 < q <= 1.0:
        raise HypothesisViolation(f"q must satisfy 0 < q <= 1, got {q}")
    if q == 1.0 and p != 0.0:
        raise HypothesisViolation(
            f"p + q <= 1 with q = 1 forces p = 0, got p = {p}")
    if q < 1.0 and p <= 0.0:
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
    Ah = _as_positive_operand(A)
    Bh = _as_positive_operand(B)
    Xm = as_matrix(X)
    if Ah.dim != Bh.dim:
        raise ValueError(f"dimension mismatch: {Ah.dim} vs {Bh.dim}")
    if Xm.shape != (Ah.dim, Ah.dim):
        raise ValueError(f"X must be {Ah.dim}x{Ah.dim}, got shape {Xm.shape}")
    Aq = apply_scalar_function(lookup_atom("power", q), Ah).mat
    if p == 0.0:
        Bp = np.eye(Bh.dim, dtype=np.complex128)
    else:
        Bp = apply_scalar_function(lookup_atom("power", p), Bh).mat
    return float(np.real(np.trace(Aq @ Xm.conj().T @ Bp @ Xm)))


def classical_perspective(f: ScalarAtom, x, t: float) -> np.ndarray:
    """Componentwise scalar perspective f(x_i / t) t for a single t > 0."""
    t = float(t)
    if t <= 0.0:
        raise DomainViolation(f"perspective base must be positive, got {t}")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    return f(f.domain.clamp(xv / t)) * t


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
