"""Hermitian matrices, spectral functional calculus, and the Loewner order.

Everything downstream reduces to three primitives: eigendecompose a
Hermitian matrix, push a scalar function through its spectrum, and decide
A <= B in the positive semidefinite order with an explicit, relative
tolerance. This module owns those primitives plus the JSON wire format for
matrices used by the command line and by verification witness records.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import ScalarAtom
from .errors import EigendecompositionError

# Readers of Hermitian operands reject anything further from Hermitian
# than this (max-entry norm of M - M*).
JSON_HERMITICITY_TOL = 1e-8

# Unitarity validation threshold (max-entry norm of U*U - I).
UNITARY_TOL = 1e-10


class HermitianMatrix:
    """An immutable Hermitian matrix.

    Any finite square complex matrix is accepted: the stored matrix is the
    Hermitian part ``(M + M*)/2`` and the size of what was discarded is kept
    in ``defect`` (max-entry norm of ``M - M*``). Stored entries therefore
    satisfy hermiticity exactly.
    """

    __slots__ = ("_mat", "_defect")

    def __init__(self, mat):
        M = np.asarray(mat, dtype=np.complex128)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        if M.shape[0] < 1:
            raise ValueError("matrix dimension must be at least 1")
        if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
            raise ValueError("matrix entries must be finite")
        adj = M.conj().T
        H = (M + adj) / 2.0
        H.flags.writeable = False
        object.__setattr__(self, "_mat", H)
        object.__setattr__(self, "_defect", float(np.max(np.abs(M - adj))))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def defect(self) -> float:
        """Hermiticity defect of the original input, before symmetrization."""
        return self._defect

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim}, defect={self._defect:.3g})"


def as_matrix(x) -> np.ndarray:
    """Coerce a HermitianMatrix or array-like to a complex ndarray."""
    if isinstance(x, HermitianMatrix):
        return x.mat
    return np.asarray(x, dtype=np.complex128)


def as_hermitian(x) -> HermitianMatrix:
    return x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and a matching unitary of eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        U = np.asarray(self.eigenvectors, dtype=np.complex128)
        if w.ndim != 1 or U.shape != (w.size, w.size):
            raise ValueError("eigenvalues and eigenvectors have mismatched shapes")
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", U)

    def reconstruct(self) -> np.ndarray:
        U = self.eigenvectors
        return (U * self.eigenvalues) @ U.conj().T


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a positive-semidefinite order comparison.

    ``slack`` is the minimum eigenvalue of B - A; the comparison A <= B
    holds when slack >= -tolerance_used.
    """

    holds: bool
    slack: float
    tolerance_used: float


def spectral_decompose(T) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix with ascending eigenvalues."""
    H = as_hermitian(T)
    try:
        w, U = np.linalg.eigh(H.mat)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(H.dim, float(np.max(np.abs(H.mat))),
                                      str(exc)) from exc
    return SpectralDecomposition(w, U)


def apply_scalar_function(f: ScalarAtom, T) -> HermitianMatrix:
    """Evaluate ``f`` on a Hermitian matrix through its spectrum.

    Every eigenvalue is validated against the atom's domain (with clamping
    of floating-point noise at closed endpoints) before evaluation; an
    eigenvalue outside the domain raises ``DomainViolation`` naming it.
    """
    dec = spectral_decompose(T)
    vals = f(f.domain.clamp(dec.eigenvalues))
    U = dec.eigenvectors
    return HermitianMatrix((U * vals) @ U.conj().T)


def op_norm(M) -> float:
    """Operator (spectral) norm of a matrix."""
    A = as_matrix(M)
    if A.shape[0] == A.shape[1] and np.allclose(A, A.conj().T, atol=0, rtol=0):
        w = np.linalg.eigvalsh(A)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.norm(A, 2))


def loewner_leq(A, B, tol: float = 1e-8) -> LoewnerVerdict:
    """Decide A <= B in the Loewner order with a relative tolerance.

    The comparison holds when the minimum eigenvalue of D = B - A is at
    least ``-tol * (1 + ||D||_op)``, so the tolerance scales with the size
    of the difference being judged.
    """
    Am, Bm = as_hermitian(A), as_hermitian(B)
    if Am.dim != Bm.dim:
        raise ValueError(f"dimension mismatch: {Am.dim} vs {Bm.dim}")
    w = np.linalg.eigvalsh(Bm.mat - Am.mat)
    slack = float(w[0])
    scale = 1.0 + max(abs(float(w[0])), abs(float(w[-1])))
    tolerance_used = tol * scale
    return LoewnerVerdict(holds=slack >= -tolerance_used, slack=slack,
                          tolerance_used=tolerance_used)


def hs_inner(X, Y) -> complex:
    """Hilbert-Schmidt inner product Trace(X Y*)."""
    Xm, Ym = as_matrix(X), as_matrix(Y)
    if Xm.shape != Ym.shape:
        raise ValueError(f"shape mismatch: {Xm.shape} vs {Ym.shape}")
    return complex(np.vdot(Ym, Xm))


def matrix_to_json(M) -> dict:
    """Encode a complex matrix as a JSON-ready dict.

    Square matrices use ``{"dim": n, "entries": [[[re, im] x n] x n]}``
    (row-major); rectangular ones carry ``"rows"``/``"cols"`` instead of
    ``"dim"``.
    """
    A = as_matrix(M)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    rows, cols = A.shape
    entries = np.ascontiguousarray(A).view(np.float64).reshape(
        rows, cols, 2).tolist()
    if rows == cols:
        return {"dim": rows, "entries": entries}
    return {"rows": rows, "cols": cols, "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the wire format back into a complex ndarray (no hermiticity gate).

    Entries must be JSON numbers: ``null``, strings and objects are rejected
    rather than coerced.
    """
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with an 'entries' field")
    try:
        if "dim" in obj:
            rows = cols = int(obj["dim"])
        elif "rows" in obj and "cols" in obj:
            rows, cols = int(obj["rows"]), int(obj["cols"])
        else:
            raise ValueError("matrix JSON must carry 'dim' or 'rows'/'cols'")
    except TypeError:
        raise ValueError("matrix dimensions must be integers") from None
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be at least 1")
    entries = obj["entries"]
    try:
        shaped = len(entries) == rows and all(len(r) == cols for r in entries)
    except TypeError:
        shaped = False
    if not shaped:
        raise ValueError(f"entries shape does not match {rows}x{cols}")
    try:
        E = np.array(entries)
    except ValueError:  # ragged below the row level
        E = None
    if E is None or E.shape != (rows, cols, 2):
        raise ValueError("each entry must be a [re, im] pair")
    if E.dtype.kind not in "fi":
        raise ValueError("matrix entries must be numbers")
    E = E.astype(np.float64, copy=False)
    if not np.all(np.isfinite(E)):
        raise ValueError("matrix entries must be finite")
    # a view, not re + 1j*im, which would turn an imaginary -0.0 into +0.0
    return E.view(np.complex128).reshape(rows, cols)


def hermitian_from_json(obj: dict) -> HermitianMatrix:
    """Decode a matrix that is required to be Hermitian.

    Rejects input whose hermiticity defect exceeds ``JSON_HERMITICITY_TOL``,
    reporting the measured defect.
    """
    M = matrix_from_json(obj)
    if M.shape[0] != M.shape[1]:
        raise ValueError("Hermitian operand must be square")
    defect = float(np.max(np.abs(M - M.conj().T)))
    if defect > JSON_HERMITICITY_TOL:
        raise ValueError(
            f"input is not Hermitian: defect {defect:.3e} exceeds "
            f"{JSON_HERMITICITY_TOL:g}")
    return HermitianMatrix(M)
