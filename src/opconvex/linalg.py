"""Hermitian matrices, spectral functional calculus, and the Loewner order.

Everything downstream reduces to three primitives: eigendecompose a
Hermitian matrix, push a scalar function through its spectrum, and decide
A <= B in the positive semidefinite order with an explicit, relative
tolerance. This module owns those primitives and the matrix JSON wire
format: the document schema, not file bytes, which the command line reads.

The primitives come as kernels on stacks of matrices, shape (batch, n, n),
which the verifier uses to decide many trials at once. The kernel contract:
- a kernel never raises for one row: a gate that fails records the row's
  exception in a ``RowErrors`` and the other rows go on;
- where a failed row's values must be replaced, they are replaced only
  through ``RowErrors.drop`` (or ``finite``/``clamp``, built on it), so
  the row stays finite downstream and no warning leaks from it;
- a matrix-valued kernel returns a Hermitian stack, symmetrized inside
  its own overflow guard, so ``HermitianMatrix`` of a row keeps its bits.
The public functions run the same kernels on a batch of one and raise that
row's exception. Stacked LAPACK and matmul calls give bit-identical results
to per-matrix calls (``tests/test_linalg.py`` guards this), so both paths
agree exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .atoms import Interval, ScalarAtom
from .errors import DomainViolation, EigendecompositionError

# Readers of Hermitian operands reject anything further from Hermitian
# than this (max-entry norm of M - M*).
JSON_HERMITICITY_TOL = 1e-8

# Unitarity validation threshold (max-entry norm of U*U - I).
UNITARY_TOL = 1e-10


def _require_dim(n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")


@dataclass(frozen=True, eq=False, slots=True)
class HermitianMatrix:
    """An immutable Hermitian matrix.

    Any finite square complex matrix (or ``HermitianMatrix``) is accepted:
    ``mat`` holds its Hermitian part ``(M + M*)/2``, read-only, so stored
    entries satisfy hermiticity exactly. Readers that must reject
    non-Hermitian input gate it first (``hermitian_from_json``).
    """

    mat: np.ndarray

    def __post_init__(self):
        M = as_matrix(self.mat)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {M.shape}")
        _require_dim(M.shape[0])
        if not np.isfinite(M).all():
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "mat", _frozen(_sym(M)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"

    def __reduce__(self):
        return _restored, (type(self), self.mat)


def _restored(cls, mat) -> HermitianMatrix:
    """A ``cls`` holding a read-only copy of ``mat`` as it is, for pickle
    and copy: a subclass's constructor would normalize it again."""
    H = object.__new__(cls)
    object.__setattr__(H, "mat", _frozen(np.array(mat)))
    return H


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``, an array that owns its data and that
    nothing else holds: the one way a value type stores an array. The
    view's flag cannot be set back, because its base is read-only too."""
    a.flags.writeable = False
    return a.view()


def _adj(M) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return M.conj().swapaxes(-1, -2)


def _sym(M) -> np.ndarray:
    """Hermitian part (M + M*)/2 of each matrix in a stack: what
    ``HermitianMatrix`` stores. Where the sum overflows (an entry above
    half the float64 range) it halves before it adds, so the Hermitian part
    of a finite stack is finite; elsewhere it keeps the bits, signed zeros
    included, of (M + M*)/2, and a Hermitian stack is its own Hermitian
    part."""
    with np.errstate(over="ignore", invalid="ignore"):
        H = (M + _adj(M)) / 2.0
        if not np.isfinite(H).all():
            H = M / 2.0
            H = H + _adj(H)
    return H


def _materialize(U, spectrum) -> np.ndarray:
    """U diag(spectrum) U* for stacks of bases and spectra."""
    return (U * spectrum[..., None, :]) @ _adj(U)


def _dot_rows(x, y) -> np.ndarray:
    """Row-wise inner products of real stacks, through matmul's dot kernel
    (the one ``np.dot`` uses), so each equals ``np.dot(x[k], y[k])``."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


class RowErrors:
    """The first exception each row of a stacked batch raised.

    Batched kernels decide many trials at once. A gate that fails on some
    rows records an exception for each of them instead of raising, so the
    other rows go on; a row keeps only its first exception, which is the
    one the same computation on that row alone would have raised. A gate
    whose failed rows would not stay finite downstream stands them in with
    ``drop``, the one place a kernel replaces a failed row's values.
    """

    __slots__ = ("errors",)

    def __init__(self, rows: int):
        self.errors = [None] * rows

    def fail(self, mask, make) -> None:
        """Record ``make(k)`` for every row k where ``mask`` holds."""
        for k in np.flatnonzero(mask):
            if self.errors[k] is None:
                self.errors[k] = make(k)

    def drop(self, mask, make, x, stand_in) -> np.ndarray:
        """Fail every row k where the row mask ``mask`` holds with
        ``make(k)``; return the stack ``x`` with those rows set to
        ``stand_in``, or ``x`` itself when no row is masked."""
        if not mask.any():
            return x
        self.fail(mask, make)
        return np.where(mask.reshape(mask.shape + (1,) * (x.ndim - mask.ndim)),
                        stand_in, x)

    def clamp(self, domain: Interval, x) -> np.ndarray:
        """``domain.clamp`` on every row of the stack ``x``. A row holding a
        value outside the domain fails with the ``DomainViolation`` naming
        its first such value and stands in an interior point."""
        out, bad = domain.admit(x)
        return out if bad is None else self.drop(
            bad.reshape(len(bad), -1).any(axis=1),
            lambda k: domain.violation(x[k][bad[k]][0]),
            out, domain.interior_point())

    def finite(self, x, make) -> np.ndarray:
        """``x`` with every row that holds a non-finite entry failed with
        ``make(k)`` and zeroed."""
        return self.drop(~np.isfinite(x).reshape(len(x), -1).all(axis=1),
                         make, x, 0.0)

    @classmethod
    def one(cls, kernel):
        """Run ``kernel(errors)`` on a batch of one; raise the row's
        exception, else return row 0 of the result (of each, for a tuple)."""
        errs = cls(1)
        out = kernel(errs)
        if errs.errors[0] is not None:
            raise errs.errors[0]
        if isinstance(out, tuple):
            return tuple(x[0] for x in out)
        return out[0]


def as_matrix(x) -> np.ndarray:
    """Coerce a HermitianMatrix or array-like to a complex ndarray."""
    if isinstance(x, HermitianMatrix):
        return x.mat
    return np.asarray(x, dtype=np.complex128)


def as_hermitian(x) -> HermitianMatrix:
    return x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)


def _hermitian_pair(A, B) -> tuple:
    """A and B as ``HermitianMatrix``, checked to share one dimension."""
    Ah, Bh = as_hermitian(A), as_hermitian(B)
    if Ah.dim != Bh.dim:
        raise ValueError(f"dimension mismatch: {Ah.dim} vs {Bh.dim}")
    return Ah, Bh


def _square_operand(K, n: int, name: str) -> np.ndarray:
    """K as a finite n x n array; ``name`` is K's name in the errors."""
    Km = as_matrix(K)
    if Km.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got shape {Km.shape}")
    if not np.isfinite(Km).all():
        raise ValueError(f"{name} must be finite")
    return Km


@dataclass(frozen=True)
class LoewnerVerdict:
    """Outcome of a positive-semidefinite order comparison.

    ``slack`` is the minimum eigenvalue of B - A; the comparison A <= B
    holds when slack >= -tolerance_used.
    """

    holds: bool
    slack: float
    tolerance_used: float

    @classmethod
    def of(cls, slack, tolerance_used) -> "LoewnerVerdict":
        return cls(holds=bool(slack >= -tolerance_used), slack=float(slack),
                   tolerance_used=float(tolerance_used))


def _eigh(H):
    """``eigh`` of a stack of Hermitian matrices; a LAPACK failure raises
    ``EigendecompositionError``."""
    try:
        return np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(H.shape[-1], float(np.max(np.abs(H))),
                                      str(exc)) from exc


def spectral_decompose(T) -> tuple:
    """Eigendecompose a Hermitian matrix: ``(eigenvalues, eigenvectors)``,
    with the eigenvalues ascending and the eigenvectors a unitary."""
    return _eigh(as_hermitian(T).mat)


def _calculus(f: ScalarAtom, H, errs: RowErrors) -> np.ndarray:
    """U f(w) U* for each H = U diag(w) U* of a stack. A row fails with an
    eigenvalue outside f's domain, or where the result overflows float64."""
    w, U = _eigh(H)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _sym(_materialize(U, f(errs.clamp(f.domain, w))))
    return errs.finite(out, lambda k: DomainViolation(
        f"{f.label} overflows float64 on the spectrum "
        f"[{w[k, 0]:.3e}, {w[k, -1]:.3e}]"))


def apply_scalar_function(f: ScalarAtom, T) -> HermitianMatrix:
    """Evaluate ``f`` on a Hermitian matrix through its spectrum.

    Every eigenvalue is validated against the atom's domain (with clamping
    of floating-point noise at closed endpoints) before evaluation; an
    eigenvalue outside the domain raises ``DomainViolation`` naming it.
    """
    H = as_hermitian(T).mat
    return HermitianMatrix(RowErrors.one(
        lambda errs: _calculus(f, H[None], errs)))


def op_norm(M) -> float:
    """Operator (spectral) norm of a matrix."""
    return float(np.linalg.norm(as_matrix(M), 2))


def _require_tol(tol) -> None:
    """Reject a relative tolerance outside (0, 1)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be in (0, inf), got {tol}")
    if tol >= 1.0:
        # tol * (1 + ||B - A||) would exceed |min eig(B - A)|
        raise ValueError(f"tol must be below 1, got {tol:g}: a relative "
                         f"tolerance of 1 or more passes every "
                         f"Loewner-order check")


def _loewner(A, B, tol: float, errs: RowErrors):
    """(slack, tolerance_used) of A <= B for stacks of Hermitian A, B. A
    row fails where B - A overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        D = B - A
    w = np.linalg.eigvalsh(errs.finite(D, lambda k: DomainViolation(
        f"B - A overflows float64; the largest entries of A and B are "
        f"{np.abs(A[k]).max():.3e} and {np.abs(B[k]).max():.3e}")))
    slack = w[..., 0]
    return slack, tol * (1.0 + np.maximum(np.abs(slack), np.abs(w[..., -1])))


def loewner_leq(A, B, tol: float = 1e-8) -> LoewnerVerdict:
    """Decide A <= B in the Loewner order with a relative tolerance.

    The comparison holds when the minimum eigenvalue of D = B - A is at
    least ``-tol * (1 + ||D||_op)``, so the tolerance scales with the size
    of the difference being judged; ``tol`` must lie in (0, 1).
    """
    _require_tol(tol)
    Am, Bm = _hermitian_pair(A, B)
    return LoewnerVerdict.of(*RowErrors.one(
        lambda errs: _loewner(Am.mat[None], Bm.mat[None], tol, errs)))


def hs_inner(X, Y) -> complex:
    """Hilbert-Schmidt inner product Trace(X Y*)."""
    Xm, Ym = as_matrix(X), as_matrix(Y)
    if Xm.shape != Ym.shape:
        raise ValueError(f"shape mismatch: {Xm.shape} vs {Ym.shape}")
    return complex(np.vdot(Ym, Xm))


def matrix_wire(M) -> dict:
    """The wire format of a complex matrix, its entries still an array.

    Square matrices give ``{"dim": n, "entries": E}`` and rectangular ones
    carry ``"rows"``/``"cols"`` instead of ``"dim"``; ``E`` is a float64
    array of shape (rows, cols, 2) holding each entry as ``[re, im]``,
    row-major.
    """
    A = as_matrix(M)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {A.shape}")
    rows, cols = A.shape
    entries = np.ascontiguousarray(A).view(np.float64).reshape(rows, cols, 2)
    if rows == cols:
        return {"dim": rows, "entries": entries}
    return {"rows": rows, "cols": cols, "entries": entries}


def matrix_to_json(M) -> dict:
    """Encode a complex matrix as a JSON-ready dict: ``matrix_wire`` with
    the entries as nested lists, ``[[[re, im] x cols] x rows]``."""
    doc = matrix_wire(M)
    doc["entries"] = doc["entries"].tolist()
    return doc


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the wire format back into a complex ndarray (no hermiticity gate).

    ``obj`` is a document whose entries are nested lists, as JSON gives
    them, or the float64 array ``matrix_wire`` gives, which is copied.
    Dimensions must be JSON integers and entries JSON numbers: nothing else
    (``null``, booleans, strings, objects, float dimensions) is coerced.
    """
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ValueError("matrix JSON must be an object with an 'entries' field")
    if "dim" in obj:
        rows = cols = obj["dim"]
    elif "rows" in obj and "cols" in obj:
        rows, cols = obj["rows"], obj["cols"]
    else:
        raise ValueError("matrix JSON must carry 'dim' or 'rows'/'cols'")
    if any(isinstance(d, bool) or not isinstance(d, (int, np.integer))
           for d in (rows, cols)):
        raise ValueError("matrix dimensions must be integers")
    _require_dim(rows)
    _require_dim(cols)
    entries = obj["entries"]
    if (type(entries) is np.ndarray and entries.dtype == np.float64
            and entries.shape == (rows, cols, 2)):
        E = entries.flatten()
    else:
        try:
            shaped = len(entries) == rows and set(map(len, entries)) == {cols}
        except TypeError:
            shaped = False
        if not shaped:
            raise ValueError(f"entries shape does not match {rows}x{cols}")
        pairs = list(chain.from_iterable(entries))
        try:
            paired = set(map(len, pairs)) == {2}
        except TypeError:
            paired = False
        if not paired:
            raise ValueError("each entry must be a [re, im] pair")
        numbers = list(chain.from_iterable(pairs))
        if not all(issubclass(kind, (int, float, np.integer, np.floating))
                   and kind is not bool for kind in set(map(type, numbers))):
            raise ValueError("matrix entries must be numbers")
        try:
            E = np.fromiter(numbers, np.float64, len(numbers))
        except OverflowError:  # an integer beyond the float range
            raise ValueError("matrix entries must be finite") from None
    if not np.all(np.isfinite(E)):
        raise ValueError("matrix entries must be finite")
    # a view, not re + 1j*im, which would turn an imaginary -0.0 into +0.0
    return E.view(np.complex128).reshape(rows, cols)


def hermitian_from_json(obj: dict) -> HermitianMatrix:
    """Decode a matrix that is required to be Hermitian.

    ``obj`` is as for ``matrix_from_json``. Rejects input whose hermiticity
    defect exceeds ``JSON_HERMITICITY_TOL``, reporting the measured defect.
    """
    M = matrix_from_json(obj)
    if M.shape[0] != M.shape[1]:
        raise ValueError("Hermitian operand must be square")
    with np.errstate(over="ignore"):  # entries near the float64 range
        defect = float(np.max(np.abs(M - M.conj().T)))
    if defect > JSON_HERMITICITY_TOL:
        raise ValueError(f"input is not Hermitian: defect {defect:.3e} "
                         f"exceeds {JSON_HERMITICITY_TOL:g}")
    return HermitianMatrix(M)
