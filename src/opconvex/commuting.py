"""Commuting positive pairs and the left/right multiplication pair.

A perspective g(L, R) = f(L/R) R only makes sense when L and R commute, so
a pair is built in diagonalized form only, ``CommutingPair(basis, lam, mu)``:
one unitary basis plus two strictly positive spectra. Commutation is then
exact by construction and the quotient L/R is unambiguous.

The pairs that matter in practice are superoperators: left multiplication
by sigma and right multiplication by rho on the Hilbert-Schmidt space of
n x n matrices always commute. ``MultiplicationPair`` keeps them as the
spectral factors of sigma and rho, whose rank-one products u_i v_j* are a
joint eigenbasis; the perspective module evaluates quadratic forms from
those factors in O(n^3). ``realize_multiplication_pair`` builds the same
pair as an explicit n^2 x n^2 ``CommutingPair``, the reference realization
that tests compare the factored evaluation against.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DomainViolation
from .linalg import (HermitianMatrix, RowErrors, UNITARY_TOL, _adj,
                     _materialize, as_hermitian, as_matrix, spectral_decompose)

# Default strict-positivity floor for spectra.
DEFAULT_FLOOR = 1e-8


@dataclass(frozen=True, eq=False, slots=True)
class CommutingPair:
    """A commuting pair of strictly positive matrices in joint eigenform.

    ``left`` is ``U diag(lam) U*`` and ``right`` is ``U diag(mu) U*`` for
    the unitary ``U = basis``; entry i of ``lam``/``mu`` is the eigenvalue
    pair on the i-th joint eigenvector. The three are stored as read-only
    copies, checked for a unitary basis and finite spectra no lower than
    ``floor``.
    """

    basis: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    floor: InitVar[float] = DEFAULT_FLOOR

    def __post_init__(self, floor):
        U = np.asarray(self.basis, dtype=np.complex128)
        lam = np.asarray(self.lam, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError(f"basis must be square, got shape {U.shape}")
        n = U.shape[0]
        if lam.shape != (n,) or mu.shape != (n,):
            raise ValueError("spectra must match the basis dimension")
        RowErrors.one(lambda errs: _pair_gates(U[None], lam[None], mu[None],
                                               floor, errs))
        for name, a in (("basis", U), ("lam", lam), ("mu", mu)):
            a = a.copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def left(self) -> HermitianMatrix:
        return HermitianMatrix(_materialize(self.basis, self.lam))

    @property
    def right(self) -> HermitianMatrix:
        return HermitianMatrix(_materialize(self.basis, self.mu))

    def __repr__(self):
        return f"CommutingPair(dim={self.dim})"


def _pair_gates(U, lam, mu, floor: float, errs: RowErrors):
    """The ``CommutingPair`` checks on stacks of bases and spectra: a row
    fails on a non-unitary basis, a non-finite spectrum or a spectrum entry
    below ``floor``. Returns the rows' ``(U, lam, mu)``."""
    gram = np.max(np.abs(_adj(U) @ U - np.eye(U.shape[-1])), axis=(-2, -1))
    errs.fail(gram > UNITARY_TOL, lambda k: ValueError(
        f"basis is not unitary: defect {gram[k]:.3e} exceeds {UNITARY_TOL:g}"))
    for name, v in (("lam", lam), ("mu", mu)):
        errs.fail(~np.all(np.isfinite(v), axis=-1),
                  lambda k: ValueError(f"{name} must be finite"))
        low = np.min(v, axis=-1)
        errs.fail(low < floor, lambda k: DomainViolation(
            f"{name} entry {low[k]:.3e} below the positivity floor {floor:g}"))
    return U, lam, mu


@dataclass(frozen=True, eq=False, slots=True)
class MultiplicationPair:
    """Strictly positive sigma and rho defining L(X) = sigma X, R(X) = X rho.

    ``sigma`` and ``rho`` are stored as ``HermitianMatrix`` operands and
    eigendecomposed once, at construction: ``factors`` is
    ``(U_sigma, s, U_rho, r)`` with ``sigma = U_sigma diag(s) U_sigma*`` and
    ``rho = U_rho diag(r) U_rho*``, eigenvalues ascending. The positivity
    floor is checked on the least entries of ``s`` and ``r``.
    """

    sigma: HermitianMatrix
    rho: HermitianMatrix
    floor: InitVar[float] = DEFAULT_FLOOR
    factors: tuple = field(init=False, repr=False)

    def __post_init__(self, floor):
        s, r = as_hermitian(self.sigma), as_hermitian(self.rho)
        if s.dim != r.dim:
            raise ValueError(f"dimension mismatch: {s.dim} vs {r.dim}")
        factors = []
        for name, H in (("sigma", s), ("rho", r)):
            w, U = spectral_decompose(H)
            if w[0] < floor:
                raise DomainViolation(
                    f"{name} has eigenvalue {float(w[0]):.3e} below the "
                    f"positivity floor {floor:g}")
            for a in (U, w):
                a.flags.writeable = False
            factors += [U, w]
        object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "rho", r)
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def dim(self) -> int:
        return self.sigma.dim


def realize_multiplication_pair(mp: MultiplicationPair) -> CommutingPair:
    """Reference n^2 x n^2 realization of left-by-sigma and right-by-rho.

    Under column-stacking vectorization the two superoperators have
    matrices kron(I, sigma) and kron(rho^T, I); the rank-one matrices
    u_i v_j* built from eigenvectors sigma u_i = s_i u_i and
    rho v_j = r_j v_j are a joint eigenbasis. Basis column i*n + j is
    vec(u_i v_j*) with eigenvalue pair (s_i, r_j), i.e. the left spectrum
    is indexed by sigma's eigenvalues and the right one by rho's.

    This costs O(n^4) memory and an O(n^6) unitarity check. The library's
    quadratic forms never build it: they evaluate the same pair from
    ``mp.factors`` in O(n^3), and tests compare the two.
    """
    n = mp.dim
    Us, s, Ur, r = mp.factors
    # kron(conj(Ur), Us) holds vec(u_i v_j*) at column j*n + i; permute to
    # the (i outer, j inner) order the spectra below are laid out in.
    raw = np.kron(Ur.conj(), Us)
    k = np.arange(n * n)
    basis = raw[:, (k % n) * n + k // n]
    lam = np.repeat(s, n)
    mu = np.tile(r, n)
    floor = float(min(lam.min(), mu.min()))
    return CommutingPair(basis, lam, mu, floor=floor)


def apply_superop(pair: CommutingPair, which: str, X) -> np.ndarray:
    """Apply the realized left or right multiplication operator to X.

    ``pair`` must come from ``realize_multiplication_pair`` (its dimension
    is n^2); the result is the n x n matrix sigma X (``which="left"``) or
    X rho (``which="right"``) up to roundoff.
    """
    if which not in ("left", "right"):
        raise ValueError(f"which must be 'left' or 'right', got {which!r}")
    N = pair.dim
    n = math.isqrt(N)
    if n * n != N:
        raise ValueError(f"pair dimension {N} is not a perfect square")
    Xm = as_matrix(X)
    if Xm.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix, got shape {Xm.shape}")
    vec = Xm.flatten(order="F")
    evals = pair.lam if which == "left" else pair.mu
    U = pair.basis
    out = U @ (evals * (U.conj().T @ vec))
    return out.reshape((n, n), order="F")
