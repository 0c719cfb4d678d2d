"""Seeded randomized verification of the inequality zoo.

One table maps each theorem tag to a draw of operands, a checker, and the
configuration gates its hypotheses impose. Draws come from a per-trial
``numpy`` Generator seeded by a stable hash of (campaign seed, theorem
tag, trial index, redraw counter), so campaigns are reproducible
trial-by-trial and any reported witness can be replayed from its recorded
coordinates alone.

Checkers validate the theorem's hypotheses before evaluating the
inequality: a hypothesis defect is a generator bug and raises
``HypothesisViolation``, never counts as an inequality failure. Domain
violations (an instance wandering out of an atom's domain) are rejected
trials and trigger a redraw with the next sub-seed.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .atoms import ScalarAtom, lookup_atom
from .commuting import CommutingPair, DEFAULT_FLOOR, make_commuting_pair
from .errors import DomainViolation, HypothesisViolation
from .functionals import (DensityMatrix, ProbabilityVector,
                          _require_pq_exponents, classical_perspective,
                          lieb_functional, lieb_pq_functional,
                          quantum_relative_entropy_direct)
from .linalg import (HermitianMatrix, LoewnerVerdict, apply_scalar_function,
                     as_hermitian, as_matrix, loewner_leq, matrix_to_json)
from .perspective import (_require_extended_hypotheses,
                          _require_matrix_convex, extended_perspective_eigen,
                          extended_perspective_symmetrized,
                          perspective_eigen, perspective_symmetrized)

# Theorem tags in canonical order; "all" in the CLI expands to this.
THEOREM_TAGS = ("hp", "hp-contractive", "perspective", "marechal",
                "rel-entropy-convexity", "lieb-s", "lieb-pq", "classical")

# Hypothesis fidelity bound: generated instances must satisfy their
# theorem's hypotheses (isometry defect, contraction slack, unit trace)
# this tightly before the inequality is evaluated.
HYPOTHESIS_TOL = 1e-10

# Redraw budget per trial before we call the generator broken.
MAX_REDRAWS = 100

# Random spectra are log-uniform on [SPECTRUM_LO, SPECTRUM_HI]: four
# orders of magnitude of quotient conditioning without leaving any
# positive-domain atom's comfort zone.
SPECTRUM_LO = 0.1
SPECTRUM_HI = 10.0

# Real-line atoms get spectra uniform on [-REAL_BOUND, REAL_BOUND].
REAL_BOUND = 5.0

SEED_RULE = ("sha256('{seed}:{theorem}:{index}:{redraw}') -> "
             "first 8 bytes, little-endian")


# ---------------------------------------------------------------------------
# configuration and reports

@dataclass(frozen=True)
class TrialConfig:
    """Campaign knobs. ``atom``/``atom_parameter`` select f for the Jensen,
    perspective, and classical tags; ``s`` is the exponent of the trace
    functional tag, ``t`` the base exponent of the extended perspective,
    ``p``/``q`` the exponent pair of its corollary."""

    dim_n: int = 3
    dim_m: int = 3
    trials: int = 200
    seed: int = 0
    tol: float = 1e-8
    floor: float = DEFAULT_FLOOR
    atom: str = "xlogx"
    atom_parameter: float | None = None
    s: float = 0.5
    t: float = 0.5
    p: float = 0.3
    q: float = 0.4
    shrink: float = 1.0
    force_endpoints: bool = True

    def validate(self) -> None:
        if self.dim_n < 1 or self.dim_m < 1:
            raise ValueError(
                f"dimensions must be >= 1, got ({self.dim_m}, {self.dim_n})")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.floor > 0.0:
            raise ValueError(f"floor must be positive, got {self.floor}")
        if not 0.0 < self.shrink <= 1.0:
            raise ValueError(f"shrink must be in (0, 1], got {self.shrink}")
        self.resolve_atom()
        lookup_atom("neg_power", self.s)
        lookup_atom("power", self.t)

    def resolve_atom(self) -> ScalarAtom:
        return lookup_atom(self.atom, self.atom_parameter)

    def fingerprint(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckReport:
    """Aggregate of one theorem's campaign."""

    theorem: str
    trials: int
    failures: int
    worst_slack: float
    tolerance: float
    witness: dict
    config: dict

    def to_json(self) -> dict:
        return {"theorem": self.theorem, "trials": self.trials,
                "failures": self.failures, "worst_slack": self.worst_slack,
                "tolerance": self.tolerance, "witness": self.witness,
                "config": self.config}


def scalar_geq(lhs: float, rhs: float, tol: float) -> LoewnerVerdict:
    """Scalar analogue of the Loewner check: lhs >= rhs up to tol*scale."""
    lhs, rhs = float(lhs), float(rhs)
    slack = lhs - rhs
    used = tol * (1.0 + max(abs(lhs), abs(rhs)))
    return LoewnerVerdict(holds=bool(slack >= -used), slack=slack,
                          tolerance_used=used)


# ---------------------------------------------------------------------------
# instance generators

def _complex_gaussian(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal(
        (rows, cols))


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary (QR with phase-fixed diagonal)."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(_complex_gaussian(rng, n, n))
    d = np.diagonal(R)
    phases = np.where(np.abs(d) > 0.0, d / np.abs(np.where(d == 0, 1, d)), 1.0)
    return Q * phases


def random_density(n: int, seed, floor: float = DEFAULT_FLOOR) -> DensityMatrix:
    """Wishart density G G* + floor I, trace-normalized."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    G = _complex_gaussian(rng, n, n)
    M = G @ G.conj().T + floor * np.eye(n)
    tr = float(np.real(np.trace(M)))
    return DensityMatrix(M, floor=floor / tr)


def random_positive_matrix(n: int, seed,
                           floor: float = DEFAULT_FLOOR) -> HermitianMatrix:
    """Wishart positive matrix G G* + floor I (no normalization)."""
    rng = np.random.default_rng(seed)
    G = _complex_gaussian(rng, n, n)
    return HermitianMatrix(G @ G.conj().T + floor * np.eye(n))


def _require_isometry_dims(m: int, n: int) -> None:
    if 2 * m < n:
        raise ValueError(
            f"no isometry pair exists for m={m}, n={n}: need 2m >= n")


def random_isometry_pair(m: int, n: int, seed):
    """(A, B), both m x n, with A*A + B*B = I_n.

    Stacks them as the orthonormalization of a 2m x n complex Gaussian,
    so the pair exists exactly when 2m >= n.
    """
    _require_isometry_dims(m, n)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(_complex_gaussian(rng, 2 * m, n))
    return Q[:m, :], Q[m:, :]


def random_contraction_pair(m: int, n: int, seed, shrink: float = 1.0):
    """Isometry pair scaled by a uniform factor in (0, shrink]."""
    if not 0.0 < shrink <= 1.0:
        raise ValueError(f"shrink must be in (0, 1], got {shrink}")
    rng = np.random.default_rng(seed)
    A, B = random_isometry_pair(m, n, rng)
    gamma = shrink * (1.0 - rng.random())
    return A * gamma, B * gamma


def random_commuting_pair(n: int, seed, floor: float = DEFAULT_FLOOR,
                          lo: float = SPECTRUM_LO,
                          hi: float = SPECTRUM_HI) -> CommutingPair:
    """Random basis with two independent log-uniform spectra on [lo, hi]."""
    rng = np.random.default_rng(seed)
    lo = max(lo, floor)
    U = random_unitary(n, rng)
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    mu = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    return make_commuting_pair(U, lam, mu, floor=floor)


def _log_uniform(rng, size=None):
    return np.exp(rng.uniform(np.log(SPECTRUM_LO), np.log(SPECTRUM_HI), size))


def _in_domain(f: ScalarAtom, rng, size=None):
    if f.domain.lo >= 0.0:
        return _log_uniform(rng, size)
    return rng.uniform(-REAL_BOUND, REAL_BOUND, size)


def random_hermitian_in_domain(f: ScalarAtom, n: int, seed) -> HermitianMatrix:
    """Hermitian matrix whose spectrum lies inside f's domain.

    Positive-domain atoms get log-uniform spectra on [SPECTRUM_LO,
    SPECTRUM_HI]; real-line atoms get uniform spectra on
    [-REAL_BOUND, REAL_BOUND].
    """
    rng = np.random.default_rng(seed)
    U = random_unitary(n, rng)
    w = _in_domain(f, rng, n)
    return HermitianMatrix((U * w) @ U.conj().T)


def random_probability_vector(n: int, seed) -> ProbabilityVector:
    rng = np.random.default_rng(seed)
    v = rng.random(n) + 0.05
    return ProbabilityVector(v / v.sum())


# ---------------------------------------------------------------------------
# checkers, one per inequality

def _jensen_verdict(f: ScalarAtom, Am, Bm, Th: HermitianMatrix,
                    tol: float) -> LoewnerVerdict:
    fT = apply_scalar_function(f, Th).mat
    compressed = HermitianMatrix(
        Am.conj().T @ Th.mat @ Am + Bm.conj().T @ Th.mat @ Bm)
    lhs = apply_scalar_function(f, compressed)
    rhs = HermitianMatrix(Am.conj().T @ fT @ Am + Bm.conj().T @ fT @ Bm)
    return loewner_leq(lhs, rhs, tol)


def _jensen_operands(A, B, T):
    """The operands as arrays, plus I - (A*A + B*B)."""
    Am, Bm = as_matrix(A), as_matrix(B)
    if Am.shape != Bm.shape or Am.ndim != 2:
        raise ValueError(
            f"A and B must share an m x n shape, got {Am.shape} and {Bm.shape}")
    Th = as_hermitian(T)
    if Th.dim != Am.shape[0]:
        raise ValueError(
            f"T must be {Am.shape[0]} square to match the pair, got {Th.dim}")
    gap = np.eye(Am.shape[1]) - (Am.conj().T @ Am + Bm.conj().T @ Bm)
    return Am, Bm, Th, gap


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
    Am, Bm, Th, gap = _jensen_operands(A, B, T)
    defect = float(np.max(np.abs(gap)))
    if defect > HYPOTHESIS_TOL:
        raise HypothesisViolation(
            f"A*A + B*B deviates from the identity by {defect:.3e}")
    return _jensen_verdict(f, Am, Bm, Th, tol)


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
    Am, Bm, Th, gap = _jensen_operands(A, B, T)
    slack = float(np.linalg.eigvalsh(gap)[0])
    if slack < -HYPOTHESIS_TOL:
        raise HypothesisViolation(
            f"A*A + B*B exceeds the identity by {-slack:.3e}")
    return _jensen_verdict(f, Am, Bm, Th, tol)


def _check_c(c: float) -> float:
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise HypothesisViolation(f"mixing weight must be in [0, 1], got {c}")
    return c


def _perspective_convexity(g, g_sym, pair1: CommutingPair,
                           pair2: CommutingPair, c: float,
                           tol: float) -> LoewnerVerdict:
    """g_sym(cL1+(1-c)L2, cR1+(1-c)R2) <= c g(pair1) + (1-c) g(pair2)."""
    c = _check_c(c)
    if pair1.dim != pair2.dim:
        raise ValueError(f"dimension mismatch: {pair1.dim} vs {pair2.dim}")
    g1 = g(pair1)
    g2 = g(pair2)
    L = c * pair1.left.mat + (1.0 - c) * pair2.left.mat
    R = c * pair1.right.mat + (1.0 - c) * pair2.right.mat
    combo = g_sym(L, R)
    mix = HermitianMatrix(c * g1.mat + (1.0 - c) * g2.mat)
    return loewner_leq(combo, mix, tol)


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
    return _perspective_convexity(
        lambda pair: perspective_eigen(f, pair),
        lambda L, R: perspective_symmetrized(f, L, R, floor=floor),
        pair1, pair2, c, tol)


def check_extended_perspective_joint_convexity(f: ScalarAtom, h: ScalarAtom,
                                   pair1: CommutingPair, pair2: CommutingPair,
                                   c: float, tol: float = 1e-8,
                                   floor: float = DEFAULT_FLOOR
                                   ) -> LoewnerVerdict:
    """Joint convexity of the extended perspective f(L/h(R))h(R)."""
    return _perspective_convexity(
        lambda pair: extended_perspective_eigen(f, h, pair),
        lambda L, R: extended_perspective_symmetrized(f, h, L, R,
                                                      floor=floor),
        pair1, pair2, c, tol)


def _density_operand(name: str, x) -> HermitianMatrix:
    H = x.matrix if isinstance(x, DensityMatrix) else as_hermitian(x)
    tr = float(np.real(np.trace(H.mat)))
    if abs(tr - 1.0) > HYPOTHESIS_TOL:
        raise HypothesisViolation(f"{name} must have unit trace, got {tr!r}")
    return H


def check_relative_entropy_joint_convexity(rho1, sigma1, rho2, sigma2,
                                           c: float, tol: float = 1e-8
                                           ) -> LoewnerVerdict:
    """c S(r1||s1) + (1-c) S(r2||s2) >= S(c r1+(1-c)r2 || c s1+(1-c)s2)."""
    c = _check_c(c)
    r1 = _density_operand("rho1", rho1)
    s1 = _density_operand("sigma1", sigma1)
    r2 = _density_operand("rho2", rho2)
    s2 = _density_operand("sigma2", sigma2)
    mixture = (c * quantum_relative_entropy_direct(r1, s1)
               + (1.0 - c) * quantum_relative_entropy_direct(r2, s2))
    combo = quantum_relative_entropy_direct(
        HermitianMatrix(c * r1.mat + (1.0 - c) * r2.mat),
        HermitianMatrix(c * s1.mat + (1.0 - c) * s2.mat))
    return scalar_geq(mixture, combo, tol)


def _trace_concavity(functional, A1, B1, A2, B2, c: float,
                     tol: float) -> LoewnerVerdict:
    """functional(cA1+(1-c)A2, cB1+(1-c)B2) >= c v1 + (1-c) v2."""
    c = _check_c(c)
    v1 = functional(A1, B1)
    v2 = functional(A2, B2)
    Am = c * as_hermitian(A1).mat + (1.0 - c) * as_hermitian(A2).mat
    Bm = c * as_hermitian(B1).mat + (1.0 - c) * as_hermitian(B2).mat
    combo = functional(HermitianMatrix(Am), HermitianMatrix(Bm))
    return scalar_geq(combo, c * v1 + (1.0 - c) * v2, tol)


def check_lieb_concavity(A1, B1, A2, B2, K, s: float, c: float,
                         tol: float = 1e-8) -> LoewnerVerdict:
    """Joint concavity of Tr(A^s K* B^(1-s) K) in (A, B)."""
    return _trace_concavity(lambda A, B: lieb_functional(A, B, K, s),
                            A1, B1, A2, B2, c, tol)


def check_lieb_pq_concavity(A1, B1, A2, B2, X, p: float, q: float, c: float,
                            tol: float = 1e-8) -> LoewnerVerdict:
    """Joint concavity of Tr(A^q X* B^p X) for p, q > 0, p + q <= 1."""
    return _trace_concavity(lambda A, B: lieb_pq_functional(A, B, X, p, q),
                            A1, B1, A2, B2, c, tol)


def check_classical_perspective_convexity(f: ScalarAtom, x1: float, t1: float,
                                          x2: float, t2: float, c: float,
                                          tol: float = 1e-8) -> LoewnerVerdict:
    """Scalar joint convexity of g(x, t) = f(x/t) t."""
    _require_not_concave(f)
    c = _check_c(c)
    if t1 <= 0.0 or t2 <= 0.0:
        raise HypothesisViolation(
            f"perspective bases must be positive, got {t1} and {t2}")
    g1 = float(classical_perspective(f, x1, t1)[0])
    g2 = float(classical_perspective(f, x2, t2)[0])
    combo = float(classical_perspective(
        f, c * x1 + (1.0 - c) * x2, c * t1 + (1.0 - c) * t2)[0])
    return scalar_geq(c * g1 + (1.0 - c) * g2, combo, tol)


# ---------------------------------------------------------------------------
# the theorem table

def _draw_jensen(cfg: TrialConfig, rng, A, B) -> dict:
    f = cfg.resolve_atom()
    return {"atom": f.label, "A": A, "B": B,
            "T": random_hermitian_in_domain(f, cfg.dim_m, rng)}


def _draw_pairs(cfg: TrialConfig, rng) -> dict:
    return {"1": random_commuting_pair(cfg.dim_n, rng, cfg.floor),
            "2": random_commuting_pair(cfg.dim_n, rng, cfg.floor)}


def _draw_lieb(cfg: TrialConfig, rng, exponents: dict, key: str) -> dict:
    w = dict(exponents)
    for name in ("A1", "B1", "A2", "B2"):
        w[name] = random_positive_matrix(cfg.dim_n, rng, cfg.floor)
    w[key] = _complex_gaussian(rng, cfg.dim_n, cfg.dim_n)
    return w


def _draw_classical(cfg: TrialConfig, rng) -> dict:
    f = cfg.resolve_atom()
    w = {"atom": f.label}
    for i in ("1", "2"):
        w["x" + i] = float(_in_domain(f, rng))
        w["t" + i] = float(_log_uniform(rng))
    return w


class _Theorem(NamedTuple):
    """One theorem tag: ``draw(cfg, rng)`` returns the witness operands in
    the tag's fixed RNG order, ``check(cfg, operands, c)`` decides the
    inequality, and ``gate(cfg)`` rejects up front what the checker's
    hypothesis gate would. Entries name generators and checkers at call
    time, so rebinding a module-level name (as a tracer does) reaches them."""

    draw: Callable
    check: Callable
    uses_c: bool
    gate: Callable = lambda cfg: None


def _jensen_gate(cfg: TrialConfig) -> None:
    _require_isometry_dims(cfg.dim_m, cfg.dim_n)
    _require_not_concave(cfg.resolve_atom())


def _contractive_gate(cfg: TrialConfig) -> None:
    _jensen_gate(cfg)
    _require_f0_nonpositive(cfg.resolve_atom())


_THEOREMS = {
    "hp": _Theorem(
        lambda cfg, rng: _draw_jensen(
            cfg, rng, *random_isometry_pair(cfg.dim_m, cfg.dim_n, rng)),
        lambda cfg, w, c: check_jensen_isometry(
            cfg.resolve_atom(), w["A"], w["B"], w["T"], cfg.tol),
        False, _jensen_gate),
    "hp-contractive": _Theorem(
        lambda cfg, rng: _draw_jensen(cfg, rng, *random_contraction_pair(
            cfg.dim_m, cfg.dim_n, rng, cfg.shrink)),
        lambda cfg, w, c: check_jensen_contractive(
            cfg.resolve_atom(), w["A"], w["B"], w["T"], cfg.tol),
        False, _contractive_gate),
    "perspective": _Theorem(
        lambda cfg, rng: {"atom": cfg.resolve_atom().label,
                          **_draw_pairs(cfg, rng)},
        lambda cfg, w, c: check_perspective_joint_convexity(
            cfg.resolve_atom(), w["1"], w["2"], c, cfg.tol, floor=cfg.floor),
        True, lambda cfg: _require_matrix_convex(cfg.resolve_atom())),
    "marechal": _Theorem(
        lambda cfg, rng: {"atom": cfg.resolve_atom().label,
                          "h": lookup_atom("power", cfg.t).label,
                          **_draw_pairs(cfg, rng)},
        lambda cfg, w, c: check_extended_perspective_joint_convexity(
            cfg.resolve_atom(), lookup_atom("power", cfg.t), w["1"], w["2"],
            c, cfg.tol, floor=cfg.floor),
        True, lambda cfg: _require_extended_hypotheses(
            cfg.resolve_atom(), lookup_atom("power", cfg.t))),
    "rel-entropy-convexity": _Theorem(
        lambda cfg, rng: {name: random_density(cfg.dim_n, rng, cfg.floor)
                          for name in ("rho1", "sigma1", "rho2", "sigma2")},
        lambda cfg, w, c: check_relative_entropy_joint_convexity(
            w["rho1"], w["sigma1"], w["rho2"], w["sigma2"], c, cfg.tol),
        True),
    "lieb-s": _Theorem(
        lambda cfg, rng: _draw_lieb(cfg, rng, {"s": cfg.s}, "K"),
        lambda cfg, w, c: check_lieb_concavity(
            w["A1"], w["B1"], w["A2"], w["B2"], w["K"], cfg.s, c, cfg.tol),
        True),
    "lieb-pq": _Theorem(
        lambda cfg, rng: _draw_lieb(cfg, rng, {"p": cfg.p, "q": cfg.q}, "X"),
        lambda cfg, w, c: check_lieb_pq_concavity(
            w["A1"], w["B1"], w["A2"], w["B2"], w["X"], cfg.p, cfg.q, c,
            cfg.tol),
        True, lambda cfg: _require_pq_exponents(cfg.p, cfg.q)),
    "classical": _Theorem(
        _draw_classical,
        lambda cfg, w, c: check_classical_perspective_convexity(
            cfg.resolve_atom(), w["x1"], w["t1"], w["x2"], w["t2"], c,
            cfg.tol),
        True, lambda cfg: _require_not_concave(cfg.resolve_atom())),
}


def _encode_witness(witness: dict) -> dict:
    """Matrix JSON for a raw witness; a CommutingPair under key k becomes
    its two factors under Lk and Rk."""
    doc = {}
    for key, value in witness.items():
        if isinstance(value, CommutingPair):
            doc["L" + key] = matrix_to_json(value.left.mat)
            doc["R" + key] = matrix_to_json(value.right.mat)
        elif isinstance(value, (np.ndarray, HermitianMatrix, DensityMatrix)):
            doc[key] = matrix_to_json(getattr(value, "mat", value))
        else:
            doc[key] = value
    return doc


def trial_seed(seed: int, theorem: str, index: int, redraw: int = 0) -> int:
    """Stable per-trial sub-seed; see SEED_RULE."""
    msg = f"{seed}:{theorem}:{index}:{redraw}".encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "little")


def _entry(tag: str) -> _Theorem:
    if tag not in _THEOREMS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    return _THEOREMS[tag]


def run_single(theorem: str, cfg: TrialConfig, index: int, redraw: int = 0):
    """One trial at explicit (index, redraw) coordinates.

    Returns the verdict and the raw witness: the drawn operands (arrays,
    commuting pairs, scalars), the mixing weight ``c`` where the theorem
    has one, and the replay coordinates. Domain violations propagate to
    the caller; this is the replay entry point, so a witness's recorded
    coordinates reproduce its slack exactly.
    """
    entry = _entry(theorem)
    ts = trial_seed(cfg.seed, theorem, index, redraw)
    rng = np.random.default_rng(ts)
    c = None
    if entry.uses_c:
        if cfg.force_endpoints and index < 3:
            c = (0.0, 0.5, 1.0)[index]
        else:
            c = float(rng.random())
    witness = entry.draw(cfg, rng)
    verdict = entry.check(cfg, witness, c)
    if c is not None:
        witness["c"] = c
    witness.update({"trial_index": index, "redraw": redraw, "trial_seed": ts,
                    "seed_rule": SEED_RULE})
    return verdict, witness


def run_trial(theorem: str, cfg: TrialConfig, index: int):
    """One trial with redraws: rejected (out-of-domain) draws advance the
    redraw counter instead of counting as failures."""
    for redraw in range(MAX_REDRAWS + 1):
        try:
            return run_single(theorem, cfg, index, redraw)
        except DomainViolation:
            continue
    raise HypothesisViolation(
        f"trial {index} of {theorem!r} exceeded {MAX_REDRAWS} redraws; "
        f"the generator cannot satisfy the theorem's domain")


def run_campaign(cfg: TrialConfig, theorems) -> list:
    """Run the selected theorem campaigns and aggregate reports.

    The worst witness is the trial with the most negative slack, ties
    broken by the lower trial index. Only that trial's operands are
    encoded as matrix JSON.
    """
    if isinstance(theorems, str):
        theorems = (theorems,)
    tags = tuple(theorems)
    if len(set(tags)) != len(tags):
        raise ValueError("duplicate theorem tags in selection")
    cfg.validate()
    for tag in tags:
        _entry(tag).gate(cfg)

    reports = []
    for tag in tags:
        failures, worst, worst_witness = 0, None, None
        for i in range(cfg.trials):
            verdict, witness = run_trial(tag, cfg, i)
            failures += not verdict.holds
            if worst is None or (verdict.slack, i) < worst:
                worst, worst_witness = (verdict.slack, i), witness
        reports.append(CheckReport(
            theorem=tag, trials=cfg.trials, failures=failures,
            worst_slack=float(worst[0]), tolerance=cfg.tol,
            witness=_encode_witness(worst_witness),
            config=cfg.fingerprint()))
    return reports
