"""Seeded randomized verification of the inequality zoo.

One table maps each theorem tag to its draws, the construction of its
operands, the theorem it checks (a ``checks`` builder, which checks the
theorem's hypotheses and returns its kernel), and the bounds its generator
needs of the configuration. The six joint-convexity tags build their
operands as two endpoint tuples, ``ops["1"]`` and ``ops["2"]``, mixed by
weight; the two Jensen tags have one endpoint, T, mixed by a congruence.
All eight decide through the one mixture kernel ``checks._mixture``, each
with its g. A ``TrialConfig`` checks its fields when it is built, and
``run_single`` gates it for the tag and builds the theorem before it
decides, so a replay rejects whatever a campaign rejects.

Each trial draws from its own stream, exactly
``numpy.random.default_rng(trial_seed)``'s (PCG64 seeded through numpy's
SeedSequence), with ``trial_seed`` a stable hash of (campaign seed,
theorem tag, trial index, redraw counter). So campaigns are reproducible
trial by trial, and any reported witness replays from its recorded
coordinates with numpy alone. Indices and redraw counters are integers
>= 0, numpy integers taken as ints; a bool, float or negative coordinate
would hash to a trial no campaign draws, so it raises ``ValueError``.

The engine decides a tag's trials together, ``CHUNK`` at a time, in three
steps:

1. Draw: the start states of the batch's streams are derived together,
   and each trial makes the RNG calls its tag declares, in their fixed
   order, on one generator set to its own state. The draws are raw
   numbers; their maps (exp, bands, the contraction factor) run once per
   batch, in the build.
2. Stack and decide: the draws are stacked along a leading batch axis, and
   every QR, Wishart product, eigendecomposition, functional-calculus map,
   trace and Loewner slack runs once on the (batch, n, n) arrays.
3. Witness: only the worst trial's operands are built, copied out of its
   slice of the stacks: 2-D arrays and scalars until printed.

Stacked LAPACK and matmul calls give bit-identical results to per-matrix
calls, and ``run_single`` is the same engine on a batch of one, so a
witness replays to exactly its reported slack. The public ``check_*``
functions run the same checker kernels on a batch of one.

In a campaign a hypothesis defect is a generator bug: it raises
``HypothesisViolation`` and never counts as an inequality failure. Domain
violations (an instance wandering out of an atom's domain) are rejected
trials: they are marked without stopping their batch and redrawn with the
next sub-seed. A campaign raises the exception of the lowest trial index
whose trial ends in one, as a trial-by-trial loop would.
"""
from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .atoms import ScalarAtom, lookup_atom
from .checks import (_classical_theorem, _jensen_theorem, _lieb_pq_theorem,
                     _lieb_theorem, _perspective_theorem,
                     _relative_entropy_theorem)
from .commuting import (CommutingPair, DEFAULT_FLOOR, _pair_gates,
                        _require_floor)
from .errors import DomainViolation, HypothesisViolation
from .functionals import DensityMatrix, ProbabilityVector, _normalize
from .linalg import (HermitianMatrix, LoewnerVerdict, RowErrors, _adj,
                     _materialize, _require_dim, _require_tol, _sym)
from .seeding import pcg64_states

# bench/spans.py traces the checkers under this module's name, the
# verifier's public face; its tracer test expects loewner_leq here too.
from .checks import (  # noqa: F401
    check_classical_perspective_convexity,
    check_extended_perspective_joint_convexity, check_jensen_contractive,
    check_jensen_isometry, check_lieb_concavity, check_lieb_pq_concavity,
    check_perspective_joint_convexity, check_relative_entropy_joint_convexity,
    scalar_geq)
from .linalg import loewner_leq  # noqa: F401

# Redraw budget per trial before we call the generator broken.
MAX_REDRAWS = 100

# Trials decided together in one batch: memory stays bounded whatever the
# trial count, while batches stay long enough to amortize numpy's per-call
# overhead at small n.
CHUNK = 64

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

    def __post_init__(self):
        # numpy scalars become ints and floats: asdict(cfg) prints as JSON
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, (np.integer, np.floating)):
                object.__setattr__(self, field.name, value.item())
        for name in ("dim_n", "dim_m", "trials", "seed"):
            value = getattr(self, name)
            # seed 5.0 or True would hash as "5.0" or "True", a campaign
            # other than seed 5's or 1's
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim_n < 1 or self.dim_m < 1:
            raise ValueError(
                f"dimensions must be >= 1, got ({self.dim_m}, {self.dim_n})")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        # a bool, a NaN or an infinity would not print as a JSON number;
        # the range checks below cannot compare what is not a number
        numbers = {name: getattr(self, name) for name in (
            "tol", "floor", "s", "t", "p", "q", "shrink", "atom_parameter")}
        if self.atom_parameter is None:
            del numbers["atom_parameter"]
        for name, value in numbers.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"{name} must be a finite number, got {value!r}")
        _require_tol(self.tol)
        _require_floor(self.floor)
        if not 0.0 < self.shrink <= 1.0:
            raise ValueError(f"shrink must be in (0, 1], got {self.shrink}")
        self.resolve_atom()
        lookup_atom("neg_power", self.s)
        lookup_atom("power", self.t)
        for name, value in numbers.items():
            if not -np.inf < value < np.inf:
                raise ValueError(
                    f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.force_endpoints, bool):
            raise ValueError(f"force_endpoints must be a bool, got "
                             f"{self.force_endpoints!r}")

    def resolve_atom(self) -> ScalarAtom:
        return lookup_atom(self.atom, self.atom_parameter)


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Aggregate of one theorem's campaign. Witness matrices are 2-D
    arrays, a commuting pair's as its two factors; ``cli._dump`` prints
    them as matrix JSON. ``==`` is identity: compare printed text."""

    theorem: str
    trials: int
    failures: int
    worst_slack: float
    tolerance: float
    witness: dict
    config: dict

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# instance generators; the helpers take stacks as well as single matrices

def _complex(G) -> np.ndarray:
    """re + 1j*im from standard normals shaped (..., 2, rows, cols)."""
    return G[..., 0, :, :] + 1j * G[..., 1, :, :]


def _complex_gaussian(rng, rows: int, cols: int) -> np.ndarray:
    return _complex(rng.standard_normal((2, rows, cols)))


def _haar(G) -> np.ndarray:
    """Haar unitaries from square complex Gaussians: QR with the phases of
    R's diagonal moved into Q."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    phases = np.where(np.abs(d) > 0.0, d / np.abs(np.where(d == 0, 1, d)), 1.0)
    return Q * phases[..., None, :]


def _wishart(G, floor: float) -> np.ndarray:
    """G G* + floor I."""
    return G @ _adj(G) + floor * np.eye(G.shape[-1])


def _isometry_pair(G, m: int):
    """(A, B) from the orthonormalized columns of 2m x n Gaussians."""
    Q = np.linalg.qr(G)[0]
    return Q[..., :m, :], Q[..., m:, :]


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary (QR with phase-fixed diagonal)."""
    _require_dim(n)
    return _haar(_complex_gaussian(np.random.default_rng(seed), n, n))


def random_density(n: int, seed, floor: float = DEFAULT_FLOOR) -> DensityMatrix:
    """Wishart density G G* + floor I, trace-normalized."""
    _require_floor(floor)
    _require_dim(n)
    M = _wishart(_complex_gaussian(np.random.default_rng(seed), n, n), floor)
    tr = float(np.real(np.trace(M)))
    return DensityMatrix(M, floor=floor / tr)


def random_positive_matrix(n: int, seed,
                           floor: float = DEFAULT_FLOOR) -> HermitianMatrix:
    """Wishart positive matrix G G* + floor I (no normalization)."""
    _require_floor(floor)
    _require_dim(n)
    return HermitianMatrix(
        _wishart(_complex_gaussian(np.random.default_rng(seed), n, n), floor))


def _require_isometry_dims(m: int, n: int) -> None:
    _require_dim(m)
    _require_dim(n)
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
    return _isometry_pair(_complex_gaussian(rng, 2 * m, n), m)


def random_contraction_pair(m: int, n: int, seed, shrink: float = 1.0):
    """Isometry pair scaled by a uniform factor in (0, shrink]."""
    if not 0.0 < shrink <= 1.0:
        raise ValueError(f"shrink must be in (0, 1], got {shrink}")
    rng = np.random.default_rng(seed)
    A, B = random_isometry_pair(m, n, rng)
    gamma = shrink * (1.0 - rng.random())
    return A * gamma, B * gamma


_LOG_SPECTRUM = (np.log(SPECTRUM_LO), np.log(SPECTRUM_HI))


def _uniform(band, u):
    """``Generator.uniform(*band)``'s numbers from ``Generator.random``'s u,
    element for element and bit for bit."""
    return band[0] + (band[1] - band[0]) * u


def _log_pair_band(floor: float) -> tuple:
    """Log bounds of generated pair spectra: the band, raised to ``floor``."""
    if floor > SPECTRUM_HI:
        raise ValueError(f"floor {floor:g} lies above the spectrum band "
                         f"[{SPECTRUM_LO:g}, {SPECTRUM_HI:g}]")
    return np.log(max(SPECTRUM_LO, floor)), _LOG_SPECTRUM[1]


def random_commuting_pair(n: int, seed,
                          floor: float = DEFAULT_FLOOR) -> CommutingPair:
    """Random basis and two log-uniform spectra, drawn as the campaign's."""
    _require_floor(floor)
    band = _log_pair_band(floor)
    rng = np.random.default_rng(seed)
    U = random_unitary(n, rng)
    lam = np.exp(rng.uniform(*band, size=n))
    mu = np.exp(rng.uniform(*band, size=n))
    return CommutingPair(U, lam, mu, floor=floor)


def _in_domain(f: ScalarAtom, u):
    """Uniforms u on [0, 1) mapped into f's domain: log-uniform on
    [SPECTRUM_LO, SPECTRUM_HI] for positive-domain atoms, uniform on
    [-REAL_BOUND, REAL_BOUND] for real-line atoms."""
    if f.domain.lo >= 0.0:
        return np.exp(_uniform(_LOG_SPECTRUM, u))
    return _uniform((-REAL_BOUND, REAL_BOUND), u)


def random_hermitian_in_domain(f: ScalarAtom, n: int, seed) -> HermitianMatrix:
    """Hermitian matrix whose spectrum lies inside f's domain (see
    ``_in_domain``)."""
    rng = np.random.default_rng(seed)
    U = random_unitary(n, rng)
    return HermitianMatrix(_materialize(U, _in_domain(f, rng.random(n))))


def random_probability_vector(n: int, seed) -> ProbabilityVector:
    _require_dim(n)
    rng = np.random.default_rng(seed)
    v = rng.random(n) + 0.05
    return ProbabilityVector(v / v.sum())


# ---------------------------------------------------------------------------
# the theorem table: per family, one trial's draws, the stacked operands
# built from a batch of them, and one trial's witness operands

def _jensen_draws(cfg: TrialConfig, contractive: bool) -> tuple:
    """A, B's Gaussians, gamma if contractive, then T's basis and spectrum."""
    m = cfg.dim_m
    return (("AB", "standard_normal", (2, 2 * m, cfg.dim_n)),
            *((("gamma", "random"),) if contractive else ()),
            ("U", "standard_normal", (2, m, m)), ("w", "random", m))


def _build_jensen(cfg: TrialConfig, f: ScalarAtom, S: dict,
                  errs: RowErrors) -> dict:
    A, B = _isometry_pair(_complex(S["AB"]), cfg.dim_m)
    if "gamma" in S:  # the contraction factor, in (0, shrink]
        gamma = cfg.shrink * (1.0 - S["gamma"][:, None, None])
        A, B = A * gamma, B * gamma
    T = _sym(_materialize(_haar(_complex(S["U"])), _in_domain(f, S["w"])))
    return {"A": A, "B": B, "T": T}


def _jensen_witness(cfg: TrialConfig, f: ScalarAtom, ops: dict, k: int):
    return {"atom": f.label, "A": ops["A"][k], "B": ops["B"][k],
            "T": ops["T"][k]}


def _endpoints(names, ops: dict, k: int) -> dict:
    """Row k's endpoint operands by name and endpoint: names "xt" give x1,
    t1, x2, t2. Scalars become floats; matrices stay arrays."""
    return {name + i: x[k] if x.ndim > 1 else float(x[k])
            for i in "12" for name, x in zip(names, ops[i])}


def _pair_draws(cfg: TrialConfig) -> tuple:
    """Per endpoint a basis, then log lam and log mu as one draw of 2n."""
    U = ("standard_normal", (2, cfg.dim_n, cfg.dim_n))
    spec = ("random", 2 * cfg.dim_n)
    return (("U1", *U), ("spec1", *spec), ("U2", *U), ("spec2", *spec))


def _build_pairs(cfg: TrialConfig, f: ScalarAtom, S: dict,
                 errs: RowErrors) -> dict:
    n, band, pairs = cfg.dim_n, _log_pair_band(cfg.floor), {}
    for i in "12":
        spec = np.exp(_uniform(band, S["spec" + i]))
        pairs[i] = _pair_gates(_haar(_complex(S["U" + i])), spec[:, :n],
                               spec[:, n:], cfg.floor, errs)
    return pairs


def _pairs_witness(cfg: TrialConfig, f: ScalarAtom, ops: dict, k: int):
    w = {i: CommutingPair(*(x[k] for x in ops[i]), floor=cfg.floor)
         for i in "12"}
    return {"atom": f.label, **w}


def _gaussian_draws(count: int) -> Callable:
    """The draw of ``count`` complex n x n Gaussians, as real pairs."""
    return lambda cfg: (("G", "standard_normal",
                         (count, 2, cfg.dim_n, cfg.dim_n)),)


def _build_densities(cfg: TrialConfig, f: ScalarAtom, S: dict,
                     errs: RowErrors) -> dict:
    """The endpoints (rho_i, sigma_i) from the Gaussians drawn in that
    order, each checked as ``random_density`` checks its density."""
    D = []
    for j in range(4):
        M = _wishart(_complex(S["G"][:, j]), cfg.floor)
        tr = np.trace(M, axis1=-2, axis2=-1).real
        D.append(_normalize(_sym(M), cfg.floor / tr, errs))
    return {"1": tuple(D[:2]), "2": tuple(D[2:])}


def _build_lieb(cfg: TrialConfig, f: ScalarAtom, S: dict,
                errs: RowErrors) -> dict:
    """The endpoints (A_i, B_i) and the shared K, drawn in that order."""
    W = [_sym(_wishart(_complex(S["G"][:, j]), cfg.floor)) for j in range(4)]
    return {"1": tuple(W[:2]), "2": tuple(W[2:]), "K": _complex(S["G"][:, 4])}


def _build_classical(cfg: TrialConfig, f: ScalarAtom, S: dict,
                     errs: RowErrors) -> dict:
    """The endpoints (x_i, t_i) from the uniforms x1, t1, x2, t2."""
    x = _in_domain(f, S["xt"][:, ::2])
    t = np.exp(_uniform(_LOG_SPECTRUM, S["xt"][:, 1::2]))
    return {"1": (x[:, 0], t[:, 0]), "2": (x[:, 1], t[:, 1])}


class _Theorem(NamedTuple):
    """One theorem tag.

    ``draw(cfg)`` declares one trial's RNG calls in the tag's fixed order,
    as ``(key, Generator method name, *args)`` tuples; the engine makes
    them, and the trial's draws are their results by key.
    ``build(cfg, f, S, errs)``, with f the configured atom, takes a batch's
    draws stacked along a leading axis, maps them into place (exp, bands,
    scaling) and returns the stacked operands (a mixing tag's are the
    endpoint tuples ``ops["1"]``, ``ops["2"]``). ``theorem(cfg, f)`` checks
    the theorem's hypotheses on the configured parameters and returns its
    ``checks`` kernel ``(ops, c, tol, errs) -> (slack, tolerance_used)``,
    with ``c`` the stacked mixing weights, and ``witness(cfg, f, ops, k)``
    returns row k's decided operands: arrays, commuting pairs, scalars. A
    gate that fails on a row records the row's exception in ``errs``.
    ``gate(cfg)`` rejects up front what the generator cannot draw.
    """

    draw: Callable
    build: Callable
    theorem: Callable
    witness: Callable
    uses_c: bool
    gate: Callable = lambda cfg: None


def _jensen_tag(contractive: bool) -> _Theorem:
    """hp, or hp-contractive when ``contractive``."""
    return _Theorem(
        lambda cfg: _jensen_draws(cfg, contractive),
        _build_jensen, lambda cfg, f: _jensen_theorem(f, contractive),
        _jensen_witness, False,
        lambda cfg: _require_isometry_dims(cfg.dim_m, cfg.dim_n))


def _marechal_gate(cfg: TrialConfig) -> None:
    _log_pair_band(cfg.floor)
    top = SPECTRUM_HI ** cfg.t  # no base h(R) = R^t on the band exceeds it
    if cfg.floor > top:
        raise ValueError(f"floor {cfg.floor:g} lies above {top:g}, the "
                         f"largest h(R) = R^{cfg.t:g} on the spectrum band "
                         f"[{SPECTRUM_LO:g}, {SPECTRUM_HI:g}]")


_THEOREMS = {
    "hp": _jensen_tag(False),
    "hp-contractive": _jensen_tag(True),
    "perspective": _Theorem(
        _pair_draws, _build_pairs,
        lambda cfg, f: _perspective_theorem(f, None, cfg.floor),
        _pairs_witness, True, lambda cfg: _log_pair_band(cfg.floor)),
    "marechal": _Theorem(
        _pair_draws, _build_pairs,
        lambda cfg, f: _perspective_theorem(f, lookup_atom("power", cfg.t),
                                            cfg.floor),
        lambda cfg, f, ops, k: {"h": lookup_atom("power", cfg.t).label,
                                **_pairs_witness(cfg, f, ops, k)},
        True, _marechal_gate),
    "rel-entropy-convexity": _Theorem(
        _gaussian_draws(4), _build_densities,
        lambda cfg, f: _relative_entropy_theorem(),
        lambda cfg, f, ops, k: _endpoints(("rho", "sigma"), ops, k), True),
    "lieb-s": _Theorem(
        _gaussian_draws(5), _build_lieb, lambda cfg, f: _lieb_theorem(cfg.s),
        lambda cfg, f, ops, k: {"s": cfg.s, **_endpoints("AB", ops, k),
                                "K": ops["K"][k]}, True),
    "lieb-pq": _Theorem(
        _gaussian_draws(5), _build_lieb,
        lambda cfg, f: _lieb_pq_theorem(cfg.p, cfg.q),
        lambda cfg, f, ops, k: {"p": cfg.p, "q": cfg.q,
                                **_endpoints("AB", ops, k), "X": ops["K"][k]},
        True),
    "classical": _Theorem(
        lambda cfg: (("xt", "random", 4),), _build_classical,
        lambda cfg, f: _classical_theorem(f),
        lambda cfg, f, ops, k: {"atom": f.label, **_endpoints("xt", ops, k)},
        True),
}

# Theorem tags in canonical order; "all" in the CLI expands to this.
THEOREM_TAGS = tuple(_THEOREMS)


def _report_witness(witness: dict) -> dict:
    """A raw witness as a report holds it: a CommutingPair under key k
    becomes its factors Lk and Rk, each array a copy of the trial's slice."""
    doc = {}
    for key, value in witness.items():
        if isinstance(value, CommutingPair):
            doc["L" + key], doc["R" + key] = value.left.mat, value.right.mat
        else:
            doc[key] = np.array(value) if isinstance(value, np.ndarray) else value
    return doc


# ---------------------------------------------------------------------------
# the engine

def trial_seed(seed: int, theorem: str, index: int, redraw: int = 0) -> int:
    """Stable per-trial sub-seed; see SEED_RULE."""
    msg = f"{seed}:{theorem}:{index}:{redraw}".encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "little")


def _prepare(tag: str, cfg: TrialConfig):
    """The tag's table entry, the configured atom and the tag's kernel,
    after gating ``cfg`` for the tag and checking the theorem's hypotheses
    on it: every decision starts here, in ``run_single``. The fields of
    ``cfg`` were checked when it was built."""
    if tag not in _THEOREMS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    entry = _THEOREMS[tag]
    entry.gate(cfg)
    f = cfg.resolve_atom()
    return entry, f, entry.theorem(cfg, f)


class _Batch(NamedTuple):
    """Decided trials: stacked slacks and tolerances, per trial the
    exception of the first gate it failed (None where it passed them all),
    and ``witness(k)``, trial k's raw witness, which records its redraw."""

    slack: np.ndarray
    tolerance_used: np.ndarray
    errors: list
    witness: Callable


def _coordinate(name: str, value) -> int:
    """A trial index or redraw counter as an int. A bool, a float or a
    negative value would hash to coordinates no campaign draws."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 0):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


def run_single(theorem: str, cfg: TrialConfig, index, redraw=0):
    """Trials at explicit (index, redraw) coordinates, without redraws.

    With an int ``index``, one trial (a batch of one): returns the verdict
    and the raw witness, which holds the drawn operands (arrays, commuting
    pairs, scalars), the mixing weight ``c`` where the theorem has one, and
    the replay coordinates. Domain violations propagate to the caller; this
    is the replay entry point, so a witness's recorded coordinates
    reproduce its slack exactly.

    With a nonempty sequence of indices (all at the one redraw counter),
    the trials are drawn and decided as one batch, and the result is a
    ``_Batch``; a row that fails a gate raises nothing: see ``errors``.
    """
    entry, f, kernel = _prepare(theorem, cfg)
    batched = np.ndim(index) > 0
    indices = [_coordinate("index", i) for i in (index if batched else [index])]
    if not indices:
        raise ValueError("index list is empty: there is no trial to run")
    redraw = _coordinate("redraw", redraw)
    seeds = [trial_seed(cfg.seed, theorem, i, redraw) for i in indices]
    bitgen = np.random.PCG64(0)  # every trial sets its own state below
    rng = np.random.Generator(bitgen)
    calls = [(key, getattr(rng, method), args)
             for key, method, *args in entry.draw(cfg)]
    cs, draws = [], []
    for i, state in zip(indices, pcg64_states(seeds)):
        bitgen.state = state  # rng is now default_rng(the trial's seed)
        if entry.uses_c:
            cs.append((0.0, 0.5, 1.0)[i] if cfg.force_endpoints and i < 3
                      else float(rng.random()))
        draws.append([call(*args) for _, call, args in calls])
    S = {key: np.array(col) for (key, _, _), col in zip(calls, zip(*draws))}
    errs = RowErrors(len(draws))
    ops = entry.build(cfg, f, S, errs)
    slack, used = kernel(ops, np.array(cs), cfg.tol, errs)

    def witness(row: int) -> dict:
        w = entry.witness(cfg, f, ops, row)
        if entry.uses_c:
            w["c"] = cs[row]
        w.update({"trial_index": indices[row], "redraw": redraw,
                  "trial_seed": seeds[row], "seed_rule": SEED_RULE})
        return w

    if batched:
        return _Batch(slack, used, errs.errors, witness)
    if errs.errors[0] is not None:
        raise errs.errors[0]
    return LoewnerVerdict.of(slack[0], used[0]), witness(0)


def run_trial(theorem: str, cfg: TrialConfig, indices) -> _Batch:
    """A sequence of trials with redraws, run as one chunk: rejected
    (out-of-domain) draws advance the redraw counter instead of counting
    as failures. Each draw round is one batched ``run_single`` over the
    trials still pending, and the result is a ``_Batch`` of each trial as
    the round that accepted it decided it: its ``errors`` are all None. A
    trial ending in any other exception stops the redraws of the trials
    after it, and the exception of the lowest such trial is raised.
    """
    size = len(indices)
    slack, used = np.empty(size), np.empty(size)
    witnesses, failed = [None] * size, {}
    pending = range(size)
    for redraw in range(MAX_REDRAWS + 1):
        rnd = run_single(theorem, cfg, [indices[k] for k in pending], redraw)
        retry = []
        for row, (k, err) in enumerate(zip(pending, rnd.errors)):
            if err is None:
                slack[k], used[k] = rnd.slack[row], rnd.tolerance_used[row]
                witnesses[k] = partial(rnd.witness, row)
            elif isinstance(err, DomainViolation):
                retry.append(k)
            else:
                failed[k] = err
        pending = [k for k in retry if k < min(failed, default=size)]
        if not pending:
            break
    for k in pending:
        failed[k] = HypothesisViolation(
            f"trial {indices[k]} of {theorem!r} exceeded {MAX_REDRAWS} "
            f"redraws; the generator cannot satisfy the theorem's domain")
    if failed:
        raise failed[min(failed)]
    return _Batch(slack, used, [None] * size, lambda k: witnesses[k]())


def run_campaign(cfg: TrialConfig, theorems) -> list:
    """Run the selected theorem campaigns and aggregate reports.

    Trials run ``CHUNK`` at a time through ``run_trial``. The worst witness
    is the trial with the most negative slack, ties broken by the lower
    trial index. A chunk's worst trial becomes a report's witness only when
    it is the worst so far, copied out of the chunk's stacks.
    """
    tags = (theorems,) if isinstance(theorems, str) else tuple(theorems)
    if len(set(tags)) != len(tags):
        raise ValueError("duplicate theorem tags in selection")
    for tag in tags:  # a bad tag fails before any campaign runs
        _prepare(tag, cfg)

    config = asdict(cfg)  # scalars only, so dict() copies it
    reports = []
    for tag in tags:
        failures, worst, witness = 0, None, None
        for lo in range(0, cfg.trials, CHUNK):
            chunk = run_trial(tag, cfg, range(lo, min(lo + CHUNK, cfg.trials)))
            failures += int(np.count_nonzero(
                ~(chunk.slack >= -chunk.tolerance_used)))
            k = int(np.argmin(chunk.slack))  # the first of equal minima
            if worst is None or (chunk.slack[k], lo + k) < worst:
                worst = (float(chunk.slack[k]), lo + k)
                witness = _report_witness(chunk.witness(k))
        reports.append(CheckReport(
            theorem=tag, trials=cfg.trials, failures=failures,
            worst_slack=worst[0], tolerance=cfg.tol,
            witness=witness, config=dict(config)))
    return reports
