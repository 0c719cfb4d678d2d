"""Seeded randomized verification of the inequality zoo.

One table maps each theorem tag to its draws, the construction of its
operands, the theorem it checks (a ``checks`` builder, which checks the
theorem's hypotheses and returns its kernel), and the bounds its generator
needs of the configuration. The six joint-convexity tags build their
operands as two endpoint tuples, ``ops["1"]`` and ``ops["2"]``, mixed by
weight; the two Jensen tags have one endpoint, T, mixed by a congruence.
All eight decide through the one mixture kernel ``checks._mixture``, each
with its g. ``run_campaign``, ``run_trial`` and ``run_single`` all validate,
gate and build first, so a replay rejects whatever a campaign rejects.

Each trial draws from its own stream, exactly
``numpy.random.default_rng(trial_seed)``'s (PCG64 seeded through numpy's
SeedSequence), with ``trial_seed`` a stable hash of (campaign seed,
theorem tag, trial index, redraw counter). So campaigns are reproducible
trial by trial, and any reported witness replays from its recorded
coordinates with numpy alone.

The engine decides a tag's trials together, ``CHUNK`` at a time, in three
steps:

1. Draw: the start states of the batch's streams are derived together,
   and each trial makes its RNG calls in the tag's fixed order on one
   generator set to its own state. The draws are random numbers only,
   with no linear algebra.
2. Stack and decide: the draws are stacked along a leading batch axis, and
   every QR, Wishart product, eigendecomposition, functional-calculus map,
   trace and Loewner slack runs once on the (batch, n, n) arrays.
3. Encode: only the worst trial's operands are built, from its slice of
   the stacks, as ``matrix_wire`` dicts: float64 arrays until printed.

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
                     _relative_entropy_kernel)
from .commuting import (CommutingPair, DEFAULT_FLOOR, _pair_gates,
                        _require_floor)
from .errors import DomainViolation, HypothesisViolation
from .functionals import DensityMatrix, ProbabilityVector, _normalize
from .linalg import (HermitianMatrix, LoewnerVerdict, RowErrors, _adj,
                     _materialize, _require_tol, _sym, matrix_wire)
from .seeding import pcg64_states

# The checkers, and the Loewner test they reduce to, are also looked up
# under this module's name, the verifier's public face.
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

    def validate(self) -> None:
        for name in ("dim_n", "dim_m", "trials", "seed"):
            value = getattr(self, name)
            # seed 5.0 or True would hash as "5.0" or "True", a campaign
            # other than seed 5's or 1's
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim_n < 1 or self.dim_m < 1:
            raise ValueError(
                f"dimensions must be >= 1, got ({self.dim_m}, {self.dim_n})")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        _require_tol(self.tol)
        _require_floor(self.floor)
        if not 0.0 < self.shrink <= 1.0:
            raise ValueError(f"shrink must be in (0, 1], got {self.shrink}")
        self.resolve_atom()
        lookup_atom("neg_power", self.s)
        lookup_atom("power", self.t)

    def resolve_atom(self) -> ScalarAtom:
        return lookup_atom(self.atom, self.atom_parameter)

    def fingerprint(self) -> dict:
        """The fields as JSON-ready scalars: numpy integers become ints."""
        return {key: int(value) if isinstance(value, np.integer) else value
                for key, value in asdict(self).items()}


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Aggregate of one theorem's campaign. Witness matrices are
    ``matrix_wire`` dicts, their entries float64 arrays; ``cli._dump``
    prints them as matrix JSON. ``==`` is identity: compare printed text."""

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
    return _haar(_complex_gaussian(np.random.default_rng(seed), n, n))


def random_density(n: int, seed, floor: float = DEFAULT_FLOOR) -> DensityMatrix:
    """Wishart density G G* + floor I, trace-normalized."""
    _require_floor(floor)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    M = _wishart(_complex_gaussian(np.random.default_rng(seed), n, n), floor)
    tr = float(np.real(np.trace(M)))
    return DensityMatrix(M, floor=floor / tr)


def random_positive_matrix(n: int, seed,
                           floor: float = DEFAULT_FLOOR) -> HermitianMatrix:
    """Wishart positive matrix G G* + floor I (no normalization)."""
    _require_floor(floor)
    return HermitianMatrix(
        _wishart(_complex_gaussian(np.random.default_rng(seed), n, n), floor))


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


def _log_uniform(rng, size=None):
    return np.exp(rng.uniform(*_LOG_SPECTRUM, size))


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
    return HermitianMatrix(_materialize(U, _in_domain(f, rng, n)))


def random_probability_vector(n: int, seed) -> ProbabilityVector:
    rng = np.random.default_rng(seed)
    v = rng.random(n) + 0.05
    return ProbabilityVector(v / v.sum())


# ---------------------------------------------------------------------------
# the theorem table: per family, one trial's draws, the stacked operands
# built from a batch of them, and one trial's witness operands

def _draw_jensen(cfg: TrialConfig, f: ScalarAtom, rng,
                 contractive: bool) -> dict:
    d = {"AB": rng.standard_normal((2, 2 * cfg.dim_m, cfg.dim_n))}
    if contractive:
        d["gamma"] = cfg.shrink * (1.0 - rng.random())
    d["U"] = rng.standard_normal((2, cfg.dim_m, cfg.dim_m))
    d["w"] = _in_domain(f, rng, cfg.dim_m)
    return d


def _build_jensen(cfg: TrialConfig, f: ScalarAtom, S: dict,
                  errs: RowErrors) -> dict:
    A, B = _isometry_pair(_complex(S["AB"]), cfg.dim_m)
    if "gamma" in S:
        gamma = S["gamma"][:, None, None]
        A, B = A * gamma, B * gamma
    T = _sym(_materialize(_haar(_complex(S["U"])), S["w"]))
    return {"A": A, "B": B, "T": T}


def _jensen_witness(cfg: TrialConfig, f: ScalarAtom, ops: dict, k: int):
    return {"atom": f.label, "A": ops["A"][k], "B": ops["B"][k],
            "T": ops["T"][k]}


def _endpoints(names, ops: dict, k: int) -> dict:
    """Row k's endpoint operands by name and endpoint: names "xt" give x1,
    t1, x2, t2. Scalars become floats; matrices stay arrays."""
    return {name + i: x[k] if x.ndim > 1 else float(x[k])
            for i in "12" for name, x in zip(names, ops[i])}


def _draw_pairs(cfg: TrialConfig, f: ScalarAtom, rng) -> dict:
    n = cfg.dim_n
    band = _log_pair_band(cfg.floor)
    d = {}
    for i in "12":
        d["U" + i] = rng.standard_normal((2, n, n))
        # log lam then log mu, as two draws of n would give them
        d["spec" + i] = rng.uniform(*band, 2 * n)
    return d


def _build_pairs(cfg: TrialConfig, f: ScalarAtom, S: dict,
                 errs: RowErrors) -> dict:
    n, pairs = cfg.dim_n, {}
    for i in "12":
        spec = np.exp(S["spec" + i])
        pairs[i] = _pair_gates(_haar(_complex(S["U" + i])), spec[:, :n],
                               spec[:, n:], cfg.floor, errs)
    return pairs


def _pairs_witness(cfg: TrialConfig, f: ScalarAtom, ops: dict, k: int):
    w = {i: CommutingPair(*(x[k] for x in ops[i]), floor=cfg.floor)
         for i in "12"}
    return {"atom": f.label, **w}


def _draw_gaussians(count: int) -> Callable:
    """The draw of ``count`` complex n x n Gaussians, as real pairs."""
    return lambda cfg, f, rng: {"G": rng.standard_normal(
        (count, 2, cfg.dim_n, cfg.dim_n))}


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


def _draw_classical(cfg: TrialConfig, f: ScalarAtom, rng) -> dict:
    d = {}
    for i in "12":
        d["x" + i] = float(_in_domain(f, rng))
        d["t" + i] = float(_log_uniform(rng))
    return d


class _Theorem(NamedTuple):
    """One theorem tag.

    ``draw(cfg, f, rng)`` makes one trial's RNG calls in the tag's fixed
    order and returns its raw draws, with f the configured atom.
    ``build(cfg, f, S, errs)`` takes a batch's draws stacked along a
    leading axis and returns the stacked operands (a mixing tag's are the
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
        lambda cfg, f, rng: _draw_jensen(cfg, f, rng, contractive),
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
        _draw_pairs, _build_pairs,
        lambda cfg, f: _perspective_theorem(f, None, cfg.floor),
        _pairs_witness, True, lambda cfg: _log_pair_band(cfg.floor)),
    "marechal": _Theorem(
        _draw_pairs, _build_pairs,
        lambda cfg, f: _perspective_theorem(f, lookup_atom("power", cfg.t),
                                            cfg.floor),
        lambda cfg, f, ops, k: {"h": lookup_atom("power", cfg.t).label,
                                **_pairs_witness(cfg, f, ops, k)},
        True, _marechal_gate),
    "rel-entropy-convexity": _Theorem(
        _draw_gaussians(4), _build_densities,
        lambda cfg, f: _relative_entropy_kernel,
        lambda cfg, f, ops, k: _endpoints(("rho", "sigma"), ops, k), True),
    "lieb-s": _Theorem(
        _draw_gaussians(5), _build_lieb, lambda cfg, f: _lieb_theorem(cfg.s),
        lambda cfg, f, ops, k: {"s": cfg.s, **_endpoints("AB", ops, k),
                                "K": ops["K"][k]}, True),
    "lieb-pq": _Theorem(
        _draw_gaussians(5), _build_lieb,
        lambda cfg, f: _lieb_pq_theorem(cfg.p, cfg.q),
        lambda cfg, f, ops, k: {"p": cfg.p, "q": cfg.q,
                                **_endpoints("AB", ops, k), "X": ops["K"][k]},
        True),
    "classical": _Theorem(
        _draw_classical,
        lambda cfg, f, S, errs: {i: (S["x" + i], S["t" + i]) for i in "12"},
        lambda cfg, f: _classical_theorem(f),
        lambda cfg, f, ops, k: {"atom": f.label, **_endpoints("xt", ops, k)},
        True),
}

# Theorem tags in canonical order; "all" in the CLI expands to this.
THEOREM_TAGS = tuple(_THEOREMS)


def _encode_witness(witness: dict) -> dict:
    """A raw witness with each matrix as its ``matrix_wire`` dict; a
    CommutingPair under key k becomes its two factors under Lk and Rk."""
    doc = {}
    for key, value in witness.items():
        if isinstance(value, CommutingPair):
            doc["L" + key] = matrix_wire(value.left.mat)
            doc["R" + key] = matrix_wire(value.right.mat)
        elif isinstance(value, np.ndarray):
            # a copy: a trial's slice would keep its batch's stacks alive
            doc[key] = matrix_wire(np.array(value))
        else:
            doc[key] = value
    return doc


# ---------------------------------------------------------------------------
# the engine

def trial_seed(seed: int, theorem: str, index: int, redraw: int = 0) -> int:
    """Stable per-trial sub-seed; see SEED_RULE."""
    msg = f"{seed}:{theorem}:{index}:{redraw}".encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "little")


def _prepare(tag: str, cfg: TrialConfig):
    """The tag's table entry, the configured atom and the tag's kernel,
    after validating ``cfg``, gating it for the tag and checking the
    theorem's hypotheses on it: every way into a decision starts here."""
    cfg.validate()
    if tag not in _THEOREMS:
        raise ValueError(f"unknown theorem tag {tag!r}")
    entry = _THEOREMS[tag]
    entry.gate(cfg)
    f = cfg.resolve_atom()
    return entry, f, entry.theorem(cfg, f)


class _Batch(NamedTuple):
    """Decided trials: stacked slacks, tolerances and redraw counters, per
    trial the exception of the first gate it failed (None where it passed
    them all), and ``witness(k)``, trial k's raw witness."""

    slack: np.ndarray
    tolerance_used: np.ndarray
    redraw: list
    errors: list
    witness: Callable

    def verdict(self, k: int) -> LoewnerVerdict:
        return LoewnerVerdict.of(self.slack[k], self.tolerance_used[k])


def _decide(theorem: str, cfg: TrialConfig, indices: list,
            redraws: list) -> _Batch:
    entry, f, kernel = _prepare(theorem, cfg)
    seeds = [trial_seed(cfg.seed, theorem, index, redraw)
             for index, redraw in zip(indices, redraws)]
    bitgen = np.random.PCG64(0)  # every trial sets its own state below
    rng = np.random.Generator(bitgen)
    cs, draws = [], []
    for index, state in zip(indices, pcg64_states(seeds)):
        bitgen.state = state  # rng is now default_rng(the trial's seed)
        if entry.uses_c:
            cs.append((0.0, 0.5, 1.0)[index]
                      if cfg.force_endpoints and index < 3
                      else float(rng.random()))
        draws.append(entry.draw(cfg, f, rng))
    S = {key: np.array([d[key] for d in draws]) for key in draws[0]}
    errs = RowErrors(len(draws))
    ops = entry.build(cfg, f, S, errs)
    slack, used = kernel(ops, np.array(cs), cfg.tol, errs)

    def witness(row: int) -> dict:
        w = entry.witness(cfg, f, ops, row)
        if entry.uses_c:
            w["c"] = cs[row]
        w.update({"trial_index": indices[row], "redraw": redraws[row],
                  "trial_seed": seeds[row], "seed_rule": SEED_RULE})
        return w

    return _Batch(slack, used, redraws, errs.errors, witness)


def run_single(theorem: str, cfg: TrialConfig, index, redraw=0):
    """Trials at explicit (index, redraw) coordinates, without redraws.

    With an int ``index``, one trial (a batch of one): returns the verdict
    and the raw witness, which holds the drawn operands (arrays, commuting
    pairs, scalars), the mixing weight ``c`` where the theorem has one, and
    the replay coordinates. Domain violations propagate to the caller; this
    is the replay entry point, so a witness's recorded coordinates
    reproduce its slack exactly.

    With a sequence of indices (and a redraw counter for each, or one for
    all), the trials are drawn and decided as one batch, and the result is
    a ``_Batch``; a row that fails a gate raises nothing: see ``errors``.
    """
    if np.ndim(index):
        redraws = np.broadcast_to(redraw, np.shape(index))
        return _decide(theorem, cfg, [int(i) for i in index],
                       [int(r) for r in redraws])
    batch = _decide(theorem, cfg, [index], [redraw])
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return batch.verdict(0), batch.witness(0)


def _run_chunk(theorem: str, cfg: TrialConfig, indices: range) -> _Batch:
    """The redraw loop over a range of trials, one batched ``run_single``
    per draw round. Trials rejected in a round are drawn again in the next
    one with the next redraw counter; a trial ending in any other exception
    stops the redraws of the trials after it, and the exception of the
    lowest such trial is raised."""
    size = len(indices)
    slack, used = np.empty(size), np.empty(size)
    redraws, witnesses, failed = [0] * size, [None] * size, {}
    pending = range(size)
    for redraw in range(MAX_REDRAWS + 1):
        if not pending:
            break
        rnd = run_single(theorem, cfg, [indices[k] for k in pending], redraw)
        retry = []
        for row, (k, err) in enumerate(zip(pending, rnd.errors)):
            if err is None:
                slack[k], used[k] = rnd.slack[row], rnd.tolerance_used[row]
                redraws[k], witnesses[k] = redraw, partial(rnd.witness, row)
            elif isinstance(err, DomainViolation):
                retry.append(k)
            else:
                failed[k] = err
        pending = [k for k in retry if k < min(failed, default=size)]
    for k in pending:
        failed[k] = HypothesisViolation(
            f"trial {indices[k]} of {theorem!r} exceeded {MAX_REDRAWS} "
            f"redraws; the generator cannot satisfy the theorem's domain")
    if failed:
        raise failed[min(failed)]
    return _Batch(slack, used, redraws, [None] * size,
                  lambda k: witnesses[k]())


def run_trial(theorem: str, cfg: TrialConfig, index):
    """One trial with redraws: rejected (out-of-domain) draws advance the
    redraw counter instead of counting as failures. Returns the verdict and
    the raw witness.

    A ``range`` of indices runs as one chunk, each draw round one batched
    ``run_single`` over the trials still pending, and the result is a
    ``_Batch`` of each trial as the round that accepted it decided it:
    its ``errors`` are all None.
    """
    if isinstance(index, range):
        return _run_chunk(theorem, cfg, index)
    batch = _run_chunk(theorem, cfg, range(index, index + 1))
    return batch.verdict(0), batch.witness(0)


def run_campaign(cfg: TrialConfig, theorems) -> list:
    """Run the selected theorem campaigns and aggregate reports.

    Trials run ``CHUNK`` at a time through ``run_trial``. The worst witness
    is the trial with the most negative slack, ties broken by the lower
    trial index. A chunk's worst trial goes into ``matrix_wire`` dicts only
    when it is the worst so far, copied out of the chunk's stacks.
    """
    tags = (theorems,) if isinstance(theorems, str) else tuple(theorems)
    if len(set(tags)) != len(tags):
        raise ValueError("duplicate theorem tags in selection")
    for tag in tags:
        _prepare(tag, cfg)

    config = cfg.fingerprint()  # scalars only, so dict() copies it
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
                witness = _encode_witness(chunk.witness(k))
        reports.append(CheckReport(
            theorem=tag, trials=config["trials"], failures=failures,
            worst_slack=worst[0], tolerance=cfg.tol,
            witness=witness, config=dict(config)))
    return reports
