"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Every workload is a closed loop with one client: the worker issues op
``index`` only after op ``index - 1`` has returned. Op 0 is the warm-up.
``prepare`` builds an op's inputs from (seed, index) outside the timed
region, ``op`` is the timed call into opconvex's public entry points, and
``check`` raises ``CheckFailed`` when the output is wrong. ``corrupt``
perturbs the check's reference, so a self-test can show that a wrong
output counts as a failed op instead of ending the run.

Why each workload exists:

* ``verify-small``: ``opconvex verify --theorem all`` at n = 3, 25 trials,
  where Python wrapping (HermitianMatrix construction, per-call atom and
  clamp overhead) dominates and LAPACK is small. Batching and de-wrapping
  show up here; witness encoding barely does.
* ``verify-large``: the same command at n = 32, 8 trials, where per-trial
  witness encoding and the multi-megabyte pretty-printed report dominate.
* ``superop-n24``: three superoperator quadratic forms at n = 24, the only
  workload through ``realize_multiplication_pair`` (n^2 x n^2 Kronecker
  basis, O(n^6) unitarity check). The verify workloads never reach it.
* ``eval-large``: ``opconvex eval --json`` on n = 128 matrix JSON files,
  the only workload that decodes matrix JSON.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from functools import partial

import numpy as np

import opconvex
import opconvex.cli

# Results of the superoperator and eval workloads must match their
# references within REL_TOL * (1 + |reference|).
REL_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def call_cli(argv) -> tuple[int, str]:
    """Run ``opconvex`` in this process; stdout is captured in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = opconvex.cli.main(argv)
    return code, buf.getvalue()


def op_seed(workload: str, seed: int, index: int) -> int:
    """A 64-bit campaign seed for op ``index`` of a run."""
    msg = f"{workload}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "little")


def _close_enough(name: str, value: float, reference: float) -> None:
    if not abs(value - reference) <= REL_TOL * (1.0 + abs(reference)):
        raise CheckFailed(f"{name}: got {value!r}, reference {reference!r}")


def _perturb(reference: float) -> float:
    return reference + 1e-3 * (1.0 + abs(reference))


def _gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _density(rng, n: int) -> np.ndarray:
    """Exactly Hermitian, unit trace, least eigenvalue well above zero."""
    G = _gaussian(rng, n)
    M = G @ G.conj().T / n + 0.05 * np.eye(n)
    M = (M + M.conj().T) / 2.0
    return M / np.real(np.trace(M))


def _matrix_function(H: np.ndarray, fn) -> np.ndarray:
    w, U = np.linalg.eigh(H)
    return (U * fn(w)) @ U.conj().T


def _relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (log rho - log sigma), computed with numpy alone."""
    w = np.linalg.eigvalsh(rho)
    log_sigma = _matrix_function(sigma, np.log)
    return float(np.dot(w, np.log(w)) - np.real(np.trace(rho @ log_sigma)))


def _lieb(A: np.ndarray, B: np.ndarray, K: np.ndarray, s: float) -> float:
    """Tr(A^s K* B^(1-s) K), computed with numpy alone."""
    As = _matrix_function(A, lambda w: np.power(w, s))
    Bs = _matrix_function(B, lambda w: np.power(w, 1.0 - s))
    return float(np.real(np.trace(As @ K.conj().T @ Bs @ K)))


def _matrix_json(M: np.ndarray) -> dict:
    """The CLI's matrix wire format, written by the benchmark itself."""
    return {"dim": int(M.shape[0]),
            "entries": [[[float(z.real), float(z.imag)] for z in row]
                        for row in M]}


class VerifyWorkload:
    """``opconvex verify --theorem all --json`` with a new seed per op."""

    def __init__(self, name: str, seed: int, workdir, dim: int, trials: int):
        self.name, self.seed = name, seed
        self.dim, self.trials = dim, trials

    def setup(self) -> None:
        pass

    def prepare(self, index: int) -> list:
        return ["verify", "--theorem", "all", "--dim", str(self.dim),
                "--dim-m", str(self.dim), "--trials", str(self.trials),
                "--seed", str(op_seed(self.name, self.seed, index)), "--json"]

    op = staticmethod(call_cli)

    def check(self, argv: list, output, corrupt: bool = False) -> None:
        """Exit 0, no failures, and every worst witness replays exactly.

        A FAIL verdict on these true theorems is a wrong output.
        """
        code, text = output
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        reports = json.loads(text)
        tags = [r["theorem"] for r in reports]
        if tags != list(opconvex.THEOREM_TAGS):
            raise CheckFailed(f"report covers tags {tags}")
        seed = int(argv[argv.index("--seed") + 1])
        for r in reports:
            tag, cfg = r["theorem"], r["config"]
            if (cfg["seed"], cfg["dim_n"], r["trials"]) != (
                    seed, self.dim, self.trials):
                raise CheckFailed(f"{tag}: report config does not match argv")
            if r["failures"] != 0:
                raise CheckFailed(f"{tag}: {r['failures']} failed trials")
            witness = r["witness"]
            verdict, _ = opconvex.run_single(
                tag, opconvex.TrialConfig(**cfg), witness["trial_index"],
                witness["redraw"])
            expected = r["worst_slack"]
            if corrupt:
                expected = math.nextafter(expected, math.inf)
            if verdict.slack != expected:
                raise CheckFailed(
                    f"{tag}: witness replays to slack {verdict.slack!r}, "
                    f"report says {expected!r}")

    def close(self) -> None:
        pass


class SuperopWorkload:
    """Three quadratic forms of superoperator perspectives on fresh (rho, sigma, K).

    The references are the direct formulas, computed in ``prepare``
    before the op: S(rho||sigma), -Tr(rho^0.5 K* sigma^0.5 K) and
    -Tr(rho^0.4 K* sigma^0.3 K). With L = left multiplication by rho and
    R = right multiplication by sigma, the perspective of -x^s gives
    -Tr(rho^s K* sigma^(1-s) K), and the extended perspective of -x^0.4
    with h = x^0.5 gives -Tr(rho^0.4 K* sigma^0.3 K).
    """

    def __init__(self, name: str, seed: int, workdir, n: int):
        self.name, self.seed, self.n = name, seed, n

    def setup(self) -> None:
        self.neg_sqrt = opconvex.lookup_atom("neg_power", 0.5)
        self.neg_04 = opconvex.lookup_atom("neg_power", 0.4)
        self.sqrt = opconvex.lookup_atom("power", 0.5)

    def prepare(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        rho, sigma = _density(rng, self.n), _density(rng, self.n)
        K = _gaussian(rng, self.n) / math.sqrt(self.n)
        refs = (opconvex.quantum_relative_entropy_direct(rho, sigma),
                -opconvex.lieb_functional(rho, sigma, K, 0.5),
                -opconvex.lieb_pq_functional(rho, sigma, K, 0.3, 0.4))
        return rho, sigma, K, refs

    def op(self, inputs) -> tuple:
        rho, sigma, K, _ = inputs
        mp = opconvex.MultiplicationPair(rho, sigma)
        return (opconvex.quantum_relative_entropy_perspective(rho, sigma),
                opconvex.perspective_quadratic_form(self.neg_sqrt, mp, K),
                opconvex.extended_perspective_quadratic_form(
                    self.neg_04, self.sqrt, mp, K))

    def check(self, inputs, output, corrupt: bool = False) -> None:
        refs = inputs[3]
        if corrupt:
            refs = (_perturb(refs[0]),) + refs[1:]
        for name, value, ref in zip(("rel-entropy", "lieb-s", "lieb-pq"),
                                    output, refs):
            _close_enough(name, value, ref)

    def close(self) -> None:
        pass


class EvalWorkload:
    """``opconvex eval --json`` on matrix JSON files written at setup.

    Ops alternate ``--functional rel-entropy`` and ``--functional lieb-s
    --s 0.5`` over a pool of input sets; op ``index`` uses set
    ``(index // 2) % pool``. References are computed at setup with
    ``numpy.linalg.eigh`` alone.
    """

    def __init__(self, name: str, seed: int, workdir, n: int, pool: int):
        self.name, self.seed, self.n, self.pool = name, seed, n, pool
        self.workdir = workdir
        self.sets = []

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for j in range(self.pool):
            rng = np.random.default_rng([self.seed, j])
            rho, sigma = _density(rng, self.n), _density(rng, self.n)
            K = _gaussian(rng, self.n) / math.sqrt(self.n)
            paths = {}
            for key, M in (("rho", rho), ("sigma", sigma), ("k", K)):
                paths[key] = str(self.workdir / f"{key}{j}.json")
                with open(paths[key], "w") as fh:
                    json.dump(_matrix_json(M), fh)
            self.sets.append((paths, _relative_entropy(rho, sigma),
                              _lieb(rho, sigma, K, 0.5)))

    def prepare(self, index: int):
        paths, rel, lieb = self.sets[(index // 2) % self.pool]
        if index % 2 == 0:
            return (["eval", "--functional", "rel-entropy", "--rho",
                     paths["rho"], "--sigma", paths["sigma"], "--json"], rel)
        return (["eval", "--functional", "lieb-s", "--s", "0.5", "--a",
                 paths["rho"], "--b", paths["sigma"], "--k", paths["k"],
                 "--json"], lieb)

    def op(self, inputs):
        return call_cli(inputs[0])

    def check(self, inputs, output, corrupt: bool = False) -> None:
        argv, ref = inputs
        code, text = output
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        payload = json.loads(text)
        functional = argv[argv.index("--functional") + 1]
        if payload["functional"] != functional:
            raise CheckFailed(f"reports functional {payload['functional']!r}")
        _close_enough(functional, payload["value"],
                      _perturb(ref) if corrupt else ref)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# name -> (full-size factory, tiny factory for the self-tests); each
# factory takes (name, seed, workdir)
WORKLOADS = {
    "verify-small": (partial(VerifyWorkload, dim=3, trials=25),
                     partial(VerifyWorkload, dim=2, trials=2)),
    "verify-large": (partial(VerifyWorkload, dim=32, trials=8),
                     partial(VerifyWorkload, dim=4, trials=2)),
    "superop-n24": (partial(SuperopWorkload, n=24),
                    partial(SuperopWorkload, n=3)),
    "eval-large": (partial(EvalWorkload, n=128, pool=4),
                   partial(EvalWorkload, n=6, pool=2)),
}


def make(name: str, seed: int, workdir, tiny: bool = False):
    full, small = WORKLOADS[name]
    return (small if tiny else full)(name, seed, workdir)
