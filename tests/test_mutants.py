"""Mutants of the private kernels, each killed by a verdict, never by a hash.

A mutant recompiles one kernel with one piece of its source replaced and
binds it, through ``monkeypatch``, wherever the package binds the original.
A verdict kills it: a theorem tag whose 200-trial campaign counts failures,
or the quartic negative control no longer finding its violation. Byte pins
play no part, so the kills hold under any numpy.
"""
import __future__
import inspect
import sys
import textwrap

import pytest

from opconvex import (THEOREM_TAGS, TrialConfig, checks, functionals, linalg,
                      perspective)
from opconvex import run_campaign

CAMPAIGN = TrialConfig(trials=200)
# hp --atom quartic --negative-control --dim 2 --trials 2000 --seed 7
CONTROL = TrialConfig(dim_n=2, trials=2000, seed=7, atom="quartic")


def _mutate(monkeypatch, module, name: str, old: str, new: str) -> None:
    """Recompile ``module.name`` with ``old`` in its source replaced by
    ``new``, in the module's namespace, and bind the mutant wherever a
    module of the package binds the original."""
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, (name, old)
    code = compile(source.replace(old, new), inspect.getsourcefile(original),
                   "exec", flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    scope = {}
    exec(code, vars(module), scope)
    for key, mod in list(sys.modules.items()):
        if ((key == "opconvex" or key.startswith("opconvex."))
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, scope[name])


def _verdicts():
    """The tags whose campaign counts failures, and whether the quartic
    control finds its violation."""
    failing = {r.theorem for r in run_campaign(CAMPAIGN, THEOREM_TAGS)
               if r.failures}
    return failing, run_campaign(CONTROL, ("hp",))[0].failures > 0


# name: (module, kernel, source, mutated source, failing tags, control found)
MUTANTS = {
    "eigen-path-swaps-lam-mu": (
        perspective, "_eigen", "_scaled(f, lam, _base(h, mu, errs), errs)",
        "_scaled(f, mu, _base(h, lam, errs), errs)",
        {"perspective", "marechal"}, True),
    "symmetrized-path-ignores-h": (
        perspective, "_symmetrized", "R = _calculus(h, R, errs)", "R = R",
        {"marechal"}, True),
    "calculus-transposes": (
        linalg, "_calculus", "_materialize(U, f(errs.clamp(f.domain, w))))",
        "_materialize(U, f(errs.clamp(f.domain, w))).swapaxes(-1, -2))",
        {"hp", "hp-contractive", "perspective", "marechal"}, True),
    "jensen-congruence-b-a-a": (
        checks, "_jensen", "_adj(B) @ a @ B", "_adj(B) @ a @ A",
        {"hp", "hp-contractive"}, True),
    "lieb-s-drops-the-exponent": (
        checks, "_lieb_theorem", "_power_atoms(s, 1.0 - s)",
        "_power_atoms(s, 1.0)", {"lieb-s"}, True),
    "loewner-slack-from-largest-eigenvalue": (
        linalg, "_loewner", "slack = w[..., 0]", "slack = w[..., -1]",
        set(), False),
    "trace-form-k-for-k-adjoint": (
        functionals, "_trace_form", "Af @ _adj(K) @ Bf @ K", "Af @ K @ Bf @ K",
        {"lieb-s", "lieb-pq"}, True),
    "scaled-drops-the-base": (
        perspective, "_scaled", "f(errs.clamp(f.domain, ratio)) * b",
        "f(errs.clamp(f.domain, ratio))",
        {"perspective", "marechal", "classical"}, True),
    "geq-slack-reversed": (
        checks, "_geq", "return lhs - rhs,", "return rhs - lhs,",
        {"rel-entropy-convexity", "lieb-s", "lieb-pq", "classical"}, True),
    "base-ignores-h": (
        perspective, "_base", "hr = h(errs.clamp(h.domain, r))",
        "hr = errs.clamp(h.domain, r)", {"marechal"}, True),
    "relative-entropy-adds-the-cross-term": (
        functionals, "_relative_entropy", "ent - np.trace(r @ log_sigma",
        "ent + np.trace(r @ log_sigma", {"rel-entropy-convexity"}, True),
}


def test_unmutated_kernels_pass_and_the_control_finds_its_violation():
    assert _verdicts() == (set(), True)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_killed_by_a_verdict(mutant, monkeypatch):
    module, name, old, new, failing, found = MUTANTS[mutant]
    _mutate(monkeypatch, module, name, old, new)
    assert _verdicts() == (failing, found)
    assert failing or not found
