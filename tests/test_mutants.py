"""Mutants of the private kernels, killed by verdicts, never by a hash.

A mutant recompiles one kernel with one piece of its source replaced and
binds it, through ``monkeypatch``, wherever the package binds the original.
A verdict kills it: a theorem tag whose 200-trial campaign counts failures,
or the quartic negative control no longer finding its violation. Mutants
that every campaign passes are killed by a scalar oracle instead
(``test_oracles.py``): their slacks stray from it. Mutants that break a
theorem's hypotheses are killed by the ``HypothesisViolation`` their
campaign stops with. Byte pins play no part, so the kills hold under any
numpy.
"""
import __future__
import inspect
import sys
import textwrap

import pytest

from opconvex import (THEOREM_TAGS, HypothesisViolation, TrialConfig, checks,
                      functionals, linalg, perspective)
from opconvex import run_campaign
from test_oracles import ORACLE_BOUND, ORACLES, oracle_gaps

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
    # (U diag(w)) U* becomes diag(w) U U* = diag(w)
    "materialize-scales-rows": (
        linalg, "_materialize", "spectrum[..., None, :]",
        "spectrum[..., :, None]",
        {"hp", "hp-contractive", "perspective", "marechal", "lieb-s",
         "lieb-pq"}, True),
    "classical-squares-the-base": (
        functionals, "_classical", "t[:, None]", "t[:, None] ** 2",
        {"classical"}, True),
}


def test_unmutated_kernels_pass_and_the_control_finds_its_violation():
    assert _verdicts() == (set(), True)


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_killed_by_a_verdict(mutant, monkeypatch):
    module, name, old, new, failing, found = MUTANTS[mutant]
    _mutate(monkeypatch, module, name, old, new)
    assert _verdicts() == (failing, found)
    assert failing or not found


# name: (module, kernel, source, mutated source); each stops a campaign
# with a HypothesisViolation before any verdict
RAISING_MUTANTS = {
    # at c = 0 every pair mixes to 0: no redraw gets out of the domain
    "mix-weights-both-endpoints-by-c": (
        checks, "_mix", "_sym(c * a + (1.0 - c) * b)", "_sym(c * a + c * b)"),
    # the densities lose their unit trace
    "normalize-multiplies-by-the-trace": (
        functionals, "_normalize", "_sym(H / errs", "_sym(H * errs"),
}


@pytest.mark.parametrize("mutant", RAISING_MUTANTS)
def test_mutant_is_killed_by_a_hypothesis_violation(mutant, monkeypatch):
    module, name, old, new = RAISING_MUTANTS[mutant]
    _mutate(monkeypatch, module, name, old, new)
    with pytest.raises(HypothesisViolation):
        _verdicts()


# name: (module, kernel, source, mutated source, tags whose oracle kills it);
# each passes every campaign and the control
ORACLE_MUTANTS = {
    "mixture-mixes-endpoint-1-with-itself": (
        checks, "_mixture", "    avg = mix(",
        "    Xs = (Xs[0],) * len(Xs)\n    avg = mix(",
        {"rel-entropy-convexity", "lieb-s", "lieb-pq", "perspective",
         "marechal"}),
    # Tr(A^p X* B^q X) is still jointly concave for p + q <= 1
    "lieb-pq-swaps-its-exponents": (
        checks, "_lieb_pq_theorem", "_power_atoms(q, p)",
        "_power_atoms(p, q)", {"lieb-pq"}),
    "relative-entropy-log-sigma-as-sigma": (
        functionals, "_relative_entropy", "_materialize(Us, np.log(ws))",
        "_materialize(Us, ws)", {"rel-entropy-convexity"}),
    # Tr rho^2 - Tr rho log sigma is still jointly convex
    "relative-entropy-rho-log-rho-as-rho-squared": (
        functionals, "_relative_entropy", "_dot_rows(wr, np.log(wr))",
        "_dot_rows(wr, wr)", {"rel-entropy-convexity"}),
    # the kernel under Tr rho log rho: it becomes Tr rho^2, as above
    "dot-rows-squares-its-first-operand": (
        linalg, "_dot_rows", "@ y[", "@ x[", {"rel-entropy-convexity"}),
}


@pytest.mark.parametrize("mutant", ORACLE_MUTANTS)
def test_campaign_survivor_is_killed_by_an_oracle(mutant, monkeypatch):
    module, name, old, new, killed = ORACLE_MUTANTS[mutant]
    _mutate(monkeypatch, module, name, old, new)
    assert _verdicts() == (set(), True)
    assert {tag for tag in ORACLES
            if max(oracle_gaps(tag)) > ORACLE_BOUND} == killed
