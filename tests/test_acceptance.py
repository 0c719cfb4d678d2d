"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every campaign here is seeded, so the gate is deterministic.
"""
import json
import time

import numpy as np
import pytest

from opconvex import (THEOREM_TAGS, TrialConfig,
                      check_perspective_joint_convexity,
                      classical_relative_entropy, lieb_functional,
                      lieb_pq_functional, lookup_atom,
                      perspective_quadratic_form,
                      quantum_relative_entropy_direct,
                      quantum_relative_entropy_perspective,
                      random_commuting_pair, random_density,
                      random_positive_matrix, run_campaign, run_single)
from opconvex.checks import (check_extended_perspective_joint_convexity,
                             scalar_geq)
from opconvex.functionals import classical_entropy
from opconvex.verify import random_probability_vector
from opconvex.commuting import MultiplicationPair
from opconvex.cli import main
from reports import printed


def _verdict(num, ok, detail):
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _campaign(tag, **kwargs):
    cfg = TrialConfig(**kwargs)
    return run_campaign(cfg, (tag,))[0]


JENSEN_DIMS = ((2, 2), (3, 3), (5, 5), (3, 2))


def test_criterion_01_jensen_isometry_atlas():
    atoms = (("xlogx", None), ("neg_power", 0.5), ("neg_log", None),
             ("square", None))
    t0 = time.perf_counter()
    worst = 0.0
    failures = 0
    for name, param in atoms:
        for m, n in JENSEN_DIMS:
            r = _campaign("hp", atom=name, atom_parameter=param, dim_m=m,
                          dim_n=n, trials=200, tol=1e-8)
            failures += r.failures
            worst = min(worst, r.worst_slack)
    elapsed = time.perf_counter() - t0
    _verdict(1, failures == 0 and elapsed < 30.0,
             f"jensen isometry: 4 atoms x {len(JENSEN_DIMS)} dims x 200 "
             f"trials, failures={failures}, worst_slack={worst:.3e}, "
             f"{elapsed:.1f}s")


def test_criterion_02_jensen_contractive_atlas():
    atoms = (("xlogx", None), ("neg_power", 0.5), ("square", None))
    failures = 0
    worst = 0.0
    for name, param in atoms:
        for m, n in JENSEN_DIMS:
            r = _campaign("hp-contractive", atom=name, atom_parameter=param,
                          dim_m=m, dim_n=n, trials=200, tol=1e-8)
            failures += r.failures
            worst = min(worst, r.worst_slack)
    _verdict(2, failures == 0,
             f"jensen contractive: 3 atoms x {len(JENSEN_DIMS)} dims x 200 "
             f"trials, failures={failures}, worst_slack={worst:.3e}")


def test_criterion_03_perspective_joint_convexity():
    failures = 0
    worst = 0.0
    for name, param in (("xlogx", None), ("neg_power", 0.5)):
        for n in (2, 3, 5):
            r = _campaign("perspective", atom=name, atom_parameter=param,
                          dim_n=n, trials=200, tol=1e-8)
            failures += r.failures
            worst = min(worst, r.worst_slack)
    _verdict(3, failures == 0,
             f"perspective joint convexity: 2 atoms x N in (2,3,5) x 200 "
             f"trials, failures={failures}, worst_slack={worst:.3e}")


def test_criterion_04_extended_perspective():
    failures = 0
    worst = 0.0
    for (name, param), t in ((("xlogx", None), 0.5),
                             (("neg_power", 0.5), 0.7)):
        r = _campaign("marechal", atom=name, atom_parameter=param, t=t,
                      trials=200, tol=1e-8)
        failures += r.failures
        worst = min(worst, r.worst_slack)

    # identity base must reproduce the plain perspective slacks exactly
    f = lookup_atom("xlogx")
    ident = lookup_atom("identity")
    max_diff = 0.0
    for idx in range(60):
        rng = np.random.default_rng(idx)
        c = float(rng.random())
        p1 = random_commuting_pair(3, rng)
        p2 = random_commuting_pair(3, rng)
        plain = check_perspective_joint_convexity(f, p1, p2, c, 1e-8)
        ext = check_extended_perspective_joint_convexity(f, ident, p1, p2, c,
                                                         1e-8)
        max_diff = max(max_diff, abs(plain.slack - ext.slack))
    _verdict(4, failures == 0 and max_diff <= 1e-12,
             f"extended perspective: 2 (f,h) pairs x 200 trials, "
             f"failures={failures}, worst_slack={worst:.3e}; identity-base "
             f"slack reproduction max_diff={max_diff:.1e}")


def test_criterion_05_relative_entropy():
    # (a) the two evaluation paths agree
    worst_rel = 0.0
    for i in range(100):
        n = 2 + i % 5
        rho = random_density(n, 1000 + 2 * i)
        sigma = random_density(n, 1001 + 2 * i)
        a = quantum_relative_entropy_direct(rho, sigma)
        b = quantum_relative_entropy_perspective(rho, sigma)
        worst_rel = max(worst_rel, abs(a - b) / (1.0 + abs(a)))
    path_ok = worst_rel <= 1e-10

    # (b) joint convexity across dimensions
    failures = 0
    worst = 0.0
    for n in (2, 3, 4):
        r = _campaign("rel-entropy-convexity", dim_n=n, trials=200, tol=1e-8)
        failures += r.failures
        worst = min(worst, r.worst_slack)

    # (c) diagonal inputs match the classical formula
    diag_diff = 0.0
    rng = np.random.default_rng(99)
    for _ in range(20):
        p = random_probability_vector(4, rng).weights
        q = random_probability_vector(4, rng).weights
        quantum = quantum_relative_entropy_direct(np.diag(p), np.diag(q))
        diag_diff = max(diag_diff, abs(quantum -
                                       classical_relative_entropy(q, p)))
    _verdict(5, path_ok and failures == 0 and diag_diff <= 1e-12,
             f"relative entropy: path agreement worst_rel={worst_rel:.1e}, "
             f"convexity failures={failures} (worst_slack={worst:.3e}), "
             f"diagonal-vs-classical max_diff={diag_diff:.1e}")


def test_criterion_06_lieb_concavity():
    failures = 0
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        r = _campaign("lieb-s", s=s, dim_n=3, trials=200, tol=1e-8)
        failures += r.failures
        worst = min(worst, r.worst_slack)

    worst_rel = 0.0
    rng = np.random.default_rng(7)
    for i in range(20):
        A = random_positive_matrix(3, rng).mat
        B = random_positive_matrix(3, rng).mat
        K = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        s = (0.25, 0.5, 0.75)[i % 3]
        direct = lieb_functional(A, B, K, s)
        qf = perspective_quadratic_form(lookup_atom("neg_power", s),
                                        MultiplicationPair(A, B), K)
        worst_rel = max(worst_rel, abs(direct + qf) / (1.0 + abs(direct)))
    _verdict(6, failures == 0 and worst_rel <= 1e-10,
             f"lieb concavity: s in (0.25,0.5,0.75) x 200 trials, "
             f"failures={failures} (worst_slack={worst:.3e}); trace vs "
             f"quadratic-form worst_rel={worst_rel:.1e}")


def test_criterion_07_two_exponent_concavity():
    failures = 0
    worst = 0.0
    for p, q in ((0.3, 0.4), (0.5, 0.5), (0.1, 0.9)):
        r = _campaign("lieb-pq", p=p, q=q, dim_n=3, trials=200, tol=1e-8)
        failures += r.failures
        worst = min(worst, r.worst_slack)

    # on the p + q = 1 line the two-exponent form is the single-exponent one
    worst_diff = 0.0
    rng = np.random.default_rng(8)
    for p, q in ((0.5, 0.5), (0.1, 0.9)):
        for _ in range(10):
            A = random_positive_matrix(3, rng).mat
            B = random_positive_matrix(3, rng).mat
            X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            v = lieb_pq_functional(A, B, X, p, q)
            w = lieb_functional(A, B, X, q)
            worst_diff = max(worst_diff, abs(v - w) / (1.0 + abs(w)))
    _verdict(7, failures == 0 and worst_diff <= 1e-12,
             f"two-exponent concavity: 3 exponent pairs x 200 trials, "
             f"failures={failures} (worst_slack={worst:.3e}); sum-one "
             f"agreement worst_rel={worst_diff:.1e}")


def test_criterion_08_negative_control(tmp_path):
    # the quartic atom is convex but not matrix convex; the rectangular
    # compression must expose that within the trial budget
    out = tmp_path / "control.json"
    code = main(["verify", "--theorem", "hp", "--atom", "quartic",
                 "--negative-control", "--dim", "2", "--trials", "10000",
                 "--seed", "7", "--out", str(out)])
    doc = json.loads(out.read_text())
    found = code == 0 and doc["failures"] >= 1 and doc["worst_slack"] < -1e-6

    cfg = TrialConfig(**doc["config"])
    v, _ = run_single("hp", cfg, doc["witness"]["trial_index"],
                      doc["witness"]["redraw"])
    replay_ok = abs(v.slack - doc["worst_slack"]) <= 1e-14 * abs(
        doc["worst_slack"])

    # square single-block compressions admit no quartic violation at this
    # scale; the finder's power comes from the rectangular case
    square = run_campaign(TrialConfig(atom="quartic", dim_m=2, dim_n=2,
                                      trials=10000, seed=7), ("hp",))[0]
    _verdict(8, found and replay_ok and square.failures == 0,
             f"negative control: (m,n)=(3,2) worst_slack="
             f"{doc['worst_slack']:.3e} in {doc['trials']} trials "
             f"(failures={doc['failures']}), witness replay "
             f"diff={abs(v.slack - doc['worst_slack']):.1e}; square (2,2) "
             f"case clean over the same budget "
             f"(worst_slack={square.worst_slack:.3e})")


def test_criterion_09_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = main(["verify", "--theorem", "all", "--seed", "7", "--out",
                     str(path)])
        assert code == 0
    byte_identical = a.read_bytes() == b.read_bytes()

    cfg = TrialConfig(seed=7)
    independent = printed(run_campaign(cfg, THEOREM_TAGS)) == printed(
        [run_campaign(cfg, (tag,))[0] for tag in THEOREM_TAGS])
    _verdict(9, byte_identical and independent,
             f"determinism: repeated CLI reports byte-identical="
             f"{byte_identical}, campaign == per-tag campaigns={independent}")


def test_criterion_10_classical_layer():
    failures = 0
    worst = 0.0
    for name in ("xlogx", "square"):
        r = _campaign("classical", atom=name, trials=1000, tol=1e-12)
        failures += r.failures
        worst = min(worst, r.worst_slack)

    rng = np.random.default_rng(10)
    entropy_ok = True
    kl_ok = True
    for _ in range(1000):
        p1 = random_probability_vector(4, rng).weights
        p2 = random_probability_vector(4, rng).weights
        c = float(rng.random())
        mix_h = classical_entropy(c * p1 + (1.0 - c) * p2)
        avg_h = c * classical_entropy(p1) + (1.0 - c) * classical_entropy(p2)
        entropy_ok &= scalar_geq(mix_h, avg_h, 1e-12).holds

        q1 = random_probability_vector(4, rng).weights
        q2 = random_probability_vector(4, rng).weights
        lhs = (c * classical_relative_entropy(q1, p1)
               + (1.0 - c) * classical_relative_entropy(q2, p2))
        rhs = classical_relative_entropy(c * q1 + (1.0 - c) * q2,
                                         c * p1 + (1.0 - c) * p2)
        kl_ok &= scalar_geq(lhs, rhs, 1e-12).holds
    _verdict(10, failures == 0 and entropy_ok and kl_ok,
             f"classical layer: perspective campaigns failures={failures} "
             f"(worst_slack={worst:.3e}) at tol 1e-12; entropy concavity "
             f"1000 triples ok={entropy_ok}; divergence joint convexity "
             f"1000 triples ok={kl_ok}")
