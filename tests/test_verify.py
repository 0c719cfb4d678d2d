"""Campaign engine: seeding, generators, checkers, aggregation, determinism."""
import numpy as np
import pytest

from opconvex import (DomainViolation, HypothesisViolation, THEOREM_TAGS,
                      TrialConfig, check_classical_perspective_convexity,
                      check_jensen_contractive, check_jensen_isometry,
                      check_lieb_concavity, check_perspective_joint_convexity,
                      check_relative_entropy_joint_convexity, lookup_atom,
                      random_commuting_pair, random_contraction_pair,
                      random_density, random_hermitian_in_domain,
                      random_isometry_pair, random_positive_matrix,
                      random_probability_vector, random_unitary, run_campaign,
                      run_single, run_trial, scalar_geq, trial_seed)
from opconvex.verify import (_THEOREMS, MAX_REDRAWS, _encode_witness,
                             _Theorem)


class TestTrialSeed:
    def test_frozen_reference_values(self):
        # pinned: the seed rule is part of the witness-replay contract
        assert trial_seed(0, "hp", 0, 0) == 13025150720111788851
        assert trial_seed(7, "classical", 3, 1) == 16006033752899992245

    def test_coordinates_are_separated(self):
        base = trial_seed(0, "hp", 1, 0)
        assert trial_seed(0, "hp", 2, 0) != base
        assert trial_seed(0, "hp", 1, 1) != base
        assert trial_seed(1, "hp", 1, 0) != base
        assert trial_seed(0, "perspective", 1, 0) != base


class TestTrialConfig:
    def test_defaults_validate(self):
        TrialConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"trials": 0},
        {"dim_n": 0},
        {"tol": 0.0},
        {"tol": -1e-8},
        {"floor": 0.0},
        {"seed": -1},
        {"shrink": 0.0},
        {"shrink": 1.5},
        {"atom": "cube"},
        {"atom": "neg_power", "atom_parameter": 1.0},
        {"s": 1.0},
        {"t": 0.0},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs).validate()

    def test_fingerprint_is_json_ready(self):
        import json
        json.dumps(TrialConfig().fingerprint())


class TestGenerators:
    def test_isometry_pair_gram(self):
        A, B = random_isometry_pair(3, 2, 0)
        gram = A.conj().T @ A + B.conj().T @ B
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12
        assert A.shape == (3, 2)

    def test_isometry_pair_existence_gate(self):
        with pytest.raises(ValueError, match="2m >= n"):
            random_isometry_pair(1, 3, 0)

    def test_contraction_pair_below_identity(self):
        A, B = random_contraction_pair(3, 3, 1)
        w = np.linalg.eigvalsh(np.eye(3) - (A.conj().T @ A + B.conj().T @ B))
        assert w[0] > 0.0

    def test_contraction_shrink_bounds(self):
        with pytest.raises(ValueError):
            random_contraction_pair(2, 2, 0, shrink=0.0)

    def test_unitary_is_unitary_and_deterministic(self):
        U = random_unitary(4, 2)
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12
        assert np.array_equal(U, random_unitary(4, 2))

    def test_hermitian_in_domain_respects_domain(self):
        T = random_hermitian_in_domain(lookup_atom("xlogx"), 4, 3)
        assert np.linalg.eigvalsh(T.mat)[0] > 0.0
        T2 = random_hermitian_in_domain(lookup_atom("square"), 4, 3)
        w = np.linalg.eigvalsh(T2.mat)
        assert w[0] >= -5.0 and w[-1] <= 5.0

    def test_probability_vector(self):
        p = random_probability_vector(5, 4)
        assert abs(p.weights.sum() - 1.0) <= 1e-12
        assert p.weights.min() > 0.0

    def test_positive_matrix_floor(self):
        M = random_positive_matrix(3, 5, floor=0.5)
        assert np.linalg.eigvalsh(M.mat)[0] >= 0.5 - 1e-12


class TestScalarGeq:
    def test_holds_and_slack(self):
        v = scalar_geq(2.0, 1.0, 1e-8)
        assert v.holds and v.slack == 1.0

    def test_tolerance_scales(self):
        assert scalar_geq(1.0, 1.0 + 1e-9, 1e-8).holds
        assert not scalar_geq(1.0, 1.0 + 1e-6, 1e-8).holds
        # at magnitude 1e3 the same absolute gap is inside tolerance
        assert scalar_geq(1e3, 1e3 + 1e-6, 1e-8).holds


class TestCheckerHypothesisGates:
    def test_isometry_defect_rejected(self):
        f = lookup_atom("xlogx")
        A, B = random_isometry_pair(3, 3, 6)
        T = random_hermitian_in_domain(f, 3, 7)
        with pytest.raises(HypothesisViolation, match="identity"):
            check_jensen_isometry(f, 1.01 * A, B, T)

    def test_contractive_needs_f0(self):
        A, B = random_contraction_pair(3, 3, 8)
        T = random_hermitian_in_domain(lookup_atom("neg_log"), 3, 9)
        with pytest.raises(HypothesisViolation, match="f\\(0\\)"):
            check_jensen_contractive(lookup_atom("neg_log"), A, B, T)

    def test_contractive_rejects_expansive_pair(self):
        f = lookup_atom("xlogx")
        A, B = random_isometry_pair(3, 3, 10)
        T = random_hermitian_in_domain(f, 3, 11)
        with pytest.raises(HypothesisViolation, match="exceeds"):
            check_jensen_contractive(f, 1.1 * A, 1.1 * B, T)

    @pytest.mark.parametrize("check", [check_jensen_isometry,
                                       check_jensen_contractive])
    def test_jensen_rejects_concave_atom(self, check):
        f = lookup_atom("power", 0.5)
        A, B = random_isometry_pair(3, 3, 6)
        T = random_hermitian_in_domain(f, 3, 7)
        with pytest.raises(HypothesisViolation, match="concave"):
            check(f, A, B, T)

    def test_perspective_needs_matrix_convexity(self):
        p1 = random_commuting_pair(3, 12)
        p2 = random_commuting_pair(3, 13)
        with pytest.raises(HypothesisViolation, match="convex"):
            check_perspective_joint_convexity(lookup_atom("quartic"), p1, p2,
                                              0.5)

    def test_mixing_weight_range(self):
        p1 = random_commuting_pair(3, 14)
        p2 = random_commuting_pair(3, 15)
        with pytest.raises(HypothesisViolation, match="weight"):
            check_perspective_joint_convexity(lookup_atom("xlogx"), p1, p2,
                                              1.5)

    def test_relative_entropy_needs_unit_trace(self):
        rho = random_density(3, 16)
        with pytest.raises(HypothesisViolation, match="trace"):
            check_relative_entropy_joint_convexity(
                2.0 * rho.mat, rho, rho, rho, 0.5)

    def test_lieb_exponent_gate(self):
        A = random_positive_matrix(3, 17)
        with pytest.raises(HypothesisViolation):
            check_lieb_concavity(A, A, A, A, np.eye(3), 1.5, 0.5)

    def test_classical_rejects_concave_atom(self):
        with pytest.raises(HypothesisViolation, match="concave"):
            check_classical_perspective_convexity(lookup_atom("power", 0.5),
                                                  1.0, 1.0, 9.0, 1.0, 0.5)

    def test_classical_base_gate(self):
        with pytest.raises(HypothesisViolation, match="positive"):
            check_classical_perspective_convexity(lookup_atom("square"),
                                                  1.0, -1.0, 2.0, 1.0, 0.5)


class TestRunSingle:
    def test_deterministic_replay(self):
        cfg = TrialConfig(trials=5)
        v1, w1 = run_single("perspective", cfg, 4)
        v2, w2 = run_single("perspective", cfg, 4)
        assert v1 == v2
        # raw witnesses hold commuting pairs; compare their encodings
        assert _encode_witness(w1) == _encode_witness(w2)

    def test_forced_endpoints(self):
        cfg = TrialConfig(trials=10)
        cs = [run_single("classical", cfg, i)[1]["c"] for i in range(4)]
        assert cs[:3] == [0.0, 0.5, 1.0]
        assert 0.0 <= cs[3] < 1.0 and cs[3] not in (0.0, 0.5, 1.0)

    def test_endpoint_forcing_can_be_disabled(self):
        cfg = TrialConfig(trials=10, force_endpoints=False)
        cs = {run_single("classical", cfg, i)[1]["c"] for i in range(3)}
        assert cs.isdisjoint({0.0, 0.5, 1.0})

    def test_jensen_tags_carry_no_weight(self):
        cfg = TrialConfig(trials=3)
        _, w = run_single("hp", cfg, 0)
        assert "c" not in w

    def test_witness_carries_replay_coordinates(self):
        cfg = TrialConfig(trials=3)
        _, w = run_single("lieb-s", cfg, 1)
        assert w["trial_index"] == 1 and w["redraw"] == 0
        assert w["trial_seed"] == trial_seed(cfg.seed, "lieb-s", 1, 0)
        assert "sha256" in w["seed_rule"]

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            run_single("bogus", TrialConfig(), 0)


class TestRedrawMachinery:
    @pytest.fixture
    def flaky_tag(self):
        # draws that land below 0.6 are rejected as out-of-domain
        def _draw(cfg, rng):
            u = float(rng.random())
            if u < 0.6:
                raise DomainViolation(f"rejected draw {u:.3f}")
            return {"u": u}

        _THEOREMS["flaky"] = _Theorem(
            _draw, lambda cfg, w, c: scalar_geq(w["u"], 0.0, cfg.tol), False)
        yield "flaky"
        del _THEOREMS["flaky"]

    def test_redraws_advance_until_accepted(self, flaky_tag):
        cfg = TrialConfig(trials=1)
        seen = [run_trial(flaky_tag, cfg, i)[1] for i in range(30)]
        redraws = [w["redraw"] for w in seen]
        assert max(redraws) >= 1
        assert all(w["u"] >= 0.6 for w in seen)

    def test_redrawn_trial_replays_exactly(self, flaky_tag):
        cfg = TrialConfig(trials=1)
        _, w = run_trial(flaky_tag, cfg, 11)
        _, replayed = run_single(flaky_tag, cfg, 11, redraw=w["redraw"])
        assert replayed == w

    @pytest.fixture
    def hopeless_tag(self):
        def _draw(cfg, rng):
            raise DomainViolation("never admissible")

        _THEOREMS["hopeless"] = _Theorem(_draw, None, False)
        yield "hopeless"
        del _THEOREMS["hopeless"]

    def test_redraw_budget_exhaustion(self, hopeless_tag):
        with pytest.raises(HypothesisViolation,
                           match=f"{MAX_REDRAWS} redraws"):
            run_trial(hopeless_tag, TrialConfig(trials=1), 0)


class TestRunCampaign:
    def test_report_schema_and_pass(self):
        cfg = TrialConfig(trials=25, seed=3)
        reports = run_campaign(cfg, ("perspective",))
        assert len(reports) == 1
        r = reports[0]
        assert r.theorem == "perspective"
        assert r.trials == 25 and r.failures == 0
        assert r.tolerance == cfg.tol
        assert r.config == cfg.fingerprint()
        doc = r.to_json()
        assert set(doc) == {"theorem", "trials", "failures", "worst_slack",
                            "tolerance", "witness", "config"}

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_worst_witness_replays_to_worst_slack(self, tag):
        cfg = TrialConfig(trials=40, seed=5)
        r = run_campaign(cfg, (tag,))[0]
        v, w = run_single(tag, cfg, r.witness["trial_index"],
                          r.witness["redraw"])
        assert v.slack == r.worst_slack
        assert r.witness == _encode_witness(w)

    def test_campaign_matches_per_tag_campaigns(self):
        cfg = TrialConfig(trials=30, seed=9)
        tags = ("perspective", "rel-entropy-convexity", "classical")
        assert run_campaign(cfg, tags) == [run_campaign(cfg, (t,))[0]
                                           for t in tags]

    def test_worst_slack_monotone_in_trial_count(self):
        small = run_campaign(TrialConfig(trials=20, seed=2), ("lieb-s",))[0]
        large = run_campaign(TrialConfig(trials=60, seed=2), ("lieb-s",))[0]
        assert large.worst_slack <= small.worst_slack

    def test_all_tags_pass_smoke(self):
        cfg = TrialConfig(trials=8, seed=1)
        reports = run_campaign(cfg, THEOREM_TAGS)
        assert [r.theorem for r in reports] == list(THEOREM_TAGS)
        assert all(r.failures == 0 for r in reports)

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_campaign(TrialConfig(trials=1), ("hp", "hp"))

    def test_unknown_tag_rejected_before_trials(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            run_campaign(TrialConfig(trials=1), ("bogus",))

    def test_impossible_jensen_dims_rejected(self):
        cfg = TrialConfig(trials=1, dim_m=1, dim_n=3)
        with pytest.raises(ValueError, match="2m >= n"):
            run_campaign(cfg, ("hp",))

    def test_contractive_atom_gate_is_a_config_error(self):
        cfg = TrialConfig(trials=1, atom="neg_log")
        with pytest.raises(HypothesisViolation):
            run_campaign(cfg, ("hp-contractive",))

    def test_concave_atom_rejected_for_classical(self):
        cfg = TrialConfig(trials=1, atom="power", atom_parameter=0.5)
        with pytest.raises(HypothesisViolation, match="concave"):
            run_campaign(cfg, ("classical",))

    @pytest.mark.parametrize("tag", ["hp", "hp-contractive"])
    def test_concave_atom_rejected_for_jensen_tags(self, tag):
        cfg = TrialConfig(trials=1, atom="power", atom_parameter=0.5)
        with pytest.raises(HypothesisViolation, match="concave"):
            _THEOREMS[tag].gate(cfg)
        with pytest.raises(HypothesisViolation, match="concave"):
            run_campaign(cfg, (tag,))

    def test_negative_control_finds_quartic_violation(self):
        cfg = TrialConfig(trials=5000, seed=7, atom="quartic",
                          dim_m=3, dim_n=2)
        r = run_campaign(cfg, ("hp",))[0]
        assert r.failures >= 1
        assert r.worst_slack < -1e-6
        v, _ = run_single("hp", cfg, r.witness["trial_index"],
                          r.witness["redraw"])
        assert abs(v.slack - r.worst_slack) <= 1e-14 * abs(r.worst_slack)
