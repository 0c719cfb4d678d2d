"""Campaign engine: seeding, generators, checkers, aggregation, determinism."""
import json
import re
from dataclasses import asdict
from decimal import Decimal

import numpy as np
import pytest

from opconvex import (CheckReport, DomainViolation, HypothesisViolation,
                      LoewnerVerdict, THEOREM_TAGS, TrialConfig,
                      check_perspective_joint_convexity, loewner_leq,
                      lookup_atom, random_commuting_pair, random_density,
                      random_positive_matrix, random_unitary, run_campaign,
                      run_single)
from opconvex.checks import (_geq, _jensen, check_classical_perspective_convexity,
                             check_extended_perspective_joint_convexity,
                             check_jensen_contractive, check_jensen_isometry,
                             check_lieb_concavity, check_lieb_pq_concavity,
                             check_relative_entropy_joint_convexity,
                             scalar_geq)
from opconvex.commuting import CommutingPair
from opconvex.linalg import RowErrors
from opconvex.seeding import pcg64_states
from opconvex.verify import (_LOG_SPECTRUM, _THEOREMS, CHUNK, MAX_REDRAWS,
                             REAL_BOUND, SPECTRUM_HI, SPECTRUM_LO, _in_domain,
                             _log_pair_band, _report_witness, _Theorem,
                             _uniform, random_contraction_pair,
                             random_hermitian_in_domain, random_isometry_pair,
                             random_probability_vector, run_trial, trial_seed)
from reports import printed


def _register(tag, build, check=None):
    """A test theorem: one uniform draw u per trial, the given per-row
    gates in ``build``, and slack ``check(u)`` (u itself by default)."""
    _THEOREMS[tag] = _Theorem(
        lambda cfg: (("u", "random"),), build,
        lambda cfg, f: lambda ops, c, tol, errs: _geq(
            ops["u"] if check is None else check(ops["u"]), 0.0, tol),
        lambda cfg, f, ops, k: {"u": float(ops["u"][k])}, False)


def _u(cfg, tag, index, redraw):
    """The draw of the test theorems at (index, redraw), drawn directly."""
    return np.random.default_rng(
        trial_seed(cfg.seed, tag, index, redraw)).random()


def _verdict(batch, k):
    """Row k of a ``_Batch`` as the verdict ``run_single`` returns."""
    return LoewnerVerdict.of(batch.slack[k], batch.tolerance_used[k])


def _serial_report(cfg, tag):
    """The report a trial-by-trial loop over ``run_trial`` gives: failures
    counted one by one, the worst slack kept with ties to the lower index."""
    failures, worst, witness = 0, None, None
    for i in range(cfg.trials):
        batch = run_trial(tag, cfg, [i])
        verdict, w = _verdict(batch, 0), batch.witness(0)
        failures += not verdict.holds
        if worst is None or (verdict.slack, i) < worst:
            worst, witness = (verdict.slack, i), w
    return CheckReport(theorem=tag, trials=cfg.trials, failures=failures,
                       worst_slack=float(worst[0]), tolerance=cfg.tol,
                       witness=_report_witness(witness),
                       config=asdict(cfg))


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


class TestTrialStreams:
    """A trial draws exactly ``default_rng(trial_seed)``'s stream."""

    EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]

    def test_states_equal_default_rng(self):
        seeds = self.EDGE_SEEDS + np.random.default_rng(2008).integers(
            0, 2 ** 64, 2000, dtype=np.uint64).tolist()
        bitgen = np.random.PCG64(0)
        for s, state in zip(seeds, pcg64_states(seeds)):
            reference = np.random.default_rng(s).bit_generator
            assert state == reference.state, s
            bitgen.state = state
            assert np.array_equal(bitgen.random_raw(3),
                                  reference.random_raw(3)), s

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_batch_of_one(self, seed):
        [state] = pcg64_states([seed])
        assert state == np.random.default_rng(seed).bit_generator.state

    @pytest.fixture
    def float32_theorem(self):
        # three float32 draws use one and a half 64-bit outputs, leaving a
        # 32-bit half buffered in the generator after every trial
        _THEOREMS["float32"] = _Theorem(
            lambda cfg: (("x", "random", 3, np.float32),),
            lambda cfg, f, S, errs: S,
            lambda cfg, f: lambda ops, c, tol, errs: _geq(ops["x"][:, 0],
                                                          0.0, tol),
            lambda cfg, f, ops, k: {"x": ops["x"][k]}, False)
        yield "float32"
        del _THEOREMS["float32"]

    def test_no_buffered_half_leaks_into_the_next_trial(self,
                                                        float32_theorem):
        cfg = TrialConfig(seed=3)
        rnd = run_single(float32_theorem, cfg, range(5))
        for k in range(5):
            rng = np.random.default_rng(
                trial_seed(cfg.seed, float32_theorem, k, 0))
            assert np.array_equal(rnd.witness(k)["x"],
                                  rng.random(3, dtype=np.float32)), k


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestUniformFromRandom:
    """Trials draw ``Generator.random``'s uniforms u, and the builds map them
    into a band [lo, hi) as ``lo + (hi - lo) * u``, where the draws once
    called ``Generator.uniform(lo, hi)``. The two agree bit for bit, so
    every campaign, pin and replay keeps its numbers; a numpy that breaks
    the identity fails here first."""

    SEEDS = range(500)
    BANDS = {"log-spectrum": _LOG_SPECTRUM,
             "log-pair-band-at-floor-0.5": _log_pair_band(0.5),
             "real-line": (-REAL_BOUND, REAL_BOUND)}

    @pytest.mark.parametrize("size", [None, 1, 6], ids=str)
    @pytest.mark.parametrize("band", BANDS.values(), ids=BANDS)
    def test_uniform_is_the_mapped_random(self, band, size):
        for seed in self.SEEDS:
            drawn = np.random.default_rng(seed).uniform(*band, size)
            u = np.random.default_rng(seed).random(size)
            assert _bits(_uniform(band, u)) == _bits(drawn), seed

    # the draws of an atom's domain before they became uniforms u
    OLD_DRAWS = {
        "xlogx": lambda rng, size: np.exp(rng.uniform(
            np.log(SPECTRUM_LO), np.log(SPECTRUM_HI), size)),
        "quartic": lambda rng, size: rng.uniform(-REAL_BOUND, REAL_BOUND,
                                                 size)}

    @pytest.mark.parametrize("size", [None, 5], ids=str)
    @pytest.mark.parametrize("atom", OLD_DRAWS)
    def test_in_domain_is_the_old_draw(self, atom, size):
        for seed in self.SEEDS:
            old = self.OLD_DRAWS[atom](np.random.default_rng(seed), size)
            u = np.random.default_rng(seed).random(size)
            assert _bits(_in_domain(lookup_atom(atom), u)) == _bits(old), seed

    @pytest.mark.parametrize("atom", OLD_DRAWS)
    def test_in_domain_of_stacked_columns_is_the_old_scalar_draws(self,
                                                                    atom):
        # the classical tag's x1, t1, x2, t2: once four scalar draws per
        # trial, now the columns of a batch's stacked random(4)
        u = np.array([np.random.default_rng(s).random(4) for s in self.SEEDS])
        x = _in_domain(lookup_atom(atom), u[:, ::2])
        t = np.exp(_uniform(_LOG_SPECTRUM, u[:, 1::2]))
        for k, seed in enumerate(self.SEEDS):
            rng = np.random.default_rng(seed)
            old = [draw(rng, None) for _ in "12" for draw in (
                self.OLD_DRAWS[atom], self.OLD_DRAWS["xlogx"])]
            assert _bits(old) == _bits([x[k, 0], t[k, 0], x[k, 1], t[k, 1]])


class TestTrialConfig:
    def test_defaults_validate(self):
        TrialConfig()

    @pytest.mark.parametrize("kwargs,message", [
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"dim_n": 0}, "dimensions must be >= 1, got (3, 0)"),
        ({"tol": 0.0}, "tol must be in (0, inf), got 0.0"),
        ({"tol": -1e-8}, "tol must be in (0, inf), got -1e-08"),
        ({"tol": float("inf")}, "tol must be in (0, inf), got inf"),
        ({"tol": float("nan")}, "tol must be in (0, inf), got nan"),
        ({"tol": 1.0}, "tol must be below 1, got 1: "),
        ({"tol": 1e3}, "tol must be below 1, got 1000: "),
        ({"floor": 0.0}, "floor must be in (0, inf), got 0.0"),
        ({"floor": float("inf")}, "floor must be in (0, inf), got inf"),
        ({"seed": -1}, "seed must fit in 64 unsigned bits, got -1"),
        ({"seed": 5.0}, "seed must be an integer, got 5.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": "5"}, "seed must be an integer, got '5'"),
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"trials": 25.0}, "trials must be an integer, got 25.0"),
        ({"dim_n": 3.0}, "dim_n must be an integer, got 3.0"),
        ({"dim_m": False}, "dim_m must be an integer, got False"),
        ({"shrink": 0.0}, "shrink must be in (0, 1], got 0.0"),
        ({"shrink": 1.5}, "shrink must be in (0, 1], got 1.5"),
        ({"atom": "cube"}, "unknown atom 'cube'; "),
        ({"atom": "neg_power", "atom_parameter": 1.0},
         "neg_power parameter must satisfy 0 < s < 1, got 1.0"),
        ({"s": 1.0}, "neg_power parameter must satisfy 0 < s < 1, got 1.0"),
        ({"t": 0.0}, "power parameter must satisfy 0 < t <= 1, got 0.0"),
    ])
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            TrialConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"tol": Decimal("1e-8")},
         "tol must be a finite number, got Decimal('1E-8')"),
        ({"floor": True}, "floor must be a finite number, got True"),
        ({"s": "0.5"}, "s must be a finite number, got '0.5'"),
        ({"t": True}, "t must be a finite number, got True"),
        ({"p": float("nan")}, "p must be a finite number, got nan"),
        ({"q": -float("inf")}, "q must be a finite number, got -inf"),
        ({"shrink": True}, "shrink must be a finite number, got True"),
        ({"atom": "power", "atom_parameter": True},
         "atom_parameter must be a finite number, got True"),
        ({"force_endpoints": 1}, "force_endpoints must be a bool, got 1"),
        ({"tol": "1e-8"}, "tol must be a finite number, got '1e-8'"),
        ({"tol": None}, "tol must be a finite number, got None"),
        ({"tol": True}, "tol must be a finite number, got True"),
        ({"floor": "1"}, "floor must be a finite number, got '1'"),
        ({"floor": None}, "floor must be a finite number, got None"),
        ({"shrink": "1"}, "shrink must be a finite number, got '1'"),
        ({"shrink": None}, "shrink must be a finite number, got None"),
    ], ids=["tol-decimal", "floor-bool", "s-string", "t-bool", "p-nan",
            "q-inf", "shrink-bool", "atom-parameter-bool",
            "force-endpoints-int", "tol-string", "tol-none", "tol-bool",
            "floor-string", "floor-none", "shrink-string", "shrink-none"])
    def test_rejects_what_would_not_print_as_json(self, kwargs, message):
        # each of these was accepted, and its report printed NaN, Infinity,
        # a bool, a string, or raised when printed
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrialConfig(**kwargs)

    def test_numpy_integers_run_the_same_campaign(self):
        [r] = run_campaign(TrialConfig(seed=np.int64(5), trials=np.int64(3)),
                           "classical")
        [ref] = run_campaign(TrialConfig(seed=5, trials=3), "classical")
        assert printed(r) == printed(ref)

    def test_fingerprint_turns_numpy_integers_into_ints(self):
        assert type(TrialConfig(seed=np.uint64(5)).seed) is int
        config = asdict(TrialConfig(seed=np.uint64(5), dim_n=np.int32(3)))
        assert type(config["seed"]) is int and type(config["dim_n"]) is int
        assert config == asdict(TrialConfig(seed=5))

    def test_numpy_floats_are_stored_as_floats(self):
        cfg = TrialConfig(s=np.float32(0.5), tol=np.float64(1e-8))
        assert type(cfg.s) is float and type(cfg.tol) is float
        [r] = run_campaign(TrialConfig(shrink=np.float32(0.5), trials=2),
                           "hp-contractive")
        assert json.loads(printed(r))["config"]["shrink"] == 0.5

    def test_fingerprint_is_json_ready(self):
        import json
        json.dumps(asdict(TrialConfig()))


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

    def test_density_dimension_gate(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            random_density(0, 1)

    def test_unitary_dimension_gate(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            random_unitary(0, 1)

    def test_commuting_pair_dimension_gate(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            random_commuting_pair(0, 1)

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (0, 1)])
    def test_isometry_pair_dimension_gate(self, m, n):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            random_isometry_pair(m, n, 1)

    @pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (0, 1)])
    def test_contraction_pair_dimension_gate(self, m, n):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            random_contraction_pair(m, n, 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_positive_matrix_dimension_gate(self, n):
        with pytest.raises(ValueError, match=f"^dimension must be >= 1, got {n}$"):
            random_positive_matrix(n, 1)

    def test_probability_vector_dimension_gate(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            random_probability_vector(0, 1)

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

    @pytest.mark.parametrize("lhs,rhs", [(float("nan"), 1.0),
                                         (1.0, float("inf"))])
    def test_rejects_non_finite_operands(self, lhs, rhs):
        with pytest.raises(ValueError, match="finite"):
            scalar_geq(lhs, rhs, 1e-8)


def _deciders() -> dict:
    """Every public decider on valid operands, as a function of tol."""
    f = lookup_atom("xlogx")
    A, B = random_isometry_pair(3, 3, 1)
    T = np.diag([1.0, 2.0, 3.0])
    pairs = random_commuting_pair(3, 1), random_commuting_pair(3, 2)
    states = [random_density(3, k) for k in range(4)]
    P, Q = random_positive_matrix(3, 5), random_positive_matrix(3, 6)
    return {
        "loewner_leq": lambda tol: loewner_leq(np.eye(2), 2 * np.eye(2), tol),
        "scalar_geq": lambda tol: scalar_geq(1.0, 1.0, tol),
        "hp": lambda tol: check_jensen_isometry(f, A, B, T, tol),
        "hp-contractive": lambda tol: check_jensen_contractive(f, A, B, T,
                                                               tol),
        "perspective": lambda tol: check_perspective_joint_convexity(
            f, *pairs, 0.5, tol=tol),
        "marechal": lambda tol: check_extended_perspective_joint_convexity(
            f, lookup_atom("power", 0.5), *pairs, 0.5, tol=tol),
        "rel-entropy-convexity": lambda tol:
            check_relative_entropy_joint_convexity(*states, 0.5, tol),
        "lieb-s": lambda tol: check_lieb_concavity(P, Q, Q, P, np.eye(3),
                                                   0.5, 0.5, tol),
        "lieb-pq": lambda tol: check_lieb_pq_concavity(P, Q, Q, P, np.eye(3),
                                                       0.3, 0.4, 0.5, tol),
        "classical": lambda tol: check_classical_perspective_convexity(
            f, 1.0, 2.0, 3.0, 4.0, 0.5, tol),
    }


class TestToleranceGate:
    @pytest.mark.parametrize("tol,message", [
        (-5, "tol must be in (0, inf), got -5"),
        (0.0, "tol must be in (0, inf), got 0.0"),
        (float("inf"), "tol must be in (0, inf), got inf"),
        (float("nan"), "tol must be in (0, inf), got nan"),
        (1.0, "tol must be below 1, got 1: a relative tolerance of 1 or more "
              "passes every Loewner-order check"),
        (2.0, "tol must be below 1, got 2: a relative tolerance of 1 or more "
              "passes every Loewner-order check"),
    ])
    @pytest.mark.parametrize("name", list(_deciders()))
    def test_rejects_tol_outside_unit_interval(self, name, tol, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _deciders()[name](tol)

    def test_tol_is_checked_before_the_hypotheses(self):
        # a concave atom fails the hypothesis gate, but the tol comes first
        with pytest.raises(ValueError, match="^tol must be below 1"):
            check_jensen_isometry(lookup_atom("power", 0.5), np.eye(3),
                                  np.zeros((3, 3)), np.eye(3), tol=2.0)


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

    @pytest.mark.parametrize("check,a,b", [
        (check_jensen_isometry, np.nan, 1.0),
        (check_jensen_contractive, 1.0, np.inf),
    ])
    def test_jensen_rejects_non_finite_pair(self, check, a, b):
        f = lookup_atom("xlogx")
        A, B = random_isometry_pair(3, 3, 6)
        T = random_hermitian_in_domain(f, 3, 7)
        with pytest.raises(ValueError, match="^A and B must be finite$"):
            check(f, a * A, b * B, T)

    @pytest.mark.parametrize("check", [check_jensen_isometry,
                                       check_jensen_contractive])
    @pytest.mark.parametrize("a,b", [(1e200, 1.0), (1.0, 1e200),
                                     (1e160, 1e160)])
    def test_jensen_overflowing_pair_fails_its_gate(self, check, a, b):
        # finite operands whose products overflow: the gate names the
        # non-finite A*A + B*B, no eigensolver raises and no overflow
        # warning escapes (pytest turns RuntimeWarning into an error)
        A, B = random_isometry_pair(3, 3, 1)
        with pytest.raises(HypothesisViolation,
                           match=r"^A\*A \+ B\*B is not finite"):
            check(lookup_atom("xlogx"), a * A, b * B, np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("check", [check_jensen_isometry,
                                       check_jensen_contractive])
    def test_jensen_huge_pair_fails_its_gate_without_overflow(self, check):
        # A*A + B*B is finite, but the row's x log x of A*TA would overflow
        # had it gone on with its own operands
        A, B = random_isometry_pair(3, 3, 1)
        with pytest.raises(HypothesisViolation,
                           match=r"^A\*A \+ B\*B (deviates from|exceeds) "):
            check(lookup_atom("xlogx"), 1e153 * A, B, np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("contractive", [False, True])
    def test_jensen_overflow_fails_only_its_own_row(self, contractive):
        A, B = random_isometry_pair(3, 3, 1)
        T = np.diag([1.0, 2.0, 3.0])
        f = lookup_atom("xlogx")
        errs = RowErrors(2)
        slack, used = _jensen(f, np.stack([1e200 * A, A]), np.stack([B, B]),
                              np.stack([T, T]), 1e-8, errs, contractive)
        assert isinstance(errs.errors[0], HypothesisViolation)
        assert errs.errors[1] is None
        check = (check_jensen_contractive if contractive
                 else check_jensen_isometry)
        alone = check(f, A, B, T)
        assert (slack[1], used[1]) == (alone.slack, alone.tolerance_used)

    @pytest.mark.parametrize("check", [check_jensen_isometry,
                                       check_jensen_contractive])
    def test_jensen_rejects_concave_atom(self, check):
        f = lookup_atom("power", 0.5)
        A, B = random_isometry_pair(3, 3, 6)
        T = random_hermitian_in_domain(f, 3, 7)
        with pytest.raises(HypothesisViolation, match="concave"):
            check(f, A, B, T)

    @pytest.mark.parametrize("check,message", [
        (lambda f: check_jensen_isometry(f, np.eye(2), np.zeros((3, 2)),
                                         np.eye(2)),
         r"A and B must share an m x n shape, got \(2, 2\) and \(3, 2\)"),
        (lambda f: check_jensen_isometry(f, np.eye(2) / np.sqrt(2),
                                         np.eye(2) / np.sqrt(2), np.eye(3)),
         "T must be 2 square to match the pair, got 3"),
        (lambda f: check_perspective_joint_convexity(
            f, random_commuting_pair(2, 1), random_commuting_pair(3, 2), 0.5),
         "dimension mismatch: 2 vs 3"),
        (lambda f: check_relative_entropy_joint_convexity(
            *(random_density(2, k) for k in range(3)), random_density(3, 3),
            0.5),
         "dimension mismatch among the four operands"),
    ], ids=["jensen-pair", "jensen-T", "perspective", "rel-entropy"])
    def test_operand_shape_rejections(self, check, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(lookup_atom("xlogx"))

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

    @pytest.mark.parametrize("check", [
        lambda c: check_perspective_joint_convexity(
            lookup_atom("xlogx"), random_commuting_pair(3, 14),
            random_commuting_pair(3, 15), c),
        lambda c: check_extended_perspective_joint_convexity(
            lookup_atom("xlogx"), lookup_atom("power", 0.5),
            random_commuting_pair(3, 14), random_commuting_pair(3, 15), c),
        lambda c: check_relative_entropy_joint_convexity(
            *(random_density(3, k) for k in range(4)), c),
        lambda c: check_lieb_concavity(
            *(random_positive_matrix(3, k) for k in range(4)), np.eye(3),
            0.5, c),
        lambda c: check_lieb_pq_concavity(
            *(random_positive_matrix(3, k) for k in range(4)), np.eye(3),
            0.3, 0.4, c),
    ], ids=["perspective", "extended", "rel-entropy", "lieb", "lieb-pq"])
    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_bad_weight_is_the_weight_gates_error(self, check, c):
        # a NaN or infinite weight must not reach the eigendecompositions
        # of the mixture, which would raise their own error first
        with pytest.raises(HypothesisViolation, match="weight"):
            check(c)

    def test_relative_entropy_needs_unit_trace(self):
        rho = random_density(3, 16)
        with pytest.raises(HypothesisViolation, match="trace"):
            check_relative_entropy_joint_convexity(
                2.0 * rho.mat, rho, rho, rho, 0.5)

    def test_lieb_rejects_non_finite_operand(self):
        A = random_positive_matrix(3, 17)
        K = np.eye(3, dtype=complex)
        K[0, 2] = np.nan
        with pytest.raises(ValueError, match="^K must be finite$"):
            check_lieb_concavity(A, A, A, A, K, 0.5, 0.3)
        with pytest.raises(ValueError, match="^X must be finite$"):
            check_lieb_pq_concavity(A, A, A, A, K, 0.3, 0.4, 0.3)

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

    @pytest.mark.parametrize("t1,t2", [(float("nan"), 1.0),
                                       (1.0, float("nan")),
                                       (float("inf"), 1.0)])
    def test_classical_nan_base_is_a_hypothesis_violation(self, t1, t2):
        with pytest.raises(HypothesisViolation, match="positive"):
            check_classical_perspective_convexity(lookup_atom("square"),
                                                  1.0, t1, 2.0, t2, 0.5)

    @pytest.mark.parametrize("name", ["square", "xlogx"])
    def test_classical_nan_point_is_a_domain_violation(self, name):
        with pytest.raises(DomainViolation, match="nan"):
            check_classical_perspective_convexity(lookup_atom(name),
                                                  float("nan"), 1.0, 2.0,
                                                  1.0, 0.5)


class TestRunSingle:
    def test_deterministic_replay(self):
        cfg = TrialConfig(trials=5)
        v1, w1 = run_single("perspective", cfg, 4)
        v2, w2 = run_single("perspective", cfg, 4)
        assert v1 == v2
        assert printed(w1) == printed(w2)

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

    @pytest.mark.parametrize("tag,eigvalsh", [("hp", 1),
                                              ("hp-contractive", 2)])
    def test_jensen_batch_lapack_calls(self, tag, eigvalsh, monkeypatch):
        # one stacked eigh for f(T) and one for f at the mixture; one
        # stacked eigvalsh for the Loewner slack, one more for the
        # contraction gate. Evaluating f(T) twice would add an eigh.
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(H, *args, _name=name, _real=getattr(np.linalg, name),
                        **kwargs):
                calls.append((_name, H.shape))
                return _real(H, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        run_campaign(TrialConfig(dim_n=3, dim_m=3, trials=25), tag)
        assert sorted(calls) == ([("eigh", (25, 3, 3))] * 2
                                 + [("eigvalsh", (25, 3, 3))] * eigvalsh)

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_batch_rows_equal_single_trials(self, tag):
        cfg = TrialConfig(trials=6, seed=2)
        rnd = run_single(tag, cfg, range(6))
        assert rnd.errors == [None] * 6
        for i in range(6):
            v, w = run_single(tag, cfg, i)
            assert (v.slack, v.tolerance_used) == (rnd.slack[i],
                                                   rnd.tolerance_used[i])
            assert printed(rnd.witness(i)) == printed(w)

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_batches_of_both_entry_points_share_one_record(self, tag):
        cfg = TrialConfig(trials=6, seed=4)
        batch = run_single(tag, cfg, range(6), redraw=2)
        assert [batch.witness(k)["redraw"] for k in range(6)] == [2] * 6
        chunk = run_trial(tag, cfg, range(6))
        assert chunk.errors == [None] * 6
        for k in range(6):
            assert _verdict(batch, k) == run_single(tag, cfg, k, redraw=2)[0]
            verdict, w = run_single(tag, cfg, k,
                                    redraw=chunk.witness(k)["redraw"])
            assert _verdict(chunk, k) == verdict
            assert printed(chunk.witness(k)) == printed(w)


    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_witness_holds_arrays_pairs_and_scalars(self, tag):
        _, w = run_single(tag, TrialConfig(trials=40, seed=5), 7)
        for key, value in w.items():
            assert isinstance(value, (np.ndarray, CommutingPair, str, int,
                                      float)), (key, type(value))

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_public_checker_redecides_the_trial_exactly(self, tag):
        cfg = TrialConfig(trials=40, seed=5)
        verdict, w = run_single(tag, cfg, 7)
        f, tol = cfg.resolve_atom(), cfg.tol
        pairs = (w.get("1"), w.get("2"), w.get("c"), tol)
        mixed = [w.get(k) for k in ("A1", "B1", "A2", "B2", "K", "X")]
        check = {
            "hp": lambda: check_jensen_isometry(f, w["A"], w["B"], w["T"],
                                                tol),
            "hp-contractive": lambda: check_jensen_contractive(
                f, w["A"], w["B"], w["T"], tol),
            "perspective": lambda: check_perspective_joint_convexity(
                f, *pairs, floor=cfg.floor),
            "marechal": lambda: check_extended_perspective_joint_convexity(
                f, lookup_atom("power", cfg.t), *pairs, floor=cfg.floor),
            "rel-entropy-convexity":
                lambda: check_relative_entropy_joint_convexity(
                    w["rho1"], w["sigma1"], w["rho2"], w["sigma2"], w["c"],
                    tol),
            "lieb-s": lambda: check_lieb_concavity(
                *mixed[:5], cfg.s, w["c"], tol),
            "lieb-pq": lambda: check_lieb_pq_concavity(
                *mixed[:4], mixed[5], cfg.p, cfg.q, w["c"], tol),
            "classical": lambda: check_classical_perspective_convexity(
                f, w["x1"], w["t1"], w["x2"], w["t2"], w["c"], tol),
        }[tag]
        assert check() == verdict


class TestReplayCoordinates:
    """Indices and redraw counters are integers >= 0: anything else would
    hash to a trial no campaign draws."""

    @pytest.mark.parametrize("entry,tag,index,redraw,message", [
        (run_single, "hp", 1.0, 0, "index must be an integer >= 0, got 1.0"),
        (run_single, "hp", True, 0, "index must be an integer >= 0, got True"),
        (run_single, "hp", 1, 0.0, "redraw must be an integer >= 0, got 0.0"),
        (run_single, "perspective", -1, 0,
         "index must be an integer >= 0, got -1"),
        (run_single, "hp", [0, 1.5], 0,
         "index must be an integer >= 0, got 1.5"),
        (run_single, "perspective", 2.0, 0,
         "index must be an integer >= 0, got 2.0"),
        (run_single, "hp", range(2), [0, 1],
         "redraw must be an integer >= 0, got [0, 1]"),
        (run_trial, "hp", [1.0], None,
         "index must be an integer >= 0, got 1.0"),
        (run_trial, "hp", [True], None,
         "index must be an integer >= 0, got True"),
        (run_trial, "perspective", [-1], None,
         "index must be an integer >= 0, got -1"),
    ], ids=["single-float", "single-bool", "single-float-redraw",
            "single-negative", "single-float-in-list", "single-float-mixing",
            "single-redraw-list", "trial-float", "trial-bool",
            "trial-negative"])
    def test_rejected(self, entry, tag, index, redraw, message):
        args = () if redraw is None else (redraw,)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(tag, TrialConfig(), index, *args)

    def test_empty_index_list_is_rejected(self):
        message = "^index list is empty: there is no trial to run$"
        with pytest.raises(ValueError, match=message):
            run_single("hp", TrialConfig(), [])
        with pytest.raises(ValueError, match=message):
            run_trial("hp", TrialConfig(), range(0))
        # the tag is looked up first
        with pytest.raises(ValueError, match="^unknown theorem tag 'nope'$"):
            run_trial("nope", TrialConfig(), range(0))

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = TrialConfig()
        v, w = run_single("perspective", cfg, np.int64(3), np.uint8(1))
        assert type(w["trial_index"]) is int and type(w["redraw"]) is int
        v3, w3 = run_single("perspective", cfg, 3, 1)
        assert v == v3 and printed(w) == printed(w3)
        batch = run_single("perspective", cfg, np.arange(3), np.int32(0))
        assert [type(batch.witness(k)["trial_index"]) for k in range(3)] == [
            int] * 3
        assert type(batch.witness(0)["redraw"]) is int


class TestEveryEntryPrepares:
    """``run_single`` and ``run_trial`` reject what ``run_campaign`` does."""

    @pytest.mark.parametrize("tag,kwargs,error,message", [
        ("hp", {"atom": "power", "atom_parameter": 0.5}, HypothesisViolation,
         "atom power(0.5) is concave"),
        ("perspective", {"atom": "quartic"}, HypothesisViolation,
         "atom quartic is not matrix convex"),
        ("lieb-pq", {"p": 0.9, "q": 0.9}, HypothesisViolation,
         "exponents must satisfy p + q <= 1"),
        ("hp", {"dim_m": 1, "dim_n": 3}, ValueError,
         "no isometry pair exists for m=1, n=3"),
        ("hp-contractive", {"atom": "neg_log"}, HypothesisViolation,
         "atom neg_log lacks f(0) <= 0"),
        ("marechal", {"atom": "neg_log"}, HypothesisViolation,
         "atom neg_log lacks f(0) <= 0"),
    ], ids=["concave-hp", "quartic-perspective", "pq-above-one", "no-isometry", "contractive-f0", "marechal-f0"])
    def test_replay_rejects_what_the_campaign_rejects(self, tag, kwargs,
                                                      error, message):
        cfg = TrialConfig(**kwargs)
        with pytest.raises(error, match=f"^{re.escape(message)}") as campaign:
            run_campaign(cfg, tag)
        for entry, index in ((run_single, 0), (run_trial, [0])):
            with pytest.raises(error) as caught:
                entry(tag, cfg, index)
            assert type(caught.value) is type(campaign.value)
            assert str(caught.value) == str(campaign.value)

    def test_campaign_rejects_a_later_tag_before_any_trial(self,
                                                          monkeypatch):
        # hp would run; lieb-pq's exponents break its hypothesis
        from opconvex import verify
        calls = []
        real = verify.run_single

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "run_single", counted)
        with pytest.raises(HypothesisViolation, match="p \\+ q <= 1"):
            run_campaign(TrialConfig(p=0.9, q=0.9), ("hp", "lieb-pq"))
        assert calls == []

    def test_report_witnesses_replay_from_their_printed_config(self):
        # the README's replay block, on every tag of one campaign
        reports = json.loads(printed(run_campaign(
            TrialConfig(trials=5, seed=11), THEOREM_TAGS)))
        for r in reports:
            verdict, _ = run_single(r["theorem"], TrialConfig(**r["config"]),
                                    r["witness"]["trial_index"],
                                    r["witness"]["redraw"])
            assert verdict.slack == r["worst_slack"], r["theorem"]


class TestRedrawMachinery:
    THRESHOLD = 0.6

    @pytest.fixture
    def flaky_tag(self):
        # draws below 0.6 are rejected as out-of-domain by a per-row gate,
        # so rejected and accepted trials share each batch
        def build(cfg, f, S, errs):
            errs.fail(S["u"] < self.THRESHOLD, lambda k: DomainViolation(
                f"rejected draw {S['u'][k]:.3f}"))
            return S

        _register("flaky", build)
        yield "flaky"
        del _THEOREMS["flaky"]

    def _first_accepted(self, cfg, index):
        for redraw in range(MAX_REDRAWS + 1):
            u = _u(cfg, "flaky", index, redraw)
            if u >= self.THRESHOLD:
                return redraw, u

    def test_redraws_advance_until_accepted(self, flaky_tag):
        cfg = TrialConfig(trials=1)
        seen = [run_trial(flaky_tag, cfg, [i]).witness(0) for i in range(30)]
        redraws = [w["redraw"] for w in seen]
        assert max(redraws) >= 1
        assert all(w["u"] >= 0.6 for w in seen)

    def test_redrawn_trial_replays_exactly(self, flaky_tag):
        cfg = TrialConfig(trials=1)
        w = run_trial(flaky_tag, cfg, [11]).witness(0)
        _, replayed = run_single(flaky_tag, cfg, 11, redraw=w["redraw"])
        assert replayed == w

    def test_batch_redraws_match_trial_by_trial(self, flaky_tag):
        cfg = TrialConfig(trials=40, seed=3)
        chunk = run_trial(flaky_tag, cfg, range(40))
        expected = [self._first_accepted(cfg, i) for i in range(40)]
        # the first round accepted some trials and rejected others
        redraws = [chunk.witness(i)["redraw"] for i in range(40)]
        assert 0 in redraws and max(redraws) >= 2
        assert redraws == [r for r, _ in expected]
        for i, (redraw, u) in enumerate(expected):
            w = chunk.witness(i)
            assert w["u"] == u and w["redraw"] == redraw
            assert run_single(flaky_tag, cfg, i, redraw=redraw)[1] == w
            assert run_trial(flaky_tag, cfg, [i]).witness(0) == w

    def test_campaign_over_redrawn_trials(self, flaky_tag):
        cfg = TrialConfig(trials=CHUNK + 9, seed=4)
        r = run_campaign(cfg, (flaky_tag,))[0]
        assert printed(r) == printed(_serial_report(cfg, flaky_tag))
        assert r.worst_slack == min(self._first_accepted(cfg, i)[1]
                                    for i in range(cfg.trials))

    def test_campaign_routing(self, flaky_tag, monkeypatch):
        # one run_trial per CHUNK and one run_single per draw round, each
        # round over the trials still pending: bench/worker.py reads
        # verify.draws_per_trial from these two counts
        from opconvex import verify
        cfg = TrialConfig(trials=CHUNK + 9, seed=4)
        calls = []
        for name in ("run_trial", "run_single"):
            def counted(tag, cfg, index, *args, _name=name,
                        _real=getattr(verify, name), **kwargs):
                redraw = args[0] if args else kwargs.get("redraw")
                calls.append((_name, list(index), redraw))
                return _real(tag, cfg, index, *args, **kwargs)
            monkeypatch.setattr(verify, name, counted)
        verify.run_campaign(cfg, (flaky_tag,))
        expected = []
        for chunk in (range(CHUNK), range(CHUNK, cfg.trials)):
            first = {i: self._first_accepted(cfg, i)[0] for i in chunk}
            expected.append(("run_trial", list(chunk), None))
            expected += [("run_single", [i for i in chunk if first[i] >= r], r)
                         for r in range(max(first.values()) + 1)]
        assert calls == expected
        assert sum(name == "run_single" for name, _, _ in calls) > 2

    @pytest.fixture
    def hopeless_tag(self):
        def build(cfg, f, S, errs):
            errs.fail(np.ones(len(S["u"]), dtype=bool),
                      lambda k: DomainViolation("never admissible"))
            return S

        _register("hopeless", build)
        yield "hopeless"
        del _THEOREMS["hopeless"]

    def test_replay_of_a_rejected_trial_raises_its_error(self, hopeless_tag):
        # run_single makes no redraws: a rejected coordinate is an error
        with pytest.raises(DomainViolation, match="^never admissible$"):
            run_single(hopeless_tag, TrialConfig(), 0)

    def test_redraw_budget_exhaustion(self, hopeless_tag):
        with pytest.raises(HypothesisViolation,
                           match=f"{MAX_REDRAWS} redraws"):
            run_trial(hopeless_tag, TrialConfig(trials=1), [0])
        with pytest.raises(HypothesisViolation, match="trial 0 of"):
            run_campaign(TrialConfig(trials=5), (hopeless_tag,))

    @pytest.fixture
    def brittle_tag(self):
        # draws below 0.3 are rejected; draws above 0.97 break a hypothesis
        def build(cfg, f, S, errs):
            u = S["u"]
            errs.fail(u < 0.3, lambda k: DomainViolation("rejected"))
            errs.fail(u > 0.97, lambda k: HypothesisViolation(
                f"brittle draw {float(u[k])!r}"))
            return S

        _register("brittle", build)
        yield "brittle"
        del _THEOREMS["brittle"]

    def test_violation_names_the_lowest_trial(self, brittle_tag):
        # at seed 1, trial 7 breaks the hypothesis on its third draw, while
        # trials 11 and 37 of the same batch break it on their first
        cfg = TrialConfig(trials=50, seed=1)
        assert [_u(cfg, "brittle", 7, r) > 0.97 for r in range(3)] == [
            False, False, True]
        assert _u(cfg, "brittle", 11, 0) > 0.97
        for i in range(7):  # the trials before it are accepted
            assert not any(_u(cfg, "brittle", i, r) > 0.97 for r in range(3))
        with pytest.raises(HypothesisViolation) as caught:
            run_campaign(cfg, (brittle_tag,))
        u = _u(cfg, "brittle", 7, 2)
        assert str(caught.value) == f"brittle draw {u!r}"


class TestRunCampaign:
    def test_report_schema_and_pass(self):
        cfg = TrialConfig(trials=25, seed=3)
        reports = run_campaign(cfg, ("perspective",))
        assert len(reports) == 1
        r = reports[0]
        assert r.theorem == "perspective"
        assert r.trials == 25 and r.failures == 0
        assert r.tolerance == cfg.tol
        assert r.config == asdict(cfg)
        doc = r.to_json()
        assert set(doc) == {"theorem", "trials", "failures", "worst_slack",
                            "tolerance", "witness", "config"}

    @pytest.mark.parametrize("tag, keys", [
        ("hp", ("A", "B", "T")), ("perspective", ("L1", "R1", "L2", "R2")),
        ("rel-entropy-convexity", ("rho1", "sigma1")),
        ("lieb-s", ("A1", "B2", "K"))])
    def test_witness_matrices_are_copied_arrays(self, tag, keys):
        # complex matrices that own their memory, not views of the batch's
        # stacks that would keep those alive with the report
        cfg = TrialConfig(trials=5, seed=2, dim_n=4, dim_m=3)
        w = run_campaign(cfg, (tag,))[0].witness
        for key in keys:
            M = w[key]
            assert M.dtype == np.complex128 and M.ndim == 2, key
            while M.base is not None:
                M = M.base
            assert M.nbytes == w[key].nbytes, key

    def test_each_report_owns_its_config(self):
        cfg = TrialConfig(trials=3, seed=3)
        a, b = run_campaign(cfg, ("classical", "perspective"))
        assert a.config == b.config == asdict(cfg)
        assert a.config is not b.config

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_worst_witness_replays_to_worst_slack(self, tag):
        cfg = TrialConfig(trials=40, seed=5)
        r = run_campaign(cfg, (tag,))[0]
        v, w = run_single(tag, cfg, r.witness["trial_index"],
                          r.witness["redraw"])
        assert v.slack == r.worst_slack
        assert printed(r.witness) == printed(w)

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    @pytest.mark.parametrize("seed, dim", [(0, 2), (11, 3), (4, 4)])
    def test_matches_trial_by_trial_reference(self, tag, seed, dim):
        cfg = TrialConfig(trials=10, seed=seed, dim_n=dim, dim_m=dim)
        assert printed(run_campaign(cfg, (tag,))) == printed(
            [_serial_report(cfg, tag)])

    @pytest.mark.parametrize("tag, kwargs", [
        ("classical", {"trials": 2 * CHUNK + 5, "seed": 1}),
        ("hp", {"trials": CHUNK + 3, "seed": 2, "dim_n": 2,
                "atom": "quartic"}),
        ("marechal", {"trials": 30, "floor": 2.0}),  # redraws trials
    ])
    def test_matches_reference_across_batches(self, tag, kwargs):
        cfg = TrialConfig(**kwargs)
        assert printed(run_campaign(cfg, (tag,))) == printed(
            [_serial_report(cfg, tag)])

    @pytest.fixture
    def tied_tag(self):
        # slack takes three values only, so the minimum is tied many times
        _register("tied", lambda cfg, f, S, errs: S,
                  lambda u: np.floor(3.0 * u) / 3.0 - 0.5)
        yield "tied"
        del _THEOREMS["tied"]

    def test_worst_slack_ties_go_to_the_lower_index(self, tied_tag):
        cfg = TrialConfig(trials=2 * CHUNK + 7, seed=6)
        r = run_campaign(cfg, (tied_tag,))[0]
        u = [_u(cfg, "tied", i, 0) for i in range(cfg.trials)]
        lows = [i for i in range(cfg.trials) if u[i] < 1 / 3]
        assert len(lows) > 1 and r.worst_slack == -0.5
        assert r.witness["trial_index"] == lows[0]
        assert r.failures == sum(x < 2 / 3 for x in u)  # negative slacks
        assert printed(r) == printed(_serial_report(cfg, tied_tag))

    def test_campaign_matches_per_tag_campaigns(self):
        cfg = TrialConfig(trials=30, seed=9)
        tags = ("perspective", "rel-entropy-convexity", "classical")
        assert printed(run_campaign(cfg, tags)) == printed(
            [run_campaign(cfg, (t,))[0] for t in tags])

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
            _THEOREMS[tag].theorem(cfg, cfg.resolve_atom())
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
