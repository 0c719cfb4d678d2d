"""Trace functionals: relative entropy (two paths), concave trace forms, classical layer."""
import math
import re

import numpy as np
import pytest

from opconvex import (DensityMatrix, DomainViolation, HermitianMatrix,
                      HypothesisViolation, MultiplicationPair,
                      apply_scalar_function, classical_relative_entropy,
                      extended_perspective_quadratic_form, lieb_functional,
                      lieb_pq_functional, loewner_leq, lookup_atom,
                      perspective_quadratic_form, perspective_symmetrized,
                      quantum_relative_entropy_direct,
                      quantum_relative_entropy_perspective, random_density,
                      random_positive_matrix)
from opconvex.functionals import (ProbabilityVector, classical_entropy,
                                  classical_perspective)
from opconvex.linalg import spectral_decompose
from opconvex.perspective import extended_perspective_symmetrized


def rand_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestProbabilityVector:
    def test_accepts_normalized_positive(self):
        p = ProbabilityVector([0.25, 0.75])
        assert len(p) == 2
        assert np.array_equal(p.weights, [0.25, 0.75])

    @pytest.mark.parametrize("bad", [
        [0.5, 0.5, 0.1],          # sum off by far more than the tolerance
        [1.0, 0.0],               # zero entry
        [1.5, -0.5],              # negative entry
        [],                       # empty
    ])
    def test_rejects(self, bad):
        with pytest.raises((DomainViolation, ValueError)):
            ProbabilityVector(bad)

    @pytest.mark.parametrize("bad", [[0.5, float("nan")], [float("inf"), 0.5]])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="^weights must be finite$"):
            ProbabilityVector(bad)

    def test_rejects_sum_off_by_more_than_tol(self):
        with pytest.raises(DomainViolation, match="sum"):
            ProbabilityVector([0.5, 0.5 + 1e-9])

    def test_weights_immutable(self):
        p = ProbabilityVector([0.5, 0.5])
        with pytest.raises((ValueError, RuntimeError)):
            p.weights[0] = 0.9


class TestDensityMatrix:
    def test_normalizes_trace(self):
        rho = DensityMatrix(2.0 * np.eye(2))
        assert np.allclose(rho.mat, 0.5 * np.eye(2))
        assert np.trace(rho.mat) == pytest.approx(1.0)

    def test_rejects_eigenvalue_below_floor(self):
        with pytest.raises(DomainViolation):
            DensityMatrix(np.diag([1.0, 1e-12]), floor=1e-8)

    def test_rejects_nonpositive_trace(self):
        with pytest.raises(DomainViolation):
            DensityMatrix(np.diag([1.0, -1.0]))

    def test_every_entry_point_takes_it_as_its_matrix(self):
        rho, sigma = random_density(3, 4), random_density(3, 5)
        assert isinstance(rho, HermitianMatrix)
        f, h = lookup_atom("neg_power", 0.5), lookup_atom("power", 0.5)
        calls = [
            lambda r, s: (loewner_leq(r, s).slack,),
            lambda r, s: (apply_scalar_function(f, r).mat,),
            lambda r, s: spectral_decompose(r),
            lambda r, s: MultiplicationPair(r, s).factors,
            lambda r, s: (perspective_symmetrized(f, r, s).mat,),
            lambda r, s: (extended_perspective_symmetrized(f, h, r, s).mat,),
        ]
        for call in calls:
            got, want = call(rho, sigma), call(rho.mat, sigma.mat)
            assert len(got) == len(want)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_accepts_a_hermitian_matrix(self):
        H = HermitianMatrix(2.0 * np.eye(2))
        assert np.array_equal(DensityMatrix(H).mat, DensityMatrix(H.mat).mat)

    def test_random_density_contract(self):
        rho = random_density(4, 0)
        assert np.trace(rho.mat) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.eigvalsh(rho.mat)[0] > 0.0


class TestRelativeEntropy:
    def test_zero_on_equal_states(self):
        rho = random_density(3, 1)
        assert quantum_relative_entropy_direct(rho, rho) == pytest.approx(
            0.0, abs=1e-13)

    def test_diagonal_oracle(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        sigma = DensityMatrix(np.diag([0.25, 0.75]))
        val = quantum_relative_entropy_direct(rho, sigma)
        assert val == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_paths_agree(self):
        for seed in range(10):
            n = 2 + seed % 5
            rho = random_density(n, 2 * seed + 100)
            sigma = random_density(n, 2 * seed + 101)
            a = quantum_relative_entropy_direct(rho, sigma)
            b = quantum_relative_entropy_perspective(rho, sigma)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_nonnegative_on_states(self):
        for seed in range(5):
            rho = random_density(3, seed + 200)
            sigma = random_density(3, seed + 300)
            assert quantum_relative_entropy_direct(rho, sigma) >= -1e-12

    def test_rejects_nonpositive_input(self):
        rho = random_density(2, 4)
        with pytest.raises(DomainViolation):
            quantum_relative_entropy_direct(rho, np.diag([1.0, 0.0]))
        with pytest.raises(DomainViolation):
            quantum_relative_entropy_direct(np.diag([1.0, 0.0]), rho)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            quantum_relative_entropy_direct(np.eye(2) / 2, np.eye(3) / 3)

    @pytest.mark.parametrize("rho,sigma,direct", [
        (np.eye(2), np.diag([1.0, 1e-310]), 713.8013788281542),
        (1e10 * np.eye(2), np.diag([1.0, 1e-300]), 7368272297580.946),
    ])
    def test_perspective_path_names_an_overflowing_ratio(self, rho, sigma,
                                                         direct):
        # p_i / q_j overflows float64 though the entropy is finite; the
        # warning filters make a RuntimeWarning fail this test
        with pytest.raises(DomainViolation,
                           match="^eigenvalue ratio .* overflows float64$"):
            quantum_relative_entropy_perspective(rho, sigma)
        assert quantum_relative_entropy_direct(rho, sigma) == pytest.approx(
            direct, rel=1e-13)

    def test_perspective_path_names_an_overflowing_value(self):
        # the ratio 1e306 is finite, but x log x there is not
        with pytest.raises(DomainViolation,
                           match="^xlogx quasi-entropy overflows float64; "
                                 "its largest eigenvalue ratio is "
                                 "1.000e[+]00 / 1.000e-306$"):
            quantum_relative_entropy_perspective(np.eye(2),
                                                 np.diag([1.0, 1e-306]))
        assert quantum_relative_entropy_direct(
            np.eye(2), np.diag([1.0, 1e-306])) == pytest.approx(
                704.591038456178, rel=1e-13)

    @pytest.mark.parametrize("bad,least", [
        (np.diag([1.5, -0.5]), "-5.000e-01"),
        (np.diag([1.0, 0.0]), "0.000e+00")],
        ids=["negative", "zero"])
    @pytest.mark.parametrize("bad_first", [True, False],
                             ids=["bad-rho", "bad-sigma"])
    def test_paths_name_the_same_operand(self, bad, least, bad_first):
        good = np.eye(2) / 2
        args = (bad, good) if bad_first else (good, bad)
        name = "rho" if bad_first else "sigma"
        text = f"{name} must be strictly positive, found eigenvalue {least}"
        for path in (quantum_relative_entropy_direct,
                     quantum_relative_entropy_perspective):
            with pytest.raises(DomainViolation, match=f"^{re.escape(text)}$"):
                path(*args)

    def test_paths_agree_on_a_subnormal_rho_eigenvalue(self):
        # every eigenvalue > 0 is admissible on both paths
        rho, sigma = np.diag([1.0, 1e-310]), np.eye(2) / 2
        direct = quantum_relative_entropy_direct(rho, sigma)
        assert quantum_relative_entropy_perspective(rho, sigma) == (
            pytest.approx(direct, rel=1e-15))

    def test_overflowing_value_is_a_domain_violation(self):
        # Tr rho log rho overflows; the warning filters make a
        # RuntimeWarning fail this test
        big = np.diag([1e308, 1e308])
        with pytest.raises(DomainViolation, match=(
                "^Tr rho log rho or Tr rho log sigma overflows float64$")):
            quantum_relative_entropy_direct(big, big)

    def test_accepts_plain_positive_matrices(self):
        # the formula itself does not require unit trace
        val = quantum_relative_entropy_direct(np.eye(2), np.eye(2))
        assert val == pytest.approx(0.0, abs=1e-14)


class TestLiebFunctional:
    def test_identity_oracle(self):
        assert lieb_functional(np.eye(2), np.eye(2), np.eye(2), 0.5) == \
            pytest.approx(2.0, abs=1e-14)

    def test_matches_brute_trace(self):
        A = random_positive_matrix(3, 5).mat
        B = random_positive_matrix(3, 6).mat
        K = rand_complex(3, 7)
        s = 0.3
        wa, Ua = np.linalg.eigh(A)
        wb, Ub = np.linalg.eigh(B)
        As = (Ua * wa ** s) @ Ua.conj().T
        B1s = (Ub * wb ** (1.0 - s)) @ Ub.conj().T
        expected = float(np.real(np.trace(As @ K.conj().T @ B1s @ K)))
        assert lieb_functional(A, B, K, s) == pytest.approx(expected, rel=1e-12)

    def test_matches_negated_quadratic_form(self):
        for seed in range(5):
            A = random_positive_matrix(3, seed + 400).mat
            B = random_positive_matrix(3, seed + 500).mat
            K = rand_complex(3, seed + 600)
            s = (0.25, 0.5, 0.75)[seed % 3]
            direct = lieb_functional(A, B, K, s)
            qf = perspective_quadratic_form(lookup_atom("neg_power", s),
                                            MultiplicationPair(A, B), K)
            assert abs(direct + qf) <= 1e-10 * (1.0 + abs(direct))

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5, 1.5])
    def test_exponent_gate(self, s):
        with pytest.raises(HypothesisViolation):
            lieb_functional(np.eye(2), np.eye(2), np.eye(2), s)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(DomainViolation):
            lieb_functional(np.diag([1.0, 0.0]), np.eye(2), np.eye(2), 0.5)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            lieb_functional(np.eye(2), np.eye(3), np.eye(2), 0.5)

    def test_rejects_k_of_another_dimension(self):
        with pytest.raises(ValueError,
                           match=r"^K must be 2x2, got shape \(3, 3\)$"):
            lieb_functional(np.eye(2), np.eye(2), np.eye(3), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_operand(self, bad):
        K = np.eye(2, dtype=complex)
        K[1, 0] = bad
        with pytest.raises(ValueError, match="^K must be finite$"):
            lieb_functional(np.eye(2), np.eye(2), K, 0.5)
        with pytest.raises(ValueError, match="^X must be finite$"):
            lieb_pq_functional(np.eye(2), np.eye(2), K, 0.3, 0.4)


class TestTraceFormOverflow:
    # the warning filters make a RuntimeWarning fail these tests
    @pytest.mark.parametrize("functional", [
        lambda M: lieb_functional(M, M, M, 0.5),
        lambda M: lieb_pq_functional(M, M, M, 0.3, 0.5),
    ], ids=["lieb-s", "lieb-pq"])
    def test_overflowing_product_is_a_domain_violation(self, functional):
        with pytest.raises(DomainViolation,
                           match=r"^trace form Tr\(.*\) overflows float64$"):
            functional(1e200 * np.eye(2))


class TestLargeDimension:
    # n = 128 puts the superoperators at 16384 x 16384; only the factored
    # quadratic form can evaluate them
    N = 128

    def test_relative_entropy_paths_agree(self):
        rho = random_density(self.N, 700)
        sigma = random_density(self.N, 701)
        ref = quantum_relative_entropy_direct(rho, sigma)
        val = quantum_relative_entropy_perspective(rho, sigma)
        assert abs(val - ref) <= 1e-10 * (1.0 + abs(ref))

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_lieb_matches_negated_quadratic_form(self, s):
        A = random_positive_matrix(self.N, 702).mat
        B = random_positive_matrix(self.N, 703).mat
        K = rand_complex(self.N, 704) / math.sqrt(self.N)
        ref = lieb_functional(A, B, K, s)
        qf = perspective_quadratic_form(lookup_atom("neg_power", s),
                                        MultiplicationPair(A, B), K)
        assert abs(qf + ref) <= 1e-10 * (1.0 + abs(ref))


class TestLiebPqFunctional:
    def test_reduces_to_single_exponent_on_the_sum_one_line(self):
        A = random_positive_matrix(3, 8).mat
        B = random_positive_matrix(3, 9).mat
        X = rand_complex(3, 10)
        for q in (0.3, 0.5, 0.9):
            v = lieb_pq_functional(A, B, X, 1.0 - q, q)
            w = lieb_functional(A, B, X, q)
            assert abs(v - w) <= 1e-12 * (1.0 + abs(w))

    def test_q_one_corner(self):
        A = random_positive_matrix(3, 11).mat
        X = rand_complex(3, 12)
        v = lieb_pq_functional(A, np.eye(3), X, 0.0, 1.0)
        expected = float(np.real(np.trace(A @ X.conj().T @ X)))
        assert v == pytest.approx(expected, rel=1e-12)

    def test_matches_negated_extended_quadratic_form(self):
        A = random_positive_matrix(3, 13).mat
        B = random_positive_matrix(3, 14).mat
        X = rand_complex(3, 15)
        p, q = 0.3, 0.4
        t = p / (1.0 - q)
        direct = lieb_pq_functional(A, B, X, p, q)
        qf = extended_perspective_quadratic_form(
            lookup_atom("neg_power", q), lookup_atom("power", t),
            MultiplicationPair(A, B), X)
        assert abs(direct + qf) <= 1e-10 * (1.0 + abs(direct))

    @pytest.mark.parametrize("p,q", [
        (0.5, 0.6),    # p + q > 1
        (-0.1, 0.5),   # p <= 0 with q < 1
        (0.0, 0.5),
        (0.5, 0.0),    # q out of range
        (0.5, 1.1),
        (0.1, 1.0),    # q = 1 forces p = 0
        (float("nan"), 0.4),
    ])
    def test_exponent_gate(self, p, q):
        with pytest.raises(HypothesisViolation):
            lieb_pq_functional(np.eye(2), np.eye(2), np.eye(2), p, q)


class TestClassicalLayer:
    def test_perspective_scalar_values(self):
        f = lookup_atom("xlogx")
        out = classical_perspective(f, 2.0, 4.0)
        assert out.shape == (1,)
        assert out[0] == pytest.approx(2.0 * math.log(0.5))

    def test_perspective_vectorized(self):
        f = lookup_atom("square")
        out = classical_perspective(f, np.array([1.0, 2.0, 3.0]), 2.0)
        assert np.allclose(out, [0.5, 2.0, 4.5])

    @pytest.mark.parametrize("t", [0.0, float("nan")])
    def test_perspective_rejects_nonpositive_base(self, t):
        with pytest.raises(DomainViolation, match="base must be positive"):
            classical_perspective(lookup_atom("square"), 1.0, t)

    def test_perspective_rejects_infinite_base(self):
        with pytest.raises(DomainViolation, match="base must be positive"):
            classical_perspective(lookup_atom("xlogx"), [1.0], float("inf"))

    @pytest.mark.parametrize("t,message", [
        (1e-306, "xlogx perspective at 1.000e+00 / 1.000e-306 overflows "
                 "float64"),
        (1e-320, "eigenvalue ratio 1.000e+00 / 1.000e-320 overflows float64"),
    ])
    def test_perspective_names_what_overflows(self, t, message):
        # the warning filters make a RuntimeWarning fail this test
        with pytest.raises(DomainViolation, match=f"^{re.escape(message)}$"):
            classical_perspective(lookup_atom("xlogx"), 1.0, t)

    def test_perspective_still_names_a_non_finite_x(self):
        with pytest.raises(DomainViolation,
                           match=r"^value inf outside domain \[0, inf\)$"):
            classical_perspective(lookup_atom("xlogx"), float("inf"), 1.0)

    def test_perspective_gap_oracle(self):
        # xlogx perspective at ((1,1),(2,1)) with weight 1/2
        f = lookup_atom("xlogx")
        g1 = float(classical_perspective(f, 1.0, 1.0)[0])
        g2 = float(classical_perspective(f, 2.0, 1.0)[0])
        gm = float(classical_perspective(f, 1.5, 1.0)[0])
        gap = 0.5 * g1 + 0.5 * g2 - gm
        assert gap == pytest.approx(0.0849495183976987, abs=1e-13)

    def test_entropy_oracle(self):
        assert classical_entropy([0.25, 0.75]) == pytest.approx(
            0.5623351446188083, abs=1e-14)

    def test_entropy_uniform_is_log_n(self):
        assert classical_entropy([0.25] * 4) == pytest.approx(math.log(4.0))

    def test_entropy_takes_a_probability_vector(self):
        p = ProbabilityVector(np.array([0.25, 0.75]))
        assert classical_entropy(p) == classical_entropy([0.25, 0.75])

    def test_relative_entropy_oracle(self):
        val = classical_relative_entropy([0.25, 0.75], [0.5, 0.5])
        assert val == pytest.approx(0.14384103622589045, abs=1e-14)

    def test_relative_entropy_zero_iff_equal(self):
        assert classical_relative_entropy([0.3, 0.7], [0.3, 0.7]) == \
            pytest.approx(0.0, abs=1e-15)
        assert classical_relative_entropy([0.25, 0.75], [0.5, 0.5]) > 0.0

    def test_relative_entropy_names_the_unnormalized_vector(self):
        with pytest.raises(DomainViolation,
                           match=r"^q: weights must sum to 1, got 1\.1$"):
            classical_relative_entropy([0.5, 0.6], [0.5, 0.5])

    def test_relative_entropy_length_mismatch(self):
        with pytest.raises(ValueError):
            classical_relative_entropy([0.5, 0.5], [0.25, 0.25, 0.5])

    def test_quantum_diagonal_matches_classical(self):
        q = np.array([0.2, 0.3, 0.5])
        p = np.array([0.5, 0.25, 0.25])
        quantum = quantum_relative_entropy_direct(np.diag(p), np.diag(q))
        classical = classical_relative_entropy(q, p)
        assert abs(quantum - classical) < 1e-12
