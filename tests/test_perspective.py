"""Perspective construction: eigen path, symmetrized path, extensions, quadratic forms."""
import re

import numpy as np
import pytest

from opconvex import (CommutingPair, DomainViolation, HypothesisViolation,
                      MultiplicationPair, extended_perspective_quadratic_form,
                      lieb_functional, lieb_pq_functional, lookup_atom,
                      perspective_agreement_defect, perspective_eigen,
                      perspective_quadratic_form, perspective_symmetrized,
                      quantum_relative_entropy_direct,
                      quantum_relative_entropy_perspective,
                      random_commuting_pair, random_density)
from opconvex.linalg import RowErrors
from opconvex.perspective import (_eigen, _quasi_entropy,
                                  check_path_agreement,
                                  extended_perspective_eigen,
                                  extended_perspective_symmetrized)
from opconvex.commuting import LEAST_FLOOR, realize_multiplication_pair

XLOGX = lookup_atom("xlogx")
NEG_SQRT = lookup_atom("neg_power", 0.5)


def diag_pair(lam, mu):
    return CommutingPair(np.eye(len(lam)), lam, mu)


class TestEigenPath:
    def test_diagonal_values(self):
        # g(L, R) = f(L/R) R elementwise in the joint eigenbasis
        pair = diag_pair([2.0, 3.0], [1.0, 6.0])
        g = perspective_eigen(XLOGX, pair)
        expected = np.diag([2.0 * np.log(2.0), 3.0 * np.log(0.5)])
        assert np.allclose(g.mat, expected, atol=1e-14)

    def test_identity_atom_returns_left(self):
        pair = random_commuting_pair(4, 0)
        g = perspective_eigen(lookup_atom("identity"), pair)
        assert np.max(np.abs(g.mat - pair.left.mat)) < 1e-13

    def test_constant_one_returns_right(self):
        pair = random_commuting_pair(4, 1)
        g = perspective_eigen(lookup_atom("constant", 1.0), pair)
        assert np.max(np.abs(g.mat - pair.right.mat)) < 1e-13

    def test_positive_homogeneity(self):
        pair = random_commuting_pair(3, 2)
        t = 2.375
        scaled = CommutingPair(pair.basis, t * pair.lam, t * pair.mu)
        g1 = perspective_eigen(XLOGX, scaled)
        g0 = perspective_eigen(XLOGX, pair)
        assert np.max(np.abs(g1.mat - t * g0.mat)) < 1e-12

    def test_requires_convexity_flag(self):
        pair = random_commuting_pair(3, 3)
        with pytest.raises(HypothesisViolation, match="quartic"):
            perspective_eigen(lookup_atom("quartic"), pair)

    def test_overflowing_ratio_message(self):
        # the warning filters make a RuntimeWarning fail this test
        pair = CommutingPair(np.eye(1), [1e300], [1e-10], floor=1e-300)
        message = "eigenvalue ratio 1.000e+300 / 1.000e-10 overflows float64"
        with pytest.raises(DomainViolation, match=f"^{re.escape(message)}$"):
            perspective_eigen(XLOGX, pair)

    def test_overflow_fails_only_its_own_row(self):
        U = np.eye(2)[None].repeat(3, axis=0)
        lam = np.array([[1.0, 2.0], [1e300, 1.0], [1e307, 1.0]])
        mu = np.array([[1.0, 1.0], [1e-10, 1.0], [1.0, 1.0]])
        errs = RowErrors(3)
        out = _eigen(XLOGX, None, U, lam, mu, errs)
        assert errs.errors[0] is None
        assert "eigenvalue ratio" in str(errs.errors[1])
        assert "xlogx perspective at 1.000e+307" in str(errs.errors[2])
        assert np.isfinite(out).all()
        alone = perspective_eigen(XLOGX, diag_pair([1.0, 2.0], [1.0, 1.0]))
        assert np.array_equal(out[0], alone.mat)


class TestSymmetrizedPath:
    def test_agrees_with_eigen_on_commuting_input(self):
        for seed in range(5):
            pair = random_commuting_pair(4, seed)
            defect = perspective_agreement_defect(XLOGX, pair)
            assert defect < 1e-11

    def test_check_path_agreement_returns_defect(self):
        pair = random_commuting_pair(4, 6)
        d = check_path_agreement(XLOGX, pair, rtol=1e-9)
        assert 0.0 <= d < 1e-11

    def test_check_path_agreement_rejects_at_absurd_rtol(self):
        pair = random_commuting_pair(4, 7)
        with pytest.raises(ValueError, match="defect"):
            check_path_agreement(XLOGX, pair, rtol=1e-18)

    def test_rejects_right_factor_below_floor(self):
        # rejected, never regularized
        L = np.eye(2)
        R = np.diag([1.0, 1e-9])
        with pytest.raises(DomainViolation, match="floor"):
            perspective_symmetrized(XLOGX, L, R, floor=1e-8)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            perspective_symmetrized(XLOGX, np.eye(2), np.eye(3))

    def test_non_commuting_input_is_hermitian(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        L = G @ G.conj().T + 0.1 * np.eye(3)
        H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        R = H @ H.conj().T + 0.1 * np.eye(3)
        g = perspective_symmetrized(XLOGX, L, R)
        assert np.array_equal(g.mat, g.mat.conj().T)


class TestExtendedPerspective:
    def test_identity_base_short_circuits_to_plain(self):
        pair = random_commuting_pair(4, 9)
        plain = perspective_eigen(XLOGX, pair)
        ext = extended_perspective_eigen(XLOGX, lookup_atom("identity"), pair)
        assert np.array_equal(ext.mat, plain.mat)

    def test_identity_base_symmetrized_bit_identical(self):
        pair = random_commuting_pair(4, 10)
        L, R = pair.left.mat, pair.right.mat
        plain = perspective_symmetrized(XLOGX, L, R)
        ext = extended_perspective_symmetrized(XLOGX, lookup_atom("identity"),
                                               L, R)
        assert np.array_equal(ext.mat, plain.mat)

    def test_power_one_matches_identity_base(self):
        pair = random_commuting_pair(4, 11)
        via_power = extended_perspective_eigen(XLOGX, lookup_atom("power", 1.0),
                                               pair)
        plain = perspective_eigen(XLOGX, pair)
        assert np.max(np.abs(via_power.mat - plain.mat)) < 1e-12

    def test_diagonal_values_with_sqrt_base(self):
        pair = diag_pair([2.0, 3.0], [4.0, 9.0])
        h = lookup_atom("power", 0.5)
        g = extended_perspective_eigen(XLOGX, h, pair)
        # f(lam / sqrt(mu)) sqrt(mu)
        expected = np.diag([1.0 * np.log(1.0) * 2.0, 3.0 * np.log(1.0)])
        assert np.allclose(g.mat, expected, atol=1e-14)

    def test_requires_convex_f_with_f0(self):
        pair = random_commuting_pair(3, 12)
        h = lookup_atom("power", 0.5)
        with pytest.raises(HypothesisViolation):
            extended_perspective_eigen(lookup_atom("neg_log"), h, pair)

    def test_requires_concave_base(self):
        pair = random_commuting_pair(3, 13)
        with pytest.raises(HypothesisViolation):
            extended_perspective_eigen(XLOGX, lookup_atom("square"), pair)


class TestQuadraticForms:
    def test_identity_pair_oracle(self):
        mp = MultiplicationPair(np.eye(2), np.eye(2))
        val = perspective_quadratic_form(NEG_SQRT, mp, np.eye(2))
        assert val == pytest.approx(-2.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("f, h", [
        pytest.param(XLOGX, None, id="xlogx"),
        pytest.param(lookup_atom("neg_log"), None, id="neg_log"),
        pytest.param(NEG_SQRT, None, id="neg_power"),
        pytest.param(NEG_SQRT, lookup_atom("power", 0.5),
                     id="extended-power"),
    ])
    def test_matches_dense_superoperator_form(self, f, h, n):
        # the n^2 x n^2 Kronecker realization is the oracle for the
        # factored sum
        rng = np.random.default_rng(14)
        sigma = random_density(n, 15).mat
        rho = random_density(n, 16).mat
        mp = MultiplicationPair(sigma, rho)
        K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pair = realize_multiplication_pair(mp)
        if h is None:
            val = perspective_quadratic_form(f, mp, K)
            G = perspective_eigen(f, pair).mat
        else:
            val = extended_perspective_quadratic_form(f, h, mp, K)
            G = extended_perspective_eigen(f, h, pair).mat
        v = K.conj().T.reshape(-1, order="F")
        dense = float(np.real(v.conj() @ G @ v))
        assert val == pytest.approx(dense, rel=1e-12)

    def test_extended_form_with_identity_base_matches_plain(self):
        rng = np.random.default_rng(17)
        sigma = random_density(3, 18).mat
        rho = random_density(3, 19).mat
        mp = MultiplicationPair(sigma, rho)
        K = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        plain = perspective_quadratic_form(NEG_SQRT, mp, K)
        ext = extended_perspective_quadratic_form(
            NEG_SQRT, lookup_atom("identity"), mp, K)
        assert ext == pytest.approx(plain, rel=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_k(self, bad):
        mp = MultiplicationPair(random_density(3, 20), random_density(3, 21))
        K = np.eye(3, dtype=complex)
        K[0, 1] = bad
        with pytest.raises(ValueError, match="^K must be finite$"):
            perspective_quadratic_form(NEG_SQRT, mp, K)
        with pytest.raises(ValueError, match="^K must be finite$"):
            extended_perspective_quadratic_form(
                NEG_SQRT, lookup_atom("power", 0.5), mp, np.full((3, 3), bad))

    def test_identity_k_is_the_eye_form_bit_for_bit(self):
        mp = MultiplicationPair(random_density(5, 22), random_density(5, 23))
        h = lookup_atom("power", 0.5)
        for f, base in ((XLOGX, None), (NEG_SQRT, None), (NEG_SQRT, h)):
            eye = _quasi_entropy(f, base, mp, np.eye(5))
            assert _quasi_entropy(f, base, mp, None).hex() == eye.hex()

    @pytest.mark.parametrize("c", [-1.0, 0.0])
    def test_nonpositive_base_message(self, c):
        # the affine constant atom is concave, so it passes the hypothesis
        # gate; its value c <= 0 is no base
        mp = MultiplicationPair(random_density(3, 24), random_density(3, 25))
        h = lookup_atom("constant", c)
        text = ("h must be strictly positive on the right spectrum, found "
                f"h value {c:.3e}")
        with pytest.raises(DomainViolation, match=f"^{re.escape(text)}$"):
            extended_perspective_quadratic_form(NEG_SQRT, h, mp, np.eye(3))
        with pytest.raises(DomainViolation, match=f"^{re.escape(text)}$"):
            extended_perspective_eigen(NEG_SQRT, h, diag_pair([1.0], [2.0]))

    def test_rejects_k_of_another_dimension(self):
        mp = MultiplicationPair(np.eye(2), np.eye(2))
        with pytest.raises(ValueError,
                           match=r"^K must be 2x2, got shape \(3, 3\)$"):
            perspective_quadratic_form(XLOGX, mp, np.eye(3))

    @pytest.mark.parametrize("left,right,text", [
        (np.eye(2), np.diag([1.0, 1e-310]), "1.000e+00 / 1.000e-310"),
        (1e10 * np.eye(2), np.diag([1.0, 1e-300]), "1.000e+10 / 1.000e-300"),
    ])
    def test_overflowing_eigenvalue_ratio_message(self, left, right, text):
        # the warning filters make a RuntimeWarning fail this test
        mp = MultiplicationPair(left, right, floor=LEAST_FLOOR)
        message = f"eigenvalue ratio {text} overflows float64"
        with pytest.raises(DomainViolation, match=f"^{re.escape(message)}$"):
            perspective_quadratic_form(XLOGX, mp, np.eye(2))

    def test_overflowing_sum_raises(self):
        # every ratio is 1, but the weights |K|^2 overflow float64
        mp = MultiplicationPair(np.eye(2), np.eye(2))
        with pytest.raises(DomainViolation,
                           match="^square quasi-entropy overflows float64"):
            perspective_quadratic_form(lookup_atom("square"), mp,
                                       1e200 * np.eye(2))

    def test_returns_python_float(self):
        mp = MultiplicationPair(np.eye(2), np.eye(2))
        val = perspective_quadratic_form(XLOGX, mp, np.eye(2))
        assert isinstance(val, float) and val == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("n", [8, 24])
class TestSuperoperatorFormsAtBenchmarkSize:
    """The three forms of the superop-n24 benchmark against their direct
    trace formulas, with L = left multiplication by rho and R = right
    multiplication by sigma."""

    @staticmethod
    def operands(n):
        rng = np.random.default_rng(26 + n)
        K = (rng.standard_normal((n, n))
             + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        return random_density(n, 27 + n), random_density(n, 28 + n), K

    @staticmethod
    def close(value, ref):
        assert abs(value - ref) <= 1e-10 * (1.0 + abs(ref))

    def test_relative_entropy(self, n):
        rho, sigma, _ = self.operands(n)
        self.close(quantum_relative_entropy_perspective(rho, sigma),
                   quantum_relative_entropy_direct(rho, sigma))

    def test_lieb(self, n):
        rho, sigma, K = self.operands(n)
        self.close(perspective_quadratic_form(
            NEG_SQRT, MultiplicationPair(rho, sigma), K),
            -lieb_functional(rho, sigma, K, 0.5))

    def test_lieb_pq(self, n):
        rho, sigma, K = self.operands(n)
        self.close(extended_perspective_quadratic_form(
            lookup_atom("neg_power", 0.4), lookup_atom("power", 0.5),
            MultiplicationPair(rho, sigma), K),
            -lieb_pq_functional(rho, sigma, K, 0.3, 0.4))
