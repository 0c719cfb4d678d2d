"""Commuting pairs, joint diagonalization, multiplication-operator realization."""
import numpy as np
import pytest

from opconvex import (CommutingPair, DomainViolation, MultiplicationPair,
                      apply_superop, log_quotient_identity_check,
                      make_commuting_pair, pair_from_matrices, quotient,
                      random_commuting_pair, random_density, random_unitary,
                      realize_multiplication_pair)


def diag_pair(lam, mu):
    return make_commuting_pair(np.eye(len(lam)), lam, mu)


class TestCommutingPair:
    def test_diagonal_reconstruction(self):
        pair = diag_pair([1.0, 2.0], [3.0, 4.0])
        assert np.allclose(pair.left.mat, np.diag([1.0, 2.0]))
        assert np.allclose(pair.right.mat, np.diag([3.0, 4.0]))

    def test_left_right_commute(self):
        pair = random_commuting_pair(5, 0)
        L, R = pair.left.mat, pair.right.mat
        assert np.max(np.abs(L @ R - R @ L)) < 1e-12

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(ValueError, match="unitary"):
            make_commuting_pair(np.eye(2) * 1.001, [1.0, 1.0], [1.0, 1.0])

    def test_rejects_spectrum_below_floor(self):
        with pytest.raises(DomainViolation):
            make_commuting_pair(np.eye(2), [1.0, 1e-12], [1.0, 1.0])
        with pytest.raises(DomainViolation):
            make_commuting_pair(np.eye(2), [1.0, 1.0], [-1.0, 1.0])

    def test_spectra_immutable(self):
        pair = random_commuting_pair(3, 1)
        with pytest.raises((ValueError, RuntimeError)):
            pair.lam[0] = 7.0


class TestQuotient:
    def test_diagonal_quotient(self):
        pair = diag_pair([2.0, 9.0], [4.0, 3.0])
        assert np.allclose(quotient(pair).mat, np.diag([0.5, 3.0]))

    def test_log_identity_holds(self):
        pair = random_commuting_pair(5, 3)
        assert log_quotient_identity_check(pair) < 1e-12


class TestPairFromMatrices:
    def test_round_trip(self):
        src = random_commuting_pair(5, 4)
        pair = pair_from_matrices(src.left, src.right)
        assert np.max(np.abs(pair.left.mat - src.left.mat)) < 1e-10
        assert np.max(np.abs(pair.right.mat - src.right.mat)) < 1e-10

    def test_degenerate_left_block(self):
        # L = I forces the cluster logic to diagonalize R inside one block
        rng = np.random.default_rng(5)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        R = G @ G.conj().T + 0.1 * np.eye(4)
        pair = pair_from_matrices(np.eye(4), R)
        assert np.max(np.abs(pair.right.mat - R)) < 1e-10
        assert np.allclose(pair.lam, 1.0)

    def test_repeated_eigenvalues_both_sides(self):
        basis = random_unitary(4, 6)
        lam = np.array([2.0, 2.0, 5.0, 5.0])
        mu = np.array([1.0, 3.0, 3.0, 7.0])
        src = make_commuting_pair(basis, lam, mu)
        pair = pair_from_matrices(src.left, src.right)
        assert np.max(np.abs(pair.left.mat - src.left.mat)) < 1e-10
        assert np.max(np.abs(pair.right.mat - src.right.mat)) < 1e-10

    def test_rejects_non_commuting(self):
        L = np.diag([1.0, 2.0])
        R = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="commute"):
            pair_from_matrices(L, R)


class TestMultiplicationPair:
    def test_rejects_non_positive(self):
        with pytest.raises(DomainViolation):
            MultiplicationPair(np.diag([1.0, -0.5]), np.eye(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            MultiplicationPair(np.eye(2), np.eye(3))

    def test_superops_multiply_left_and_right(self):
        rng = np.random.default_rng(7)
        sigma = random_density(3, 8).matrix.mat
        rho = random_density(3, 9).matrix.mat
        mp = MultiplicationPair(sigma, rho)
        pair = realize_multiplication_pair(mp)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.max(np.abs(apply_superop(pair, "left", X) - sigma @ X)) < 1e-12
        assert np.max(np.abs(apply_superop(pair, "right", X) - X @ rho)) < 1e-12

    def test_realization_matrices_are_kron_factors(self):
        sigma = random_density(3, 10).matrix.mat
        rho = random_density(3, 11).matrix.mat
        pair = realize_multiplication_pair(MultiplicationPair(sigma, rho))
        assert np.max(np.abs(pair.left.mat - np.kron(np.eye(3), sigma))) < 1e-12
        assert np.max(np.abs(pair.right.mat - np.kron(rho.T, np.eye(3)))) < 1e-12

    def test_realized_spectra_are_products_of_factors(self):
        sigma = random_density(2, 12).matrix.mat
        rho = random_density(2, 13).matrix.mat
        pair = realize_multiplication_pair(MultiplicationPair(sigma, rho))
        ws = np.linalg.eigvalsh(sigma)
        wr = np.linalg.eigvalsh(rho)
        assert np.allclose(np.sort(pair.lam), np.sort(np.repeat(ws, 2)))
        assert np.allclose(np.sort(pair.mu), np.sort(np.tile(wr, 2)))

    def test_superop_dimension_gate(self):
        pair = realize_multiplication_pair(
            MultiplicationPair(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError):
            apply_superop(pair, "left", np.ones((3, 3)))


class TestGenerators:
    def test_random_commuting_pair_spectra_bounds(self):
        pair = random_commuting_pair(6, 14, floor=1e-8, lo=0.1, hi=10.0)
        for spec in (pair.lam, pair.mu):
            assert np.all(spec >= 0.1) and np.all(spec <= 10.0)

    def test_random_commuting_pair_deterministic(self):
        a = random_commuting_pair(4, 15)
        b = random_commuting_pair(4, 15)
        assert np.array_equal(a.left.mat, b.left.mat)
        assert np.array_equal(a.mu, b.mu)
