"""Commuting pairs, joint diagonalization, multiplication-operator realization."""
import re

import numpy as np
import pytest

from opconvex import (CommutingPair, DensityMatrix, DomainViolation,
                      MultiplicationPair, apply_scalar_function,
                      check_perspective_joint_convexity, lookup_atom,
                      perspective_symmetrized, random_commuting_pair,
                      random_density, random_positive_matrix)
from opconvex.commuting import apply_superop, realize_multiplication_pair
from opconvex.perspective import extended_perspective_symmetrized


def diag_pair(lam, mu):
    return CommutingPair(np.eye(len(lam)), lam, mu)


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
            CommutingPair(np.eye(2) * 1.001, [1.0, 1.0], [1.0, 1.0])

    def test_rejects_nan_basis(self):
        with pytest.raises(ValueError, match="unitary"):
            CommutingPair(np.full((2, 2), np.nan), [1.0, 1.0], [1.0, 1.0])

    def test_rejects_spectrum_below_floor(self):
        with pytest.raises(DomainViolation):
            CommutingPair(np.eye(2), [1.0, 1e-12], [1.0, 1.0])
        with pytest.raises(DomainViolation):
            CommutingPair(np.eye(2), [1.0, 1.0], [-1.0, 1.0])

    def test_spectra_immutable(self):
        pair = random_commuting_pair(3, 1)
        with pytest.raises((ValueError, RuntimeError)):
            pair.lam[0] = 7.0

    def test_log_quotient_identity(self):
        # log(L/R) = log L - log R, every logarithm taken by functional
        # calculus on a materialized matrix: the whole spectral pipeline
        pair = random_commuting_pair(5, 3)
        quotient = CommutingPair(pair.basis, pair.lam / pair.mu, pair.mu).left
        neg_log = lookup_atom("neg_log")

        def log(H):
            return -apply_scalar_function(neg_log, H).mat

        defect = log(quotient) - (log(pair.left) - log(pair.right))
        assert np.linalg.norm(defect, 2) < 1e-12


class TestMultiplicationPair:
    def test_rejects_non_positive(self):
        with pytest.raises(DomainViolation):
            MultiplicationPair(np.diag([1.0, -0.5]), np.eye(2))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            MultiplicationPair(np.eye(2), np.eye(3))

    def test_superops_multiply_left_and_right(self):
        rng = np.random.default_rng(7)
        sigma = random_density(3, 8).mat
        rho = random_density(3, 9).mat
        mp = MultiplicationPair(sigma, rho)
        pair = realize_multiplication_pair(mp)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.max(np.abs(apply_superop(pair, "left", X) - sigma @ X)) < 1e-12
        assert np.max(np.abs(apply_superop(pair, "right", X) - X @ rho)) < 1e-12

    def test_realization_matrices_are_kron_factors(self):
        sigma = random_density(3, 10).mat
        rho = random_density(3, 11).mat
        pair = realize_multiplication_pair(MultiplicationPair(sigma, rho))
        assert np.max(np.abs(pair.left.mat - np.kron(np.eye(3), sigma))) < 1e-12
        assert np.max(np.abs(pair.right.mat - np.kron(rho.T, np.eye(3)))) < 1e-12

    def test_realized_spectra_are_products_of_factors(self):
        sigma = random_density(2, 12).mat
        rho = random_density(2, 13).mat
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


@pytest.mark.parametrize("make", [
    lambda: random_commuting_pair(3, 1, floor=0.5),
    lambda: random_density(3, 2, floor=1e-3),
    lambda: MultiplicationPair(np.eye(2), 2 * np.eye(2), floor=0.5)],
    ids=["CommutingPair", "DensityMatrix", "MultiplicationPair"])
def test_floor_is_not_kept(make):
    """``floor`` is a constructor argument only: reading it back must not
    give the default in place of the floor the value was checked against."""
    with pytest.raises(AttributeError):
        make().floor


_Z = np.diag([0.0, 1.0, 2.0])


@pytest.mark.parametrize("floor", [np.nan, 0.0, -1.0, np.inf])
@pytest.mark.parametrize("make", [
    lambda floor: CommutingPair(np.eye(3), [0, 1, 2], [1, 1, 1], floor=floor),
    lambda floor: MultiplicationPair(_Z, _Z, floor=floor),
    lambda floor: DensityMatrix(np.eye(3), floor=floor),
    lambda floor: perspective_symmetrized(
        lookup_atom("xlogx"), np.eye(2), np.diag([0.0, 1.0]), floor=floor),
    lambda floor: extended_perspective_symmetrized(
        lookup_atom("xlogx"), lookup_atom("power", 0.5), np.eye(2),
        np.diag([0.0, 1.0]), floor=floor),
    lambda floor: check_perspective_joint_convexity(
        lookup_atom("xlogx"), random_commuting_pair(3, 1),
        random_commuting_pair(3, 2), 0.5, floor=floor),
    lambda floor: random_commuting_pair(3, 1, floor=floor),
    lambda floor: random_density(3, 1, floor=floor),
    lambda floor: random_positive_matrix(3, 1, floor=floor)],
    ids=["CommutingPair", "MultiplicationPair", "DensityMatrix",
         "perspective_symmetrized", "extended_perspective_symmetrized",
         "check_perspective_joint_convexity", "random_commuting_pair",
         "random_density", "random_positive_matrix"])
def test_floor_outside_the_positive_reals_is_rejected(make, floor):
    """A NaN or non-positive floor would pass every spectrum, a zero one
    included."""
    text = f"floor must be in (0, inf), got {floor}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        make(floor)


class TestGenerators:
    def test_random_commuting_pair_spectra_bounds(self):
        pair = random_commuting_pair(6, 14, floor=1e-8)
        for spec in (pair.lam, pair.mu):
            assert np.all(spec >= 0.1) and np.all(spec <= 10.0)

    def test_random_commuting_pair_rejects_floor_above_band(self):
        with pytest.raises(ValueError, match=r"floor 20 lies above the "
                                             r"spectrum band \[0.1, 10\]$"):
            random_commuting_pair(3, 0, floor=20.0)

    def test_random_commuting_pair_deterministic(self):
        a = random_commuting_pair(4, 15)
        b = random_commuting_pair(4, 15)
        assert np.array_equal(a.left.mat, b.left.mat)
        assert np.array_equal(a.mu, b.mu)
