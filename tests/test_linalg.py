"""Hermitian containers, functional calculus, Loewner checks, JSON wire format."""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opconvex import (HermitianMatrix, apply_scalar_function, as_hermitian,
                      as_matrix, hermitian_from_json, hs_inner, loewner_leq,
                      lookup_atom, matrix_from_json, matrix_to_json, op_norm,
                      spectral_decompose)
from opconvex.linalg import JSON_HERMITICITY_TOL


def rand_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(G + G.conj().T)


class TestHermitianMatrix:
    def test_symmetrizes_and_records_defect(self):
        M = np.array([[1.0, 2.0], [0.0, 3.0]])
        H = HermitianMatrix(M)
        assert np.array_equal(H.mat, H.mat.conj().T)
        assert H.defect == pytest.approx(2.0)
        assert H.dim == 2

    def test_exact_hermitian_zero_defect(self):
        H = rand_hermitian(4, 0)
        assert HermitianMatrix(H.mat).defect == 0.0

    def test_mat_is_immutable(self):
        H = rand_hermitian(3, 1)
        with pytest.raises((ValueError, RuntimeError)):
            H.mat[0, 0] = 99.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_as_hermitian_passthrough(self):
        H = rand_hermitian(3, 2)
        assert as_hermitian(H) is H
        assert np.array_equal(as_hermitian(H.mat).mat, H.mat)


class TestSpectral:
    def test_eigenvalues_ascending_and_reconstruct(self):
        H = rand_hermitian(5, 3)
        dec = spectral_decompose(H)
        assert np.all(np.diff(dec.eigenvalues) >= 0)
        assert np.allclose(dec.reconstruct(), H.mat, atol=1e-12)

    def test_eigenvectors_unitary(self):
        dec = spectral_decompose(rand_hermitian(4, 4))
        U = dec.eigenvectors
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12


class TestFunctionalCalculus:
    def test_diagonal_is_elementwise(self):
        f = lookup_atom("xlogx")
        D = np.diag([0.5, 1.0, 2.0])
        out = apply_scalar_function(f, D).mat
        assert np.allclose(np.diag(out), f(np.array([0.5, 1.0, 2.0])))
        assert np.allclose(out - np.diag(np.diag(out)), 0.0)

    def test_identity_atom_reproduces_input(self):
        H = rand_hermitian(4, 5)
        out = apply_scalar_function(lookup_atom("identity"), H)
        assert np.allclose(out.mat, H.mat, atol=1e-13)

    def test_square_atom_matches_matmul(self):
        H = rand_hermitian(4, 6)
        out = apply_scalar_function(lookup_atom("square"), H)
        assert np.allclose(out.mat, H.mat @ H.mat, atol=1e-12)

    def test_commutes_with_conjugation(self):
        # f(U H U*) = U f(H) U* for unitary U
        from opconvex import random_unitary
        H = rand_hermitian(4, 7)
        U = random_unitary(4, 8)
        f = lookup_atom("square")
        lhs = apply_scalar_function(f, U @ H.mat @ U.conj().T).mat
        rhs = U @ apply_scalar_function(f, H).mat @ U.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestOpNorm:
    def test_hermitian_is_spectral_radius(self):
        H = rand_hermitian(4, 9)
        w = np.linalg.eigvalsh(H.mat)
        assert op_norm(H) == pytest.approx(max(abs(w[0]), abs(w[-1])))

    def test_nilpotent_block(self):
        assert op_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0


class TestLoewner:
    def test_strict_order_holds(self):
        v = loewner_leq(np.eye(2), 2.0 * np.eye(2))
        assert v.holds and v.slack == pytest.approx(1.0)

    def test_reflexive_zero_slack(self):
        H = rand_hermitian(3, 10)
        v = loewner_leq(H, H)
        assert v.holds and v.slack == 0.0

    def test_violation_detected(self):
        v = loewner_leq(2.0 * np.eye(2), np.eye(2))
        assert not v.holds and v.slack == pytest.approx(-1.0)

    def test_tolerance_scales_with_magnitude(self):
        # slack -1e-9 passes at tol 1e-8 once the scale is accounted for
        A = np.diag([1e-9, 0.0])
        v = loewner_leq(A, np.zeros((2, 2)), tol=1e-8)
        assert v.holds and v.slack == pytest.approx(-1e-9)
        w = loewner_leq(A * 1e3, np.zeros((2, 2)), tol=1e-8)
        assert not w.holds

    def test_tolerance_used_reported(self):
        v = loewner_leq(np.zeros((2, 2)), np.diag([3.0, 0.0]), tol=1e-8)
        assert v.tolerance_used == pytest.approx(1e-8 * 4.0)

    @given(st.integers(0, 10_000), st.floats(0.0, 10.0))
    def test_shift_by_nonnegative_multiple_of_identity(self, seed, eps):
        H = rand_hermitian(3, seed)
        v = loewner_leq(H, H.mat + eps * np.eye(3))
        assert v.holds


class TestHsInner:
    def test_trace_formula(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_inner(X, Y) == pytest.approx(np.trace(Y.conj().T @ X))

    def test_self_inner_is_squared_frobenius(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert hs_inner(X, X) == pytest.approx(30.0)


class TestJsonWire:
    def test_square_round_trip_bit_identical(self):
        H = rand_hermitian(4, 12)
        doc = json.loads(json.dumps(matrix_to_json(H.mat)))
        back = matrix_from_json(doc)
        assert np.array_equal(back, H.mat)

    def test_rectangular_round_trip(self):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        doc = matrix_to_json(M)
        assert doc["rows"] == 2 and doc["cols"] == 5
        assert np.array_equal(matrix_from_json(doc), M)

    def test_round_trip_keeps_signed_zeros(self):
        M = np.array([[complex(-0.0, 1.0), complex(2.0, -0.0)],
                      [complex(-0.0, -0.0), complex(0.0, 0.0)]])
        doc = json.loads(json.dumps(matrix_to_json(M)))
        assert doc["entries"][0][0] == [-0.0, 1.0]
        back = matrix_from_json(doc)
        assert np.array_equal(np.signbit(back.real), np.signbit(M.real))
        assert np.array_equal(np.signbit(back.imag), np.signbit(M.imag))
        assert np.array_equal(back, M)

    def test_integer_entries_accepted(self):
        back = matrix_from_json({"dim": 1, "entries": [[[2, -1]]]})
        assert back.dtype == np.complex128 and back[0, 0] == 2 - 1j

    def test_hermitian_gate_reports_defect(self):
        doc = matrix_to_json(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="2.000e\\+00"):
            hermitian_from_json(doc)

    def test_hermitian_gate_accepts_small_defect(self):
        eps = JSON_HERMITICITY_TOL / 10.0
        doc = matrix_to_json(np.array([[1.0, eps], [0.0, 1.0]]))
        H = hermitian_from_json(doc)
        assert H.defect <= JSON_HERMITICITY_TOL

    @pytest.mark.parametrize("doc", [
        {"dim": 2},
        {"entries": [[[1.0, 0.0]]]},
        {"dim": 2, "entries": [[[1.0, 0.0]], [[0.0, 0.0]]]},
        {"dim": 1, "entries": [[[np.inf, 0.0]]]},
        {"dim": 1, "entries": [[[1.0]]]},
        {"dim": 0, "entries": []},
        {"dim": None, "entries": [[[1.0, 0.0]]]},
        {"dim": 1, "entries": 5},
        {"dim": 1, "entries": [[[1.0, 0.0, 0.0]]]},
        {"dim": 2, "entries": [[[1.0, 0.0], [1.0]],
                               [[0.0, 0.0], [1.0, 0.0]]]},
        {"dim": 1, "entries": [[[None, 0.0]]]},
        {"dim": 1, "entries": [[["1.5", 0.0]]]},
        {"dim": 1, "entries": [[[{"re": 1.0}, 0.0]]]},
    ])
    def test_malformed_rejected(self, doc):
        with pytest.raises(ValueError):
            matrix_from_json(doc)

    def test_as_matrix_accepts_nested_lists(self):
        assert np.array_equal(as_matrix([[1.0, 0.0], [0.0, 1.0]]), np.eye(2))
