"""Hermitian containers, functional calculus, Loewner checks, JSON wire format."""
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opconvex import (DomainViolation, EigendecompositionError,
                      HermitianMatrix, apply_scalar_function, loewner_leq,
                      lookup_atom)
from opconvex.atoms import Interval
from opconvex.linalg import (JSON_HERMITICITY_TOL, RowErrors, _calculus,
                             _dot_rows, _loewner, _sym, as_hermitian,
                             as_matrix, hermitian_from_json, hs_inner,
                             matrix_from_json, matrix_to_json, matrix_wire,
                             op_norm, spectral_decompose)


def rand_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(G + G.conj().T)


class TestHermitianMatrix:
    def test_stores_hermitian_part(self):
        M = np.array([[1.0, 2.0], [0.0, 3.0]])
        H = HermitianMatrix(M)
        assert np.array_equal(H.mat, H.mat.conj().T)
        assert np.array_equal(H.mat, [[1.0, 1.0], [1.0, 3.0]])
        assert H.dim == 2

    def test_exact_hermitian_kept_as_is(self):
        H = rand_hermitian(4, 0)
        assert np.array_equal(HermitianMatrix(H.mat).mat, H.mat)

    def test_mat_is_immutable(self):
        H = rand_hermitian(3, 1)
        with pytest.raises((ValueError, RuntimeError)):
            H.mat[0, 0] = 99.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError,
                           match="^dimension must be >= 1, got 0$"):
            HermitianMatrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_finite_imaginary_part(self):
        M = np.array([[1.0, complex(0.0, np.inf)], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            HermitianMatrix(M)

    def test_as_hermitian_passthrough(self):
        H = rand_hermitian(3, 2)
        assert as_hermitian(H) is H
        assert np.array_equal(as_hermitian(H.mat).mat, H.mat)


def _bits(x):
    """The uint64 patterns of a complex stack's real and imaginary parts."""
    x = np.ascontiguousarray(x)
    assert x.dtype == np.complex128
    return x.view(np.uint64)


def _adjoint(M):
    return M.conj().swapaxes(-1, -2)


def _complex(re, im):
    """re + i im with both parts' bits kept: 1j * im would turn -0.0 to 0.0."""
    M = np.empty(np.shape(re), dtype=np.complex128)
    M.real, M.imag = re, im
    return M


class TestHermitianPart:
    """``_sym`` and ``HermitianMatrix`` keep the bits, signed zeros
    included, of (M + M*) / 2.0, or of M / 2.0 plus its own adjoint where
    that sum overflows: reports print these bits, and equal floats with
    other zero signs or roundings would print other reports."""

    def _stack(self, kind):
        rng = np.random.default_rng(17)
        if kind == "random":
            return _complex(*rng.standard_normal((2, 64, 4, 4)))
        if kind == "signed-zeros":
            M = _complex(*rng.choice([0.0, -0.0, 1.0, -1.0, 0.5],
                                     (2, 64, 3, 3)))
            M[0, 0, 0] = complex(-0.0, 1.0)
            return M
        # near-max: every real part above half the float64 range, so each
        # diagonal sum overflows; imaginary parts mix huge and signed zeros
        re = rng.choice([-1.0, 1.0], (16, 3, 3)) * rng.uniform(
            0.9e308, 1.7e308, (16, 3, 3))
        return _complex(re, rng.choice([0.0, -0.0, 1.7e308, -1.7e308],
                                       (16, 3, 3)))

    @pytest.mark.parametrize("kind", ["random", "signed-zeros"])
    def test_bits_of_the_halved_sum(self, kind):
        M = self._stack(kind)
        expected = (M + _adjoint(M)) / 2.0
        assert np.isfinite(expected).all()
        assert np.array_equal(_bits(_sym(M)), _bits(expected))
        for k in range(len(M)):
            assert np.array_equal(_bits(HermitianMatrix(M[k]).mat),
                                  _bits(expected[k]))

    def test_signed_zeros_are_exercised(self):
        M = self._stack("signed-zeros")
        H = (M + _adjoint(M)) / 2.0
        zeros = np.concatenate([H.real[H.real == 0], H.imag[H.imag == 0]])
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    def test_bits_where_the_sum_overflows(self):
        M = self._stack("near-max")
        with np.errstate(over="ignore", invalid="ignore"):
            summed = M + _adjoint(M)
        half = M / 2.0
        expected = half + _adjoint(half)
        assert np.isfinite(expected).all()
        assert not np.isfinite(summed).all(axis=(-2, -1)).any()
        assert np.array_equal(_bits(_sym(M)), _bits(expected))
        for k in range(len(M)):
            assert np.array_equal(_bits(HermitianMatrix(M[k]).mat),
                                  _bits(expected[k]))


class TestSpectral:
    def test_eigenvalues_ascending_and_reconstruct(self):
        H = rand_hermitian(5, 3)
        w, U = spectral_decompose(H)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose((U * w) @ U.conj().T, H.mat, atol=1e-12)

    def test_eigenvectors_unitary(self):
        _, U = spectral_decompose(rand_hermitian(4, 4))
        assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12

    def test_lapack_failure_is_an_eigendecomposition_error(self, monkeypatch):
        def fail(H):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigendecompositionError) as caught:
            spectral_decompose(np.eye(2))
        assert (caught.value.dim, caught.value.condition) == (2, 1.0)
        assert str(caught.value) == (
            "eigendecomposition failed for dim=2 (max |entry| = 1): "
            "Eigenvalues did not converge")


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

    def test_overflow_is_a_domain_violation(self):
        # the warning filters make a RuntimeWarning fail this test
        with pytest.raises(DomainViolation, match=(
                r"^square overflows float64 on the spectrum "
                r"\[1\.000e\+200, 1\.000e\+200\]$")):
            apply_scalar_function(lookup_atom("square"), 1e200 * np.eye(2))

    def test_overflow_fails_only_its_own_row(self):
        f = lookup_atom("square")
        H = np.stack([rand_hermitian(3, 1).mat, 1e200 * np.eye(3),
                      rand_hermitian(3, 2).mat])
        errs = RowErrors(3)
        out = _calculus(f, H, errs)
        assert errs.errors[0] is None and errs.errors[2] is None
        assert "overflows float64" in str(errs.errors[1])
        assert np.all(np.isfinite(out))
        for k in (0, 2):
            single = apply_scalar_function(f, H[k])
            assert np.array_equal(HermitianMatrix(out[k]).mat, single.mat)


class TestOpNorm:
    def test_hermitian_is_spectral_radius(self):
        H = rand_hermitian(4, 9)
        w = np.linalg.eigvalsh(H.mat)
        assert op_norm(H) == pytest.approx(max(abs(w[0]), abs(w[-1])))

    def test_nilpotent_block(self):
        assert op_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)

    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0


class TestNearFloat64Limit:
    # the warning filters make a RuntimeWarning fail these tests
    def test_hermitian_matrix_stores_entries_above_half_the_limit(self):
        M = np.diag([1.7e308, 1.0])
        assert np.array_equal(HermitianMatrix(M).mat, M)

    def test_square_near_the_limit_is_finite(self):
        T = 9.4e153 * np.array([[1.0, 0.3], [0.3, 1.0]])
        out = apply_scalar_function(lookup_atom("square"), T).mat
        assert np.all(np.isfinite(out))
        assert np.allclose(out, T @ T, rtol=1e-12, atol=0.0)

    def test_loewner_holds_near_the_limit(self):
        v = loewner_leq(np.eye(2), np.diag([1.7e308, 1.0]))
        assert v.holds and v.slack == 0.0

    def test_overflowing_difference_is_a_domain_violation(self):
        with pytest.raises(DomainViolation,
                           match=r"^B - A overflows float64; "):
            loewner_leq(-1e308 * np.eye(2), 1e308 * np.eye(2))

    def test_overflowing_difference_fails_only_its_own_row(self):
        A = np.stack([np.eye(2), -1e308 * np.eye(2), 2.0 * np.eye(2)])
        B = np.stack([2.0 * np.eye(2), 1e308 * np.eye(2), np.eye(2)])
        errs = RowErrors(3)
        slack, used = _loewner(A, B, 1e-8, errs)
        assert errs.errors[0] is None and errs.errors[2] is None
        assert isinstance(errs.errors[1], DomainViolation)
        for k in (0, 2):
            v = loewner_leq(A[k], B[k])
            assert (slack[k], used[k]) == (v.slack, v.tolerance_used)


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

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
            loewner_leq(np.eye(2), np.eye(3))

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

    def test_rejects_a_shape_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"shape mismatch: \(2, 2\) vs \(2, 3\)"):
            hs_inner(np.eye(2), np.ones((2, 3)))


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

    def test_integers_beyond_64_bits_accepted(self):
        back = matrix_from_json({"dim": 1, "entries": [[[2 ** 64, -2 ** 70]]]})
        assert back[0, 0] == complex(2.0 ** 64, -2.0 ** 70)

    def test_zero_and_one_numbers_accepted(self):
        # booleans are rejected; genuine floats and integers equal to 0 or
        # 1 must still decode
        doc = {"dim": 2, "entries": [[[1.0, 0.0], [0, 1]],
                                     [[1, 0.0], [0.0, -0.0]]]}
        back = matrix_from_json(json.loads(json.dumps(doc)))
        assert np.array_equal(back, np.array([[1.0, 1j], [1.0, 0.0]]))
        assert np.signbit(back[1, 1].imag)

    def test_wire_rejects_a_vector(self):
        with pytest.raises(ValueError,
                           match=r"^expected a matrix, got shape \(3,\)$"):
            matrix_wire(np.zeros(3))

    def test_entry_that_is_not_a_pair_named(self):
        with pytest.raises(ValueError,
                           match=r"^each entry must be a \[re, im\] pair$"):
            matrix_from_json({"dim": 1, "entries": [[1.0]]})

    def test_hermitian_reader_rejects_non_square(self):
        doc = matrix_to_json(np.zeros((1, 2)))
        with pytest.raises(ValueError,
                           match="^Hermitian operand must be square$"):
            hermitian_from_json(doc)

    def test_hermitian_gate_reports_defect(self):
        doc = matrix_to_json(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="2.000e\\+00"):
            hermitian_from_json(doc)

    def test_hermitian_gate_accepts_small_defect(self):
        eps = JSON_HERMITICITY_TOL / 10.0
        doc = matrix_to_json(np.array([[1.0, eps], [0.0, 1.0]]))
        H = hermitian_from_json(doc)
        assert np.array_equal(H.mat, [[1.0, eps / 2], [eps / 2, 1.0]])

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
        {"dim": 1, "entries": [[[True, 0.5]]]},
        {"dim": 1, "entries": [[[0.5, False]]]},
        {"dim": 2, "entries": [[[1.0, 0.0], [2, 0]], [[2, 0], [True, 0.0]]]},
        {"dim": 1, "entries": [[[10 ** 400, 0.0]]]},
        {"dim": 1, "entries": [["ab"]]},
        # dimensions that int() would read as 2, 2, 2 x 2 and 1
        {"dim": "2", "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0, 0.0]]]},
        {"dim": 2.5, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0, 0.0]]]},
        {"rows": 2.9, "cols": 2.2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                               [[0.0, 0.0], [1.0, 0.0]]]},
        {"dim": True, "entries": [[[1.0, 0.0]]]},
    ])
    def test_malformed_rejected(self, doc):
        with pytest.raises(ValueError):
            matrix_from_json(doc)

    @pytest.mark.parametrize("doc, n", [
        ({"dim": 0, "entries": []}, 0), ({"dim": -1, "entries": []}, -1),
        ({"rows": 1, "cols": 0, "entries": [[]]}, 0)])
    def test_dimension_below_one_rejected_as_everywhere(self, doc, n):
        # the wording every dimension check of the package uses
        with pytest.raises(ValueError,
                           match=f"^dimension must be >= 1, got {n}$"):
            matrix_from_json(doc)

    def test_as_matrix_accepts_nested_lists(self):
        assert np.array_equal(as_matrix([[1.0, 0.0], [0.0, 1.0]]), np.eye(2))


class TestStackedLapackIsBitIdentical:
    """The batched verifier and its batch-of-one replay agree exactly only
    because stacked LAPACK, matmul and trace calls equal per-matrix calls
    bit for bit. A numpy or BLAS build that breaks this fails here by name,
    rather than through a golden report hash."""

    BATCH = 25

    @pytest.fixture(params=[1, 2, 3, 8, 32])
    def stack(self, request):
        n = request.param
        rng = np.random.default_rng(n)
        G = (rng.standard_normal((self.BATCH, 2 * n, n))
             + 1j * rng.standard_normal((self.BATCH, 2 * n, n)))
        H = G[:, :n] @ G[:, :n].conj().swapaxes(-1, -2)
        return G, (H + H.conj().swapaxes(-1, -2)) / 2.0

    def test_eigh_and_eigvalsh(self, stack):
        _, H = stack
        w, U = np.linalg.eigh(H)
        wv = np.linalg.eigvalsh(H)
        for k in range(self.BATCH):
            w1, U1 = np.linalg.eigh(H[k])
            assert np.array_equal(w1, w[k]) and np.array_equal(U1, U[k])
            assert np.array_equal(np.linalg.eigvalsh(H[k]), wv[k])

    @pytest.mark.parametrize("tall", [False, True])
    def test_qr(self, stack, tall):
        G, _ = stack
        A = G if tall else G[:, :G.shape[-1]]
        Q, R = np.linalg.qr(A)
        for k in range(self.BATCH):
            Q1, R1 = np.linalg.qr(A[k])
            assert np.array_equal(Q1, Q[k]) and np.array_equal(R1, R[k])

    def test_matmul_and_trace(self, stack):
        G, H = stack
        n = H.shape[-1]
        A = G[:, n:]  # a non-contiguous view, as the isometry halves are
        P = A.conj().swapaxes(-1, -2) @ H @ A
        tr = np.trace(P, axis1=-2, axis2=-1)
        for k in range(self.BATCH):
            P1 = A[k].conj().T @ H[k] @ A[k]
            assert np.array_equal(P1, P[k])
            assert np.trace(P1) == tr[k]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128])
    def test_dot_rows_is_np_dot(self, n):
        rng = np.random.default_rng(n)
        x = rng.random((self.BATCH, n)) + 0.1
        d = _dot_rows(x, np.log(x))
        for k in range(self.BATCH):
            assert np.dot(x[k], np.log(x[k])) == d[k]


class TestRowErrors:
    def test_clamp_rejects_only_offending_rows(self):
        domain = Interval(0.0, np.inf, lo_closed=True, hi_closed=False)
        x = np.array([[1.0, -1e-12, 2.0], [1.0, -0.5, -0.25], [3.0, 4.0, 5.0]])
        errs = RowErrors(3)
        out = errs.clamp(domain, x)
        assert errs.errors[0] is None and errs.errors[2] is None
        with pytest.raises(DomainViolation) as caught:
            domain.clamp(x[1])
        assert str(errs.errors[1]) == str(caught.value)
        assert np.array_equal(out[0], domain.clamp(x[0]))
        assert np.array_equal(out[2], x[2])
        assert np.all(np.isfinite(out[1])) and np.all(out[1] >= 0.0)

    @pytest.mark.filterwarnings("error")
    def test_rejected_row_does_not_disturb_its_batch(self):
        # row 1 has a negative eigenvalue, outside neg_log's domain; the
        # other rows must come out as they would alone, with no NaN or
        # warning leaking from the rejected row
        f = lookup_atom("neg_log")
        H = np.stack([rand_hermitian(3, s).mat for s in (1, 2, 3)])
        w, U = np.linalg.eigh(H)
        w = np.abs(w) + 0.5
        w[1, 0] = -2.0
        H = np.stack([HermitianMatrix(U[k] * w[k] @ U[k].conj().T).mat
                      for k in range(3)])
        errs = RowErrors(3)
        out = _calculus(f, H, errs)
        assert errs.errors[0] is None and errs.errors[2] is None
        assert isinstance(errs.errors[1], DomainViolation)
        assert np.all(np.isfinite(out))
        for k in (0, 2):
            single = apply_scalar_function(f, H[k])
            assert np.array_equal(HermitianMatrix(out[k]).mat, single.mat)

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (3, 2, 2)],
                             ids=["1d", "2d", "3d"])
    def test_drop_stands_in_masked_rows(self, shape):
        x = np.arange(np.prod(shape), dtype=float).reshape(shape) + 1.0
        errs = RowErrors(3)
        out = errs.drop(np.array([False, True, False]),
                        lambda k: ValueError(f"row {k}"), x, -1.0)
        assert [e is None for e in errs.errors] == [True, False, True]
        assert str(errs.errors[1]) == "row 1"
        assert np.all(out[1] == -1.0)
        assert np.array_equal(out[[0, 2]], x[[0, 2]])

    def test_drop_returns_x_itself_when_no_row_is_masked(self):
        x = np.ones((2, 3))
        errs = RowErrors(2)
        out = errs.drop(np.zeros(2, dtype=bool),
                        lambda k: ValueError("unreached"), x, 0.0)
        assert out is x and errs.errors == [None, None]

    def test_drop_keeps_a_rows_first_exception(self):
        errs = RowErrors(2)
        x = errs.drop(np.array([True, False]),
                      lambda k: ValueError("first"), np.ones(2), 0.0)
        x = errs.drop(np.array([True, True]),
                      lambda k: ValueError("second"), x, 5.0)
        assert [str(e) for e in errs.errors] == ["first", "second"]
        assert np.array_equal(x, [5.0, 5.0])

    def test_first_failure_wins(self):
        errs = RowErrors(2)
        errs.fail(np.array([True, False]), lambda k: ValueError("first"))
        errs.fail(np.array([True, True]), lambda k: ValueError("second"))
        assert [str(e) for e in errs.errors] == ["first", "second"]

    def test_batch_of_one_raises_its_row_error(self):
        def kernel(errs):
            errs.fail(np.array([True]), lambda k: ValueError("row 0"))
            return np.zeros(1)

        with pytest.raises(ValueError, match="row 0"):
            RowErrors.one(kernel)
        assert RowErrors.one(lambda errs: (np.arange(2), np.ones(1))) == (0, 1)
