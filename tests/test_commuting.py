"""Commuting pairs, joint diagonalization, multiplication-operator realization."""
import ast
import copy
import gc
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from opconvex import (CommutingPair, DensityMatrix, DomainViolation,
                      HermitianMatrix, MultiplicationPair,
                      apply_scalar_function,
                      check_perspective_joint_convexity,
                      extended_perspective_quadratic_form, lookup_atom,
                      perspective_quadratic_form, perspective_symmetrized,
                      quantum_relative_entropy_perspective,
                      random_commuting_pair, random_density,
                      random_positive_matrix)
from opconvex import commuting
from opconvex.commuting import apply_superop, realize_multiplication_pair
from opconvex.perspective import extended_perspective_symmetrized
from opconvex.verify import random_probability_vector


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

    @pytest.mark.parametrize("basis,lam,mu,message", [
        (np.zeros((2, 3)), [1.0, 2.0], [1.0, 2.0],
         r"basis must be square, got shape \(2, 3\)"),
        (np.eye(2), [1.0, 2.0, 3.0], [1.0, 2.0],
         "spectra must match the basis dimension"),
        (np.eye(2), [1.0, 2.0], [1.0, 2.0, 3.0],
         "spectra must match the basis dimension"),
    ], ids=["basis-2x3", "lam-3", "mu-3"])
    def test_rejects_mismatched_shapes(self, basis, lam, mu, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CommutingPair(basis, lam, mu)

    def test_rejects_empty_basis(self):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            CommutingPair(np.zeros((0, 0)), [], [])

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

    def test_superop_rejects_an_unknown_side(self):
        pair = realize_multiplication_pair(
            MultiplicationPair(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match=re.escape(
                "which must be 'left' or 'right', got 'up'")):
            apply_superop(pair, "up", np.eye(2))

    def test_superop_rejects_a_non_square_pair_dimension(self):
        with pytest.raises(ValueError, match=re.escape(
                "pair dimension 3 is not a perfect square")):
            apply_superop(diag_pair([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),
                          "left", np.eye(2))


@pytest.fixture
def eigh_calls(monkeypatch):
    """The matrices ``MultiplicationPair`` eigendecomposes, in call order."""
    calls = []

    def counted(H):
        calls.append(H)
        return eigh(H)

    eigh = commuting._eigh
    monkeypatch.setattr(commuting, "_eigh", counted)
    return calls


class TestSharedFactors:
    """A live pair of bitwise-equal operands lends a new pair its factors."""

    def test_superop_forms_eigendecompose_each_operand_once(self, eigh_calls):
        rho, sigma = random_density(24, 40), random_density(24, 41)
        K = random_positive_matrix(24, 42).mat / math.sqrt(24)
        mp = MultiplicationPair(rho, sigma)
        quantum_relative_entropy_perspective(rho, sigma)
        perspective_quadratic_form(lookup_atom("neg_power", 0.5), mp, K)
        extended_perspective_quadratic_form(
            lookup_atom("neg_power", 0.4), lookup_atom("power", 0.5), mp, K)
        assert len(eigh_calls) == 2

    @pytest.mark.parametrize("n", [3, 24])
    def test_shared_factors_equal_a_fresh_eigh(self, n, eigh_calls):
        sigma, rho = random_density(n, 43), random_density(n, 44)
        first = MultiplicationPair(sigma.mat, rho.mat)
        second = MultiplicationPair(sigma, rho)
        assert len(eigh_calls) == 2
        assert all(a is b for a, b in zip(second.factors, first.factors))
        ws, Us = np.linalg.eigh(second.sigma.mat)
        wr, Ur = np.linalg.eigh(second.rho.mat)
        for got, fresh in zip(second.factors, (Us, ws, Ur, wr)):
            assert got.tobytes() == fresh.tobytes()
            assert not got.flags.writeable

    @pytest.mark.parametrize("sigma,rho,floor,text", [
        (np.diag([0.5, 1.0]), np.diag([2.0, 3.0]), 0.75,
         "sigma has eigenvalue 5.000e-01 below the positivity floor 0.75"),
        (np.diag([3.0, 4.0]), np.diag([2.0, 5.0]), 2.5,
         "rho has eigenvalue 2.000e+00 below the positivity floor 2.5")],
        ids=["sigma", "rho"])
    def test_shared_factors_meet_the_new_floor(self, sigma, rho, floor, text,
                                               eigh_calls):
        """The floor is checked again; the text is a fresh pair's."""
        with pytest.raises(DomainViolation, match=f"^{re.escape(text)}$"):
            MultiplicationPair(sigma, rho, floor=floor)
        kept = MultiplicationPair(sigma, rho)
        eigh_calls.clear()
        with pytest.raises(DomainViolation, match=f"^{re.escape(text)}$"):
            MultiplicationPair(sigma, rho, floor=floor)
        assert not eigh_calls
        del kept

    @staticmethod
    def _ulp(M):
        M = M.copy()
        M[0, 0] = np.nextafter(M[0, 0].real, np.inf)
        return M

    @staticmethod
    def _negative_zero(M):
        # stores -0.0 at (0, 1), which == takes for the 0.0 there
        M = M.astype(complex)
        M[0, 1], M[1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
        return M

    @pytest.mark.parametrize("change", [
        lambda s, r: (TestSharedFactors._ulp(s), r),
        lambda s, r: (s, TestSharedFactors._ulp(r)),
        lambda s, r: (TestSharedFactors._negative_zero(s), r),
        lambda s, r: (random_density(4, 45).mat, random_density(4, 46).mat)],
        ids=["sigma-ulp", "rho-ulp", "negative-zero", "dimension"])
    def test_any_changed_bit_recomputes(self, change, eigh_calls):
        sigma, rho = np.diag([1.0, 2.0, 3.0]), random_density(3, 47).mat
        kept = MultiplicationPair(sigma, rho)
        eigh_calls.clear()
        other = MultiplicationPair(*change(sigma, rho))
        assert len(eigh_calls) == 2
        assert all(a is not b for a, b in zip(other.factors, kept.factors))

    def test_nothing_is_retained(self, eigh_calls):
        sigma, rho = random_density(3, 48), random_density(3, 49)
        first = MultiplicationPair(sigma, rho)
        del first
        gc.collect()
        MultiplicationPair(sigma, rho)
        assert len(eigh_calls) == 4

    def test_pickle_and_deepcopy(self):
        mp = MultiplicationPair(random_density(3, 50), random_density(3, 51))
        for clone in (pickle.loads(pickle.dumps(mp)), copy.deepcopy(mp)):
            assert clone is not mp
            for a, b in zip((clone.sigma.mat, clone.rho.mat, *clone.factors),
                            (mp.sigma.mat, mp.rho.mat, *mp.factors)):
                assert a.tobytes() == b.tobytes()
                assert not a.flags.writeable

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda H: pickle.loads(pickle.dumps(H))],
                             ids=["deepcopy", "pickle"])
    def test_a_copied_operand_stays_read_only(self, clone):
        H = clone(HermitianMatrix(np.diag([1.0, 2.0])))
        kept = MultiplicationPair(H, np.eye(2))
        with pytest.raises(ValueError, match="read-only"):
            H.mat[:] = np.diag([3.0, 4.0])
        assert kept.factors[1].tolist() == [1.0, 2.0]

    def test_an_operand_behind_a_live_pair_refuses_a_write(self,
                                                           eigh_calls):
        H, R = HermitianMatrix(np.diag([1.0, 2.0])), np.diag([0.5, 0.5])
        kept = MultiplicationPair(H, R)
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            H.mat.flags.writeable = True
        eigh_calls.clear()
        again = MultiplicationPair(H, R)
        assert not eigh_calls
        assert all(a is b for a, b in zip(again.factors, kept.factors))
        assert again.factors[1].tolist() == [1.0, 2.0]

    def test_shared_factors_cannot_be_made_writeable(self):
        mp = MultiplicationPair(random_density(3, 52), random_density(3, 53))
        for a in mp.factors:
            with pytest.raises(ValueError):
                a.flags.writeable = True


def _stored_arrays(value) -> list:
    """Every array ``value`` stores, a pair's operands included."""
    if isinstance(value, MultiplicationPair):
        return [value.sigma.mat, value.rho.mat, *value.factors]
    return [getattr(value, f) for f in ("mat", "basis", "lam", "mu", "weights")
            if hasattr(value, f)]


@pytest.mark.parametrize("make", [
    lambda: HermitianMatrix(np.array([[1.0, 2j], [-2j, 3.0]])),
    lambda: random_density(3, 54),
    lambda: random_commuting_pair(3, 55, floor=0.5),
    lambda: random_probability_vector(3, 56)],
    ids=["hermitian", "density", "commuting-pair", "probability-vector"])
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_type_bits_and_read_only_arrays(make, clone):
    value = make()
    got = clone(value)
    assert type(got) is type(value)
    pairs = list(zip(_stored_arrays(got), _stored_arrays(value)))
    assert pairs
    for a, b in pairs:
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable


@pytest.mark.parametrize("make,count", [
    (lambda: HermitianMatrix(np.array([[1.0, 2j], [-2j, 3.0]])), 1),
    (lambda: random_density(3, 57), 1),
    (lambda: random_commuting_pair(3, 58, floor=0.5), 3),
    (lambda: random_probability_vector(3, 59), 1),
    (lambda: MultiplicationPair(random_density(3, 60), np.eye(3)), 6)],
    ids=["hermitian", "density", "commuting-pair", "probability-vector",
         "multiplication-pair"])
@pytest.mark.parametrize("clone", [lambda x: x, copy.copy, copy.deepcopy,
                                   lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["original", "copy", "deepcopy", "pickle"])
def test_no_stored_array_can_be_made_writeable(make, count, clone):
    arrays = _stored_arrays(clone(make()))
    assert len(arrays) == count
    for a in arrays:
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            a.flags.writeable = True
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0


def _flag_setters(path: Path) -> list:
    """Where the module at ``path`` sets an array flag, as
    ``module.qualified.name``: a ``flags.writeable`` or ``flags[...]``
    assignment, or a ``setflags`` call."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}"
        store = isinstance(getattr(node, "ctx", None), ast.Store)
        if (isinstance(node, ast.Attribute)
                and (node.attr == "setflags"
                     or store and node.attr == "writeable")
                or isinstance(node, ast.Subscript) and store
                and getattr(node.value, "attr", None) == "flags"):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_arrays_are_frozen_only_by_linalg_frozen():
    """A value type stores an array one way, so no second way to freeze
    one can be weaker than ``linalg._frozen``."""
    package = Path(commuting.__file__).parent
    setters = [w for path in sorted(package.glob("*.py"))
               for w in _flag_setters(path)]
    assert setters == ["linalg._frozen"]


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
