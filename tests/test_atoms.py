"""Scalar atom registry: values, flags, domains, clamping."""
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opconvex import DomainViolation, list_atoms, lookup_atom
from opconvex.atoms import ENDPOINT_TOL, atom_names, eval_atom


class TestValues:
    @pytest.mark.parametrize("name,param,x,expected", [
        ("xlogx", None, 2.0, 2.0 * math.log(2.0)),
        ("xlogx", None, 0.0, 0.0),
        ("xlogx", None, 1.0, 0.0),
        ("neg_power", 0.5, 4.0, -2.0),
        ("neg_power", 0.25, 16.0, -2.0),
        ("power", 0.5, 4.0, 2.0),
        ("power", 1.0, 7.0, 7.0),
        ("neg_log", None, 1.0, 0.0),
        ("neg_log", None, math.e, -1.0),
        ("square", None, -3.0, 9.0),
        ("identity", None, -2.5, -2.5),
        ("constant", 2.0, 123.0, 2.0),
        ("quartic", None, 2.0, 16.0),
        ("quartic", None, -2.0, 16.0),
    ])
    def test_pointwise(self, name, param, x, expected):
        assert eval_atom(lookup_atom(name, param), x) == pytest.approx(expected)

    def test_vectorized_call(self):
        f = lookup_atom("square")
        assert np.array_equal(f(np.array([1.0, -2.0, 3.0])), [1.0, 4.0, 9.0])


class TestFlags:
    @pytest.mark.parametrize("name,param,convex,concave,f0", [
        ("xlogx", None, True, False, True),
        ("neg_power", 0.5, True, False, True),
        ("power", 0.5, False, True, True),
        ("power", 1.0, True, True, True),
        ("neg_log", None, True, False, False),
        ("square", None, True, False, True),
        ("identity", None, True, True, True),
        ("constant", -1.0, True, True, True),
        ("constant", 1.0, True, True, False),
        ("quartic", None, False, False, True),
    ])
    def test_structure_flags(self, name, param, convex, concave, f0):
        a = lookup_atom(name, param)
        assert a.operator_convex is convex
        assert a.operator_concave is concave
        assert a.f0_nonpositive is f0

    def test_strictly_positive_required(self):
        assert lookup_atom("power", 0.5).strictly_positive_required
        assert lookup_atom("neg_log").strictly_positive_required
        assert not lookup_atom("xlogx").strictly_positive_required


class TestDomains:
    def test_closed_endpoint_clamps_noise(self):
        f = lookup_atom("xlogx")
        out = f.domain.clamp(np.array([-ENDPOINT_TOL / 2.0, 1.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_closed_endpoint_rejects_beyond_tol(self):
        f = lookup_atom("xlogx")
        with pytest.raises(DomainViolation, match="outside domain"):
            f.domain.clamp(-10.0 * ENDPOINT_TOL)

    def test_open_endpoint_is_strict(self):
        g = lookup_atom("neg_log")
        with pytest.raises(DomainViolation):
            g.domain.clamp(0.0)
        with pytest.raises(DomainViolation):
            g.domain.clamp(-1e-20)
        assert g.domain.clamp(1e-300) == pytest.approx(1e-300)

    def test_real_line_accepts_everything(self):
        f = lookup_atom("square")
        assert np.array_equal(f.domain.clamp(np.array([-1e6, 0.0, 1e6])),
                              [-1e6, 0.0, 1e6])

    @pytest.mark.parametrize("name,param", [
        ("xlogx", None), ("neg_power", 0.5), ("power", 0.5), ("neg_log", None),
        ("square", None), ("identity", None), ("constant", 1.0),
        ("quartic", None),
    ])
    def test_nan_is_outside_every_domain(self, name, param):
        f = lookup_atom(name, param)
        _, bad = f.domain.admit(np.array([1.0, np.nan]))
        assert bad.tolist() == [False, True]
        with pytest.raises(DomainViolation, match="nan"):
            eval_atom(f, float("nan"))

    @given(st.floats(1e-8, 1e8))
    def test_clamp_identity_inside_domain(self, x):
        f = lookup_atom("xlogx")
        assert float(f.domain.clamp(x)[0]) == x


class TestRegistry:
    def test_names_sorted_and_complete(self):
        assert atom_names() == ("constant", "identity", "neg_log", "neg_power",
                                "power", "quartic", "square", "xlogx")

    def test_unknown_atom_lists_known(self):
        with pytest.raises(ValueError, match="known atoms"):
            lookup_atom("cube")

    @pytest.mark.parametrize("name,param", [
        ("neg_power", None), ("neg_power", 0.0), ("neg_power", 1.0),
        ("power", 0.0), ("power", 1.5), ("constant", None), ("xlogx", 0.3),
        ("constant", float("nan")), ("constant", float("inf")),
    ])
    def test_parameter_validation(self, name, param):
        with pytest.raises(ValueError):
            lookup_atom(name, param)

    def test_labels(self):
        assert lookup_atom("xlogx").label == "xlogx"
        assert lookup_atom("neg_power", 0.5).label == "neg_power(0.5)"
        assert lookup_atom("power", 0.7).label == "power(0.7)"

    def test_listing_covers_registry(self):
        rows = list_atoms()
        assert [r["name"] for r in rows] == list(atom_names())
        assert all({"domain", "operator_convex", "f0_nonpositive"} <= set(r)
                   for r in rows)

    def test_out_of_range_error_quotes_the_listed_range(self):
        # one registry row states a family's range for both the listing and
        # the error, so the two cannot drift apart
        ranged = [r for r in list_atoms() if r["parameter"] is not None]
        assert {r["name"] for r in ranged} == {"constant", "neg_power",
                                               "power"}
        for row in ranged:
            text = re.escape(f"{row['name']} parameter must satisfy "
                             f"{row['parameter']}, got nan")
            with pytest.raises(ValueError, match=text):
                lookup_atom(row["name"], float("nan"))

    def test_atoms_are_frozen(self):
        f = lookup_atom("xlogx")
        with pytest.raises(AttributeError):
            f.name = "other"


class TestScalarConvexity:
    # midpoint convexity of the flagged-convex atoms on random scalars
    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    def test_positive_domain_atoms(self, x, y):
        for name, param in [("xlogx", None), ("neg_power", 0.5),
                            ("neg_log", None)]:
            f = lookup_atom(name, param)
            mid = eval_atom(f, (x + y) / 2.0)
            avg = (eval_atom(f, x) + eval_atom(f, y)) / 2.0
            assert mid <= avg + 1e-12 * (1.0 + abs(avg))

    @given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
    def test_real_line_atoms(self, x, y):
        for name in ("square", "quartic"):
            f = lookup_atom(name)
            mid = eval_atom(f, (x + y) / 2.0)
            avg = (eval_atom(f, x) + eval_atom(f, y)) / 2.0
            assert mid <= avg + 1e-9 * (1.0 + abs(avg))
