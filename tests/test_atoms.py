"""Scalar atom registry: values, flags, domains, clamping."""
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opconvex import DomainViolation, list_atoms, lookup_atom
from opconvex.atoms import _REGISTRY, ENDPOINT_TOL, Interval, eval_atom


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

    def test_xlogx_is_x_log_x_bitwise(self):
        x = np.array([0.0, 5e-324, 1e-300, 1.0, 2.0, np.inf])
        out = lookup_atom("xlogx")(x)
        assert out[0] == 0.0
        assert out[1:].tobytes() == (x[1:] * np.log(x[1:])).tobytes()

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

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_rejects_an_empty_interval(self, lo, hi):
        with pytest.raises(ValueError, match=re.escape(
                f"empty interval [{lo}, {hi}]")):
            Interval(lo, hi)

    @pytest.mark.parametrize("lo, hi, point", [
        (2.0, 3.0, 2.5), (2.0, np.inf, 3.0), (-np.inf, -1.0, -2.0)])
    def test_interior_point_away_from_one(self, lo, hi, point):
        # the stand-in for rejected values of a user-built atom whose
        # domain leaves out 1
        assert Interval(lo, hi).interior_point() == point

    def test_clamp_of_a_scalar_is_one_element_array(self):
        out = lookup_atom("xlogx").domain.clamp(np.float64(2.0))
        assert out.shape == (1,) and out[0] == 2.0

    @given(st.floats(1e-8, 1e8))
    def test_clamp_identity_inside_domain(self, x):
        f = lookup_atom("xlogx")
        assert float(f.domain.clamp(x)[0]) == x


def _mask_admit(iv, values, tol=ENDPOINT_TOL):
    """``Interval.admit``'s elementwise formula, without its interior test."""
    x = np.asarray(values, dtype=float)
    ok = x >= iv.lo - tol if iv.lo_closed else x > iv.lo
    ok &= x <= iv.hi + tol if iv.hi_closed else x < iv.hi
    if iv.lo_closed and math.isfinite(iv.lo):
        x = np.where(x < iv.lo, iv.lo, x)
    if iv.hi_closed and math.isfinite(iv.hi):
        x = np.where(x > iv.hi, iv.hi, x)
    return x, ~ok


# every registry domain, and finite ones with each kind of endpoint
_DOMAINS = [family.domain for family in _REGISTRY.values()] + [
    Interval(-1.0, 2.0), Interval(-1.0, 2.0, lo_closed=False, hi_closed=False),
    Interval(0.0, 1.0, lo_closed=False), Interval(0.0, 1.0, hi_closed=False)]


@st.composite
def _domain_and_values(draw):
    iv = draw(st.sampled_from(_DOMAINS))
    special = [iv.lo, iv.hi, np.nan, np.inf, -np.inf]
    special += [e + d for e in (iv.lo, iv.hi)
                for d in (-2 * ENDPOINT_TOL, -ENDPOINT_TOL / 2,
                          ENDPOINT_TOL / 2, 2 * ENDPOINT_TOL)]
    lo = iv.lo if math.isfinite(iv.lo) else -1e6
    hi = iv.hi if math.isfinite(iv.hi) else 1e6
    interior = st.floats(lo, hi, exclude_min=True, exclude_max=True)
    element = st.one_of(interior, interior, st.sampled_from(special))
    shape = draw(st.sampled_from([(), (0,), (1,), (5,), (3, 4), (2, 0)]))
    values = draw(st.lists(element, min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    return iv, np.array(values, dtype=float).reshape(shape)


class TestAdmit:
    @given(_domain_and_values())
    def test_matches_the_mask_formula(self, case):
        iv, x = case
        out, bad = iv.admit(x)
        ref_out, ref_bad = _mask_admit(iv, x)
        if bad is None:  # admit's report that every value is interior
            assert x.size and (iv.lo < x).all() and (x < iv.hi).all()
            assert out is x
            bad = np.zeros(x.shape, dtype=bool)
        assert np.shape(out) == np.shape(ref_out)
        assert np.asarray(out).tobytes() == np.asarray(ref_out).tobytes()
        assert np.shape(bad) == np.shape(ref_bad)
        assert np.array_equal(bad, ref_bad)

    @given(_domain_and_values())
    def test_clamp_returns_a_copy(self, case):
        iv, x = case
        try:
            out = iv.clamp(x)
        except DomainViolation:
            return
        assert not np.shares_memory(out, x)

    def test_interior_array_is_copied_by_clamp(self):
        x = np.array([0.5, 2.0, 3.0])
        out = lookup_atom("xlogx").domain.clamp(x)
        out[0] = 7.0
        assert x[0] == 0.5


class TestRegistry:
    def test_names_sorted_and_complete(self):
        assert [r["name"] for r in list_atoms()] == [
            "constant", "identity", "neg_log", "neg_power", "power", "quartic",
            "square", "xlogx"]

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
        assert [r["name"] for r in rows] == sorted(_REGISTRY)
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
