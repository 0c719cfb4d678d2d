"""Registry of scalar functions with operator-convexity metadata.

Every matrix inequality in this package is driven by a small catalogue of
scalar functions ("atoms"): the operator convex functions whose perspectives
are jointly convex, the operator concave re-weightings used by the extended
perspective, and one deliberately non-matrix-convex control. Each atom
carries its domain and the flags the checkers gate on, so a caller can never
accidentally run a convexity theorem with a function that does not satisfy
its hypotheses.

All atoms use the natural logarithm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainViolation

# Width of the clamp window at closed interval endpoints. Floating-point
# eigenvalues of a PSD matrix can land at -1e-16; values within this
# tolerance of a closed endpoint are clamped onto it instead of rejected.
ENDPOINT_TOL = 1e-10


@dataclass(frozen=True)
class Interval:
    """A real interval with independently open or closed endpoints."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def admit(self, values, tol: float = ENDPOINT_TOL):
        """Elementwise domain check for arrays of any shape.

        Returns ``(clamped, bad)``: the values with endpoint noise (within
        ``tol`` of a closed endpoint) moved onto the endpoint, and the mask
        of values beyond that, at/past an open endpoint, or NaN.
        """
        x = np.asarray(values, dtype=float)
        ok = x >= self.lo - tol if self.lo_closed else x > self.lo
        ok &= x <= self.hi + tol if self.hi_closed else x < self.hi
        bad = ~ok
        if self.lo_closed and np.isfinite(self.lo):
            x = np.where(x < self.lo, self.lo, x)
        if self.hi_closed and np.isfinite(self.hi):
            x = np.where(x > self.hi, self.hi, x)
        return x, bad

    def clamp(self, values, tol: float = ENDPOINT_TOL) -> np.ndarray:
        """Validate ``values`` against the interval and clamp endpoint noise.

        Values within ``tol`` of a closed endpoint are moved onto it; values
        beyond that, at/past an open endpoint, or NaN raise
        ``DomainViolation`` naming the offending value.
        """
        x = np.atleast_1d(np.asarray(values, dtype=float))
        out, bad = self.admit(x, tol)
        if np.any(bad):
            raise self.violation(x[bad][0])
        return x.copy() if out is x else out

    def violation(self, value) -> DomainViolation:
        return DomainViolation(
            f"value {float(value)!r} outside domain {self.describe()}")

    def interior_point(self) -> float:
        """A point inside the interval, to stand in for rejected values."""
        if self.lo < 1.0 < self.hi:
            return 1.0
        if np.isfinite(self.lo) and np.isfinite(self.hi):
            return (self.lo + self.hi) / 2.0
        return self.lo + 1.0 if np.isfinite(self.lo) else self.hi - 1.0

    def describe(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        lo = "-inf" if self.lo == -np.inf else f"{self.lo:g}"
        hi = "inf" if self.hi == np.inf else f"{self.hi:g}"
        return f"{left}{lo}, {hi}{right}"


@dataclass(frozen=True)
class ScalarAtom:
    """A scalar function together with the metadata the theorems consume.

    Attributes
    ----------
    name : str
        Family name as registered (``"xlogx"``, ``"neg_power"``, ...).
    parameter : float or None
        Family parameter, ``None`` for parameterless atoms.
    domain : Interval
        Where the function is defined; functional calculus validates every
        eigenvalue against it.
    operator_convex, operator_concave : bool
        Matrix convexity flags. Both are set only for affine atoms.
    f0_nonpositive : bool
        Whether f(0) <= 0, by continuous extension where 0 is not interior.
        Required by the contractive Jensen inequality and the extended
        perspective.
    """

    name: str
    parameter: float | None
    domain: Interval
    operator_convex: bool
    operator_concave: bool
    f0_nonpositive: bool
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def __call__(self, x):
        """Evaluate without domain checks (callers clamp first)."""
        return self.fn(np.asarray(x, dtype=float))

    @property
    def strictly_positive_required(self) -> bool:
        """True when the domain excludes 0 from the left (open at 0)."""
        return self.domain.lo == 0.0 and not self.domain.lo_closed

    @property
    def label(self) -> str:
        if self.parameter is None:
            return self.name
        return f"{self.name}({self.parameter:g})"


def eval_atom(f: ScalarAtom, x: float) -> float:
    """Evaluate ``f`` at a scalar point with domain validation."""
    clamped = f.domain.clamp(x)
    return float(f(clamped)[0])


def _xlogx(x):
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


_REAL_LINE = Interval(-np.inf, np.inf, lo_closed=False, hi_closed=False)
_HALF_OPEN = Interval(0.0, np.inf, lo_closed=True, hi_closed=False)
_POSITIVE = Interval(0.0, np.inf, lo_closed=False, hi_closed=False)


class _Family(NamedTuple):
    """A registered atom family. ``make`` maps the parameter to the atom's
    flags and function, ``(operator_convex, operator_concave,
    f0_nonpositive, fn)``. ``rule`` is ``None`` for a parameterless family,
    else the parameter range as listings show it and its test; ``sample``
    is the parameter a listing builds the family with."""

    domain: Interval
    make: Callable
    rule: tuple | None = None
    sample: float | None = None


_REGISTRY = {
    "xlogx": _Family(_HALF_OPEN, lambda _: (True, False, True, _xlogx)),
    "neg_power": _Family(
        _HALF_OPEN, lambda s: (True, False, True, lambda x: -np.power(x, s)),
        ("0 < s < 1", lambda s: 0.0 < s < 1.0), 0.5),
    # t = 1 is affine (the identity on the positive axis), hence also convex.
    "power": _Family(
        _POSITIVE, lambda t: (t == 1.0, True, True, lambda x: np.power(x, t)),
        ("0 < t <= 1", lambda t: 0.0 < t <= 1.0), 0.5),
    "neg_log": _Family(_POSITIVE,
                       lambda _: (True, False, False, lambda x: -np.log(x))),
    "square": _Family(_REAL_LINE, lambda _: (True, False, True, lambda x: x * x)),
    "identity": _Family(_REAL_LINE, lambda _: (True, True, True, lambda x: x)),
    "constant": _Family(
        _REAL_LINE,
        lambda c: (True, True, c <= 0.0, lambda x: np.full_like(x, c)),
        ("any real c", math.isfinite), 1.0),
    # Classically convex but not matrix convex: the negative control that
    # proves the harness can actually fail.
    "quartic": _Family(_REAL_LINE,
                       lambda _: (False, False, True, lambda x: x ** 4)),
}


def lookup_atom(name: str, parameter: float | None = None) -> ScalarAtom:
    """Build the registered atom ``name``, validating its parameter."""
    try:
        family = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown atom {name!r}; known atoms: {known}") from None
    if family.rule is None:
        if parameter is not None:
            raise ValueError(
                f"atom {name!r} takes no parameter, got {parameter}")
    elif parameter is None:
        raise ValueError(f"atom {name!r} requires a parameter")
    else:
        parameter = float(parameter)
        text, admits = family.rule
        if not admits(parameter):
            raise ValueError(
                f"{name} parameter must satisfy {text}, got {parameter}")
    *flags, fn = family.make(parameter)
    return ScalarAtom(name, parameter, family.domain, *flags, fn=fn)


def atom_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def list_atoms() -> list[dict]:
    """Metadata rows for every registered family (sample parameters where needed)."""
    rows = []
    for name in atom_names():
        family = _REGISTRY[name]
        atom = lookup_atom(name, family.sample)
        rows.append({
            "name": name,
            "parameter": family.rule[0] if family.rule else None,
            "domain": atom.domain.describe(),
            "operator_convex": atom.operator_convex,
            "operator_concave": atom.operator_concave,
            "f0_nonpositive": atom.f0_nonpositive,
            "strictly_positive_required": atom.strictly_positive_required,
        })
    return rows
