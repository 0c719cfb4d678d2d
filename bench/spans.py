"""Per-layer tracing of opconvex from outside the library.

The tracer replaces public functions of ``opconvex`` (and the three LAPACK
drivers of ``numpy.linalg`` the library calls) with wrappers that record a
span per call: function name, layer group, start, end, parent span and op
id. A name imported with ``from .linalg import loewner_leq`` is a separate
binding in every importing module, so each target is replaced at every
module attribute that holds it; patching the defining module alone would
miss the calls.

Wrappers record only while an op is open (``begin_op``/``end_op``), so the
benchmark's own reference computations and replays outside ops are not
attributed to any layer. ``install``/``uninstall`` swap every binding in
and out, which lets the traced run interleave traced and untraced ops.

Self time of a span is its duration minus the durations of its direct
children; calls are synchronous and nested, so the children cover disjoint
parts of the parent's interval. Spans of the first ``KEEP_OPS`` traced ops
are kept in memory and written out by ``write_spans`` when the run ends;
the spans of later ops are folded into per-op totals and dropped, which
bounds memory.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Layer groups, keyed by defining module, then by attribute path inside it.
# Functions missing from this table are not wrapped: their time falls into
# the nearest traced caller. The op itself is the root span, group
# "unattributed": what is left of it is benchmark glue and untraced code.
LAYERS = {
    "opconvex.cli": {"main": "cli"},
    "opconvex.verify": {
        "run_campaign": "verify.campaign",
        "run_trial": "verify.trial",
        "run_single": "verify.trial",
        **{name: "verify.generate" for name in (
            "random_unitary", "random_density", "random_positive_matrix",
            "random_isometry_pair", "random_contraction_pair",
            "random_commuting_pair", "random_hermitian_in_domain",
            "random_probability_vector")},
        **{name: "verify.check" for name in (
            "check_jensen_isometry", "check_jensen_contractive",
            "check_perspective_joint_convexity",
            "check_extended_perspective_joint_convexity",
            "check_relative_entropy_joint_convexity", "check_lieb_concavity",
            "check_lieb_pq_concavity",
            "check_classical_perspective_convexity", "scalar_geq")},
    },
    "opconvex.linalg": {
        "HermitianMatrix.__init__": "linalg.hermitian_ctor",
        "spectral_decompose": "linalg.calculus",
        "apply_scalar_function": "linalg.calculus",
        "op_norm": "linalg.calculus",
        "hs_inner": "linalg.calculus",
        "loewner_leq": "linalg.loewner",
        "matrix_to_json": "linalg.json_encode",
        "matrix_from_json": "linalg.json_decode",
        "hermitian_from_json": "linalg.json_decode",
    },
    "opconvex.atoms": {
        "Interval.clamp": "atoms",
        "ScalarAtom.__call__": "atoms",
        "lookup_atom": "atoms",
        "eval_atom": "atoms",
    },
    "opconvex.commuting": {
        "realize_multiplication_pair": "commuting.realize",
        "apply_superop": "commuting.realize",
    },
    "opconvex.perspective": {name: "perspective" for name in (
        "perspective_eigen", "perspective_symmetrized",
        "perspective_agreement_defect", "check_path_agreement",
        "extended_perspective_eigen", "extended_perspective_symmetrized",
        "perspective_quadratic_form", "extended_perspective_quadratic_form")},
    "opconvex.functionals": {name: "functionals" for name in (
        "quantum_relative_entropy_direct",
        "quantum_relative_entropy_perspective", "lieb_functional",
        "lieb_pq_functional", "classical_perspective", "classical_entropy",
        "classical_relative_entropy")},
    "numpy.linalg": {name: "linalg.lapack" for name in (
        "eigh", "eigvalsh", "qr")},
}

# Count-only targets: no span, so their time stays with the caller. The
# CommutingPair constructor's O(N^3) unitarity check thereby lands in
# commuting.realize when realize_multiplication_pair builds the N = n^2
# pair, and in verify.generate when random_commuting_pair builds an n x n
# one.
COUNTED = {
    "opconvex.verify": ("trial_seed",),
    "opconvex.commuting": ("CommutingPair.__init__",),
}


def _shape(x) -> tuple:
    return getattr(x, "shape", None) or np.shape(x)


def _entries(args, kwargs) -> int:
    """Matrix entries encoded by one ``matrix_to_json`` call."""
    M = args[0] if args else kwargs["M"]
    M = getattr(M, "mat", M)
    return int(np.prod(_shape(M)))


def _n3(args, kwargs) -> int:
    """rows * cols * min(rows, cols) of a LAPACK operand: n^3 when square."""
    shape = _shape(args[0] if args else kwargs["a"])
    rows, cols = shape[-2], shape[-1]
    batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    return batch * rows * cols * min(rows, cols)


def _pair_dim(args, kwargs) -> int:
    """Basis dimension of a CommutingPair being constructed (args[0] is self)."""
    basis = args[1] if len(args) > 1 else kwargs["basis"]
    return int(_shape(basis)[0])


# Traced ops whose spans are kept and written out.
KEEP_OPS = 10

# Extra per-call tallies, by qualified function name: name of the tally and
# how to read its amount from the call's arguments.
MEASURES = {
    "linalg.matrix_to_json": ("json_entries", _entries),
    "linalg.eigh": ("lapack_n3", _n3),
    "linalg.eigvalsh": ("lapack_n3", _n3),
    "linalg.qr": ("lapack_n3", _n3),
}


def _resolve(owner, path: str):
    """(object holding the last attribute, attribute name, current value)."""
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _short(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


class Tracer:
    """Spans and counters for calls into opconvex, one op at a time."""

    def __init__(self):
        self._bindings = []  # (owner, attr, original, wrapper)
        self._op = None
        self._stack = []
        self._spans = []  # [name, group, start, end, parent, op, detail]
        self.kept = []  # span lists of the first KEEP_OPS traced ops
        self.ops = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.tallies = defaultdict(int)
        self.trial_s = defaultdict(float)
        self.trial_calls = defaultdict(int)
        self.max_pair_dim = 0
        self._discover()

    # -- binding discovery -------------------------------------------------

    def _discover(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "opconvex" or name.startswith("opconvex.")]
        mods.append(sys.modules["numpy.linalg"])
        for module_name, table in LAYERS.items():
            for path, group in table.items():
                self._bind_everywhere(module_name, path, mods,
                                      self._spanned(_short(module_name, path),
                                                    group))
        for module_name, paths in COUNTED.items():
            for path in paths:
                self._bind_everywhere(module_name, path, mods,
                                      self._counted(_short(module_name, path)))

    def _bind_everywhere(self, module_name, path, mods, make_wrapper) -> None:
        owner, attr, original = _resolve(sys.modules[module_name], path)
        wrapper = make_wrapper(original)
        if "." in path:  # a method: its class is its only binding
            self._bindings.append((owner, attr, original, wrapper))
            return
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, name, original, wrapper))

    def bindings(self):
        """(owner, attribute) of every replaced binding."""
        return [(owner, attr) for owner, attr, _, _ in self._bindings]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, group: str):
        measure = MEASURES.get(name)
        is_trial = name == "verify.run_trial"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._op is None:
                    return fn(*args, **kwargs)
                self.calls[name] += 1
                if measure is not None:
                    self.tallies[measure[0]] += measure[1](args, kwargs)
                detail = args[0] if is_trial else None
                idx = len(self._spans)
                parent = self._stack[-1]
                self._spans.append([name, group, time.perf_counter(), 0.0,
                                    parent, self._op, detail])
                self._stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._spans[idx][3] = time.perf_counter()
                    self._stack.pop()
            return wrapper
        return make

    def _counted(self, name: str):
        is_pair = name == "commuting.CommutingPair.__init__"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._op is not None:
                    self.calls[name] += 1
                    if is_pair:
                        self.max_pair_dim = max(self.max_pair_dim,
                                                _pair_dim(args, kwargs))
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._spans = [["op", "unattributed", time.perf_counter(), 0.0, -1,
                        op_id, None]]
        self._stack = [0]

    def end_op(self) -> None:
        """Close the op's root span and fold its spans into the totals."""
        spans = self._spans
        spans[0][3] = time.perf_counter()
        self._op = None
        child = [0.0] * len(spans)
        for name, group, start, end, parent, _, detail in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, group, start, end, _, _, detail), covered in zip(spans, child):
            self.self_s[group] += (end - start) - covered
            if detail is not None:
                self.trial_s[detail] += end - start
                self.trial_calls[detail] += 1
        self.ops += 1
        if self.ops <= KEEP_OPS:
            self.kept.append(spans)
        self._spans = []
        self._stack = []

    def write_spans(self, path) -> None:
        """Write the kept spans as JSON lines.

        Times are ``perf_counter`` seconds; ``index`` and ``parent`` number
        the spans within their op, and the root span has parent -1.
        """
        with open(path, "w") as fh:
            for spans in self.kept:
                for index, (name, group, start, end, parent, op,
                            detail) in enumerate(spans):
                    fh.write(json.dumps({
                        "op": op, "index": index, "parent": parent,
                        "name": name, "group": group, "start": start,
                        "end": end, "detail": detail}) + "\n")
