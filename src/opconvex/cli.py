"""Command-line front end.

Three subcommands: ``verify`` runs seeded inequality campaigns and writes
JSON reports, ``eval`` evaluates trace functionals on matrices supplied
as JSON files, ``atoms`` lists the scalar function registry.

Exit codes are a contract scripts may rely on: 0 for success (all checks
passed; in negative-control mode, a violation was found), 1 for a failed
check (or a negative control that found nothing), 2 for usage or input
errors. Report content is fully determined by the flags; no timestamps
or environment state leak in.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import isfinite

import numpy as np

from .atoms import list_atoms
from .errors import DomainViolation, HypothesisViolation
from .functionals import (lieb_functional, lieb_pq_functional,
                          quantum_relative_entropy_direct)
from .linalg import hermitian_from_json, matrix_from_json, matrix_wire
from .verify import (SPECTRUM_HI, SPECTRUM_LO, THEOREM_TAGS, TrialConfig,
                     run_campaign)


# verify's campaign options as (flag, TrialConfig field, help); each takes
# its type and default from TrialConfig().
_CAMPAIGN_OPTIONS = (
    ("--atom", "atom",
     "scalar atom for the Jensen/perspective/classical tags"),
    ("--s", "s", "exponent: neg_power parameter and the lieb-s exponent"),
    ("--t", "t", "exponent: power parameter and the marechal base exponent"),
    ("--p", "p", "lieb-pq exponent p"),
    ("--q", "q", "lieb-pq exponent q"),
    ("--dim", "dim_n", "matrix dimension n"),
    ("--dim-m", "dim_m",
     "compression target dimension m for the Jensen tags"),
    ("--trials", "trials", "trials per theorem"),
    ("--seed", "seed", "campaign seed, 64-bit unsigned"),
    ("--tol", "tol", "relative tolerance for each check, in (0, 1)"),
    ("--floor", "floor",
     f"least admissible eigenvalue for generated positive matrices; "
     f"perspective and marechal draw pair spectra from "
     f"[max({SPECTRUM_LO:g}, floor), {SPECTRUM_HI:g}], so a floor below "
     f"{SPECTRUM_LO:g} moves none of their draws"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opconvex",
        description="Matrix perspectives: evaluate trace functionals and "
                    "verify the inequalities behind them.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pv = sub.add_parser("verify", help="run a seeded verification campaign")
    pv.add_argument("--theorem", required=True,
                    choices=THEOREM_TAGS + ("all",),
                    help="theorem tag to check, or 'all'")
    defaults = TrialConfig()
    for flag, name, text in _CAMPAIGN_OPTIONS:
        default = getattr(defaults, name)
        pv.add_argument(flag, dest=name, type=type(default), default=default,
                        metavar=flag[2:].upper().replace("-", "_"),
                        help=text + " (default: %(default)s)")
    pv.add_argument("--negative-control", action="store_true",
                    help="invert the verdict: succeed iff a violation is "
                         "found (only with --theorem hp)")
    pv.add_argument("--out", help="write the JSON report to this path")
    pv.add_argument("--json", action="store_true",
                    help="print the JSON report to stdout")

    pe = sub.add_parser("eval", help="evaluate a functional on matrix files")
    pe.add_argument("--functional", required=True,
                    choices=("rel-entropy", "lieb-s", "lieb-pq"))
    pe.add_argument("--rho", help="state matrix file (rel-entropy)")
    pe.add_argument("--sigma", help="reference matrix file (rel-entropy)")
    pe.add_argument("--a", help="first positive matrix file (lieb-s/lieb-pq)")
    pe.add_argument("--b", help="second positive matrix file (lieb-s/lieb-pq)")
    pe.add_argument("--k", help="conjugating matrix file (lieb-s/lieb-pq)")
    pe.add_argument("--s", type=float, help="lieb-s exponent")
    pe.add_argument("--p", type=float, help="lieb-pq exponent p")
    pe.add_argument("--q", type=float, help="lieb-pq exponent q")
    pe.add_argument("--out", help="write the JSON result to this path")
    pe.add_argument("--json", action="store_true",
                    help="emit {functional, value, inputs} as JSON")

    pa = sub.add_parser("atoms", help="list registered scalar atoms")
    pa.add_argument("--json", action="store_true",
                    help="emit the registry as JSON")
    return parser


# Square entries arrays at least this wide reuse mirrored strings
# (``_mirrored_strs``). Its numpy calls cost what the reuse saves on 9 x 9
# arrays; on 3 x 3 ones it prints ~2x slower.
MIRROR_MIN_DIM = 10


def _dump(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    A 2-D ndarray anywhere in ``payload`` prints as ``matrix_to_json``
    makes it, and so does a ``matrix_wire`` dict (verify's witnesses,
    eval's inputs). A float64 entries array goes to ``_emit_block``; an
    entries array of another dtype, or one holding a NaN or an infinity,
    prints through its ``tolist()`` like any other value.

    The stdlib encodes through pure Python whenever ``indent`` is set, one
    call per number; matrix ``entries`` dominate a report, so they are
    printed a row at a time by C-level ``map``/``join`` instead, and in a
    Hermitian block the numbers below the diagonal reuse the strings of
    their mirrors above it.
    """
    out = []
    _emit(payload, 0, out)
    out.append("\n")
    return "".join(out)


def _scalar(x) -> str:
    """``json.dumps(x)``, without its set-up for a str, int or finite float."""
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int or (kind is float and isfinite(x)):
        return kind.__repr__(x)
    return json.dumps(x)


def _emit(x, level: int, out: list) -> None:
    if isinstance(x, dict):
        # int, float, bool and None keys are spelled the way json does
        items = [(_scalar(k if isinstance(k, str) else json.dumps(k))
                  + ": ", v) for k, v in sorted(x.items())]
        brackets = "{}"
    elif isinstance(x, (list, tuple)):
        items = [("", v) for v in x]
        brackets = "[]"
    elif type(x) is np.ndarray and x.ndim in (2, 3):
        if x.ndim == 2:  # a matrix
            _emit(matrix_wire(x), level, out)
        elif not (x.size and x.shape[2] == 2 and x.dtype == np.float64
                  and _emit_block(x, level, out)):
            _emit(x.tolist(), level, out)  # not entries of finite floats
        return
    else:
        out.append(_scalar(x))
        return
    if not items:
        out.append(brackets)
        return
    inner = "\n" + "  " * (level + 1)
    sep = brackets[0] + inner
    for prefix, value in items:
        out.append(sep + prefix)
        _emit(value, level + 1, out)
        sep = "," + inner
    out.append("\n" + "  " * level + brackets[1])


def _emit_block(E, level: int, out: list) -> bool:
    """Print a matrix's entries block, a float64 array of shape (rows,
    cols, 2): a wide square one through ``_mirrored_strs``, any other one
    from its rows as lists of floats.

    Returns False, with ``out`` untouched, if a number is not finite (json
    spells NaN and infinities unlike ``repr``).
    """
    i1 = "\n" + "  " * (level + 1)  # the indents one, two and three deeper
    i2 = i1 + "  "
    i3 = i2 + "  "
    num_sep = "," + i3
    pair_sep = i2 + "]," + i2 + "[" + i3
    row_sep = i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3
    sep = "[" + i1 + "[" + i2 + "[" + i3
    start = len(out)
    row_strs = (_mirrored_strs(E) if len(E) == E.shape[1] >= MIRROR_MIN_DIM
                else map(map, repeat(float.__repr__),
                         E.reshape(len(E), -1).tolist()))
    for strs in map(iter, row_strs):
        text = pair_sep.join(map(num_sep.join, zip(strs, strs)))
        if "n" in text:  # "n" spells nan, inf, -inf
            del out[start:]
            return False
        out += (sep, text)
        sep = row_sep
    out.append(i2 + "]" + i1 + "]\n" + "  " * level + "]")
    return True


def _mirrored_strs(E) -> list:
    """Each row's ``float.__repr__`` strings, re before im, of the square
    block ``E`` of shape (n, n, 2).

    A number below the diagonal reuses the string of its mirror above it:
    an equal real part as it is, a negated imaginary part with a leading
    "-" added or removed (``repr(-x) == "-" + repr(x)`` for finite x). So
    a Hermitian block formats about half of its numbers. Zeros never
    reuse: 0.0 == -0.0, but their strings differ.
    """
    n = len(E)
    re, im = E[..., 0], E[..., 1]
    below = np.tri(n, k=-1, dtype=bool)
    reuse = np.stack((below & (re == re.T) & (re != 0),
                      below & (im == -im.T) & (im != 0)), axis=-1)
    S = np.empty(E.shape, object)
    fresh = ~reuse
    S[fresh] = list(map(float.__repr__, E[fresh].tolist()))
    mirror = S.transpose(1, 0, 2)  # mirror[i, j] is S[j, i]
    S[reuse[..., 0], 0] = mirror[reuse[..., 0], 0]
    flipped = mirror[reuse[..., 1], 1].tolist()
    if flipped:
        # one "-" before each string, then "--" cancels; a repr holds no ","
        S[reuse[..., 1], 1] = (
            "-" + ",-".join(flipped)).replace("--", "").split(",")
    return S.reshape(n, 2 * n).tolist()


def _render(args, payload) -> str | None:
    """Render ``payload`` once if ``--out`` or ``--json`` asks for it, and
    write it to the ``--out`` file."""
    if not (args.out or args.json):
        return None
    text = _dump(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return text


def _cmd_verify(args) -> int:
    if args.negative_control and args.theorem != "hp":
        print("error: --negative-control applies only to --theorem hp",
              file=sys.stderr)
        return 2
    # the parameterized atoms take theirs from the exponent flags
    cfg = TrialConfig(
        **{name: getattr(args, name) for _, name, _ in _CAMPAIGN_OPTIONS},
        atom_parameter={"neg_power": args.s, "power": args.t}.get(args.atom))
    tags = THEOREM_TAGS if args.theorem == "all" else (args.theorem,)
    reports = run_campaign(cfg, tags)

    text = _render(args, [r.to_json() for r in reports] if len(reports) > 1
                   else reports[0].to_json())
    failed = any(r.failures for r in reports)
    r = reports[0]
    if args.json:
        sys.stdout.write(text)
    elif args.negative_control and failed:
        print(f"negative control {r.theorem}: violation found in "
              f"{r.trials} trials, slack={r.worst_slack:.6e} at "
              f"trial_index={r.witness['trial_index']} "
              f"redraw={r.witness['redraw']}")
    elif args.negative_control:
        print(f"negative control {r.theorem}: no violation found in "
              f"{r.trials} trials (worst_slack={r.worst_slack:.6e})")
    else:
        for r in reports:
            status = "FAIL" if r.failures else "PASS"
            print(f"{status} {r.theorem}: trials={r.trials} "
                  f"failures={r.failures} worst_slack={r.worst_slack:.6e} "
                  f"tol={r.tolerance:g}")
    return int(failed != args.negative_control)


def _load_hermitian(flag: str, path: str | None):
    if path is None:
        raise ValueError(f"--{flag} is required for this functional")
    with open(path) as fh:
        doc = json.load(fh)
    return hermitian_from_json(doc)


def _cmd_eval(args) -> int:
    if args.functional == "rel-entropy":
        rho = _load_hermitian("rho", args.rho)
        sigma = _load_hermitian("sigma", args.sigma)
        value = quantum_relative_entropy_direct(rho, sigma)
        inputs = {"rho": rho.mat, "sigma": sigma.mat}
    else:
        lieb_s = args.functional == "lieb-s"
        exponents = {"s": args.s} if lieb_s else {"p": args.p, "q": args.q}
        if None in exponents.values():
            raise ValueError(f"{'--s is' if lieb_s else '--p and --q are'} "
                             f"required for {args.functional}")
        A = _load_hermitian("a", args.a)
        B = _load_hermitian("b", args.b)
        if args.k is None:
            raise ValueError(f"--k is required for {args.functional}")
        with open(args.k) as fh:
            K = matrix_from_json(json.load(fh))
        functional = lieb_functional if lieb_s else lieb_pq_functional
        value = functional(A, B, K, *exponents.values())
        inputs = {"a": A.mat, "b": B.mat, "k": K, **exponents}

    text = _render(args, {"functional": args.functional, "value": value,
                             "inputs": inputs})
    if args.json:
        sys.stdout.write(text)
    else:
        print(f"{value:.17g}")
    return 0


def _cmd_atoms(args) -> int:
    rows = list_atoms()
    if args.json:
        sys.stdout.write(_dump(rows))
        return 0
    for row in rows:
        flags = [name for name in ("operator_convex", "operator_concave",
                                   "f0_nonpositive") if row[name]]
        param = f" parameter: {row['parameter']}" if row["parameter"] else ""
        print(f"{row['name']:10s} domain {row['domain']:18s} "
              f"{', '.join(flags) or 'no structure flags'}{param}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "verify":
            return _cmd_verify(args)
        if args.subcommand == "eval":
            return _cmd_eval(args)
        return _cmd_atoms(args)
    except (HypothesisViolation, DomainViolation, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
