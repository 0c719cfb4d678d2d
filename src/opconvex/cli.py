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
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite

import numpy as np

from .atoms import list_atoms
from .errors import DomainViolation, HypothesisViolation
from .functionals import (lieb_functional, lieb_pq_functional,
                          quantum_relative_entropy_direct)
from .linalg import hermitian_from_json, matrix_from_json, matrix_wire
from .verify import THEOREM_TAGS, TrialConfig, run_campaign


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
    pv.add_argument("--atom", default="xlogx",
                    help="scalar atom for the Jensen/perspective/classical "
                         "tags (default: xlogx)")
    pv.add_argument("--s", type=float, default=0.5,
                    help="exponent: neg_power parameter and the lieb-s "
                         "exponent (default: 0.5)")
    pv.add_argument("--t", type=float, default=0.5,
                    help="exponent: power parameter and the marechal base "
                         "exponent (default: 0.5)")
    pv.add_argument("--p", type=float, default=0.3,
                    help="lieb-pq exponent p (default: 0.3)")
    pv.add_argument("--q", type=float, default=0.4,
                    help="lieb-pq exponent q (default: 0.4)")
    pv.add_argument("--dim", type=int, default=3,
                    help="matrix dimension n (default: 3)")
    pv.add_argument("--dim-m", type=int, default=3, dest="dim_m",
                    help="compression target dimension m for the Jensen "
                         "tags (default: 3)")
    pv.add_argument("--trials", type=int, default=200,
                    help="trials per theorem (default: 200)")
    pv.add_argument("--seed", type=int, default=0,
                    help="campaign seed, 64-bit unsigned (default: 0)")
    pv.add_argument("--tol", type=float, default=1e-8,
                    help="relative tolerance for each check, in (0, 1) "
                         "(default: 1e-8)")
    pv.add_argument("--floor", type=float, default=1e-8,
                    help="least admissible eigenvalue for generated "
                         "positive matrices; perspective and marechal draw "
                         "pair spectra from [max(0.1, floor), 10], so a "
                         "floor below 0.1 moves none of their draws "
                         "(default: 1e-8)")
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


def _atom_parameter(args) -> float | None:
    if args.atom == "neg_power":
        return args.s
    if args.atom == "power":
        return args.t
    return None


# Square entries arrays at least this wide reuse mirrored strings
# (``_mirrored_strs``). Its numpy calls cost what the reuse saves on 9 x 9
# arrays; on 3 x 3 ones it prints ~2x slower.
MIRROR_MIN_DIM = 10


def _dump(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    A 2-D ndarray anywhere in ``payload`` prints as ``matrix_to_json``
    makes it, and so does a ``matrix_wire`` dict (verify's witnesses,
    eval's inputs), a wide square one without building nested lists.

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
        elif not (x.size and x.shape[2] == 2 and _emit_block(
                x if len(x) == x.shape[1] >= MIRROR_MIN_DIM
                and x.dtype == np.float64 else x.tolist(), level, out)):
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


def _emit_block(entries, level: int, out: list) -> bool:
    """Print a matrix's entries block: nested ``[re, im]`` lists, or a
    square array of shape (n, n, 2), printed through ``_mirrored_strs``.

    Returns False, with ``out`` untouched, if a number is not a finite
    float (json spells NaN and infinities unlike ``repr``).
    """
    i1 = "\n" + "  " * (level + 1)  # the indents one, two and three deeper
    i2 = i1 + "  "
    i3 = i2 + "  "
    num_sep = "," + i3
    pair_sep = i2 + "]," + i2 + "[" + i3
    row_sep = i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3
    sep = "[" + i1 + "[" + i2 + "[" + i3
    start = len(out)
    try:
        row_strs = (_mirrored_strs(entries) if type(entries) is np.ndarray
                    else map(map, repeat(float.__repr__),
                             map(chain.from_iterable, entries)))
        for strs in map(iter, row_strs):
            text = pair_sep.join(map(num_sep.join, zip(strs, strs)))
            if "n" in text:  # "n" spells nan, inf, -inf
                break
            out += (sep, text)
            sep = row_sep
        else:
            out.append(i2 + "]" + i1 + "]\n" + "  " * level + "]")
            return True
    except TypeError:  # a number that is not a float
        pass
    del out[start:]
    return False


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
    cfg = TrialConfig(dim_n=args.dim, dim_m=args.dim_m, trials=args.trials,
                      seed=args.seed, tol=args.tol, floor=args.floor,
                      atom=args.atom, atom_parameter=_atom_parameter(args),
                      s=args.s, t=args.t, p=args.p, q=args.q)
    tags = THEOREM_TAGS if args.theorem == "all" else (args.theorem,)
    reports = run_campaign(cfg, tags)

    payload = ([r.to_json() for r in reports] if len(reports) > 1
               else reports[0].to_json())
    text = _render(args, payload)
    total_failures = sum(r.failures for r in reports)
    if args.negative_control:
        r = reports[0]
        if args.json:
            sys.stdout.write(text)
        elif total_failures > 0:
            w = r.witness
            print(f"negative control {r.theorem}: violation found in "
                  f"{r.trials} trials, slack={r.worst_slack:.6e} at "
                  f"trial_index={w['trial_index']} redraw={w['redraw']}")
        else:
            print(f"negative control {r.theorem}: no violation found in "
                  f"{r.trials} trials (worst_slack={r.worst_slack:.6e})")
        return 0 if total_failures > 0 else 1

    if args.json:
        sys.stdout.write(text)
    else:
        for r in reports:
            status = "PASS" if r.failures == 0 else "FAIL"
            print(f"{status} {r.theorem}: trials={r.trials} "
                  f"failures={r.failures} worst_slack={r.worst_slack:.6e} "
                  f"tol={r.tolerance:g}")
    return 0 if total_failures == 0 else 1


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
