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
from operator import neg

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


# Square blocks at least this wide reuse mirrored strings
# (``_mirrored_reprs``). Its per-row bookkeeping costs about what it saves
# on 10 x 10 blocks; on 3 x 3 ones it would print ~40% slower.
MIRROR_MIN_DIM = 12


def _dump(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    A 2-D ndarray anywhere in ``payload`` is printed as the matrix JSON
    ``matrix_to_json`` makes of it, without building its nested lists.

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


def _emit(x, level: int, out: list) -> None:
    if isinstance(x, dict):
        # int, float, bool and None keys are spelled the way json does
        items = [(json.dumps(k if isinstance(k, str) else json.dumps(k))
                  + ": ", v) for k, v in sorted(x.items())]
        brackets = "{}"
    elif isinstance(x, (list, tuple)):
        if x and _emit_pair_block(x, level, out):
            return
        items = [("", v) for v in x]
        brackets = "[]"
    elif type(x) is np.ndarray and x.ndim in (2, 3):
        if x.ndim == 2:  # a matrix
            _emit(matrix_wire(x), level, out)
            return
        rows, cols = x.shape[:2]  # a matrix's entries, from matrix_wire
        if not _emit_block(map(np.ndarray.tolist, x.reshape(rows, 2 * cols)),
                           rows, cols, level, out):
            _emit(x.tolist(), level, out)
        return
    else:
        out.append(json.dumps(x))
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


def _emit_pair_block(rows, level: int, out: list) -> bool:
    """Print ``rows`` if it is a matrix's entries: a list of equally long,
    non-empty rows of ``[float, float]`` pairs.

    Returns False, with ``out`` untouched, for anything else; the generic
    path then prints it.
    """
    if (type(rows) is not list or type(rows[0]) is not list or not rows[0]
            or type(rows[0][0]) is not list):
        return False
    cols = len(rows[0])
    if (set(map(type, rows)) != {list} or set(map(len, rows)) != {cols}
            or set(map(type, chain.from_iterable(rows))) != {list}
            or set(map(len, chain.from_iterable(rows))) != {2}):
        return False
    return _emit_block(map(chain.from_iterable, rows), len(rows), cols,
                       level, out)


def _emit_block(numbers, rows: int, cols: int, level: int,
                out: list) -> bool:
    """Print a matrix's entries block of ``rows`` x ``cols`` entries;
    ``numbers`` yields each row's numbers (floats, ``re`` before ``im``).

    Returns False, with ``out`` untouched, if a number is not a finite
    float (json spells NaN and infinities unlike ``repr``) or the block is
    empty.
    """
    if not rows or not cols:
        return False
    i1 = "\n" + "  " * (level + 1)  # the indents one, two and three deeper
    i2 = i1 + "  "
    i3 = i2 + "  "
    num_sep = "," + i3
    pair_sep = i2 + "]," + i2 + "[" + i3
    row_sep = i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3
    sep = "[" + i1 + "[" + i2 + "[" + i3
    start = len(out)
    if rows == cols >= MIRROR_MIN_DIM:
        row_strs = _mirrored_reprs(numbers)
    else:
        row_strs = map(map, repeat(float.__repr__), numbers)
    try:
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


def _mirrored_reprs(numbers):
    """For each row of a square block's numbers that ``numbers`` yields,
    the list of their ``float.__repr__`` strings.

    The entries of row i left of the diagonal reuse the strings of column
    i above it when they mirror it: the same real parts, negated imaginary
    parts (reused with a leading "-" added or removed, as
    ``repr(-x) == "-" + repr(x)`` for every finite x). A Hermitian block
    mirrors everywhere, so about half of its numbers are not formatted. A
    zero among them stops the reuse for that row: 0.0 == -0.0, but their
    strings differ.
    """
    # per row before: its numbers and their strings right of the diagonal
    # not reached yet, reversed, so that popping twice gives the next
    # column's re and im
    above, above_strs = [], []
    for i, row in enumerate(numbers):
        row = list(row)
        if i and set(map(type, row[:2 * i])) != {float}:
            # these are compared by value below: 1 == 1.0, but json
            # prints them differently
            raise TypeError("matrix entries must be floats")
        re, im = row[0::2], row[1::2]
        col_re = list(map(list.pop, above))
        col_im = list(map(list.pop, above))
        re_strs = list(map(list.pop, above_strs))
        im_strs = list(map(list.pop, above_strs))
        if re[:i] != col_re or 0.0 in col_re:
            re_strs = list(map(float.__repr__, re[:i]))
        if im[:i] != list(map(neg, col_im)) or 0.0 in col_im:
            im_strs = list(map(float.__repr__, im[:i]))
        elif i:
            # one "-" before each string, then "--" cancels; a repr holds
            # no ","
            im_strs = ("-" + ",-".join(im_strs)).replace("--", "").split(",")
        re_strs += map(float.__repr__, re[i:])
        im_strs += map(float.__repr__, im[i:])
        above.append(row[:2 * i + 1:-1])
        row[0::2], row[1::2] = re_strs, im_strs
        above_strs.append(row[:2 * i + 1:-1])
        yield row


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
