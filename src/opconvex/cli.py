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
from itertools import chain

import numpy as np

from .atoms import list_atoms
from .errors import DomainViolation, HypothesisViolation
from .functionals import (lieb_functional, lieb_pq_functional,
                          quantum_relative_entropy_direct)
from .linalg import hermitian_from_json, matrix_from_json, matrix_to_json
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
                    help="relative tolerance for each check (default: 1e-8)")
    pv.add_argument("--floor", type=float, default=1e-8,
                    help="least admissible eigenvalue for generated "
                         "positive matrices (default: 1e-8)")
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


def _dump(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    The stdlib encodes through pure Python whenever ``indent`` is set, one
    call per number; matrix ``entries`` dominate a report, so they are
    printed a row at a time by C-level ``map``/``join`` instead.
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
    """Print ``rows`` if it is a matrix's entries: a list of non-empty rows
    of ``[float, float]`` pairs, every number finite.

    Returns False, with ``out`` untouched, for anything else; the generic
    path then prints it (json spells NaN and infinities unlike ``repr``).
    """
    if (type(rows) is not list or type(rows[0]) is not list or not rows[0]
            or type(rows[0][0]) is not list):
        return False
    i1, i2, i3 = ("\n" + "  " * (level + d) for d in (1, 2, 3))
    num_sep = "," + i3
    pair_sep = i2 + "]," + i2 + "[" + i3
    row_sep = i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3
    start = len(out)
    sep = "[" + i1 + "[" + i2 + "[" + i3
    for row in rows:
        text = _pair_row(row, num_sep, pair_sep)
        if text is None:
            del out[start:]
            return False
        out.append(sep)
        out.append(text)
        sep = row_sep
    out.append(i2 + "]" + i1 + "]\n" + "  " * level + "]")
    return True


def _pair_row(row, num_sep: str, pair_sep: str) -> str | None:
    """The numbers of one row of finite ``[float, float]`` pairs, joined by
    the separators, or None if the row is anything else."""
    if (type(row) is not list or not row or set(map(type, row)) != {list}
            or set(map(len, row)) != {2}):
        return None
    nums = map(float.__repr__, chain.from_iterable(row))
    try:
        text = pair_sep.join(map(num_sep.join, zip(nums, nums)))
    except TypeError:  # a value that is not a float
        return None
    return None if "n" in text else text  # "n" spells nan, inf, -inf


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
    elif args.functional == "lieb-s":
        if args.s is None:
            raise ValueError("--s is required for lieb-s")
        A = _load_hermitian("a", args.a)
        B = _load_hermitian("b", args.b)
        if args.k is None:
            raise ValueError("--k is required for lieb-s")
        with open(args.k) as fh:
            K = matrix_from_json(json.load(fh))
        value = lieb_functional(A, B, K, args.s)
        inputs = {"a": A.mat, "b": B.mat, "k": K, "s": args.s}
    else:
        if args.p is None or args.q is None:
            raise ValueError("--p and --q are required for lieb-pq")
        A = _load_hermitian("a", args.a)
        B = _load_hermitian("b", args.b)
        if args.k is None:
            raise ValueError("--k is required for lieb-pq")
        with open(args.k) as fh:
            X = matrix_from_json(json.load(fh))
        value = lieb_pq_functional(A, B, X, args.p, args.q)
        inputs = {"a": A.mat, "b": B.mat, "k": X, "p": args.p, "q": args.q}

    if args.out or args.json:  # the plain-text output echoes no inputs
        inputs = {name: matrix_to_json(x) if isinstance(x, np.ndarray) else x
                  for name, x in inputs.items()}
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
