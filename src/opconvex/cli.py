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
import re
import sys
from io import BytesIO, TextIOWrapper
from itertools import islice

import numpy as np
import orjson

from .atoms import list_atoms
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


# ``_dump``'s stand-in for an entries block, and its spelling in JSON text
_BLOCK = "\0entries"
_BLOCK_JSON = json.dumps(_BLOCK)


def _dump(payload, splice: bool = True) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, where a 2-D ndarray prints as ``matrix_to_json`` makes it.

    The indented stdlib encoder spends a Python call per number, and
    matrix ``entries`` dominate a report. So ``leaf`` swaps each finite
    float64 entries array for the string ``_BLOCK``, and ``_emit_block``
    prints the block where that string's JSON lands in the text, its
    numbers spelled by one ``_reprs`` call. Other 3-D arrays print as
    lists, and so do all blocks if a payload string spells ``_BLOCK`` too;
    other objects json cannot encode raise its TypeError. Every other
    number's text is the stdlib encoder's.
    """
    blocks = []

    def leaf(x):
        if type(x) is np.ndarray and x.ndim == 2:
            return matrix_wire(x)
        if type(x) is np.ndarray and x.ndim == 3:
            if (splice and x.size and x.shape[2] == 2
                    and x.dtype == np.float64 and np.isfinite(x).all()):
                blocks.append(x)
                return _BLOCK
            return x.tolist()
        raise TypeError(
            f"Object of type {type(x).__name__} is not JSON serializable")

    text = json.dumps(payload, indent=2, sort_keys=True, default=leaf)
    if not blocks:
        return text + "\n"
    parts = text.split(_BLOCK_JSON)
    if len(parts) != len(blocks) + 1:
        return _dump(payload, splice=False)
    out = [parts[0]]
    for E, part in zip(blocks, parts[1:]):
        line = out[-1].rpartition("\n")[2]  # where the block's "[" goes
        _emit_block(E, (len(line) - len(line.lstrip(" "))) // 2, out)
        out.append(part)
    out.append("\n")
    return "".join(out)


def _emit_block(E, level: int, out: list) -> None:
    """Append a matrix's entries block, a finite float64 array of shape
    (rows, cols, 2), to ``out`` as the indented stdlib encoder prints it
    from a line indented ``level`` deep, each number spelled by one
    ``_reprs`` call over the whole block.
    """
    i1 = "\n" + "  " * (level + 1)  # the indents one, two and three deeper
    i2 = i1 + "  "
    i3 = i2 + "  "
    num_sep = "," + i3
    pair_sep = i2 + "]," + i2 + "[" + i3
    row_sep = i2 + "]" + i1 + "]," + i1 + "[" + i2 + "[" + i3
    sep = "[" + i1 + "[" + i2 + "[" + i3
    strs = iter(_reprs(E))
    pairs = map(num_sep.join, zip(strs, strs))
    for _ in range(len(E)):
        out += (sep, pair_sep.join(islice(pairs, E.shape[1])))
        sep = row_sep
    out.append(i2 + "]" + i1 + "]\n" + "  " * level + "]")


# How orjson spells the numbers that repr writes in exponent notation:
# [-]0.0000d... for 1e-5 <= |x| < 1e-4, and [-]d[.ddd]e-d... or
# [-]d[.ddd]edd... below and above that. Digits end in a nonzero digit, as
# shortest digits do. In such numbers each preceded by a comma, the search
# finds the first comma not followed by one of these forms. Each test is a
# lookahead that ends at the next comma, so no backtracking state builds
# up over a block: one match of a repeat of the forms keeps some for every
# number, unless possessive, which needs Python 3.11.
_OTHER_FORM = re.compile(
    r",(?!-?(?:0\.0000[1-9](?:\d*[1-9])?|[1-9](?:\.\d*[1-9])?e-?[1-9]\d*)"
    r"(?:,|\Z))")


def _reprs(x) -> list:
    """``float.__repr__`` of each number of the non-empty finite float64
    array ``x``, in flattened order.

    orjson writes the whole array from C with the shortest digits that
    round-trip, which are repr's, and spells 0 and every 1e-4 <= |x| < 1e16
    as repr does. Elsewhere repr writes exponent notation and orjson does
    not: repr's ``1.5e-05``, ``1.5e-06`` and ``1e+16`` are orjson's
    ``0.000015``, ``1.5e-6`` and ``1e16``. Those numbers are spelled again
    from orjson's digits when one ``_OTHER_FORM`` search finds none of
    them in another form; otherwise all of them are spelled by
    ``float.__repr__``, so an orjson that writes another form changes no
    output.
    """
    x = x.ravel()
    strs = orjson.dumps(
        x, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    a = np.abs(x)
    odd = np.flatnonzero((a >= 1e16) | ((a < 1e-4) & (a != 0))).tolist()
    if not odd:
        return strs
    if _OTHER_FORM.search("," + ",".join([strs[i] for i in odd])):
        for i, text in zip(odd, map(float.__repr__, x[odd].tolist())):
            strs[i] = text
        return strs
    for i in odd:  # each old string is freed as its new one is made
        t = strs[i]
        strs[i] = (
            (f"{t[6]}.{t[7:]}e-05" if len(t) > 7 else f"{t[6]}e-05")
            if t[0] == "0" else  # 0.0000d...
            (f"-{t[7]}.{t[8:]}e-05" if len(t) > 8 else f"-{t[7]}e-05")
            if t[1] == "0" else  # -0.0000d...
            f"{t[:-1]}0{t[-1]}" if t[-2] == "-" else  # ...e-d
            t if "e-" in t else  # ...e-dd, as repr spells it
            t.replace("e", "e+"))  # ...edd
    return strs


def _render(args, payload) -> None:
    """Print ``payload`` through ``_dump`` to the ``--out`` file, and to
    stdout with ``--json``; the one place a JSON document is written.
    Renders nothing if neither flag is given."""
    path = getattr(args, "out", None)  # atoms has no --out
    if not (path or args.json):
        return
    text = _dump(payload)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    if args.negative_control and args.theorem != "hp":
        raise ValueError("--negative-control applies only to --theorem hp")
    # the parameterized atoms take theirs from the exponent flags
    cfg = TrialConfig(
        **{name: getattr(args, name) for _, name, _ in _CAMPAIGN_OPTIONS},
        atom_parameter={"neg_power": args.s, "power": args.t}.get(args.atom))
    tags = THEOREM_TAGS if args.theorem == "all" else (args.theorem,)
    reports = run_campaign(cfg, tags)

    _render(args, [r.to_json() for r in reports] if len(reports) > 1
            else reports[0].to_json())
    failed = any(r.failures for r in reports)
    r = reports[0]
    if args.json:
        pass  # the report on stdout is the output
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


# {"dim": D, "entries": BODY} in JSON whitespace, D of at most 9 digits
_FLAT_FILE = re.compile(
    rb'(?s)[ \t\n\r]*\{[ \t\n\r]*"dim"[ \t\n\r]*:[ \t\n\r]*([1-9]\d{0,8})'
    rb'[ \t\n\r]*,[ \t\n\r]*"entries"[ \t\n\r]*:(.*)\}[ \t\n\r]*')
_NUMBER_BYTES = b"0123456789+-.eE \t\n\r"  # and JSON whitespace


def _flat_square(data: bytes):
    """The document in a ``_FLAT_FILE``'s bytes as ``matrix_wire`` gives it,
    decoded as one flat array without building the nested lists. None
    unless deleting numbers and whitespace from BODY leaves the brackets
    and commas of D rows of D pairs (its length checked first, so a huge D
    allocates nothing) and the numbers are finite. Brackets become spaces,
    not nothing, so that no two numbers they part can join into one."""
    match = _FLAT_FILE.fullmatch(data)
    if match is None:
        return None
    n, body = int(match[1]), match[2]
    layout = body.translate(None, _NUMBER_BYTES)
    if len(layout) != 4 * n * n + 2 * n + 1 or layout != b"[%s]" % b",".join(
            [b"[%s]" % b",".join([b"[,]"] * n)] * n):
        return None
    try:
        E = np.fromiter(orjson.loads(b"[%s]" % body.translate(
            bytes.maketrans(b"[]", b"  "))), np.float64, 2 * n * n)
    except orjson.JSONDecodeError:
        return None
    return ({"dim": n, "entries": E.reshape(n, n, 2)}
            if np.isfinite(E).all() else None)


def _read_document(args, flag: str):
    """The matrix document in the file the ``--{flag}`` option names, read
    once: ``_flat_square``'s where it takes the bytes, else what
    ``json.load`` reads from the file opened in text mode."""
    path = getattr(args, flag)
    if path is None:
        raise ValueError(f"--{flag} is required for {args.functional}")
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _flat_square(data) or json.load(TextIOWrapper(BytesIO(data)))
    except RecursionError:  # json.load raises it near 10^3 bracket levels
        raise ValueError(f"--{flag}: {path} is nested too deeply to "
                         f"decode") from None


def _cmd_eval(args) -> int:
    if args.functional == "rel-entropy":
        rho = hermitian_from_json(_read_document(args, "rho"))
        sigma = hermitian_from_json(_read_document(args, "sigma"))
        value = quantum_relative_entropy_direct(rho, sigma)
        inputs = {"rho": rho.mat, "sigma": sigma.mat}
    else:
        lieb_s = args.functional == "lieb-s"
        exponents = {"s": args.s} if lieb_s else {"p": args.p, "q": args.q}
        if None in exponents.values():
            raise ValueError(f"{'--s is' if lieb_s else '--p and --q are'}"
                             f" required for {args.functional}")
        A = hermitian_from_json(_read_document(args, "a"))
        B = hermitian_from_json(_read_document(args, "b"))
        K = matrix_from_json(_read_document(args, "k"))
        functional = lieb_functional if lieb_s else lieb_pq_functional
        value = functional(A, B, K, *exponents.values())
        inputs = {"a": A.mat, "b": B.mat, "k": K, **exponents}

    _render(args, {"functional": args.functional, "value": value,
                   "inputs": inputs})
    if not args.json:
        print(f"{value:.17g}")
    return 0


def _cmd_atoms(args) -> int:
    rows = list_atoms()
    if args.json:
        _render(args, rows)
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
    except (ValueError, OSError) as exc:  # the one input-error exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
