"""CLI surface: subcommands, exit codes, JSON reports, matrix file handling."""
import argparse
import enum
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
from dataclasses import asdict

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opconvex import THEOREM_TAGS, TrialConfig
from opconvex.linalg import matrix_from_json, matrix_to_json, matrix_wire
from opconvex.verify import random_density
from opconvex import cli
from opconvex.cli import _BLOCK, _CAMPAIGN_OPTIONS, _dump, _reprs, main


def write_matrix(path, M):
    path.write_text(json.dumps(matrix_to_json(np.asarray(M, dtype=complex))))
    return str(path)


@pytest.fixture
def eye2(tmp_path):
    return write_matrix(tmp_path / "i2.json", np.eye(2))


class TestVerifyCommand:
    def test_single_theorem_pass(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["verify", "--theorem", "classical", "--trials", "50",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        assert "PASS classical" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert isinstance(doc, dict)
        assert doc["theorem"] == "classical" and doc["failures"] == 0

    def test_all_theorems_writes_array(self, tmp_path):
        out = tmp_path / "all.json"
        code = main(["verify", "--theorem", "all", "--trials", "5",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert [r["theorem"] for r in doc] == list(THEOREM_TAGS)

    def test_json_flag_prints_report(self, capsys):
        code = main(["verify", "--theorem", "lieb-s", "--trials", "5",
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theorem"] == "lieb-s"

    def test_reports_are_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["verify", "--theorem", "perspective", "--trials",
                         "40", "--seed", "7", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "--theorem", "lieb-s", "--trials", "20", "--seed",
              "1", "--out", str(a)])
        main(["verify", "--theorem", "lieb-s", "--trials", "20", "--seed",
              "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_theorem_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "bogus"])
        assert exc.value.code == 2

    def test_failing_check_exits_one(self, capsys):
        # an absurdly tight tolerance turns eigensolver noise into failures
        code = main(["verify", "--theorem", "perspective", "--trials", "20",
                     "--tol", "1e-30"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_config_error_exits_two(self, capsys):
        code = main(["verify", "--theorem", "hp-contractive", "--atom",
                     "neg_log", "--trials", "5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol", "--floor"])
    def test_non_finite_tolerance_or_floor_exits_two(self, flag, capsys):
        code = main(["verify", "--theorem", "hp", flag, "inf", "--trials",
                     "3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag[2:]} must be in (0, inf), got inf" in captured.err

    def test_non_finite_exponent_exits_two(self, capsys):
        # the report would print "p": NaN, which is not JSON
        code = main(["verify", "--theorem", "hp", "--trials", "2", "--p",
                     "nan", "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "p must be a finite number, got nan" in captured.err

    def test_tolerance_of_one_exits_two(self, capsys):
        # quartic hp fails this campaign at the default tol; tol >= 1 would
        # turn it into a PASS, since tol * (1 + ||B - A||) > |slack|
        code = main(["verify", "--theorem", "hp", "--atom", "quartic",
                     "--dim-m", "3", "--dim", "2", "--trials", "5000",
                     "--tol", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be below 1, got 1" in captured.err

    @pytest.mark.parametrize("tag", ["perspective", "marechal"])
    def test_floor_above_spectrum_band_exits_two(self, tag, capsys):
        code = main(["verify", "--theorem", tag, "--floor", "20",
                     "--trials", "3"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: floor 20 lies above the spectrum band [0.1, 10]\n")

    def test_floor_above_marechal_base_bound_exits_two(self, capsys):
        # h(R) = R^0.5 <= sqrt(10) on the band, so a floor of 9 fails every
        # draw; the gate says so before the redraw budget is spent
        code = main(["verify", "--theorem", "marechal", "--floor", "9",
                     "--trials", "3", "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: floor 9 lies above 3.16228, the largest h(R) = R^0.5 "
            "on the spectrum band [0.1, 10]\n")

    @pytest.mark.parametrize("tag", ["hp", "hp-contractive"])
    def test_concave_atom_under_jensen_tag_exits_two(self, tag, capsys):
        code = main(["verify", "--theorem", tag, "--atom", "power",
                     "--trials", "5", "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "concave" in captured.err

    def test_witness_matrices_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        main(["verify", "--theorem", "hp", "--trials", "10", "--out",
              str(out)])
        doc = json.loads(out.read_text())
        T = doc["witness"]["T"]
        assert matrix_to_json(matrix_from_json(T)) == T


class TestVerifyOptions:
    def test_cli_defaults_are_the_library_defaults(self, capsys):
        assert main(["verify", "--theorem", "classical", "--trials", "1",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"] == asdict(TrialConfig(trials=1))

    def test_help_names_every_campaign_option(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opconvex.cli", "verify", "--help"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        for flag, _, _ in _CAMPAIGN_OPTIONS:
            assert f" {flag} " in proc.stdout, flag


class TestNegativeControl:
    def test_finds_quartic_violation(self, capsys):
        code = main(["verify", "--theorem", "hp", "--atom", "quartic",
                     "--negative-control", "--dim", "2", "--trials", "5000",
                     "--seed", "7"])
        assert code == 0
        assert "violation found" in capsys.readouterr().out

    def test_exits_one_when_nothing_found(self, capsys):
        code = main(["verify", "--theorem", "hp", "--atom", "xlogx",
                     "--negative-control", "--trials", "20"])
        assert code == 1
        assert "no violation" in capsys.readouterr().out

    def test_only_valid_for_hp(self, capsys):
        code = main(["verify", "--theorem", "classical",
                     "--negative-control", "--trials", "5"])
        assert code == 2
        assert "--theorem hp" in capsys.readouterr().err


class TestEvalCommand:
    def test_rel_entropy_equal_states_is_zero(self, tmp_path, eye2, capsys):
        half = write_matrix(tmp_path / "h.json", 0.5 * np.eye(2))
        code = main(["eval", "--functional", "rel-entropy", "--rho", half,
                     "--sigma", half])
        assert code == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_rel_entropy_diagonal_oracle(self, tmp_path, capsys):
        rho = write_matrix(tmp_path / "rho.json", np.diag([0.5, 0.5]))
        sigma = write_matrix(tmp_path / "sig.json", np.diag([0.25, 0.75]))
        code = main(["eval", "--functional", "rel-entropy", "--rho", rho,
                     "--sigma", sigma])
        assert code == 0
        val = float(capsys.readouterr().out)
        assert val == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_lieb_identity_oracle(self, eye2, capsys):
        code = main(["eval", "--functional", "lieb-s", "--a", eye2, "--b",
                     eye2, "--k", eye2, "--s", "0.5"])
        assert code == 0
        assert float(capsys.readouterr().out) == 2.0

    def test_value_printed_with_17_significant_digits(self, tmp_path, capsys):
        rho = write_matrix(tmp_path / "rho.json", np.diag([0.5, 0.5]))
        sigma = write_matrix(tmp_path / "sig.json", np.diag([0.25, 0.75]))
        main(["eval", "--functional", "rel-entropy", "--rho", rho,
              "--sigma", sigma])
        text = capsys.readouterr().out.strip()
        assert len(text.replace("0.", "")) >= 16

    def test_json_payload_echoes_inputs(self, eye2, capsys):
        code = main(["eval", "--functional", "lieb-s", "--a", eye2, "--b",
                     eye2, "--k", eye2, "--s", "0.5", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["functional"] == "lieb-s"
        assert doc["value"] == 2.0
        assert np.array_equal(matrix_from_json(doc["inputs"]["a"]), np.eye(2))
        assert doc["inputs"]["s"] == 0.5

    def test_lieb_pq_sum_one_matches_lieb(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = write_matrix(tmp_path / "a.json", G @ G.conj().T + 0.1 * np.eye(2))
        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = write_matrix(tmp_path / "b.json", H @ H.conj().T + 0.1 * np.eye(2))
        K = write_matrix(tmp_path / "k.json", rng.standard_normal((2, 2)))
        main(["eval", "--functional", "lieb-pq", "--a", A, "--b", B, "--k", K,
              "--p", "0.6", "--q", "0.4"])
        v_pq = float(capsys.readouterr().out)
        main(["eval", "--functional", "lieb-s", "--a", A, "--b", B, "--k", K,
              "--s", "0.4"])
        v_s = float(capsys.readouterr().out)
        assert v_pq == pytest.approx(v_s, rel=1e-12)

    def test_overflowing_trace_form_exits_two(self, tmp_path, capsys):
        big = write_matrix(tmp_path / "big.json", 1e200 * np.eye(2))
        code = main(["eval", "--functional", "lieb-s", "--a", big, "--b",
                     big, "--k", big, "--s", "0.5", "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trace form Tr(")

    def test_non_hermitian_rejected_with_defect(self, tmp_path, capsys):
        bad = write_matrix(tmp_path / "bad.json",
                           np.array([[1.0, 2.0], [0.0, 1.0]]))
        code = main(["eval", "--functional", "rel-entropy", "--rho", bad,
                     "--sigma", bad])
        assert code == 2
        assert "defect" in capsys.readouterr().err

    def test_overflowing_relative_entropy_exits_two(self, tmp_path, capsys):
        # Tr rho log rho overflows: no NaN value, exit 0 or RuntimeWarning
        big = write_matrix(tmp_path / "big.json", np.diag([1e308, 1e308]))
        code = main(["eval", "--functional", "rel-entropy", "--rho", big,
                     "--sigma", big, "--json"])
        assert code == 2
        assert capsys.readouterr() == ("", (
            "error: Tr rho log rho or Tr rho log sigma overflows float64\n"))

    def test_overflowing_hermiticity_defect_exits_two(self, tmp_path, eye2,
                                                       capsys):
        bad = write_matrix(tmp_path / "bad.json",
                           np.array([[1.0, 1e308], [-1e308, 1.0]]))
        code = main(["eval", "--functional", "rel-entropy", "--rho", bad,
                     "--sigma", eye2])
        assert code == 2
        assert capsys.readouterr() == ("", (
            "error: input is not Hermitian: defect inf exceeds 1e-08\n"))

    def test_non_positive_rejected(self, tmp_path, eye2, capsys):
        neg = write_matrix(tmp_path / "neg.json", np.diag([1.0, -1.0]))
        code = main(["eval", "--functional", "rel-entropy", "--rho", neg,
                     "--sigma", eye2])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_nan_exponent_exits_two(self, eye2, capsys):
        code = main(["eval", "--functional", "lieb-pq", "--a", eye2, "--b",
                     eye2, "--k", eye2, "--p", "nan", "--q", "0.4"])
        assert code == 2
        assert capsys.readouterr().err == "error: p must be positive, got nan\n"

    @pytest.mark.parametrize("functional,exponents,message", [
        ("lieb-s", [], "--s is required for lieb-s"),
        ("lieb-pq", [], "--p and --q are required for lieb-pq"),
        ("lieb-pq", ["--p", "0.3"], "--p and --q are required for lieb-pq"),
    ], ids=["s", "p-and-q", "q"])
    def test_missing_exponent_exits_two(self, eye2, capsys, functional,
                                        exponents, message):
        code = main(["eval", "--functional", functional, "--a", eye2, "--b",
                     eye2, "--k", eye2, *exponents])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("functional,missing", [
        ("rel-entropy", "rho"), ("rel-entropy", "sigma"), ("lieb-s", "a"),
        ("lieb-s", "b"), ("lieb-s", "k"), ("lieb-pq", "a"), ("lieb-pq", "b"),
        ("lieb-pq", "k")])
    def test_missing_matrix_file_names_the_functional(self, eye2, capsys,
                                                      functional, missing):
        argv = ["eval", "--functional", functional, *{
            "rel-entropy": [], "lieb-s": ["--s", "0.5"],
            "lieb-pq": ["--p", "0.3", "--q", "0.4"]}[functional]]
        for flag in (("rho", "sigma") if functional == "rel-entropy"
                     else ("a", "b", "k")):
            if flag != missing:
                argv += [f"--{flag}", eye2]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --{missing} is required for {functional}\n")

    @pytest.mark.parametrize("flag", ["rho", "k"])
    def test_deeply_nested_matrix_file_exits_two(self, tmp_path, eye2, flag,
                                                 capsys):
        # json.load recurses once per "[" and overflows the stack here
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        operands = {"rho": eye2, "sigma": eye2} if flag == "rho" else {
            "a": eye2, "b": eye2, "k": eye2, "s": "0.5"}
        operands[flag] = str(deep)
        argv = ["eval", "--functional",
                "rel-entropy" if flag == "rho" else "lieb-s"]
        for name, value in operands.items():
            argv += [f"--{name}", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --{flag}: {deep} is nested too deeply to decode\n")

    def test_missing_file(self, eye2, capsys):
        code = main(["eval", "--functional", "rel-entropy", "--rho",
                     "/nonexistent.json", "--sigma", eye2])
        assert code == 2

    def test_out_writes_payload(self, tmp_path, eye2):
        out = tmp_path / "v.json"
        main(["eval", "--functional", "lieb-s", "--a", eye2, "--b", eye2,
              "--k", eye2, "--s", "0.5", "--out", str(out)])
        assert json.loads(out.read_text())["value"] == 2.0

    def test_out_and_json_write_the_same_text(self, tmp_path, eye2, capsys):
        out = tmp_path / "v.json"
        main(["eval", "--functional", "lieb-s", "--a", eye2, "--b", eye2,
              "--k", eye2, "--s", "0.5", "--out", str(out), "--json"])
        assert capsys.readouterr().out == out.read_text()

    @pytest.mark.parametrize("bad", [None, "1.5", {"re": 1.0}, True],
                             ids=["null", "string", "object", "bool"])
    def test_non_numeric_entry_exits_two(self, tmp_path, eye2, bad, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [bad, 0.0]]]}))
        code = main(["eval", "--functional", "rel-entropy", "--rho",
                     str(path), "--sigma", eye2])
        assert code == 2
        assert "numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("dims", ['"dim": 2.0', '"dim": "2"',
                                      '"rows": 2.9, "cols": 2.2'])
    def test_non_integer_dimension_exits_two(self, tmp_path, eye2, dims,
                                             capsys):
        path = tmp_path / "bad.json"
        path.write_text('{%s, "entries": [[[1.0, 0.0], [0.0, 0.0]], '
                        '[[0.0, 0.0], [1.0, 0.0]]]}' % dims)
        code = main(["eval", "--functional", "rel-entropy", "--rho",
                     str(path), "--sigma", eye2])
        assert code == 2
        assert "dimensions must be integers" in capsys.readouterr().err

    def test_dimension_zero_exits_two(self, tmp_path, eye2, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"dim": 0, "entries": []}')
        code = main(["eval", "--functional", "rel-entropy", "--rho",
                     str(path), "--sigma", eye2])
        assert code == 2
        assert capsys.readouterr() == (
            "", "error: dimension must be >= 1, got 0\n")

    def test_integer_beyond_float_range_exits_two(self, tmp_path, eye2,
                                                  capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 1, "entries": [[[1%s, 0.0]]]}' % ("0" * 400))
        code = main(["eval", "--functional", "rel-entropy", "--rho",
                     str(path), "--sigma", eye2])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_boolean_among_numbers_exits_two_with_json(self, tmp_path, capsys):
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"dim": 1, "entries": [[[1.0, 0.0]]]}))
        k = tmp_path / "k.json"
        k.write_text('{"dim": 1, "entries": [[[true, 0.5]]]}')
        code = main(["eval", "--functional", "lieb-s", "--s", "0.5", "--a",
                     str(one), "--b", str(one), "--k", str(k), "--json"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "numbers" in captured.err


def file_matrix(path):
    """The CLI's matrix file reader: ``matrix_from_json`` of the document
    ``cli._read_document`` reads from the file, as ``eval --k`` runs it."""
    return matrix_from_json(cli._read_document(
        argparse.Namespace(k=str(path)), "k"))


def text_mode_matrix(path):
    """The reference matrix file reader: ``matrix_from_json`` of the
    document ``json.load`` reads from the file opened in text mode."""
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def outcome(read, arg):
    """What ``read(arg)`` gives: the matrix's shape and bytes, or the type
    and text of what it raised."""
    try:
        M = read(arg)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)
    return M.shape, M.tobytes()


@st.composite
def matrix_documents(draw):
    """Matrix documents of up to 3 x 3 numbers (NaN, the infinities and
    integers of up to 64 bits among them), whose dimensions, any integers,
    may not match the entries, some with a note of any text."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dims = draw(st.sampled_from([(rows, cols), (rows, cols),
                                 draw(st.tuples(st.integers(),
                                                st.integers()))]))
    doc = ({"dim": dims[0]} if dims[0] == dims[1] and draw(st.booleans())
           else {"rows": dims[0], "cols": dims[1]})
    number = st.floats() | st.integers(-2 ** 63, 2 ** 64 - 1)
    doc["entries"] = draw(st.lists(
        st.lists(st.lists(number, min_size=2, max_size=2),
                 min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    if draw(st.booleans()):
        doc["note"] = draw(st.text(st.characters(exclude_categories=("Cs",)),
                                   max_size=6))
    return doc


ONE = b'{"dim": 1, "entries": [[[0.5, 0.0]]]}'


def one_by_one(entry, dim=b"1"):
    """A one-line square matrix file whose one pair is ``entry``."""
    return b'{"dim": %s, "entries": [[[%s]]]}' % (dim, entry)


# (id, file bytes, whether cli._flat_square takes them); each must give the
# outcome the text-mode reader gives, through `opconvex eval` too
DECODE_CORPUS = [
    ("bom", b"\xef\xbb\xbf" + ONE, False),
    ("crlf", b'{\r\n"dim": 1,\r\n"entries": [[[0.5, 0.0]]]\r\n}\r\n', True),
    ("non-ascii-key", '{"é": 1, "dim": 1, "entries": [[[0.5, 0.0]]]}'
     .encode(), False),
    ("escaped-dim", b'{"\\u0064im": 1, "entries": [[[0.5, 0.0]]]}', False),
    ("latin-1-byte", b'{"\xe9": 1, "dim": 1, "entries": [[[0.5, 0.0]]]}',
     False),
    ("nan", one_by_one(b"NaN, 0.0"), False),
    ("infinity", one_by_one(b"0.5, -Infinity"), False),
    ("1e400", one_by_one(b"1e400, 0.0"), False),
    ("lone-surrogate",
     b'{"dim": 1, "entries": [[[0.5, 0.0]]], "note": "\\ud800"}', False),
    ("dim-2**64", one_by_one(b"0.5, 0.0", b"18446744073709551616"), False),
    ("rows-2**64", b'{"rows": 1, "cols": 18446744073709551616, '
                   b'"entries": [[[0.5, 0.0]]]}', False),
    ("dim-2**63-negative", one_by_one(b"0.5, 0.0", b"-9223372036854775809"),
     False),
    # orjson makes an integer beyond 64 bits the nearest float, the float64
    # matrix_from_json makes of json's int
    ("entry-2**64+1", one_by_one(b"18446744073709551617, 0"), True),
    ("entry-minus-2**63-1", one_by_one(b"-9223372036854775809, 0"), True),
    ("trailing-comma", b'{"dim": 1, "entries": [[[0.5, 0.0]]],}', False),
    ("cr-line-ends-then-comma",
     b'{\r"dim": 1,\r"entries": [[[0.5, 0.0]]],\r}', False),
    ("unpaired-quote", b'{"dim": 1, "entries": [[[0.5, 0.0]]], "note: 1}',
     False),
    ("1000-deep", b"[" * 1000 + b"]" * 1000, False),
    ("200000-deep", b"[" * 200000 + b"]" * 200000, False),
    ("top-level-list", b"[1.0, 2.0]", False),
    ("empty", b"", False),
    # the bracket-and-comma layout _flat_square checks, and what it leaves
    # to orjson
    ("one-line", ONE, True),
    ("spaced", b' {"dim" :1 ,\t"entries":\n[ [ [ 5E-1 , -0.0 ] ] ]\r} \n',
     True),
    ("number-glued-to-bracket",
     b'{"dim": 2, "entries": [[[1, 2]5, [3, 4]], [[5, 6], [7, 8]]]}', False),
    ("token-split-by-space", one_by_one(b"1 2, 3"), False),
    ("plus-sign", one_by_one(b"+1, 0"), False),
    ("leading-zero", one_by_one(b"01, 0"), False),
    ("bare-point", one_by_one(b"1., 0"), False),
    ("leading-point", one_by_one(b".5, 0"), False),
    ("lone-minus", one_by_one(b"-, 0"), False),
    ("empty-slot", one_by_one(b", 0"), False),
    ("true-entry", one_by_one(b"true, 0"), False),
    ("null-entry", one_by_one(b"0.5, null"), False),
    ("string-entry", one_by_one(b'"1", 0'), False),
    ("three-numbers", one_by_one(b"0.5, 0, 0"), False),
    ("extra-key", b'{"dim": 1, "entries": [[[0.5, 0.0]]], "note": ""}',
     False),
    ("duplicate-dim", b'{"dim": 2, "dim": 1, "entries": [[[0.5, 0.0]]]}',
     False),
    ("dim-after-entries", b'{"dim": 1, "entries": [[[0.5, 0.0]]], "dim": 2}',
     False),
    ("entries-first", b'{"entries": [[[0.5, 0.0]]], "dim": 1}', False),
    ("dim-0", b'{"dim": 0, "entries": []}', False),
    ("dim-01", one_by_one(b"0.5, 0.0", b"01"), False),
    ("dim-10**8", one_by_one(b"0.5, 0.0", b"100000000"), False),
    ("dim-400-digits", one_by_one(b"0.5, 0.0", b"1" + b"0" * 399), False),
    ("dim-float", one_by_one(b"0.5, 0.0", b"1.0"), False),
    # the Hermiticity gate's defect overflows: eval exits 2, with no warning
    ("non-hermitian-1e308",
     b'{"dim": 2, "entries": [[[1, 0], [1e308, 0]], [[-1e308, 0], [1, 0]]]}',
     True),
    ("trailing-bytes", ONE + b" x", False),
    ("non-ascii-digit", one_by_one("0.\u0665, 0".encode()), False),
]


class TestMatrixFileDecoding:
    """The CLI's reader gives of a file's bytes what ``matrix_from_json``
    gives of the document ``json.load`` reads from the file opened in text
    mode: the same matrix, bit for bit, or the same error."""

    @settings(max_examples=200, deadline=None)
    @given(doc=matrix_documents(),
           indent=st.sampled_from([None, 0, 1, 4, "\t"]),
           separators=st.sampled_from([None, (",", ":"), (" , ", " : ")]),
           ascii_only=st.booleans(), crlf=st.booleans())
    def test_decodes_as_text_mode(self, doc, indent, separators, ascii_only,
                                  crlf):
        data = json.dumps(doc, indent=indent, separators=separators,
                          ensure_ascii=ascii_only).replace(
            "\n", "\r\n" if crlf else "\n").encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.json")
            with open(path, "wb") as fh:
                fh.write(data)
            expected = outcome(text_mode_matrix, path)
            assert outcome(file_matrix, path) == expected

    @pytest.mark.parametrize("name,data,flat", DECODE_CORPUS,
                             ids=[row[0] for row in DECODE_CORPUS])
    def test_corpus_decodes_as_text_mode(self, tmp_path, name, data, flat,
                                         monkeypatch, capsys):
        assert (cli._flat_square(data) is not None) == flat
        path = tmp_path / "m.json"
        path.write_bytes(data)
        expected = outcome(text_mode_matrix, path)
        if expected[0] is RecursionError:  # the CLI names the file instead
            expected = (ValueError,
                        f"--k: {path} is nested too deeply to decode")
        assert outcome(file_matrix, path) == expected
        sigma = tmp_path / "one.json"
        sigma.write_bytes(ONE)
        argv = ["eval", "--functional", "rel-entropy", "--rho", str(path),
                "--sigma", str(sigma), "--json"]
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_flat_square", lambda data: None)
            expected = main(argv), capsys.readouterr()
        assert (main(argv), capsys.readouterr()) == expected

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"),
                        reason="needs /dev/fd")
    @pytest.mark.parametrize("name", ["crlf", "extra-key", "escaped-dim",
                                      "bom"])
    def test_reads_a_pipe_once(self, tmp_path, name, capsys):
        # _flat_square takes the first, json.load decodes the next two, and
        # the last exits 2 with json's message
        data = {row[0]: row[1] for row in DECODE_CORPUS}[name]
        sigma = tmp_path / "one.json"
        sigma.write_bytes(ONE)
        path = tmp_path / "m.json"
        path.write_bytes(data)
        argv = ["eval", "--functional", "rel-entropy", "--sigma", str(sigma),
                "--json", "--rho"]
        expected = main(argv + [str(path)]), capsys.readouterr()
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            got = main(argv + [f"/dev/fd/{read_end}"]), capsys.readouterr()
        finally:
            os.close(read_end)
        assert got == expected


class TestFlatSquare:
    """``cli._flat_square`` gives the wire document, its entries a float64
    array, of which ``matrix_from_json`` makes the matrix it makes of the
    document ``json.load`` returns, or declines the file."""

    @settings(max_examples=300, deadline=None)
    @given(doc=matrix_documents(),
           indent=st.sampled_from([None, 0, 1, 4, "\t"]),
           separators=st.sampled_from([None, (",", ":"), (" , ", " : ")]),
           ascii_only=st.booleans(), crlf=st.booleans())
    def test_takes_exactly_the_finite_square_documents(
            self, doc, indent, separators, ascii_only, crlf):
        text = json.dumps(doc, indent=indent, separators=separators,
                          ensure_ascii=ascii_only)
        flat = cli._flat_square(
            text.replace("\n", "\r\n" if crlf else "\n").encode())
        # matrix_documents() writes "dim" before "entries", and a note last
        entries = doc["entries"]
        square = list(doc) == ["dim", "entries"] and (
            doc["dim"] == len(entries) == len(entries[0]))
        finite = all(math.isfinite(x)
                     for row in entries for pair in row for x in pair)
        assert (flat is not None) == (square and finite)
        if flat is not None:
            n = doc["dim"]
            assert list(flat) == ["dim", "entries"] and flat["dim"] == n
            E = flat["entries"]
            assert E.dtype == np.float64 and E.shape == (n, n, 2)
            assert (matrix_from_json(flat).tobytes()
                    == matrix_from_json(json.loads(text)).tobytes())

    @pytest.mark.parametrize("layout", ["one-line", "indented", "printed"])
    def test_takes_an_eval_sized_density(self, layout):
        doc = matrix_to_json(random_density(128, 43).mat)
        text = {"one-line": json.dumps(doc),
                "indented": json.dumps(doc, indent=1),
                "printed": _dump(doc)}[layout]
        M = matrix_from_json(cli._flat_square(text.encode()))
        assert M.tobytes() == matrix_from_json(json.loads(text)).tobytes()

    def test_declines_a_number_orjson_overflows(self, tmp_path, monkeypatch):
        # orjson 3.8.3 raises on 1e400 and 1.8e308; one that reads a number
        # as inf instead must leave the file to json.load
        def loads(data):
            numbers = orjson.loads(data)
            numbers[0] = math.inf
            return numbers

        monkeypatch.setattr(cli, "orjson", types.SimpleNamespace(
            loads=loads, JSONDecodeError=orjson.JSONDecodeError))
        assert cli._flat_square(ONE) is None
        path = tmp_path / "m.json"
        path.write_bytes(ONE)
        assert (file_matrix(path).tobytes()
                == matrix_from_json(json.loads(ONE)).tobytes())


class Color(enum.IntEnum):
    RED = 1


# JSON trees for the printer property: matrix-shaped float blocks (NaN,
# infinities, -0.0), ragged and rectangular ones, blocks of other scalars
# (float and int subclasses among them), empty lists and dicts, and dicts
# with integer keys
FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16,
     1e-5, 1.0 / 3.0])
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS
           | st.text(max_size=4) | FLOATS.map(np.float64)
           | st.sampled_from(list(Color)))
PAIR_BLOCKS = st.lists(st.lists(st.lists(FLOATS, min_size=2, max_size=2),
                                min_size=1, max_size=4),
                       min_size=1, max_size=4)
RECT_BLOCKS = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda rc: st.lists(
        st.lists(st.lists(FLOATS, min_size=2, max_size=2),
                 min_size=rc[1], max_size=rc[1]),
        min_size=rc[0], max_size=rc[0]))
ODD_BLOCKS = st.lists(st.lists(st.lists(SCALARS, max_size=3),
                               max_size=3), max_size=3)
JSON_TREES = st.recursive(
    SCALARS | PAIR_BLOCKS | RECT_BLOCKS | ODD_BLOCKS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=4)
                      | st.dictionaries(st.integers(), children,
                                        max_size=3)),
    max_leaves=12)

# Magnitudes for the matrix property: the extremes, values either side of
# repr's switches to exponent notation, and values orjson spells otherwise
# than repr does (0.000015, 0.00001, 1e-7, 1e22)
MAGNITUDES = [0.0, 5e-324, 1.7976931348623157e308, 1e16, 9999999999999998.0,
              1e-4, 9.999999999999999e-05, 1.5e-05, 1e-05, 1e-07, 1e22]
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# a square block wider than verify-small's 3 x 3 witnesses
WIDE = 10

MIRROR_KINDS = ["hermitian", "complex-symmetric", "real-symmetric",
                "signed-zeros"]


def mirrored(E, kind, rng):
    """Make the square block ``E`` (n, n, 2) mirror across its diagonal in
    place: Hermitian, complex symmetric, real symmetric, or Hermitian but
    for zeros of unmirrored sign (real parts +0.0/-0.0, imaginary parts
    +0.0/+0.0) in about a third of its mirror pairs."""
    re, im = E[..., 0], E[..., 1]
    low = np.tril_indices(len(E), -1)
    up = low[::-1]
    re[low] = re[up]
    im[low] = im[up] if kind == "complex-symmetric" else -im[up]
    if kind == "real-symmetric":
        im[...] = 0.0
    elif kind == "signed-zeros":
        pick = rng.random(len(low[0])) < 0.3
        low, up = (low[0][pick], low[1][pick]), (up[0][pick], up[1][pick])
        re[up], re[low], im[up], im[low] = 0.0, -0.0, 0.0, 0.0
    return E


def random_block(rng, rows, cols, pool):
    """Entries drawn with either sign from ``pool``, so magnitudes repeat
    across unrelated entries too."""
    return (rng.choice(pool, size=(rows, cols, 2))
            * rng.choice([-1.0, 1.0], size=(rows, cols, 2)))


@st.composite
def complex_matrices(draw):
    """Square (narrow and wide) and rectangular complex matrices, general
    or mirrored, then a few entries overwritten (possibly with NaN or an
    infinity)."""
    rows = draw(st.sampled_from([1, 2, 3, WIDE - 1, WIDE, WIDE + 3]))
    cols = draw(st.sampled_from([rows, rows, rows, draw(st.integers(1, 6))]))
    pool = np.array(MAGNITUDES + draw(st.lists(FINITE, min_size=1,
                                               max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    E = random_block(rng, rows, cols, pool)
    kind = draw(st.sampled_from(["general"] + MIRROR_KINDS))
    if kind != "general" and rows == cols:
        mirrored(E, kind, rng)
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        E[i, j, draw(st.integers(0, 1))] = draw(
            FINITE | st.sampled_from([float("nan"), float("inf"),
                                      -float("inf")]))
    return E.view(np.complex128)[..., 0]


class TestReportPrinter:
    """``_dump`` must print exactly what the stdlib's indented encoder does."""

    @staticmethod
    def oracle(x):
        return json.dumps(x, indent=2, sort_keys=True) + "\n"

    def test_reprs_are_float_repr(self):
        # the extremes, signed zeros, repr's switches to exponent notation
        # with their neighbours, and normals of every decimal exponent
        switches = np.array([1e-4, 1e16])
        edges = np.concatenate([
            [0.0, -0.0, 5e-324, np.finfo(float).max], switches,
            np.nextafter(switches, 0.0), np.nextafter(switches, np.inf)])
        rng = np.random.default_rng(23)
        with np.errstate(over="ignore"):
            scaled = (rng.standard_normal(8000)
                      * 10.0 ** rng.uniform(-330, 308, 8000))
        for x in (edges, -edges, scaled[np.isfinite(scaled)]):
            assert _reprs(x) == list(map(float.__repr__, x.tolist()))

    # magnitude ranges, one for each way orjson spells a number otherwise
    # than repr: 0.0000d..., e-d, subnormal e-ddd, edd and eddd
    EXPONENT_RANGES = [(1e-5, 1e-4), (1e-10, 1e-5), (5e-324, 1e-300),
                       (1e16, 1e22), (1e100, np.finfo(float).max)]

    @pytest.mark.parametrize("low, high", EXPONENT_RANGES,
                             ids=["0.0000d", "e-d", "subnormal", "edd",
                                  "eddd"])
    def test_exponent_notation_sweep(self, low, high):
        # 10 000 values log-uniform on [low, high), each rounded to 1 to 17
        # significant digits, with both signs
        rng = np.random.default_rng(31)
        with np.errstate(under="ignore"):
            draws = 10.0 ** rng.uniform(np.log10(low), np.log10(high),
                                        12000)
        digits = rng.integers(1, 18, draws.size)
        x = np.array([float(f"{v:.{d - 1}e}")
                      for v, d in zip(draws.tolist(), digits.tolist())])
        x = x[(x >= low) & (x < high)]
        assert x.size >= 10000
        for y in (x, -x):
            assert _reprs(y) == list(map(float.__repr__, y.tolist()))

    @pytest.mark.skipif(orjson.__version__ != "3.8.3",
                        reason="the forms were read off orjson 3.8.3")
    def test_sweep_takes_the_respelling_route(self):
        # every number of the sweep's ranges takes the re-spelling route
        rng = np.random.default_rng(37)
        for low, high in self.EXPONENT_RANGES:
            x = 10.0 ** rng.uniform(np.log10(max(low, 1e-323)),
                                    np.log10(high), 2000)
            for y in (x, -x):
                text = orjson.dumps(y, option=orjson.OPT_SERIALIZE_NUMPY)
                assert not cli._OTHER_FORM.search(
                    "," + text[1:-1].decode())

    def test_respelling_keeps_no_state_per_number(self):
        # one match of a repeat of the forms would keep backtracking state
        # for each number, ~12 MB for these 20 000 against the ~1.3 MB
        # their strings hold
        x = np.array([1.5e-7, -0.000025, 3e17, -2.5e-300] * 5000)
        _reprs(x[:8])
        tracemalloc.start()
        try:
            strs = _reprs(x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert strs == list(map(float.__repr__, x.tolist()))
        assert peak < 3 * held

    @pytest.mark.parametrize("respell", [
        lambda t: t.replace("e", "E"),
        lambda t: re.sub(r"0\.0000(\d)(\d*)", r"\1.\2E-05", t, count=1),
        lambda t: t.replace("e-6", "e-06"),
        lambda t: t.replace("e16", "e016"),
        lambda t: t.replace("0.00002", "0.000020"),
        lambda t: t.replace("1.5e-6", "0.0000015"),
        lambda t: t.replace("1.25e22", "1.250e22")],
        ids=["upper-e", "one-0.0000d", "padded-exponent",
             "padded-large-exponent", "trailing-zero", "fixed-below-1e-5",
             "mantissa-trailing-zero"])
    def test_unknown_orjson_forms_fall_back_to_repr(self, respell,
                                                    monkeypatch):
        def dumps(x, option):
            return respell(orjson.dumps(x, option=option).decode()).encode()

        monkeypatch.setattr(cli, "orjson", types.SimpleNamespace(
            dumps=dumps, OPT_SERIALIZE_NUMPY=orjson.OPT_SERIALIZE_NUMPY))
        x = np.array([1.5e-5, -2e-5, 0.25, 1.5e-6, -3e-7, 1e-12, 1e16,
                      -1.25e22, 0.0, 1e300])
        assert _reprs(x) == list(map(float.__repr__, x.tolist()))

    def test_eval_sized_density_block_matches_stdlib(self):
        # a trace-normalized 128x128 Wishart, the block eval-large prints;
        # about a sixth of its numbers are below 1e-4
        M = random_density(128, 41).mat
        E = matrix_wire(M)["entries"]
        assert ((np.abs(E) < 1e-4) & (E != 0)).sum() > 3000
        expected = self.oracle({"m": matrix_to_json(M)})
        assert _dump({"m": M}) == expected

    @given(JSON_TREES)
    def test_matches_stdlib_indented_encoder(self, tree):
        assert _dump(tree) == self.oracle(tree)

    def test_matrix_payload(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        M[0, 0] = complex(-0.0, -0.0)
        payload = {"value": 1.5, "inputs": {"k": matrix_to_json(M)}}
        assert _dump(payload) == self.oracle(payload)

    @given(complex_matrices())
    def test_matrix_leaf_and_lists_match_stdlib(self, M):
        doc = matrix_to_json(M)
        expected = self.oracle({"value": 0.5, "m": doc})
        assert _dump({"value": 0.5, "m": M}) == expected
        assert _dump({"value": 0.5, "m": doc}) == expected

    @pytest.mark.parametrize("kind", MIRROR_KINDS)
    def test_mirrored_block_matches_stdlib(self, kind):
        rng = np.random.default_rng(11)
        E = random_block(rng, WIDE, WIDE,
                         np.array(MAGNITUDES + [0.1, 1.5, 2.0 / 3.0]))
        M = mirrored(E, kind, rng).view(np.complex128)[..., 0]
        expected = self.oracle({"m": matrix_to_json(M)})
        assert _dump({"m": M}) == expected
        assert _dump({"m": matrix_to_json(M)}) == expected

    @pytest.mark.parametrize("kind", MIRROR_KINDS)
    def test_eval_sized_mirrored_block_matches_stdlib(self, kind):
        n = 128  # the size the eval-large benchmark echoes
        rng = np.random.default_rng(13)
        E = random_block(rng, n, n, np.array(MAGNITUDES + [0.1, 1.5]))
        M = mirrored(E, kind, rng).view(np.complex128)[..., 0]
        doc = matrix_to_json(M)
        assert _dump({"m": M}) == _dump({"m": doc}) == self.oracle({"m": doc})

    def test_reuse_is_decided_per_entry(self):
        # a Hermitian block but for one lower entry off its mirror
        n = WIDE
        G = np.arange(1.0, n * n + 1).reshape(n, n) * (1 + 0.5j)
        M = G + G.conj().T
        M[5, 2] += 0.25 + 0.25j
        doc = matrix_to_json(M)
        assert _dump({"m": M}) == _dump({"m": doc}) == self.oracle({"m": doc})

    def test_int_mirroring_a_float_falls_back(self):
        n = WIDE
        M = np.diag(np.arange(1.0, n + 1))
        M[0, 1] = M[1, 0] = 2.0
        doc = matrix_to_json(M)
        doc["entries"][1][0][0] = 2  # json prints 2, not 2.0
        assert _dump(doc) == self.oracle(doc)
        entries = np.array(doc["entries"], dtype=object)
        assert _dump(entries) == self.oracle(doc["entries"])

    def test_float_subclass_in_wide_block(self):
        n = WIDE
        doc = matrix_to_json(np.eye(n) + 0.5)
        doc["entries"][1][0][0] = np.float64(0.5)  # not exactly a float
        assert _dump(doc) == self.oracle(doc)

    def test_non_finite_block_falls_back(self):
        payload = {"entries": [[[1.0, 2.0]], [[float("nan"), -float("inf")]]]}
        assert "NaN" in _dump(payload)
        assert _dump(payload) == self.oracle(payload)

    @pytest.mark.parametrize("shape, dtype", [
        ((0, 0, 2), float), ((2, 0, 2), float), ((2, 2, 3), float),
        ((2, 2, 2), int), ((WIDE,) * 2 + (2,), int),
        ((WIDE,) * 2 + (2,), np.float32),
        ((WIDE,) * 2 + (1,), float)])
    def test_arrays_that_are_not_float_entries(self, shape, dtype):
        # printed as their nested lists, whatever path they take
        E = (np.arange(np.prod(shape)).reshape(shape) / 3).astype(dtype)
        assert _dump({"m": E}) == self.oracle({"m": E.tolist()})


    @pytest.mark.parametrize("x", [np.array(1.5), np.arange(3.0),
                                   np.int64(2)],
                             ids=["0-d", "1-d", "int64"])
    def test_other_numpy_values_raise_json_type_error(self, x):
        with pytest.raises(TypeError) as expected:
            json.dumps(x)
        with pytest.raises(TypeError) as got:
            _dump({"m": [x], "value": 1.0})
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("n", [0, 2, WIDE])
    def test_payload_string_spelling_the_placeholder(self, n):
        # with n = 0 the payload holds no entries block
        payload = {"s": _BLOCK, _BLOCK: [1, 'x"' + _BLOCK, _BLOCK + "y"]}
        expected = dict(payload)
        if n:
            M = np.arange(n * n).reshape(n, n) * (1 + 0.5j) / 3
            payload["m"], expected["m"] = M, matrix_to_json(M)
        assert _dump(payload) == self.oracle(expected)

    def test_non_finite_wide_block_falls_back(self):
        n = WIDE
        G = np.arange(n * n).reshape(n, n) * (1 + 0.5j) / 3
        M = G + G.conj().T
        M[3, 4], M[4, 3] = complex(float("nan"), 1.0), complex(1.0, -np.inf)
        text = _dump({"m": M})
        assert "NaN" in text and "-Infinity" in text
        assert text == self.oracle({"m": matrix_to_json(M)})

    @pytest.mark.parametrize("wrap", [
        lambda m: m,
        lambda m: [1.5, m, "x"],
        lambda m: {"a": {"b": {"c": m, "d": 0}}, "z": [[m]]}],
        ids=["depth-0", "depth-1", "depth-3"])
    @pytest.mark.parametrize("n", [2, WIDE])
    def test_block_prints_at_the_depth_it_lands(self, wrap, n):
        rng = np.random.default_rng(n)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        E = matrix_wire(G + G.conj().T)["entries"]
        assert _dump(wrap(E)) == self.oracle(wrap(E.tolist()))


class TestJsonOutput:
    """Each command that writes JSON prints the stdlib's indented text of
    the document it parses back to, on stdout and in its ``--out`` file."""

    @pytest.fixture
    def files(self, tmp_path):
        n = WIDE + 2
        rng = np.random.default_rng(17)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        P = G @ G.conj().T + 0.1 * np.eye(n)
        P = (P + P.conj().T) / 2
        return {"rho": write_matrix(tmp_path / "rho.json",
                                    P / np.trace(P).real),
                "sigma": write_matrix(tmp_path / "sigma.json", np.eye(n) / n),
                "k": write_matrix(tmp_path / "k.json", G),
                "out": str(tmp_path / "out.json")}

    @pytest.mark.parametrize("argv", [
        "verify --theorem all --trials 2 --json",
        "verify --theorem all --dim 12 --dim-m 8 --trials 1 --out {out} "
        "--json",
        "eval --functional rel-entropy --rho {rho} --sigma {sigma} --json",
        "eval --functional lieb-s --s 0.3 --a {rho} --b {sigma} --k {k} "
        "--json",
        "atoms --json"],
        ids=["verify", "verify-out", "eval-rel-entropy", "eval-lieb-s",
             "atoms"])
    def test_prints_what_it_parses(self, argv, files, capsys):
        argv = argv.format(**files).split()
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"
        if "--out" in argv:
            with open(files["out"]) as fh:
                assert fh.read() == text


class TestAtomsCommand:
    def test_lists_registry(self, capsys):
        assert main(["atoms"]) == 0
        out = capsys.readouterr().out
        for name in ("xlogx", "neg_power", "quartic"):
            assert name in out

    def test_json_listing(self, capsys):
        assert main(["atoms", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in rows} >= {"xlogx", "square", "power"}


class TestImports:
    # each in a fresh process: this one has loaded the CLI
    @pytest.mark.parametrize("module,parsers", [
        ("opconvex", []), ("opconvex.verify", []),
        ("opconvex.cli", ["json", "orjson"])],
        ids=["opconvex", "opconvex.verify", "opconvex.cli"])
    def test_only_the_cli_loads_a_json_parser(self, module, parsers):
        code = (f"import sys; before = set(sys.modules); import {module}; "
                f"print(sorted(({{'json', 'orjson'}} - before) "
                f"& set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{parsers}\n"


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opconvex.cli", "verify", "--theorem",
             "classical", "--trials", "30", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS classical" in proc.stdout
