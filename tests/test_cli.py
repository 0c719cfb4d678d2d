"""CLI surface: subcommands, exit codes, JSON reports, matrix file handling."""
import enum
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opconvex import THEOREM_TAGS, TrialConfig
from opconvex.linalg import matrix_from_json, matrix_to_json, matrix_wire
from opconvex.cli import (_BLOCK, _CAMPAIGN_OPTIONS, MIRROR_MIN_DIM, _dump,
                          _mirrored_strs, main)


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
        assert doc["config"] == TrialConfig(trials=1).fingerprint()

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

    def test_missing_operand_flag(self, eye2, capsys):
        code = main(["eval", "--functional", "rel-entropy", "--rho", eye2])
        assert code == 2
        assert "--sigma" in capsys.readouterr().err

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

    def test_missing_conjugator_flag(self, eye2, capsys):
        code = main(["eval", "--functional", "lieb-s", "--s", "0.5", "--a",
                     eye2, "--b", eye2])
        assert code == 2
        assert capsys.readouterr().err == "error: --k is required for lieb-s\n"

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

# Magnitudes for the matrix property: the extremes, and values either side
# of repr's switches to exponent notation
MAGNITUDES = [0.0, 5e-324, 1.7976931348623157e308, 1e16, 9999999999999998.0,
              1e-4, 9.999999999999999e-05]
FINITE = st.floats(allow_nan=False, allow_infinity=False)

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
    """Square (on both sides of ``MIRROR_MIN_DIM``) and rectangular complex
    matrices, general or mirrored, then a few entries overwritten (possibly
    with NaN or an infinity)."""
    rows = draw(st.sampled_from([1, 2, 3, MIRROR_MIN_DIM - 1, MIRROR_MIN_DIM,
                                 MIRROR_MIN_DIM + 3]))
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
        E = random_block(rng, MIRROR_MIN_DIM, MIRROR_MIN_DIM,
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

    def test_mirrored_strings_are_reused(self):
        # below the diagonal of a Hermitian block, real parts are their
        # mirror's string object and imaginary parts are built from it
        n = MIRROR_MIN_DIM
        rng = np.random.default_rng(5)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        E = (G + G.conj().T).view(np.float64).reshape(n, n, 2)
        strs = _mirrored_strs(E)
        assert strs == [list(map(repr, row))
                        for row in E.reshape(n, 2 * n).tolist()]
        assert all(strs[i][2 * j] is strs[j][2 * i]
                   for i in range(n) for j in range(i))

    def test_reuse_is_decided_per_entry(self):
        # one lower entry off its mirror: only that entry is formatted
        # afresh, and the rest of its row still reuses
        n = MIRROR_MIN_DIM
        G = np.arange(1.0, n * n + 1).reshape(n, n) * (1 + 0.5j)
        M = G + G.conj().T
        M[5, 2] += 0.25 + 0.25j
        rows = M.view(np.float64).tolist()
        strs = _mirrored_strs(M.view(np.float64).reshape(n, n, 2))
        assert strs == [list(map(repr, row)) for row in rows]
        assert float(strs[5][4]) != float(strs[2][10])
        assert float(strs[5][5]) != -float(strs[2][11])
        assert all(strs[5][2 * j] is strs[j][10] for j in (0, 1, 3, 4))
        doc = matrix_to_json(M)
        assert _dump({"m": M}) == _dump({"m": doc}) == self.oracle({"m": doc})

    def test_int_mirroring_a_float_falls_back(self):
        n = MIRROR_MIN_DIM
        M = np.diag(np.arange(1.0, n + 1))
        M[0, 1] = M[1, 0] = 2.0
        doc = matrix_to_json(M)
        doc["entries"][1][0][0] = 2  # json prints 2, not 2.0
        assert _dump(doc) == self.oracle(doc)
        entries = np.array(doc["entries"], dtype=object)
        assert _dump(entries) == self.oracle(doc["entries"])

    def test_float_subclass_in_wide_block(self):
        n = MIRROR_MIN_DIM
        doc = matrix_to_json(np.eye(n) + 0.5)
        doc["entries"][1][0][0] = np.float64(0.5)  # not exactly a float
        assert _dump(doc) == self.oracle(doc)

    def test_non_finite_block_falls_back(self):
        payload = {"entries": [[[1.0, 2.0]], [[float("nan"), -float("inf")]]]}
        assert "NaN" in _dump(payload)
        assert _dump(payload) == self.oracle(payload)

    @pytest.mark.parametrize("shape, dtype", [
        ((0, 0, 2), float), ((2, 0, 2), float), ((2, 2, 3), float),
        ((2, 2, 2), int), ((MIRROR_MIN_DIM,) * 2 + (2,), int),
        ((MIRROR_MIN_DIM,) * 2 + (2,), np.float32),
        ((MIRROR_MIN_DIM,) * 2 + (1,), float)])
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

    @pytest.mark.parametrize("n", [0, 2, MIRROR_MIN_DIM])
    def test_payload_string_spelling_the_placeholder(self, n):
        # with n = 0 the payload holds no entries block
        payload = {"s": _BLOCK, _BLOCK: [1, 'x"' + _BLOCK, _BLOCK + "y"]}
        expected = dict(payload)
        if n:
            M = np.arange(n * n).reshape(n, n) * (1 + 0.5j) / 3
            payload["m"], expected["m"] = M, matrix_to_json(M)
        assert _dump(payload) == self.oracle(expected)

    def test_non_finite_wide_block_falls_back(self):
        n = MIRROR_MIN_DIM
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
    @pytest.mark.parametrize("n", [2, MIRROR_MIN_DIM])
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
        n = MIRROR_MIN_DIM + 2
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


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "opconvex.cli", "verify", "--theorem",
             "classical", "--trials", "30", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS classical" in proc.stdout
