"""CLI surface: subcommands, exit codes, JSON reports, matrix file handling."""
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from opconvex import THEOREM_TAGS, matrix_from_json, matrix_to_json
from opconvex.cli import _dump, main


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

    def test_missing_operand_flag(self, eye2, capsys):
        code = main(["eval", "--functional", "rel-entropy", "--rho", eye2])
        assert code == 2
        assert "--sigma" in capsys.readouterr().err

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

    @pytest.mark.parametrize("bad", [None, "1.5", {"re": 1.0}],
                             ids=["null", "string", "object"])
    def test_non_numeric_entry_exits_two(self, tmp_path, eye2, bad, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"dim": 2, "entries": [[[1.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [bad, 0.0]]]}))
        code = main(["eval", "--functional", "rel-entropy", "--rho",
                     str(path), "--sigma", eye2])
        assert code == 2
        assert "numbers" in capsys.readouterr().err


# JSON trees for the printer property: matrix-shaped float blocks (NaN,
# infinities, -0.0), ragged and rectangular ones, blocks of other scalars,
# empty lists and dicts, and dicts with integer keys
FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16,
     1e-5, 1.0 / 3.0])
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS
           | st.text(max_size=4))
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

    def test_non_finite_block_falls_back(self):
        payload = {"entries": [[[1.0, 2.0]], [[float("nan"), -float("inf")]]]}
        assert "NaN" in _dump(payload)
        assert _dump(payload) == self.oracle(payload)


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
