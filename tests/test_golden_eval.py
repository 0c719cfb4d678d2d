"""Golden CLI output: `opconvex eval --json` and `opconvex atoms` pinned
byte for byte.

Each case writes small fixed matrices to files, runs one `eval --json`
command line over them and pins the exit code and the sha256 of stdout.
The payload echoes every decoded input, so a change to the matrix wire
codec, the report printer or a functional's value changes a hash. The
cases cover all three functionals, n = 1, complex inputs and a K with
signed-zero imaginary parts.

The hashes were taken with numpy 2.4.6; other numpy builds may round
differently in the last bit, so the test skips under them. The `atoms`
listing does no arithmetic, so its pins hold under any numpy.
"""
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from opconvex.cli import main

GOLDEN_NUMPY = "2.4.6"


def _entries(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _positive(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    P = G @ G.conj().T + 0.1 * np.eye(n)
    return (P + P.conj().T) / 2.0


def _state(n, seed):
    P = _positive(n, seed)
    return P / np.trace(P).real


def _general(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# name -> complex matrix; K_SIGNED has -0.0 imaginary parts on purpose
MATRICES = {
    "one_a": np.array([[0.75]]),
    "one_b": np.array([[1.0 / 3.0]]),
    "one_k": np.array([[-2.5 + 0.5j]]),
    "rho2": np.diag([0.5, 0.5]),
    "sigma2": np.diag([0.25, 0.75]),
    "rho3": _state(3, 1),
    "sigma3": _state(3, 2),
    "rho5": _state(5, 3),
    "sigma5": _state(5, 4),
    "a3": _positive(3, 5),
    "b3": _positive(3, 6),
    "k3": _general(3, 7),
    "a4": _positive(4, 8),
    "b4": _positive(4, 9),
    "k4": _general(4, 10),
}
K_SIGNED = [[[1.0, -0.0], [0.5, 0.25]], [[-0.0, -0.0], [2.0, -0.0]]]
# real symmetric, unit trace, diagonally dominant, negative off-diagonals
MATRICES["rho4_sym"] = np.array([[0.4, -0.1, 0.05, -0.02],
                                 [-0.1, 0.3, -0.05, 0.01],
                                 [0.05, -0.05, 0.2, -0.03],
                                 [-0.02, 0.01, -0.03, 0.1]])
MATRICES["sigma4"] = _state(4, 11)
# Hermitian and diagonally dominant, with -0.0 imaginary parts below the
# diagonal; once symmetrized, the (0, 1) mirror pair has imaginary parts
# +0.0/-0.0 and the (1, 2) pair +0.0/+0.0
MATRICES["a3_zero_im"] = np.array([
    [2.0, complex(0.5, 0.0), complex(0.3, 0.2)],
    [complex(0.5, -0.0), 1.5, complex(-0.4, 0.0)],
    [complex(0.3, -0.2), complex(-0.4, -0.0), 1.0]])

CASES = {
    "rel-entropy n=1":
        ["--functional", "rel-entropy", "--rho", "one_a", "--sigma", "one_b"],
    "rel-entropy n=2 diagonal":
        ["--functional", "rel-entropy", "--rho", "rho2", "--sigma", "sigma2"],
    "rel-entropy n=3":
        ["--functional", "rel-entropy", "--rho", "rho3", "--sigma", "sigma3"],
    "rel-entropy n=5":
        ["--functional", "rel-entropy", "--rho", "rho5", "--sigma", "sigma5"],
    "lieb-s n=1":
        ["--functional", "lieb-s", "--a", "one_a", "--b", "one_b", "--k",
         "one_k", "--s", "0.3"],
    "lieb-s n=3":
        ["--functional", "lieb-s", "--a", "a3", "--b", "b3", "--k", "k3",
         "--s", "0.5"],
    "lieb-s n=2 signed zeros":
        ["--functional", "lieb-s", "--a", "rho2", "--b", "sigma2", "--k",
         "k_signed", "--s", "0.25"],
    "lieb-pq n=1":
        ["--functional", "lieb-pq", "--a", "one_a", "--b", "one_b", "--k",
         "one_k", "--p", "0.6", "--q", "0.2"],
    "lieb-pq n=3":
        ["--functional", "lieb-pq", "--a", "a3", "--b", "b3", "--k", "k3",
         "--p", "0.3", "--q", "0.4"],
    "lieb-pq n=4":
        ["--functional", "lieb-pq", "--a", "a4", "--b", "b4", "--k", "k4",
         "--p", "0.5", "--q", "0.5"],
    "rel-entropy n=4 real symmetric":
        ["--functional", "rel-entropy", "--rho", "rho4_sym", "--sigma",
         "sigma4"],
    "lieb-s n=3 zero imaginary pairs":
        ["--functional", "lieb-s", "--a", "a3_zero_im", "--b", "b3", "--k",
         "k3", "--s", "0.5"],
}

GOLDEN = {
    'rel-entropy n=1':
        (0, '52bccebb9377dc2da5c154918db5fc6b5e4dc78cca9f0552626dedffa424912c'),
    'rel-entropy n=2 diagonal':
        (0, 'fe69335728849df1c2eecece356275fce65f9c957be5e9eb91f3da6f460be66e'),
    'rel-entropy n=3':
        (0, '378e8908d85bb15a11de00dd4a3841a1e556da9b372209d61b41fe47edfe177f'),
    'rel-entropy n=5':
        (0, '0dfc7c756dd2a50a7e4423b35e30383ab93de50076e264c9a8b7facde6a3d05c'),
    'lieb-s n=1':
        (0, '19a17a6deea166a9e97f5e2db33fbd32345cd8c38e76bfb10482c18dbfddc54e'),
    'lieb-s n=3':
        (0, '9b1f8c8e073c5b168998b444b9452be13fad9f50111a6bcfc2dfcae3e44bd639'),
    'lieb-s n=2 signed zeros':
        (0, '2c5f51776756a09d7f13aaf2df1a0b1864dbd5058a6ff651a9ec207f4f9ad8a7'),
    'lieb-pq n=1':
        (0, '2ae319542528b2de1d35ae5f26d23c10708703034c4aa8191fbb956bda85c26a'),
    'lieb-pq n=3':
        (0, '43be4e5dee240b3f81258d93ae3737d2fecc5b01b2d08a314b45b6017398fa32'),
    'lieb-pq n=4':
        (0, '35e439b4797543f1559b6334f37b52e3fa2a8357c97872d7e4e6d9ef88deca80'),
    'rel-entropy n=4 real symmetric':
        (0, '8b0a8b3a350d553ca75fbdfeb914e84bee2d2775e298a172ecffe1a140a2ad9c'),
    'lieb-s n=3 zero imaginary pairs':
        (0, '14a7994eea9a196be8cef3fdf3bdbfe54fa5154e33fdc8377be61eb99920114e'),
}


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_eval")
    paths = {}
    docs = {name: {"dim": M.shape[0], "entries": _entries(M)}
            for name, M in MATRICES.items()}
    docs["k_signed"] = {"dim": 2, "entries": K_SIGNED}
    for name, doc in docs.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"golden hashes were taken with numpy "
                           f"{GOLDEN_NUMPY}")
@pytest.mark.parametrize("case", list(CASES))
def test_eval_matches_golden_hash(case, matrix_files):
    argv = ["eval", "--json"] + [matrix_files.get(a, a) for a in CASES[case]]
    assert _run(argv) == GOLDEN[case]


ATOMS_GOLDEN = {
    "atoms":
        (0, '11aad9158dee07ad79ba3c5741d299b87d33124355558d09de88666cd721c8c4'),
    "atoms --json":
        (0, 'cd0cd302a2c937ca2f435c1820dcef61b9eb3bb6c1f77ca67c41002afc03f306'),
}


@pytest.mark.parametrize("command", list(ATOMS_GOLDEN))
def test_atoms_matches_golden_hash(command):
    assert _run(command.split()) == ATOMS_GOLDEN[command]
