"""Command-line front end: output grammar, exit codes, round trips."""

import io
import json
import os
import subprocess
import sys

import pytest

from intlinalg import format_imx, format_imx_vector, parse_imx
from intlinalg.cli import run
from intlinalg.generate import well_conditioned_system

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    lines = buf.getvalue().splitlines()
    fields = {}
    for line in lines:
        if "=" in line:
            key, _, value = line.partition("=")
            fields[key] = value
    return code, fields, lines


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("identity.imx", "2 2\n1 0\n0 1\n")
    write("wide.imx", "2 2\n0:2 -1:1\n-1:1 0:2\n")
    write("sharaya.imx", "3 2\n1 0:1\n-1 0:1\n-1:1 1\n")
    write("bidiag.imx", "2 2\n1:2 0\n0:1 1\n")
    write("rhs.imx", "2 1\n1\n0\n")
    write("x.imx", "2 1\n1\n0\n")
    write("x3.imx", "3 1\n1\n1\n1\n")
    write("swap.imx", "2 2\n0 1\n1 0\n")
    write("scalar.imx", "1 1\n1:2\n")
    write("regular3.imx", "3 3\n3:4 0:1 -1/2:0\n1 -4:-3 1/4:1/2\n0:1/2 1 2:5/2\n")
    write("scalar_rhs.imx", "1 1\n1\n")
    write("bad.imx", "2 2\n1 2\n3\n")
    return paths


class TestCheck:
    def test_regular_exact(self, files):
        code, fields, _ = invoke("check", "regular", files["identity.imx"], "--exact")
        assert code == 0
        assert fields["verdict"] == "true"
        assert fields["exact"] == "true"

    def test_singular_with_certificate(self, files):
        code, fields, _ = invoke("check", "singular", files["wide.imx"], "--exact")
        assert code == 0
        assert fields["verdict"] == "true"
        assert "member" in fields

    def test_sufficient_condition_unknown_exits_2(self, files):
        code, fields, _ = invoke("check", "regular", files["wide.imx"], "--cond", "1")
        assert code == 2
        assert fields["verdict"] == "unknown"

    def test_fullrank_sharaya(self, files):
        code, fields, _ = invoke("check", "fullrank", files["sharaya.imx"], "--exact")
        assert code == 0
        assert fields["verdict"] == "true"

    def test_strong_pd_requires_symmetric_views(self, files):
        code, fields, _ = invoke("check", "strong-pd", files["bidiag.imx"])
        assert code == 3

    def test_inverse_nonneg(self, files):
        code, fields, _ = invoke("check", "inverse-nonneg", files["identity.imx"])
        assert code == 0
        assert fields["verdict"] == "true"
        assert "inverse_lower" in fields


class TestSolve:
    def test_bidiagonal_example(self, files):
        code, fields, _ = invoke(
            "solve", files["bidiag.imx"], files["rhs.imx"], "--method", "bidiagonal"
        )
        assert code == 0
        assert fields["box"] == "[1/2:1; -1:0]"
        assert fields["exact"] == "true"

    def test_hull(self, files):
        code, fields, _ = invoke(
            "solve", files["scalar.imx"], files["scalar_rhs.imx"], "--method", "hull"
        )
        assert code == 0
        assert fields["box"] == "[1/2:1]" or fields["box"].startswith("[1/2")

    def test_unbounded_is_precondition_error(self, files, tmp_path):
        wide = tmp_path / "unbounded.imx"
        wide.write_text("1 1\n-1:1\n")
        code, fields, _ = invoke(
            "solve", str(wide), files["scalar_rhs.imx"], "--method", "hull"
        )
        assert code == 3
        assert "error" in fields


class TestSolvableAndMember:
    def test_weak_vs_strong(self, files, tmp_path):
        wide = tmp_path / "w.imx"
        wide.write_text("1 1\n-1:1\n")
        rhs = tmp_path / "r.imx"
        rhs.write_text("1 1\n2\n")
        code, fields, _ = invoke("solvable", str(wide), str(rhs), "--mode", "weak")
        assert code == 0 and fields["verdict"] == "true"
        code, fields, _ = invoke("solvable", str(wide), str(rhs), "--mode", "strong")
        assert code == 0 and fields["verdict"] == "false"
        assert "witness" in fields

    def test_tolerance_mode(self, files, tmp_path):
        a = tmp_path / "a.imx"
        a.write_text("1 1\n1\n")
        b = tmp_path / "b.imx"
        b.write_text("1 1\n-1:1\n")
        code, fields, _ = invoke("solvable", str(a), str(b), "--mode", "tolerance")
        assert code == 0 and fields["verdict"] == "true"

    def test_member_solution(self, files):
        code, fields, _ = invoke(
            "member",
            files["identity.imx"],
            files["rhs.imx"],
            "--x",
            files["x.imx"],
            "--kind",
            "solution",
        )
        assert code == 0
        assert fields["verdict"] == "true"

    def test_member_parametric(self, files, tmp_path):
        stacked = tmp_path / "terms.imx"
        stacked.write_text("4 2\n1 0\n0 1\n0 1\n1 0\n")
        rhs = tmp_path / "terms_rhs.imx"
        rhs.write_text("4 1\n1\n1\n0\n0\n")
        pbox = tmp_path / "pbox.imx"
        pbox.write_text("2 1\n1:2\n0:1\n")
        x = tmp_path / "cand.imx"
        x.write_text("2 1\n1\n0\n")
        code, fields, _ = invoke(
            "member",
            str(stacked),
            str(rhs),
            "--x",
            str(x),
            "--kind",
            "parametric",
            "--terms",
            "2",
            "--pbox",
            str(pbox),
        )
        assert code == 0
        assert fields["verdict"] == "true"
        assert "witness" in fields


class TestInverseDetEig:
    def test_inverse_exact(self, files):
        code, fields, _ = invoke("inverse", files["scalar.imx"].replace("scalar", "identity"), "--method", "exact")
        assert code == 0
        assert fields["inverse_lower"] == "[1,0;0,1]"

    def test_inverse_exact_bounds(self, files):
        code, fields, _ = invoke("inverse", files["regular3.imx"], "--method", "exact")
        assert code == 0
        assert fields["method"] == "hull"
        assert fields["inverse_lower"] == "[2/9,0,-2/85;7/149,-10/31,3/133;-2/15,10/141,36/101]"
        assert fields["inverse_upper"] == "[1/3,2/17,8/101;10/93,-3/14,1/10;-1/45,4/25,104/213]"
        assert fields["exact"] == "true"

    def test_inverse_unit_midpoint_needs_unit_center(self, files):
        code, fields, _ = invoke("inverse", files["wide.imx"], "--method", "unit-midpoint")
        assert code == 3

    def test_det(self, files):
        code, fields, _ = invoke("det", files["identity.imx"], "--method", "exact")
        assert code == 0
        assert fields["interval"] == "1:1"

    def test_eig_lambda(self, files):
        code, fields, _ = invoke("eig", files["scalar.imx"], "--lambda", "1")
        assert code == 0
        assert fields["verdict"] == "true"

    def test_eig_range_and_rho(self, files):
        code, fields, _ = invoke("eig", files["identity.imx"], "--sym", "--range")
        assert code == 0
        assert "lambda_min" in fields and "lambda_max" in fields
        code, fields, _ = invoke("eig", files["identity.imx"], "--rho")
        assert code == 0

    def test_eig_vector(self, files):
        code, fields, _ = invoke(
            "eig", files["identity.imx"], "--vector", files["x.imx"]
        )
        assert code == 0
        assert fields["verdict"] == "true"
        assert fields["lambda"] == "1"


class TestGenAndOracle:
    def test_round_trip(self, tmp_path):
        buf = io.StringIO()
        code = run(
            ["gen", "--m", "2", "--n", "2", "--seed", "9", "--radius", "1/3"],
            out=buf,
        )
        assert code == 0
        # gen output is a loadable .imx as-is (report lines are comments)
        matrix = parse_imx(buf.getvalue())
        assert parse_imx(format_imx(matrix)) == matrix

    def test_gen_classes(self, tmp_path):
        for klass in ("general", "bidiagonal", "mmatrix", "symmetric"):
            buf = io.StringIO()
            code = run(
                [
                    "gen",
                    "--m",
                    "2",
                    "--n",
                    "2",
                    "--seed",
                    "4",
                    "--radius",
                    "1/8",
                    "--class",
                    klass,
                ],
                out=buf,
            )
            assert code == 0

    def test_oracle_vertex_det(self, files):
        code, fields, _ = invoke("oracle", "vertex-det", files["wide.imx"])
        assert code == 0
        assert fields["verdict"] == "true"

    def test_oracle_vertex_hull(self, files, tmp_path):
        a = tmp_path / "a.imx"
        a.write_text("1 1\n2:4\n")
        b = tmp_path / "b.imx"
        b.write_text("1 1\n2:4\n")
        code, fields, _ = invoke("oracle", "vertex-hull", str(a), str(b))
        assert code == 0
        assert fields["box"] == "[1/2:2]"

    def test_oracle_sample_deterministic(self, files):
        _, first, _ = invoke(
            "oracle", "sample", files["wide.imx"], files["rhs.imx"], "--seed", "3"
        )
        _, second, _ = invoke(
            "oracle", "sample", files["wide.imx"], files["rhs.imx"], "--seed", "3"
        )
        first.pop("time_ms"), second.pop("time_ms")
        assert first == second


class TestExitCodes:
    def test_parse_error_is_1(self, files):
        code, fields, _ = invoke("check", "regular", files["bad.imx"])
        assert code == 1

    def test_missing_file_is_1(self):
        code, _, _ = invoke("check", "regular", "no-such-file.imx")
        assert code == 1

    def test_usage_error_is_1(self):
        assert invoke("frobnicate")[0] == 1
        assert invoke("solve")[0] == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "regular", "identity.imx", "--cond", "4"),
            ("check", "singular", "identity.imx", "--cond", "9"),
            ("check", "fullrank", "identity.imx", "--cond", "0"),
            ("check", "strong-pd", "identity.imx", "--cond", "3"),
            ("check", "inverse-nonneg", "identity.imx", "--cond", "1"),
            ("check", "weak-pd", "identity.imx", "--cond", "7"),
            ("check", "hurwitz", "identity.imx", "--cond", "1"),
            ("check", "hurwitz-sym", "identity.imx", "--cond", "2"),
            ("check", "schur-sym", "identity.imx", "--cond", "7"),
            ("gen", "--m", "2", "--n", "2", "--seed", "1", "--radius", "-1"),
            ("gen", "--m", "2", "--n", "2", "--seed", "1", "--radius", "-1", "--rhs"),
            ("gen", "--m", "3", "--n", "2", "--seed", "1", "--radius", "1",
             "--class", "mmatrix"),
            ("oracle", "sample", "identity.imx", "rhs.imx", "--seed", "1",
             "--count", "0"),
            ("member", "identity.imx", "rhs.imx", "--x", "x.imx", "--kind",
             "parametric", "--terms", "0", "--pbox", "rhs.imx"),
            ("member", "identity.imx", "rhs.imx", "--x", "x.imx", "--kind",
             "parametric", "--terms", "-1", "--pbox", "rhs.imx"),
            ("solve", "identity.imx", "rhs.imx", "--method", "jacobi", "--max-iter", "0"),
            ("solve", "identity.imx", "rhs.imx", "--method", "jacobi", "--max-iter", "-3"),
        ],
        ids=[
            "regular-cond-4", "singular-cond-9", "fullrank-cond-0",
            "strong-pd-cond-3", "inverse-nonneg-cond-1", "weak-pd-cond-7",
            "hurwitz-cond-1", "hurwitz-sym-cond-2", "schur-sym-cond-7",
            "gen-negative-radius", "gen-rhs-negative-radius",
            "gen-mmatrix-not-square", "oracle-sample-count-0",
            "member-terms-0", "member-terms-negative",
            "solve-max-iter-0", "solve-max-iter-negative",
        ],
    )
    def test_bad_argument_value_is_1(self, files, argv):
        code, fields, _ = invoke(*(files.get(arg, arg) for arg in argv))
        assert code == 1
        assert fields["error"].startswith("parse: ")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this Python has no int-to-str digit limit",
    )
    def test_oversized_rational_is_3(self, tmp_path):
        # interval elimination on this n = 9 system ends with endpoints of
        # about 15900 bits, past the int-to-str limit of 4300 digits
        matrix, rhs = well_conditioned_system(9, 0)
        a = tmp_path / "a.imx"
        a.write_text(format_imx(matrix))
        b = tmp_path / "b.imx"
        b.write_text(format_imx_vector(rhs))
        code, fields, _ = invoke("solve", str(a), str(b), "--method", "int-ge")
        assert code == 3
        assert fields["error"].startswith("SizeGuardExceeded: ")
        assert "box" not in fields

    def test_precondition_is_3(self, files):
        code, _, _ = invoke("det", files["sharaya.imx"])
        assert code == 3

    @pytest.mark.parametrize("perron", [False, True], ids=["eigenvector", "perron"])
    def test_vector_length_mismatch_is_3(self, files, perron):
        argv = ["eig", files["swap.imx"], "--vector", files["x3.imx"]]
        code, fields, _ = invoke(*argv, *(["--perron"] if perron else []))
        assert code == 3
        assert fields["error"].startswith("DimensionMismatch: ")

    def test_unknown_is_2(self, files):
        code, _, _ = invoke("check", "weak-pd", files["wide.imx"])
        assert code in (0, 2)  # verdict-dependent, must not be an error code
        code, fields, _ = invoke("check", "regular", files["wide.imx"], "--cond", "2")
        assert code == 2


def run_in_one_process(argvs):
    """[exit code, stdout, stderr] of each ``cli.run`` call, all made in one
    fresh interpreter, with the ``time_ms=`` lines dropped."""
    code = (
        "import contextlib, io, json, sys\n"
        "from intlinalg import cli\n"
        "results = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        rc = cli.run(argv, out)\n"
        "    results.append([rc, out.getvalue(), err.getvalue()])\n"
        "print(json.dumps(results))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return [
        [rc, [l for l in out.splitlines() if not l.startswith("time_ms=")], err]
        for rc, out, err in json.loads(done.stdout)
    ]


def test_reused_parser_matches_fresh_calls(files):
    """The parser is built once per process: a usage error and then two
    different subcommands print what each prints in a fresh interpreter."""
    argvs = [
        ["solve", files["identity.imx"]],
        ["solve", files["identity.imx"], files["rhs.imx"], "--method", "krawczyk"],
        ["check", "regular", files["wide.imx"], "--exact"],
    ]
    together = run_in_one_process(argvs)
    assert [rc for rc, _, _ in together] == [1, 0, 0]
    assert together == [run_in_one_process([argv])[0] for argv in argvs]


@pytest.mark.parametrize("module", ["intlinalg", "intlinalg.cli"])
@pytest.mark.parametrize("method", ["hbr", "no-such-method"])
def test_python_m_runs_the_command_line(tmp_path, module, method):
    """``python -m`` prints the lines ``cli.run`` prints and exits with its
    code; a bad --method is a usage error, exit 1."""
    a, b = well_conditioned_system(3, 0)
    (tmp_path / "A.imx").write_text(format_imx(a))
    (tmp_path / "b.imx").write_text(format_imx_vector(b))
    argv = ["solve", str(tmp_path / "A.imx"), str(tmp_path / "b.imx"), "--method", method]
    buf = io.StringIO()
    code = run(argv, out=buf)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    done = subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )

    def lines(text):
        return [l for l in text.splitlines() if not l.startswith("time_ms=")]

    assert (done.returncode, lines(done.stdout)) == (code, lines(buf.getvalue()))
    assert code == (0 if method == "hbr" else 1)
