"""Batch command-line front end.

Plain `key=value` output, one result per line, so runs diff cleanly.
Exit codes: 0 decided/computed, 2 unknown verdict, 3 precondition error,
1 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Optional, Sequence, TextIO

from .core import Certificate, Decision, Verdict, parse_rational
from .errors import (
    IntervalAlgebraError,
    ParseError,
    PreconditionError,
    SizeGuardExceeded,
)
from .matrices import (
    IntervalMatrix,
    IntervalVector,
    RealMatrix,
    format_imx,
    parse_imx,
)
from . import eigen, generate, inverse, oracles, regularity, systems

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNKNOWN = 2
EXIT_PRECONDITION = 3

# every ``check`` property and the sufficient conditions its ``--cond K``
# can name
_CONDITIONS = {
    "regular": (1, 2, 3),
    "singular": (1, 2, 3),
    "fullrank": (1, 2),
    "inverse-nonneg": (),
    "strong-pd": (1, 2),
    "weak-pd": (),
    "hurwitz": (),
    "hurwitz-sym": (),
    "schur-sym": (),
}


def _fmt_q(value) -> str:
    """Every rational the CLI prints goes through here.

    A numerator or denominator past Python's limit on int-to-str digits
    becomes a size-guard error (exit 3) instead of a bare ValueError.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise SizeGuardExceeded(
            "a rational in the output exceeds the int-to-str digit limit"
        ) from exc


def _fmt_vector(values) -> str:
    return "(" + ",".join(_fmt_q(v) for v in values) + ")"


def _fmt_matrix(matrix: RealMatrix) -> str:
    return "[" + ";".join(",".join(_fmt_q(v) for v in row) for row in matrix.rows) + "]"


def _fmt_box(box: IntervalVector) -> str:
    return "[" + "; ".join(_fmt_interval(e) for e in box.entries) + "]"


def _fmt_interval(interval) -> str:
    return f"{_fmt_q(interval.lo)}:{_fmt_q(interval.hi)}"


def _emit_certificate(out: TextIO, cert: Optional[Certificate]):
    if cert is None:
        return
    if cert.sign_vector is not None:
        out.write(
            "orthant=" + "".join("+" if s > 0 else "-" for s in cert.sign_vector) + "\n"
        )
    if cert.witness is not None:
        out.write(f"witness={_fmt_vector(cert.witness)}\n")
    if cert.value is not None:
        out.write(f"lambda={_fmt_q(cert.value)}\n")
    if isinstance(cert.member, RealMatrix):
        out.write(f"member={_fmt_matrix(cert.member)}\n")
    if cert.rhs_member is not None:
        out.write(f"member_rhs={_fmt_vector(cert.rhs_member)}\n")


def _emit_decision(out: TextIO, decision: Decision) -> int:
    out.write(f"verdict={'true' if decision.answer else 'false'}\n")
    _emit_certificate(out, decision.certificate)
    return EXIT_OK


def _emit_verdict(out: TextIO, verdict: Verdict) -> int:
    out.write(f"verdict={verdict.state}\n")
    if verdict.note:
        out.write(f"note={verdict.note}\n")
    return EXIT_UNKNOWN if verdict.is_unknown else EXIT_OK


def _load_matrix(path: str) -> IntervalMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_imx(text)


def _load_vector(path: str) -> IntervalVector:
    return IntervalVector.from_matrix(_load_matrix(path))


def _load_point_vector(path: str):
    box = _load_vector(path)
    values = []
    for e in box.entries:
        if not e.is_degenerate():
            raise ParseError(f"{path}: expected a degenerate (point) vector")
        values.append(e.lo)
    return tuple(values)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call of ``run``."""
    parser = argparse.ArgumentParser(
        prog="intlinalg",
        description="Exact rational interval linear algebra toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide a matrix property")
    p_check.add_argument(
        "property",
        choices=list(_CONDITIONS),
    )
    p_check.add_argument("matrix")
    # a sufficient condition or the exact decider, not both
    p_check_mode = p_check.add_mutually_exclusive_group()
    p_check_mode.add_argument("--cond", type=int, default=None)
    p_check_mode.add_argument("--exact", action="store_true")

    p_solve = sub.add_parser("solve", help="enclose the solution set")
    p_solve.add_argument("matrix")
    p_solve.add_argument("rhs")
    p_solve.add_argument(
        "--method",
        default="auto",
        choices=[
            "hull",
            "int-ge",
            "jacobi",
            "gauss-seidel",
            "krawczyk",
            "hbr",
            "bidiagonal",
            "auto",
        ],
    )
    p_solve.add_argument("--max-iter", type=int, default=1000)

    p_solvable = sub.add_parser("solvable", help="decide solvability")
    p_solvable.add_argument("matrix")
    p_solvable.add_argument("rhs")
    p_solvable.add_argument(
        "--mode",
        required=True,
        choices=["weak", "strong", "nonneg-weak", "nonneg-strong", "tolerance", "control"],
    )
    p_solvable.add_argument("--ineq", action="store_true")

    p_member = sub.add_parser("member", help="test a candidate vector")
    p_member.add_argument("matrix")
    p_member.add_argument("rhs")
    p_member.add_argument("--x", required=True)
    p_member.add_argument(
        "--kind",
        default="solution",
        choices=["solution", "tolerance", "control", "parametric"],
    )
    p_member.add_argument("--terms", type=int, default=None)
    p_member.add_argument("--pbox", default=None)

    p_inverse = sub.add_parser("inverse", help="interval matrix inverse")
    p_inverse.add_argument("matrix")
    p_inverse.add_argument(
        "--method",
        default="exact",
        choices=["exact", "enclosure", "unit-midpoint", "nonneg"],
    )

    p_det = sub.add_parser("det", help="determinant range")
    p_det.add_argument("matrix")
    p_det.add_argument("--method", default="exact", choices=["exact", "enclosure"])

    p_eig = sub.add_parser("eig", help="eigenvalue queries")
    p_eig.add_argument("matrix")
    p_eig.add_argument("--sym", action="store_true")
    p_eig.add_argument("--lambda", dest="lam", default=None)
    p_eig.add_argument("--vector", default=None)
    p_eig.add_argument("--perron", action="store_true")
    p_eig.add_argument("--range", dest="range_", action="store_true")
    p_eig.add_argument("--rho", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--radius", required=True)
    p_gen.add_argument(
        "--class",
        dest="klass",
        default="general",
        choices=list(generate.MATRIX_CLASSES),
    )
    p_gen.add_argument("--rhs", action="store_true")

    p_oracle = sub.add_parser("oracle", help="brute-force reference checks")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_op", required=True)
    o_det = oracle_sub.add_parser("vertex-det")
    o_det.add_argument("matrix")
    o_hull = oracle_sub.add_parser("vertex-hull")
    o_hull.add_argument("matrix")
    o_hull.add_argument("rhs")
    o_sample = oracle_sub.add_parser("sample")
    o_sample.add_argument("matrix")
    o_sample.add_argument("rhs")
    o_sample.add_argument("--seed", type=int, required=True)
    o_sample.add_argument("--count", type=int, default=10)
    o_mv = oracle_sub.add_parser("matvec-hull")
    o_mv.add_argument("matrix")
    o_mv.add_argument("x")
    return parser


def _run_check(args, out: TextIO) -> int:
    prop = args.property
    conds = _CONDITIONS[prop]
    if args.cond is not None and args.cond not in conds:
        if not conds:
            raise ParseError(f"{prop} takes no --cond")
        raise ParseError(
            f"--cond for {prop} must be one of {', '.join(map(str, conds))}"
        )
    matrix = _load_matrix(args.matrix)
    if prop in ("regular", "singular"):
        if args.cond is not None:
            fn = (
                regularity.regularity_sufficient
                if prop == "regular"
                else regularity.singularity_sufficient
            )
            return _emit_verdict(out, fn(matrix, args.cond))
        decision = regularity.is_regular_exact(matrix)
        if prop == "singular":
            decision = Decision(not decision.answer, decision.certificate)
        code = _emit_decision(out, decision)
        out.write("exact=true\n")
        return code
    if prop == "fullrank":
        if args.cond is not None:
            return _emit_verdict(out, regularity.fcr_sufficient(matrix, args.cond))
        code = _emit_decision(out, regularity.has_full_column_rank_exact(matrix))
        out.write("exact=true\n")
        return code
    if prop == "inverse-nonneg":
        decision = inverse.inverse_nonneg(matrix)
        out.write(f"verdict={'true' if decision.answer else 'false'}\n")
        if decision.answer:
            box = decision.certificate.member
            out.write(f"inverse_lower={_fmt_matrix(box.matrix.lower())}\n")
            out.write(f"inverse_upper={_fmt_matrix(box.matrix.upper())}\n")
            out.write("exact=true\n")
        return EXIT_OK
    if prop in ("strong-pd", "weak-pd", "hurwitz-sym", "schur-sym"):
        sym = eigen.SymmetricIntervalMatrix(matrix)
        if prop == "strong-pd":
            if args.cond is not None:
                return _emit_verdict(
                    out, eigen.strong_pd(sym, f"sufficient-{args.cond}")
                )
            code = _emit_decision(out, eigen.strong_pd(sym, "vertex-exact"))
            out.write("exact=true\n")
            return code
        if prop == "weak-pd":
            return _emit_verdict(out, eigen.weak_pd(sym))
        if prop == "hurwitz-sym":
            code = _emit_decision(out, eigen.hurwitz_sym(sym))
            out.write("exact=true\n")
            return code
        return _emit_verdict(out, eigen.schur_sym(sym))
    if prop == "hurwitz":
        return _emit_verdict(out, eigen.hurwitz_general(matrix))
    raise AssertionError(prop)


def _emit_report(out: TextIO, report: systems.SolveReport) -> int:
    out.write(f"method={report.method}\n")
    if report.insolvability_detected:
        out.write("insolvable=true\n")
    if report.box is not None:
        out.write(f"box={_fmt_box(report.box)}\n")
    out.write(f"exact={'true' if report.exact else 'false'}\n")
    out.write(f"iterations={report.iterations}\n")
    if not report.converged:
        out.write("converged=false\n")
    return EXIT_OK


def _run_solve(args, out: TextIO) -> int:
    matrix = _load_matrix(args.matrix)
    rhs = _load_vector(args.rhs)
    try:
        opts = systems.SolveOptions(max_iter=args.max_iter)
    except ValueError as exc:  # --max-iter below 1
        raise ParseError(str(exc)) from exc
    if args.method == "auto":
        report = systems.solve_auto(matrix, rhs, opts)
    elif args.method == "hull":
        report = systems.hull_exact(matrix, rhs)
    elif args.method == "bidiagonal":
        report = systems.hull_bidiagonal(matrix, rhs)
    else:
        report = systems.enclosure(matrix, rhs, args.method, opts)
    return _emit_report(out, report)


def _run_solvable(args, out: TextIO) -> int:
    matrix = _load_matrix(args.matrix)
    rhs = _load_vector(args.rhs)
    if args.mode in ("tolerance", "control"):
        decision = systems.tc_existence(matrix, rhs, args.mode)
    elif args.ineq:
        decision = systems.ineq_solvability(matrix, rhs, args.mode)
    else:
        decision = systems.solvability(matrix, rhs, args.mode)
    return _emit_decision(out, decision)


def _run_member(args, out: TextIO) -> int:
    x = _load_point_vector(args.x)
    if args.kind == "parametric":
        if args.terms is None or args.pbox is None:
            raise ParseError("parametric membership needs --terms and --pbox")
        if args.terms < 1:
            raise ParseError(f"--terms must be at least 1, got {args.terms}")
        stacked = _load_matrix(args.matrix)
        rhs_stack = _load_vector(args.rhs)
        k = args.terms
        if stacked.m % k != 0:
            raise ParseError("stacked matrix rows are not a multiple of --terms")
        m = stacked.m // k
        a_terms = []
        b_terms = []
        for t in range(k):
            block = stacked.submatrix(range(t * m, (t + 1) * m), range(stacked.n))
            if not block.is_degenerate():
                raise ParseError("parametric term matrices must be degenerate")
            a_terms.append(block.lower())
            b_terms.append(
                tuple(rhs_stack[t * m + i].lo for i in range(m))
            )
        system = systems.ParametricSystem(
            tuple(a_terms), tuple(b_terms), _load_vector(args.pbox)
        )
        witness = systems.parametric_witness(system, x)
        out.write(f"verdict={'true' if witness is not None else 'false'}\n")
        if witness is not None:
            out.write(f"witness={_fmt_vector(witness)}\n")
        return EXIT_OK
    matrix = _load_matrix(args.matrix)
    rhs = _load_vector(args.rhs)
    if args.kind == "solution":
        answer = systems.is_solution(matrix, rhs, x)
    else:
        answer = systems.tc_membership(matrix, rhs, x, args.kind)
    out.write(f"verdict={'true' if answer else 'false'}\n")
    return EXIT_OK


def _run_inverse(args, out: TextIO) -> int:
    matrix = _load_matrix(args.matrix)
    if args.method == "nonneg":
        decision = inverse.inverse_nonneg(matrix)
        out.write(f"verdict={'true' if decision.answer else 'false'}\n")
        if not decision.answer:
            return EXIT_OK
        result = decision.certificate.member
    elif args.method == "unit-midpoint":
        center, radius = matrix.midpoint_radius()
        if center != RealMatrix.identity(matrix.m):
            raise PreconditionError("unit-midpoint method needs midpoint I")
        result = inverse.inverse_unit_midpoint(radius)
    elif args.method == "exact":
        result = inverse.inverse_exact(matrix)
    else:
        result = inverse.inverse_enclosure(matrix)
    out.write(f"method={result.method}\n")
    out.write(f"inverse_lower={_fmt_matrix(result.matrix.lower())}\n")
    out.write(f"inverse_upper={_fmt_matrix(result.matrix.upper())}\n")
    out.write(f"exact={'true' if result.exact else 'false'}\n")
    return EXIT_OK


def _run_det(args, out: TextIO) -> int:
    matrix = _load_matrix(args.matrix)
    box = inverse.det_range(matrix, args.method)
    out.write(f"interval={_fmt_interval(box)}\n")
    out.write(f"exact={'true' if args.method == 'exact' else 'false'}\n")
    return EXIT_OK


def _run_eig(args, out: TextIO) -> int:
    matrix = _load_matrix(args.matrix)
    if args.lam is not None:
        lam = parse_rational(args.lam)
        decision = eigen.is_eigenvalue(matrix, lam)
        return _emit_decision(out, decision)
    if args.vector is not None:
        x = _load_point_vector(args.vector)
        if args.perron:
            decision = eigen.is_perron_vector(matrix, x)
        else:
            decision = eigen.is_eigenvector(matrix, x)
        code = _emit_decision(out, decision)
        return code
    if args.range_:
        sym = eigen.SymmetricIntervalMatrix(matrix)
        report = eigen.sym_eigen_range(sym)
        out.write(f"lambda_min={_fmt_interval(report.lambda_min)}\n")
        out.write(f"lambda_max={_fmt_interval(report.lambda_max)}\n")
        out.write(f"exact_min={'true' if report.exact_min else 'false'}\n")
        out.write(f"exact_max={'true' if report.exact_max else 'false'}\n")
        if report.subclass:
            out.write(f"subclass={report.subclass}\n")
        if report.attained_min is not None:
            out.write(f"attained_min={_fmt_interval(report.attained_min)}\n")
        if report.attained_max is not None:
            out.write(f"attained_max={_fmt_interval(report.attained_max)}\n")
        return EXIT_OK
    if args.rho:
        box = eigen.spectral_radius_range(matrix)
        out.write(f"interval={_fmt_interval(box)}\n")
        return EXIT_OK
    raise ParseError("eig needs one of --lambda, --vector, --range, --rho")


def _run_gen(args, out: TextIO) -> int:
    radius = parse_rational(args.radius)
    try:
        if args.rhs:
            generated = generate.gen_rhs(args.m, args.seed, radius).as_matrix()
        else:
            generated = generate.gen_interval_matrix(
                args.m, args.n, args.seed, radius, args.klass
            )
    except ValueError as exc:  # the generators' argument checks
        raise ParseError(str(exc)) from exc
    out.write(format_imx(generated))
    return EXIT_OK


def _run_oracle(args, out: TextIO) -> int:
    if args.oracle_op == "vertex-det":
        matrix = _load_matrix(args.matrix)
        singular = oracles.vertex_det_singularity(matrix)
        out.write(f"verdict={'true' if singular else 'false'}\n")
        box = oracles.vertex_det_range(matrix)
        out.write(f"det_range={_fmt_interval(box)}\n")
        return EXIT_OK
    if args.oracle_op == "vertex-hull":
        matrix = _load_matrix(args.matrix)
        rhs = _load_vector(args.rhs)
        box = oracles.vertex_system_hull(matrix, rhs)
        out.write(f"box={_fmt_box(box)}\n")
        return EXIT_OK
    if args.oracle_op == "sample":
        matrix = _load_matrix(args.matrix)
        rhs = _load_vector(args.rhs)
        try:
            members = oracles.sample_members(matrix, rhs, args.seed, args.count)
        except ValueError as exc:  # --count below 1
            raise ParseError(str(exc)) from exc
        for i, smp in enumerate(members):
            out.write(f"member{i}={_fmt_matrix(smp.matrix)}\n")
            out.write(f"rhs{i}={_fmt_vector(smp.rhs)}\n")
        return EXIT_OK
    if args.oracle_op == "matvec-hull":
        matrix = _load_matrix(args.matrix)
        x = _load_point_vector(args.x)
        box = oracles.vertex_matvec_hull(matrix, x)
        out.write(f"box={_fmt_box(box)}\n")
        return EXIT_OK
    raise AssertionError(args.oracle_op)


_RUNNERS = {
    "check": _run_check,
    "solve": _run_solve,
    "solvable": _run_solvable,
    "member": _run_member,
    "inverse": _run_inverse,
    "det": _run_det,
    "eig": _run_eig,
    "gen": _run_gen,
    "oracle": _run_oracle,
}


def run(argv: Sequence[str], out: TextIO = sys.stdout) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    started = time.perf_counter()
    # gen emits a loadable .imx, so its report lines become comments
    prefix = "# " if args.command == "gen" else ""
    out.write(prefix + "command=" + " ".join(argv) + "\n")
    try:
        code = _RUNNERS[args.command](args, out)
    except ParseError as exc:
        out.write(f"error=parse: {exc}\n")
        return EXIT_USAGE
    except FileNotFoundError as exc:
        out.write(f"error=missing file: {exc.filename}\n")
        return EXIT_USAGE
    except OSError as exc:
        # an input that exists but cannot be read, such as a directory
        out.write(f"error=unreadable file: {exc.filename}: {exc.strerror}\n")
        return EXIT_USAGE
    except IntervalAlgebraError as exc:
        out.write(f"error={type(exc).__name__}: {exc}\n")
        return EXIT_PRECONDITION
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    out.write(f"{prefix}time_ms={elapsed_ms:.3f}\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
