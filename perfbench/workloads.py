"""The three workloads: their instances, the call each instance makes, and
the checks each output must pass.

``sweep`` and ``hull`` run exact orthant deciders, whose cost follows the
simplex pivot path and varies two- to threefold between generated
instances of one size.  Both therefore run a fixed corpus made by
``intlinalg.generate``; the run's seed draws row sign flips for every
instance.  They keep the answer, the certificate checks and the solution
set (so the stored hull reference holds for every seed) and nearly all of
the LP work, while the program still receives different inputs per seed.
``enclose`` does the same, with transformations that keep each structured
class (M-matrix, bidiagonal) on its route through ``solve --method auto``.
A fixed corpus also makes each call's outcome independent of the seed:
``int-ge`` fails on about 3 in 10 generated n = 8 systems (see the FOUND
line in CHANGES.md), and a failure that comes and goes with the seed
cannot be counted the same way in every run.

Every check runs after the timed loop and compares with ``reference.py``,
which shares no code with the package.
"""

from __future__ import annotations

import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import intlinalg
from intlinalg import cli, generate, oracles
from intlinalg.core import Interval
from intlinalg.matrices import IntervalMatrix, IntervalVector

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
HULL_REF_PATH = os.path.join(HERE, "hull_ref.json")
ENCLOSE_METHODS = ("int-ge", "jacobi", "gauss-seidel", "krawczyk", "hbr", "auto")
# a right-hand side box around 0 meets every orthant of a regular system
CENTRED_HALF_WIDTH = Fraction(1, 16)
MEMBER_SAMPLES = 8


@dataclass
class Case:
    """One instance: what is written to disk and the call made on it."""

    key: str
    kind: str
    n: int
    matrix: IntervalMatrix
    rhs: Optional[IntervalVector] = None
    method: Optional[str] = None
    route: Optional[str] = None  # the method= line auto must report
    paths: Dict[str, str] = field(default_factory=dict)


def _flip(e: Interval) -> Interval:
    return Interval(-e.hi, -e.lo)


def transform(matrix, rhs, rng: random.Random, mode: str = "signs"):
    """A seeded change of input that keeps the problem and its structure.

    ``signs`` flips the signs of random rows of the system, which keeps the
    solution set, a bidiagonal pattern and, as measured, the simplex pivot
    counts within a few per cent (a row permutation moved them by up to
    15 %).  ``symmetric`` permutes rows and columns alike, which keeps an
    M-matrix and permutes its solution set the same way.
    """
    order = list(range(matrix.m))
    if mode == "symmetric":
        rng.shuffle(order)
        signs = [1] * matrix.m
    else:
        signs = [rng.choice((1, -1)) for _ in order]
    cols = order if mode == "symmetric" else range(matrix.n)
    rows = [
        [matrix[i, j] if s > 0 else _flip(matrix[i, j]) for j in cols]
        for i, s in zip(order, signs)
    ]
    out_rhs = None
    if rhs is not None:
        out_rhs = IntervalVector(
            [rhs[i] if s > 0 else _flip(rhs[i]) for i, s in zip(order, signs)]
        )
    return IntervalMatrix(rows), out_rhs


def centred(rhs: IntervalVector) -> IntervalVector:
    """The right-hand side moved to midpoint 0, widened by a fixed margin."""
    return IntervalVector(
        [
            Interval(-(e.hi - e.lo) / 2 - CENTRED_HALF_WIDTH,
                     (e.hi - e.lo) / 2 + CENTRED_HALF_WIDTH)
            for e in rhs.entries
        ]
    )


def tall_matrix(n: int, seed: int) -> IntervalMatrix:
    """(n+1) x n: a certified-regular n x n block over one general row."""
    top = generate.gen_regular_matrix(n, seed)
    extra = generate.gen_interval_matrix(1, n, seed, Fraction(1, 4))
    return IntervalMatrix(list(top.entries) + list(extra.entries))


# ---------------------------------------------------------------------------
# instance plans

# (kind, n, corpus generator seeds)
SWEEP_PLAN = (
    ("regular", 3, range(6)),
    ("regular", 4, range(2)),
    ("boundary", 3, range(4)),
    ("boundary", 4, range(4)),
    ("boundary", 5, range(4)),
    ("tall", 3, range(2)),
    ("tall", 4, range(1)),
    ("weak", 3, range(4)),
    ("weak", 4, range(3)),
    ("weak", 5, range(1)),
    ("strong", 3, range(4)),
    ("strong", 4, range(2)),
)
HULL_PLAN = ((3, range(6)), (4, range(1)))
ENCLOSE_SIZES = (6, 7, 8)
ENCLOSE_CORPUS = range(3)
# (name, generator, transform, corpus, the route auto must take)
STRUCTURED_PLAN = (
    ("mm", generate.mmatrix_system, "symmetric", range(1), "inverse-nonneg"),
    ("bidiag", generate.bidiagonal_system, "signs", range(2), "bidiagonal"),
)
STRUCTURED_SIZES = (3, 6, 7, 8)


def sweep_cases(seed: int) -> List[Case]:
    cases = []
    for kind, n, corpus in SWEEP_PLAN:
        for gs in corpus:
            rhs = None
            if kind == "regular":
                matrix = generate.gen_regular_matrix(n, gs)
            elif kind == "boundary":
                matrix = generate.gen_boundary_singular_matrix(n, gs)
            elif kind == "tall":
                matrix = tall_matrix(n, gs)
            else:
                matrix, rhs = generate.well_conditioned_system(n, gs)
            key = f"{kind}-n{n}-g{gs}"
            matrix, rhs = transform(matrix, rhs, random.Random(f"{seed}:{key}"))
            cases.append(Case(key, kind, n, matrix, rhs))
    return cases


def hull_systems(n: int, gs: int):
    """The corpus system and its two right-hand sides, before the seed's transform."""
    matrix, rhs = generate.well_conditioned_system(n, gs)
    return matrix, {"offset": rhs, "centred": centred(rhs)}


def hull_cases(seed: int) -> List[Case]:
    cases = []
    for n, corpus in HULL_PLAN:
        for gs in corpus:
            matrix, sides = hull_systems(n, gs)
            for half, rhs in sides.items():
                key = f"hull-{half}-n{n}-g{gs}"
                a, b = transform(matrix, rhs, random.Random(f"{seed}:{key}"))
                cases.append(Case(key, "hull", n, a, b))
    return cases


def enclose_cases(seed: int) -> List[Case]:
    cases = []
    for n in ENCLOSE_SIZES:
        for gs in ENCLOSE_CORPUS:
            matrix, rhs = generate.well_conditioned_system(n, gs)
            for method in ENCLOSE_METHODS:
                key = f"wc-n{n}-g{gs}-{method}"
                a, b = transform(matrix, rhs, random.Random(f"{seed}:{key}"))
                cases.append(Case(key, "enclose", n, a, b, method=method))
    for name, make, mode, corpus, route in STRUCTURED_PLAN:
        for n in STRUCTURED_SIZES:
            for gs in corpus:
                key = f"{name}-n{n}-g{gs}"
                a, b = transform(*make(n, gs), random.Random(f"{seed}:{key}"), mode)
                cases.append(Case(key, "enclose", n, a, b, method="auto", route=route))
    return cases


# ---------------------------------------------------------------------------
# preparing, loading and calling


def write_cases(cases: List[Case], workdir: str) -> None:
    """Write each instance as .imx files; systems share one matrix file."""
    written: Dict[str, str] = {}
    for case in cases:
        for role, obj in (("A", case.matrix), ("b", case.rhs)):
            if obj is None:
                continue
            text = (intlinalg.format_imx(obj) if role == "A"
                    else intlinalg.format_imx_vector(obj))
            path = written.get(text)
            if path is None:
                path = os.path.join(workdir, f"{len(written):03d}.imx")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                written[text] = path
            case.paths[role] = path


def load_cases(cases: List[Case]) -> None:
    """Replace the generated objects by those parsed from the files."""
    for case in cases:
        with open(case.paths["A"], encoding="utf-8") as fh:
            case.matrix = intlinalg.parse_imx(fh.read())
        if "b" in case.paths:
            with open(case.paths["b"], encoding="utf-8") as fh:
                case.rhs = intlinalg.parse_imx_vector(fh.read())


def make_call(case: Case) -> Callable[[], object]:
    """The call the program gets; names are looked up when it runs."""
    a, b = case.matrix, case.rhs
    if case.kind in ("regular", "boundary"):
        return lambda: intlinalg.is_regular_exact(a)
    if case.kind == "tall":
        return lambda: intlinalg.has_full_column_rank_exact(a)
    if case.kind in ("weak", "strong"):
        return lambda: intlinalg.solvability(a, b, case.kind)
    if case.kind == "hull":
        return lambda: intlinalg.hull_exact(a, b)
    argv = ["solve", case.paths["A"], case.paths["b"], "--method", case.method]

    def solve():
        buf = io.StringIO()
        code = cli.run(argv, buf)
        return code, buf.getvalue()

    return solve


def is_failure(case: Case, output) -> bool:
    """A call that raised, or a command that exited with an error code."""
    if isinstance(output, BaseException):
        return True
    return case.kind == "enclose" and output[0] != 0


def same_output(case: Case, first, other) -> bool:
    """Repeat calls must agree; the command line's timing line may differ."""
    if isinstance(first, BaseException) or isinstance(other, BaseException):
        return repr(first) == repr(other)
    if case.kind == "enclose":
        return _untimed(first) == _untimed(other)
    return first == other


def _untimed(output):
    code, text = output
    return code, [l for l in text.splitlines() if not l.startswith("time_ms=")]


# ---------------------------------------------------------------------------
# checks


def _bounds(matrix: IntervalMatrix):
    lo = [[e.lo for e in row] for row in matrix.entries]
    hi = [[e.hi for e in row] for row in matrix.entries]
    return lo, hi


def _vec_bounds(vector: IntervalVector):
    return (tuple(e.lo for e in vector.entries), tuple(e.hi for e in vector.entries))


def _rows(member) -> List[List[Fraction]]:
    return [list(row) for row in member.rows]


def load_hull_reference() -> Dict[str, Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]]:
    with open(HULL_REF_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)["systems"]
    return {
        key: (tuple(Fraction(v) for v in rec["lo"]), tuple(Fraction(v) for v in rec["hi"]))
        for key, rec in raw.items()
    }


def _solutions(case: Case, seed: int):
    """Exact solutions of the midpoint system and seeded endpoint systems."""
    lo, hi = _bounds(case.matrix)
    b_lo, b_hi = _vec_bounds(case.rhs)
    mid, _ = ref.midpoint_radius(lo, hi)
    b_mid = tuple((x + y) / 2 for x, y in zip(b_lo, b_hi))
    systems = [(mid, b_mid)] + ref.endpoint_members(
        lo, hi, b_lo, b_hi, f"{seed}:{case.key}", MEMBER_SAMPLES
    )
    return [ref.solve(m, b) for m, b in systems]


def _check_box_holds(case: Case, box_lo, box_hi, seed: int) -> List[str]:
    errors = []
    for x in _solutions(case, seed):
        if x is None:
            errors.append(f"{case.key}: a sampled member system is singular")
        elif not ref.box_contains(box_lo, box_hi, x):
            errors.append(f"{case.key}: box misses an exact member solution")
    return errors


def check_sweep(case: Case, out) -> List[str]:
    lo, hi = _bounds(case.matrix)
    if case.kind == "boundary":
        cert = out.certificate
        if out.answer or cert is None or cert.member is None or cert.witness is None:
            return [f"{case.key}: expected False with a singular member"]
        member = _rows(cert.member)
        x = cert.witness
        if not ref.inside(lo, hi, member):
            return [f"{case.key}: certificate member lies outside the matrix"]
        if any(v != 0 for v in ref.matvec(member, x)) or all(v == 0 for v in x):
            return [f"{case.key}: witness is not a nonzero kernel vector"]
        return []
    if not out.answer:
        return [f"{case.key}: expected True"]
    # a tall matrix has full column rank when some n rows form a regular block
    drops = range(len(lo)) if case.kind == "tall" else [None]
    if not any(
        ref.certified_regular(
            [r for i, r in enumerate(lo) if i != d],
            [r for i, r in enumerate(hi) if i != d],
        )
        for d in drops
    ):
        return [f"{case.key}: input not certified regular by the reference"]
    if case.kind == "weak":
        cert = out.certificate
        if cert is None or cert.member is None or cert.rhs_member is None:
            return [f"{case.key}: weak solvability without a member system"]
        member = _rows(cert.member)
        b_lo, b_hi = _vec_bounds(case.rhs)
        if not ref.inside(lo, hi, member):
            return [f"{case.key}: certificate member lies outside the matrix"]
        if not ref.box_contains(b_lo, b_hi, tuple(cert.rhs_member)):
            return [f"{case.key}: certificate rhs lies outside the box"]
        if ref.matvec(member, cert.witness) != tuple(cert.rhs_member):
            return [f"{case.key}: member times witness misses the rhs"]
    return []


def check_hull(case: Case, out, seed: int, reference, oracle: bool) -> List[str]:
    if out.box is None or out.insolvability_detected or not out.exact:
        return [f"{case.key}: expected an exact box"]
    box_lo, box_hi = _vec_bounds(out.box)
    errors = []
    if (box_lo, box_hi) != reference[case.key]:
        errors.append(f"{case.key}: box differs from the stored vertex hull")
    if oracle and out.box != oracles.vertex_system_hull(case.matrix, case.rhs):
        errors.append(f"{case.key}: box differs from oracles.vertex_system_hull")
    return errors + _check_box_holds(case, box_lo, box_hi, seed)


def enclose_fields(output) -> Dict[str, str]:
    _, text = output
    return dict(l.split("=", 1) for l in text.splitlines() if "=" in l)


def check_enclose(case: Case, out, seed: int) -> List[str]:
    code, _ = out
    fields = enclose_fields(out)
    if code != 0 or "box" not in fields:
        return [f"{case.key}: exit code {code}, no box"]
    box_lo, box_hi = ref.parse_box(fields["box"])
    errors = _check_box_holds(case, box_lo, box_hi, seed)
    if case.route is not None and fields.get("method") != case.route:
        errors.append(f"{case.key}: auto took {fields.get('method')}, not {case.route}")
    if fields.get("exact") == "true" and case.n == 3:
        hull = oracles.vertex_system_hull(case.matrix, case.rhs)
        if (box_lo, box_hi) != _vec_bounds(hull):
            errors.append(f"{case.key}: exact box differs from oracles.vertex_system_hull")
    return errors


def output_bits(case: Case, out) -> int:
    if is_failure(case, out):
        return 0
    return ref.max_bits(_output_rationals(case, out))


def _output_rationals(case: Case, out):
    """The rationals a call returned, for the largest bit length."""
    if case.kind == "enclose":
        box = enclose_fields(out).get("box")
        if box is None:
            return
        lows, highs = ref.parse_box(box)
        yield from lows
        yield from highs
    elif case.kind == "hull":
        if out.box is not None:
            for e in out.box.entries:
                yield e.lo
                yield e.hi
    else:
        cert = out.certificate
        if cert is None:
            return
        for part in (cert.witness, cert.rhs_member):
            if part is not None:
                yield from part
        if cert.member is not None:
            for row in cert.member.rows:
                yield from row


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Callable[[int], List[Case]]
    min_calls: int  # every run makes at least this many calls

    @property
    def tail_q(self) -> float:
        """The call_ms_tail percentile: 10 calls lie beyond it in the smallest run."""
        return 1 - 10 / self.min_calls


WORKLOADS = {
    "sweep": Workload("sweep", sweep_cases, 100),
    "hull": Workload("hull", hull_cases, 40),
    "enclose": Workload("enclose", enclose_cases, 200),
}


def check_all(name: str, cases: List[Case], first_outputs, seed: int) -> List[str]:
    """Every check of one workload, on the first output of each instance."""
    errors: List[str] = []
    if name == "hull":
        reference = load_hull_reference()
        oracle_done = set()
        for case, out in zip(cases, first_outputs):
            # the oracle takes ~0.6 s; run it once per half at n = 3
            half = case.key.split("-")[1]
            use_oracle = case.n == 3 and half not in oracle_done
            if use_oracle:
                oracle_done.add(half)
            errors += check_hull(case, out, seed, reference, use_oracle)
    else:
        for case, out in zip(cases, first_outputs):
            if name == "sweep":
                errors += check_sweep(case, out)
            else:
                errors += check_enclose(case, out, seed)
    return errors
