"""Hand counts of the traced LP counters on tiny instances.

- A regular n x n ``is_regular_exact`` makes exactly 2^n feasibility LPs.
- ``hull_exact`` on a regular n = 2 system makes 2^n rank LPs, 2^n
  feasibility LPs and 2n optimisation LPs per feasible orthant.
- Every ``enclose`` call (``intlinalg solve`` on the command line) makes 0 LPs.

Usage, from the root of a checkout: python3 perfbench/check_counts.py
It prints each mismatch and exits 1 if there is one.  ``run.py --trace 1``
runs the same checks and reports a mismatch as an incorrect run.
"""

from __future__ import annotations

import os
import sys
from typing import List

import spans


def _traced(fn) -> List[list]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.call(fn)
    finally:
        tracer.uninstall()
    return tracer.spans


def _lps(trace: List[list], name: str) -> List[int]:
    return [i for i, s in enumerate(trace) if s[0] == name]


def hand_count_errors(workdir: str) -> List[str]:
    import intlinalg
    from intlinalg import generate
    import workloads as wl

    errors = []
    for n in (2, 3):
        matrix = generate.gen_regular_matrix(n, 0)
        trace = _traced(lambda: intlinalg.is_regular_exact(matrix))
        feas, opt = _lps(trace, spans.LP_FEASIBLE), _lps(trace, spans.LP_OPTIMIZE)
        if len(feas) != 2 ** n or opt:
            errors.append(f"is_regular_exact n={n}: {len(feas)} feasibility and "
                          f"{len(opt)} optimisation LPs, expected {2 ** n} and 0")

    n = 2
    matrix, sides = wl.hull_systems(n, 0)
    for half, rhs in sides.items():
        trace = _traced(lambda: intlinalg.hull_exact(matrix, rhs))
        table = spans.SpanTable(trace)
        feas = _lps(trace, spans.LP_FEASIBLE)
        rank = [i for i in feas if table.in_rank[i]]
        sweep = [i for i in feas if not table.in_rank[i]]
        feasible = sum(1 for i in sweep if trace[i][4][1])
        opt = _lps(trace, spans.LP_OPTIMIZE)
        if (len(rank), len(sweep), len(opt)) != (2 ** n, 2 ** n, 2 * n * feasible):
            errors.append(
                f"hull_exact n=2 {half}: {len(rank)} rank, {len(sweep)} feasibility, "
                f"{len(opt)} optimisation LPs for {feasible} feasible orthants; "
                f"expected {2 ** n}, {2 ** n}, {2 * n * feasible}")

    os.makedirs(workdir, exist_ok=True)
    cases = [
        wl.Case(f"wc-{method}", "enclose", 3, *generate.well_conditioned_system(3, 0),
                method=method)
        for method in wl.ENCLOSE_METHODS
    ] + [
        wl.Case("mm", "enclose", 3, *generate.mmatrix_system(3, 0), method="auto"),
        wl.Case("bidiag", "enclose", 3, *generate.bidiagonal_system(3, 0), method="auto"),
    ]
    wl.write_cases(cases, workdir)
    for case in cases:
        trace = _traced(wl.make_call(case))
        count = len(_lps(trace, spans.LP_FEASIBLE)) + len(_lps(trace, spans.LP_OPTIMIZE))
        if count:
            errors.append(f"enclose {case.key}: {count} LPs, expected 0")
    return errors


def main() -> int:
    from run import OUT_DIR, import_program

    import_program()
    errors = hand_count_errors(os.path.join(OUT_DIR, "handcount"))
    for line in errors:
        print("mismatch:", line)
    print("hand counts:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
