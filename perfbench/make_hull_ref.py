"""Recompute hull_ref.json, the exact hulls the ``hull`` workload checks.

Usage, from the root of a checkout: python3 perfbench/make_hull_ref.py

Each hull-corpus system is solved by endpoint enumeration in
``reference.vertex_hull`` (the method of ``oracles.vertex_system_hull``,
which is guarded to n <= 3), with no use of ``systems`` or ``lp``.  At
n = 3 the script also requires equality with ``oracles.vertex_system_hull``.
A run's seed only flips the signs of rows of the system, which keeps the
solution set, so one reference serves every seed.  n = 4 takes about a
minute per system.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    from run import import_program

    import_program()
    from intlinalg import oracles

    import reference as ref
    import workloads as wl

    systems = {}
    for n, corpus in wl.HULL_PLAN:
        for gs in corpus:
            matrix, sides = wl.hull_systems(n, gs)
            lo = [[e.lo for e in row] for row in matrix.entries]
            hi = [[e.hi for e in row] for row in matrix.entries]
            for half, rhs in sides.items():
                key = f"hull-{half}-n{n}-g{gs}"
                start = time.perf_counter()
                hull = ref.vertex_hull(
                    lo, hi, tuple(e.lo for e in rhs.entries), tuple(e.hi for e in rhs.entries)
                )
                if hull is None:
                    sys.exit(f"{key}: an endpoint matrix is singular")
                if n <= 3:
                    box = oracles.vertex_system_hull(matrix, rhs)
                    if (tuple(e.lo for e in box.entries), tuple(e.hi for e in box.entries)) != hull:
                        sys.exit(f"{key}: enumeration disagrees with oracles.vertex_system_hull")
                systems[key] = {"lo": [str(v) for v in hull[0]], "hi": [str(v) for v in hull[1]]}
                print(f"{key}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(wl.HULL_REF_PATH, "w", encoding="utf-8") as fh:
        json.dump(
            {"made_by": "python3 perfbench/make_hull_ref.py", "systems": systems},
            fh, indent=1,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
