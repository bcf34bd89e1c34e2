#!/usr/bin/env python3
"""Time two checkouts against each other in one process, call by call.

Loads ``src/intlinalg`` of checkout A and of checkout B under the package
names ``intlinalg_a`` and ``intlinalg_b``, builds the instances of the
``perfbench`` workloads of checkout B (it only reads them), and gives each
package its own copy of every instance, parsed from the instance's .imx
text.  Each pass calls every instance once in each package, A first on
even (instance + pass) and B first otherwise, so a drift in the machine's
speed falls on both alike.  Afterwards it checks that both packages gave
the same output on every instance (``repr`` equal; the command line's
``time_ms=`` line dropped) and prints the CPU time of each package and the
speedup, A time over B time, per workload and per instance group: method
and n for ``enclose``, kind and n for ``sweep`` and ``hull``.  A ``parse``
line per workload times each package parsing all of the workload's .imx
texts, the path the bench's ``setup_s`` times (A first on even passes),
and says whether the parsed entries are equal (``repr`` of the endpoints).

Usage, from anywhere:

    python3 scripts/ab_time.py --a PARENT_CHECKOUT --b CHANGED_CHECKOUT \\
        [--workload sweep hull enclose] [--seed 401] [--passes 5]

It exits 1 if an output or a parsed entry differs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import os
import sys
import tempfile
import time


def load_package(checkout: str, name: str):
    """``checkout``/src/intlinalg imported as the package ``name``."""
    root = os.path.join(os.path.abspath(checkout), "src", "intlinalg")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")  # the enclose workload calls it
    return package


def make_call(pkg, case, matrix, rhs, paths):
    """The call ``perfbench/workloads.make_call`` makes, on package ``pkg``."""
    if case.kind in ("regular", "boundary"):
        return lambda: pkg.is_regular_exact(matrix)
    if case.kind == "tall":
        return lambda: pkg.has_full_column_rank_exact(matrix)
    if case.kind in ("weak", "strong"):
        return lambda: pkg.solvability(matrix, rhs, case.kind)
    if case.kind == "hull":
        return lambda: pkg.hull_exact(matrix, rhs)
    argv = ["solve", paths["A"], paths["b"], "--method", case.method]

    def solve():
        buf = io.StringIO()
        code = pkg.cli.run(argv, buf)
        lines = [l for l in buf.getvalue().splitlines() if not l.startswith("time_ms=")]
        return code, lines

    return solve


def write_texts(cases, workdir: str):
    """(texts, paths) of each case's .imx files, written once for both
    packages, since the command line prints the paths it reads."""
    import intlinalg

    out = []
    for k, case in enumerate(cases):
        texts = {"A": intlinalg.format_imx(case.matrix)}
        if case.rhs is not None:
            texts["b"] = intlinalg.format_imx_vector(case.rhs)
        paths = {}
        for role, text in texts.items():
            paths[role] = os.path.join(workdir, f"{k:03d}{role}.imx")
            with open(paths[role], "w", encoding="utf-8") as fh:
                fh.write(text)
        out.append((texts, paths))
    return out


def prepare(pkg, cases, files):
    """Each case's call on ``pkg`` objects parsed from its .imx text."""
    calls = []
    for case, (texts, paths) in zip(cases, files):
        matrix = pkg.parse_imx(texts["A"])
        rhs = pkg.parse_imx_vector(texts["b"]) if "b" in texts else None
        calls.append(make_call(pkg, case, matrix, rhs, paths))
    return calls


def time_parse(packages, files, passes):
    """(CPU seconds per package, parsed entries equal) over ``passes``
    alternating passes of each package's ``parse_imx`` on every text."""
    texts = [text for case_texts, _ in files for text in case_texts.values()]
    cpu, parsed = [0.0, 0.0], [None, None]
    for p in range(passes):
        for side in ((0, 1) if p % 2 == 0 else (1, 0)):
            t0 = time.process_time()
            parsed[side] = [packages[side].parse_imx(text) for text in texts]
            cpu[side] += time.process_time() - t0
    a, b = ([repr([(e.lo, e.hi) for row in m.entries for e in row]) for m in side]
            for side in parsed)
    return cpu, a == b


def timed(call):
    """(CPU seconds, repr of the output or of the error raised)."""
    t0 = time.process_time()
    try:
        out = call()
    except Exception as exc:  # an error is an output too
        out = exc
    return time.process_time() - t0, repr(out)


def print_groups(name, cases, cpu):
    """The CPU times and speedup of each (method or kind, n) group."""
    groups = {}
    for i, case in enumerate(cases):
        sums = groups.setdefault((case.method or case.kind, case.n), [0, 0.0, 0.0])
        sums[0] += 1
        sums[1] += cpu[0][i]
        sums[2] += cpu[1][i]
    for (label, n), (count, a, b) in sorted(groups.items()):
        print(f"  {name} {label} n={n}: {count} instances, "
              f"cpu A {a:.3f} s, B {b:.3f} s, speedup A/B {a / b:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="checkout timed first (the base)")
    parser.add_argument("--b", required=True, help="checkout compared with A")
    parser.add_argument("--workload", nargs="+", default=["sweep", "hull"])
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--passes", type=int, default=5)
    args = parser.parse_args(argv)

    bench = os.path.join(os.path.abspath(args.b), "perfbench")
    sys.path[:0] = [os.path.join(os.path.abspath(args.b), "src"), bench]
    import workloads as wl

    packages = (load_package(args.a, "intlinalg_a"), load_package(args.b, "intlinalg_b"))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload:
            cases = wl.WORKLOADS[name].cases(args.seed)
            os.mkdir(os.path.join(tmp, name))
            files = write_texts(cases, os.path.join(tmp, name))
            calls = [prepare(pkg, cases, files) for pkg in packages]
            differ = set()
            cpu = [[0.0] * len(cases), [0.0] * len(cases)]
            outputs = [[None] * len(cases), [None] * len(cases)]
            for p in range(args.passes):
                for i in range(len(cases)):
                    for side in ((0, 1) if (i + p) % 2 == 0 else (1, 0)):
                        seconds, outputs[side][i] = timed(calls[side][i])
                        cpu[side][i] += seconds
                differ.update(case.key for case, a, b in zip(cases, *outputs) if a != b)
            for key in sorted(differ):
                print(f"{name} {key}: outputs differ", file=sys.stderr)
            failed |= bool(differ)
            total = [sum(side) for side in cpu]
            print(f"{name}: {len(cases)} instances x {args.passes} passes, "
                  f"cpu A {total[0]:.3f} s, B {total[1]:.3f} s, "
                  f"speedup A/B {total[0] / total[1]:.3f}, "
                  f"outputs {'DIFFER' if differ else 'equal'}")
            print_groups(name, cases, cpu)
            (a, b), same = time_parse(packages, files, args.passes)
            failed |= not same
            print(f"  {name} parse: {len(cases)} instances x {args.passes} passes, "
                  f"cpu A {a:.3f} s, B {b:.3f} s, speedup A/B {a / b:.3f}, "
                  f"entries {'equal' if same else 'DIFFER'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
