"""intlinalg benchmark: one workload, one seed, whole passes over its calls.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|hull|enclose --seed N \
        --seconds S --trace 0|1

The run generates its instances from the seed, writes them as .imx files
under .perfbench/, times the set-up of fresh interpreters on those files,
then calls the program in whole passes until S seconds have gone by (and
at least ``min_calls`` calls are done).  Every output is checked after the
timed loop.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List

CHECKOUT = os.getcwd()
SRC = os.path.join(CHECKOUT, "src")
OUT_DIR = os.path.join(CHECKOUT, ".perfbench")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60


def import_program():
    """Import intlinalg from this checkout's src/, and from nowhere else."""
    init = os.path.join(SRC, "intlinalg", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"run.py: {init} is missing; run from the root of an intlinalg checkout")
    sys.path.insert(0, SRC)
    import intlinalg

    if os.path.realpath(intlinalg.__file__) != os.path.realpath(init):
        sys.exit(f"run.py: imported intlinalg from {intlinalg.__file__}, not {SRC}")
    return intlinalg


def measure_setup(workdir: str) -> float:
    """Median wall time from a fresh interpreter's start to ready."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workdir],
            cwd=CHECKOUT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("ready"):
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        if i:  # the first start also writes the bytecode cache
            samples.append(elapsed)
    return statistics.median(samples)


@dataclass
class Passes:
    firsts: list                  # the first output of each instance
    differing: List[str]          # instances whose repeated calls disagreed
    durations: List[List[float]]  # [untraced] or [untraced, traced], in call order
    failed: int
    wall: float

    @property
    def attempted(self) -> int:
        return sum(len(d) for d in self.durations)


def run_passes(cases, calls, seconds: float, min_calls: int, tracer=None) -> Passes:
    """Whole passes over every call until ``seconds`` and ``min_calls`` are met.

    With a tracer, each call runs twice, untraced and traced, in an order
    that alternates from call to call, so drift in the machine's speed falls
    on both alike.  Each output is compared with the instance's first output
    and then dropped, so memory does not grow with the length of the run.
    """
    import workloads as wl

    modes = (False,) if tracer is None else (False, True)
    firsts: list = [None] * len(calls)
    durations: List[List[float]] = [[] for _ in modes]
    differing = set()
    failed = passes = 0
    clock = time.perf_counter
    gc.collect()
    gc.freeze()
    start = clock()
    try:
        while True:
            for i, (case, call) in enumerate(zip(cases, calls)):
                for traced in (modes if (i + passes) % 2 == 0 else modes[::-1]):
                    if traced:
                        tracer.install()
                    t0 = clock()
                    try:
                        result = tracer.call(call) if traced else call()
                    except Exception as exc:  # counted as failed, the run goes on
                        result = exc
                    durations[traced].append(clock() - t0)
                    if traced:
                        tracer.uninstall()
                    failed += wl.is_failure(case, result)
                    if firsts[i] is None:
                        firsts[i] = result
                    elif not wl.same_output(case, firsts[i], result):
                        differing.add(case.key)
            passes += 1
            if clock() - start >= seconds and len(durations[0]) >= min_calls:
                break
        wall = clock() - start
    finally:
        gc.unfreeze()
    return Passes(firsts, sorted(differing), durations, failed, wall)


def nearest_rank(values: List[float], q: float) -> float:
    ordered = sorted(values)
    # round first: 0.9 * 100 is 90.00000000000001 in binary floating point
    return ordered[math.ceil(round(q * len(ordered), 9)) - 1]


def check(name, cases, passes: Passes, seed: int) -> List[str]:
    import workloads as wl

    errors = [f"{key}: repeated calls disagree" for key in passes.differing]
    ok = [(c, o) for c, o in zip(cases, passes.firsts) if not wl.is_failure(c, o)]
    return errors + wl.check_all(name, [c for c, _ in ok], [o for _, o in ok], seed)


def end_to_end(workload, passes: Passes, setup_s: float) -> dict:
    ms = [d * 1e3 for d in passes.durations[0]]
    return {
        "calls_per_s": ((passes.attempted - passes.failed) / passes.wall, "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_tail": (nearest_rank(ms, workload.tail_q), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(name, cases, passes: Passes, tracer) -> dict:
    import spans
    import workloads as wl

    # whole passes repeat each instance equally often, so the mean over
    # instances is the mean over calls
    ok = [(c, o) for c, o in zip(cases, passes.firsts) if not wl.is_failure(c, o)]
    iterations = []
    if name == "enclose":
        iterations = [int(wl.enclose_fields(o)["iterations"]) for _, o in ok]
    out_bits = max((wl.output_bits(c, o) for c, o in ok), default=0)
    untraced, traced = passes.durations
    overhead = (sum(traced) / sum(untraced) - 1.0) * 100.0
    values = spans.layer_metrics(tracer.spans, iterations, out_bits, overhead)
    return {key: (values[key], unit) for key, unit in spans.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import spans
    import workloads as wl
    from check_counts import hand_count_errors

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"{workload.name}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    cases = workload.cases(args.seed)
    wl.write_cases(cases, workdir)
    setup_s = measure_setup(workdir)
    wl.load_cases(cases)
    calls = [wl.make_call(case) for case in cases]

    if args.trace:
        tracer = spans.Tracer()
        passes = run_passes(cases, calls, args.seconds, 1, tracer)
        metrics = per_layer(workload.name, cases, passes, tracer)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}-s{args.seed}.json"))
        errors = hand_count_errors(os.path.join(workdir, "handcount"))
    else:
        passes = run_passes(cases, calls, args.seconds, workload.min_calls)
        metrics = end_to_end(workload, passes, setup_s)
        errors = []
    errors += check(workload.name, cases, passes, args.seed)
    for line in errors[:20]:
        print("check failed:", line, file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = os.path.join(OUT_DIR, f"result-{workload.name}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
