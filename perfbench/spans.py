"""Spans around the public functions of each layer, installed from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces each traced
function by a wrapper in every ``intlinalg`` module that holds it (``systems``
and ``regularity`` import the LP entry points by name), and ``uninstall``
puts the originals back.  A span is ``[name, start, end, parent, info]``;
spans stay in a list in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its child spans,
which on one thread never overlap.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

ROOT = "bench.call"
LP_FEASIBLE = "lp.lp_feasible"
LP_OPTIMIZE = "lp.lp_optimize"
FCR = "regularity.has_full_column_rank_exact"
HULL = "systems.hull_exact"
SOLVABILITY = "systems.solvability"
RHO = "spectral.rho_less_than"
PARSE = "matrices.parse_imx"
CLI_RUN = "cli.run"


def _lp_info(args, result):
    program = args[0]
    return program, getattr(result, "answer", None)


def _columns(args, result):
    return args[0].n


# (module, attribute, info taken from the arguments and the result)
TARGETS = (
    ("lp", "lp_feasible", _lp_info),
    ("lp", "lp_optimize", _lp_info),
    ("regularity", "is_regular_exact", _columns),
    ("regularity", "has_full_column_rank_exact", _columns),
    ("systems", "hull_exact", None),
    ("systems", "solvability", None),
    ("systems", "enclosure", None),
    ("systems", "solve_auto", None),
    ("systems", "hull_bidiagonal", None),
    ("systems", "monotone_hull", None),
    ("spectral", "rho_less_than", None),
    ("matrices", "parse_imx", None),
    ("matrices", "RealMatrix.inverse", None),
    ("matrices", "RealMatrix.solve", None),
    ("matrices", "RealMatrix.det", None),
    ("cli", "run", None),
)

PER_LAYER = (
    ("lp.calls", "count"),
    ("lp.optimize_calls", "count"),
    ("lp.self_ms", "ms"),
    ("lp.ms_per_call", "ms"),
    ("lp.rows_mean", "count"),
    ("lp.vars_mean", "count"),
    ("lp.in_bits_max", "bits"),
    ("lp.feasible_frac", "ratio"),
    ("regularity.lps_per_call", "count"),
    ("regularity.orthant_frac", "ratio"),
    ("regularity.self_ms", "ms"),
    ("hull.lps_per_call", "count"),
    ("hull.rank_lps_per_call", "count"),
    ("hull.self_ms", "ms"),
    ("solvability.lps_per_call", "count"),
    ("solvability.self_ms", "ms"),
    ("enclose.iterations_mean", "count"),
    ("systems.self_ms", "ms"),
    ("spectral.rho_calls", "count"),
    ("spectral.rho_ms", "ms"),
    ("matrices.linalg_calls", "count"),
    ("matrices.linalg_ms", "ms"),
    ("matrices.parse_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("out.bits_max", "bits"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _find_patches(self) -> None:
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "intlinalg" or k.startswith("intlinalg."))
        ]
        for mod_name, attr, info in TARGETS:
            module = sys.modules["intlinalg." + mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original, self._wrap(name, original, info)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self) -> None:
        if not self._patches:
            self._find_patches()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    def call(self, fn: Callable[[], object]):
        """One workload call, as the root span of everything it does."""
        return self._wrap(ROOT, fn, None)()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"],
                 "spans": [s[:4] for s in self.spans]},
                fh,
            )


class SpanTable:
    """Durations, self times and ancestry of a finished list of spans."""

    def __init__(self, spans: List[list]):
        self.spans = spans
        count = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * count
        self.top = [-1] * count       # the library call just below the root
        self.in_rank = [False] * count  # inside a full-column-rank sweep
        for i, (name, _, _, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += self.dur[i]
                self.top[i] = i if spans[parent][0] == ROOT else self.top[parent]
                self.in_rank[i] = self.in_rank[parent]
            if name == FCR:
                self.in_rank[i] = True
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def where(self, pred: Callable[[str], bool]) -> List[int]:
        return [i for i, s in enumerate(self.spans) if pred(s[0])]

    def total_self(self, idx: List[int]) -> float:
        return sum(self.self_time[i] for i in idx)


def _program_bits(program) -> int:
    top = 0
    values = list(program.objective)
    for con in program.constraints:
        values.extend(con.coeffs)
        values.append(con.rhs)
    for bound in program.bounds or ():
        values.extend(v for v in bound if v is not None)
    for q in values:
        top = max(top, q.numerator.bit_length(), q.denominator.bit_length())
    return top


def layer_metrics(spans: List[list], iterations: List[int], out_bits: int,
                  overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric; time and counts are per workload call."""
    t = SpanTable(spans)
    calls = len(t.where(lambda n: n == ROOT))
    per_call = 1.0 / calls
    lps = t.where(lambda n: n in (LP_FEASIBLE, LP_OPTIMIZE))
    feas = [i for i in lps if spans[i][0] == LP_FEASIBLE]
    programs = [spans[i][4][0] for i in lps]
    lp_self = t.total_self(lps)

    def tops(name: str) -> List[int]:
        return [i for i in t.where(lambda n: n == name) if t.top[i] == i]

    def lps_under(roots: List[int], rank_only: bool = False) -> int:
        chosen = set(roots)
        return sum(1 for i in lps if t.top[i] in chosen and (t.in_rank[i] or not rank_only))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    reg_tops = [i for i in range(len(spans)) if t.top[i] == i
                and spans[i][0].startswith("regularity.")]
    hull_tops = tops(HULL)
    solv_tops = tops(SOLVABILITY)
    linalg = t.where(lambda n: n.startswith("matrices.RealMatrix."))
    rho = t.where(lambda n: n == RHO)
    return {
        "lp.calls": len(lps) * per_call,
        "lp.optimize_calls": (len(lps) - len(feas)) * per_call,
        "lp.self_ms": lp_self * 1e3 * per_call,
        "lp.ms_per_call": ratio(lp_self * 1e3, len(lps)),
        "lp.rows_mean": ratio(sum(len(p.constraints) for p in programs), len(lps)),
        "lp.vars_mean": ratio(sum(p.nvars for p in programs), len(lps)),
        "lp.in_bits_max": max((_program_bits(p) for p in programs), default=0),
        "lp.feasible_frac": ratio(sum(1 for i in feas if spans[i][4][1]), len(feas)),
        "regularity.lps_per_call": ratio(lps_under(reg_tops), len(reg_tops)),
        "regularity.orthant_frac": ratio(
            lps_under(reg_tops), sum(2 ** spans[i][4] for i in reg_tops)),
        "regularity.self_ms": t.total_self(t.where(
            lambda n: n.startswith("regularity."))) * 1e3 * per_call,
        "hull.lps_per_call": ratio(lps_under(hull_tops), len(hull_tops)),
        "hull.rank_lps_per_call": ratio(lps_under(hull_tops, True), len(hull_tops)),
        "hull.self_ms": t.total_self(t.where(lambda n: n == HULL)) * 1e3 * per_call,
        "solvability.lps_per_call": ratio(lps_under(solv_tops), len(solv_tops)),
        "solvability.self_ms": t.total_self(t.where(
            lambda n: n == SOLVABILITY)) * 1e3 * per_call,
        "enclose.iterations_mean": statistics.fmean(iterations) if iterations else 0.0,
        "systems.self_ms": t.total_self(t.where(
            lambda n: n.startswith("systems."))) * 1e3 * per_call,
        "spectral.rho_calls": len(rho) * per_call,
        "spectral.rho_ms": sum(t.dur[i] for i in rho) * 1e3 * per_call,
        "matrices.linalg_calls": len(linalg) * per_call,
        "matrices.linalg_ms": t.total_self(linalg) * 1e3 * per_call,
        "matrices.parse_ms": t.total_self(t.where(lambda n: n == PARSE)) * 1e3 * per_call,
        "cli.self_ms": t.total_self(t.where(lambda n: n == CLI_RUN)) * 1e3 * per_call,
        "out.bits_max": out_bits,
        "trace.overhead_pct": overhead_pct,
    }
