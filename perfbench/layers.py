"""Per-layer tracing: which kproj functions are wrapped, and how spans become metrics.

The traced child (shim.py) wraps the public functions listed in TARGETS
from outside the package and records one span per call:

    (name, start, end, parent, outer, extra)

start/end bracket the wrapped call, outer is the wrapper's full cost
(call plus bookkeeping) and parent indexes the enclosing span.  Every span
in one spans file belongs to the same job.  A span's self time is its
duration minus the outer cost of its children, so tracing bookkeeping is
charged to nobody.

Metric names follow `<module>.<function>.<calls|self_s|...>`.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# (module, attribute path, span name); methods are wrapped on the class
TARGETS = (
    ("kproj.linalg", "IntegerMatrix.__init__", "linalg.IntegerMatrix"),
    ("kproj.linalg", "smith_normal_form", "linalg.smith_normal_form"),
    ("kproj.linalg", "solve_integer", "linalg.solve_integer"),
    ("kproj.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("kproj.linalg", "cokernel", "linalg.cokernel"),
    ("kproj.homology", "is_exact_at", "homology.is_exact_at"),
    ("kproj.homology", "five_lemma_check", "homology.five_lemma_check"),
    ("kproj.homology", "induced_map_is_isomorphism", "homology.induced_map_is_isomorphism"),
    ("kproj.ktheory", "replay_induction", "ktheory.replay_induction"),
    ("kproj.ktheory", "k_ring_mul", "ktheory.k_ring_mul"),
    ("kproj.ktheory", "KClass.__init__", "ktheory.KClass"),
    ("kproj.ktheory", "chern_character_map", "ktheory.chern_character_map"),
    ("kproj.truncpoly", "TruncPoly.__mul__", "truncpoly.TruncPoly.mul"),
    ("kproj.truncpoly", "MultiPoly.__mul__", "truncpoly.MultiPoly.mul"),
    ("kproj.truncpoly", "MultiPoly.evaluate", "truncpoly.MultiPoly.evaluate"),
    ("kproj.chern", "newton_s", "chern.newton_s"),
    ("kproj.chern", "chern_character", "chern.chern_character"),
    ("kproj.grothendieck", "completion", "grothendieck.completion"),
    ("kproj.grothendieck", "pair_equivalent", "grothendieck.pair_equivalent"),
    ("kproj.cli", "main", "cli.main"),
)


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def smith_extra(args, result):
    a = args[0]
    return (a.rows, a.cols, _bits(result.d), max(_bits(result.u.entries), _bits(result.v.entries)))


# extra data recorded after a call returns, outside its timed interval
EXTRAS = {
    "linalg.smith_normal_form": smith_extra,
    "linalg.solve_integer": lambda args, result: result is None,
    "homology.is_exact_at": lambda args, result: hash((args[0], args[1])),
    "ktheory.replay_induction": lambda args, result: args[0],
    "grothendieck.pair_equivalent": lambda args, result: bool(result),
}

COUNT, SECONDS, RATIO, BITS, EXPONENT = "count", "s", "ratio", "bit", "slope"

# every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    "linalg.IntegerMatrix.constructed": COUNT,
    "linalg.IntegerMatrix.init_self_s": SECONDS,
    "linalg.smith_normal_form.calls": COUNT,
    "linalg.smith_normal_form.self_s": SECONDS,
    "linalg.smith_normal_form.max_dim": COUNT,
    "linalg.smith_normal_form.max_bits": BITS,
    "linalg.smith_normal_form.transform_bits_ratio": RATIO,
    "linalg.smith_normal_form.d_only_ratio": RATIO,
    "linalg.solve_integer.calls": COUNT,
    "linalg.solve_integer.self_s": SECONDS,
    "linalg.solve_integer.none_ratio": RATIO,
    "linalg.kernel_basis.calls": COUNT,
    "linalg.kernel_basis.self_s": SECONDS,
    "linalg.cokernel.calls": COUNT,
    "linalg.cokernel.self_s": SECONDS,
    "homology.is_exact_at.calls": COUNT,
    "homology.is_exact_at.self_s": SECONDS,
    "homology.is_exact_at.distinct_ratio": RATIO,
    "homology.five_lemma_check.calls": COUNT,
    "homology.five_lemma_check.self_s": SECONDS,
    "homology.induced_map_is_isomorphism.calls": COUNT,
    "homology.induced_map_is_isomorphism.self_s": SECONDS,
    "ktheory.replay_induction.calls": COUNT,
    "ktheory.replay_induction.self_s": SECONDS,
    "ktheory.replay_induction.exponent": EXPONENT,
    "ktheory.k_ring_mul.calls": COUNT,
    "ktheory.k_ring_mul.self_s": SECONDS,
    "ktheory.KClass.constructed": COUNT,
    "ktheory.KClass.init_self_s": SECONDS,
    "ktheory.chern_character_map.calls": COUNT,
    "ktheory.chern_character_map.self_s": SECONDS,
    "truncpoly.TruncPoly.mul.calls": COUNT,
    "truncpoly.TruncPoly.mul.self_s": SECONDS,
    "truncpoly.MultiPoly.mul.calls": COUNT,
    "truncpoly.MultiPoly.mul.self_s": SECONDS,
    "truncpoly.MultiPoly.evaluate.calls": COUNT,
    "truncpoly.MultiPoly.evaluate.self_s": SECONDS,
    "chern.newton_s.calls": COUNT,
    "chern.newton_s.self_s": SECONDS,
    "chern.newton_s.hit_ratio": RATIO,
    "chern.chern_character.calls": COUNT,
    "chern.chern_character.self_s": SECONDS,
    "grothendieck.completion.calls": COUNT,
    "grothendieck.completion.self_s": SECONDS,
    "grothendieck.pair_equivalent.calls": COUNT,
    "grothendieck.pair_equivalent.self_s": SECONDS,
    "grothendieck.pair_equivalent.true_ratio": RATIO,
    "cli.import_s": SECONDS,
    "cli.main.self_s": SECONDS,
    "cli.main.exponent": EXPONENT,
    "cli.child_cpu_s": SECONDS,
    "cli.cpu_wall_ratio": RATIO,
    "trace.overhead_ratio": RATIO,
}

# span names whose instances are counted as "constructed" rather than "calls"
CONSTRUCTORS = {"linalg.IntegerMatrix", "ktheory.KClass"}


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0 with fewer than two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class PassTally:
    """Per-layer totals over one pass of the job list."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.smith = {"max_dim": 0, "d_bits": 0, "uv_bits": 0, "d_only": 0}
        self.solve_none = 0
        self.exact_distinct = 0
        self.pair_true = 0
        self.newton_hits = self.newton_lookups = 0
        self.replay_points = []
        self.main_points = []
        self.import_s = []
        self.untraced_wall = self.traced_wall = self.child_cpu = 0.0

    def add_job(self, record: dict, size: int):
        """Fold one traced job's spans file into the tally."""
        names = record["names"]
        spans = record["spans"]
        child_cover = [0.0] * len(spans)
        for _, _, _, parent, outer, _ in spans:
            if parent >= 0:
                child_cover[parent] += outer
        exact_keys = set()
        smith = self.smith
        for idx, (name_id, start, end, parent, _, extra) in enumerate(spans):
            name = names[name_id]
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child_cover[idx]
            if name == "linalg.smith_normal_form":
                rows, cols, d_bits, uv_bits = extra
                smith["max_dim"] = max(smith["max_dim"], rows, cols)
                smith["d_bits"] = max(smith["d_bits"], d_bits)
                smith["uv_bits"] = max(smith["uv_bits"], uv_bits)
                if parent >= 0 and names[spans[parent][0]] == "linalg.cokernel":
                    smith["d_only"] += 1
            elif name == "linalg.solve_integer":
                self.solve_none += bool(extra)
            elif name == "homology.is_exact_at":
                exact_keys.add(extra)
            elif name == "grothendieck.pair_equivalent":
                self.pair_true += bool(extra)
            elif name == "ktheory.replay_induction":
                self.replay_points.append((extra, end - start))
            elif name == "cli.main":
                self.main_points.append((size, end - start))
        self.exact_distinct += len(exact_keys)
        hits, misses = record["newton_cache"]
        self.newton_hits += hits
        self.newton_lookups += hits + misses
        self.import_s.append(record["import_s"])

    def metrics(self) -> dict:
        out = {}
        for _, _, name in TARGETS:
            if name in CONSTRUCTORS:
                out[f"{name}.constructed"] = self.calls[name]
                out[f"{name}.init_self_s"] = self.self_s[name]
            else:
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
        smith_calls = self.calls["linalg.smith_normal_form"]
        out["linalg.smith_normal_form.max_dim"] = self.smith["max_dim"]
        out["linalg.smith_normal_form.max_bits"] = max(self.smith["d_bits"], self.smith["uv_bits"])
        out["linalg.smith_normal_form.transform_bits_ratio"] = _ratio(self.smith["uv_bits"],
                                                                      self.smith["d_bits"])
        out["linalg.smith_normal_form.d_only_ratio"] = _ratio(self.smith["d_only"], smith_calls)
        out["linalg.solve_integer.none_ratio"] = _ratio(self.solve_none,
                                                        self.calls["linalg.solve_integer"])
        out["homology.is_exact_at.distinct_ratio"] = _ratio(self.exact_distinct,
                                                            self.calls["homology.is_exact_at"])
        out["grothendieck.pair_equivalent.true_ratio"] = _ratio(
            self.pair_true, self.calls["grothendieck.pair_equivalent"])
        out["chern.newton_s.hit_ratio"] = _ratio(self.newton_hits, self.newton_lookups)
        out["ktheory.replay_induction.exponent"] = loglog_slope(self.replay_points)
        out["cli.main.exponent"] = loglog_slope(self.main_points)
        out["cli.import_s"] = statistics.median(self.import_s) if self.import_s else 0.0
        out["cli.child_cpu_s"] = self.child_cpu
        out["cli.cpu_wall_ratio"] = _ratio(self.child_cpu, self.untraced_wall)
        out["trace.overhead_ratio"] = _ratio(self.traced_wall, self.untraced_wall)
        return {name: out[name] for name in PER_LAYER}
