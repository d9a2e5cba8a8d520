"""Spans and counters for the traced run, recorded from the benchmark's side.

The tracer replaces names in the library's module namespaces with timing
wrappers: the names each module imports from another (`hasse.adjugate_with_det`,
`cli.greedy_reduce`, ...) and the public functions a module calls through its
own globals (`cones.farkas_membership`, `strata.smith_normal_form`, ...).  A
name a later version no longer has is skipped, so its metrics read zero calls.
Spans stay in memory until the run ends; `install`/`uninstall` bracket each
traced pass so untraced passes run the library's own functions.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name).  One function may be bound in several
# modules; every binding is wrapped so each call is seen exactly once.
WRAPPED = (
    ("cli", "run", "cli.run"),
    ("cli", "render", "cli.render"),
    ("cli", "parse_profile", "profile.parse"),
    ("cli", "build_carousel", "carousel.build"),
    ("cli", "profile_from_minpoly", "gfpoly.profile_from_minpoly"),
    ("cli", "factor_mod_p", "gfpoly.factor"),
    ("cli", "hasse_coordinates", "hasse.coordinates"),
    ("cli", "hasse_matrix", "hasse.matrix"),
    ("cli", "bareiss_determinant", "intlinalg.bareiss"),
    ("cli", "min_cone", "cones.build"),
    ("cli", "std_cone", "cones.build"),
    ("cli", "hasse_cone", "cones.build"),
    ("cli", "hasse_contains", "cones.hasse_contains"),
    ("cli", "cone_subset", "cones.subset"),
    ("cli", "split_equality_report", "cones.split"),
    ("cli", "dd_h_to_v", "cones.dd"),
    ("cli", "dd_v_to_h", "cones.dd"),
    ("cli", "greedy_reduce", "reduction.greedy"),
    ("cli", "reducible_directions", "reduction.reducible"),
    ("cli", "torsion_summary", "strata.torsion"),
    ("carousel", "build_carousel", "carousel.build"),
    ("gfpoly", "factor_mod_p", "gfpoly.factor"),
    ("gfpoly", "dedekind_p_maximal", "gfpoly.dedekind"),
    ("hasse", "coordinates_scaled", "hasse.coords"),
    ("hasse", "adjugate_with_det", "intlinalg.adjugate"),
    ("intlinalg", "bareiss_determinant", "intlinalg.bareiss"),
    ("cones", "coordinates_scaled", "hasse.coords"),
    ("cones", "rank", "intlinalg.rank"),
    ("cones", "dd_h_to_v", "cones.dd"),
    ("cones", "farkas_membership", "cones.farkas"),
    ("cones", "cone_subset", "cones.subset"),
    ("reduction", "coordinates_scaled", "hasse.coords"),
    ("reduction", "greedy_reduce", "reduction.greedy"),
    ("strata", "smith_normal_form", "strata.snf"),
)

# Per-layer metric -> (kind, source, unit).  "ms" is the inclusive time of
# the span's outermost occurrences, "calls" its count, "self_ms" its time
# minus the time of its child spans, "counter" a count the workload or a
# counting hook adds.  Every value is reported per operation.
PER_LAYER = {
    "cli.self_ms": ("self_ms", "cli.run", "ms"),
    "cli.render_ms": ("ms", "cli.render", "ms"),
    "cli.report_kb": ("counter", "cli.report_kb", "KB"),
    "profile.parse_ms": ("ms", "profile.parse", "ms"),
    "carousel.build_ms": ("ms", "carousel.build", "ms"),
    "gfpoly.factor_calls": ("calls", "gfpoly.factor", "count"),
    "gfpoly.factor_ms": ("ms", "gfpoly.factor", "ms"),
    "gfpoly.dedekind_ms": ("ms", "gfpoly.dedekind", "ms"),
    "hasse.coords_calls": ("calls", "hasse.coords", "count"),
    "hasse.coords_ms": ("ms", "hasse.coords", "ms"),
    "intlinalg.adjugate_calls": ("calls", "intlinalg.adjugate", "count"),
    "intlinalg.adjugate_ms": ("ms", "intlinalg.adjugate", "ms"),
    "intlinalg.bareiss_ms": ("ms", "intlinalg.bareiss", "ms"),
    "intlinalg.rank_calls": ("calls", "intlinalg.rank", "count"),
    "reduction.greedy_ms": ("ms", "reduction.greedy", "ms"),
    "reduction.greedy_steps": ("counter", "reduction.greedy_steps", "count"),
    "cones.dd_calls": ("calls", "cones.dd", "count"),
    "cones.dd_ms": ("ms", "cones.dd", "ms"),
    "cones.farkas_calls": ("calls", "cones.farkas", "count"),
    "cones.farkas_ms": ("ms", "cones.farkas", "ms"),
    "cones.subset_ms": ("ms", "cones.subset", "ms"),
    "strata.snf_calls": ("calls", "strata.snf", "count"),
    "strata.snf_ms": ("ms", "strata.snf", "ms"),
    "strata.torsion_ms": ("ms", "strata.torsion", "ms"),
}


class Tracer:
    """In-memory spans [name, start_ns, end_ns, parent, op] and counters."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.ops = 0
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = {"reduction.greedy": self._count_steps}

    def _count_steps(self, args, result) -> None:
        steps = getattr(result, "steps", None)
        if steps is None:
            steps = getattr(result, "trace", ())
        self.count("reduction.greedy_steps", len(steps))

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def begin_op(self) -> None:
        self.ops += 1

    def _wrap(self, fn, name: str):
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0, 0, self.stack[-1] if self.stack else -1, self.ops - 1]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self.stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = self.modules.get(module_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, outermost inclusive ns, self ns."""
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, int] = defaultdict(int)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
            outer = parent
            while outer >= 0 and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer < 0:
                inclusive[name] += end - start
        return calls, inclusive, self_ns

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Metric name -> (value per operation, unit)."""
        calls, inclusive, self_ns = self.totals()
        ops = max(self.ops, 1)
        out = {}
        for metric, (kind, source, unit) in PER_LAYER.items():
            if kind == "calls":
                value = calls.get(source, 0)
            elif kind == "ms":
                value = inclusive.get(source, 0) / 1e6
            elif kind == "self_ms":
                value = self_ns.get(source, 0) / 1e6
            else:
                value = self.counters.get(source, 0)
            out[metric] = (value / ops, unit)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": self.spans,
                 "counters": dict(self.counters), "ops": self.ops},
                handle,
            )
