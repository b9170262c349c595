"""Spans and counts around sipcert's layer functions, recorded from outside.

Each traced function is wrapped once and the wrapper is bound in every
``sipcert`` module that binds the original object (the package imports
with ``from .x import y``, so one function has several bindings).  A span
records (name, start, end, parent span, operation id); counts ride along
at the same boundaries.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute): the layer boundaries that get a span
TARGETS = (
    ("cli", "cmd_certify"),
    ("cli", "cmd_admissible"),
    ("problemfile", "load_problem"),
    ("problemfile", "emit_json"),
    ("expr", "parse"),
    ("expr", "gradient"),
    ("expr", "evaluate"),
    ("expr", "evaluate_many"),
    ("reduction", "certify_equality"),
    ("reduction", "certify_composed"),
    ("reduction", "compute_jacobian"),
    ("reduction", "compose_family"),
    ("model", "FamilyScan"),
    ("model", "feasibility"),
    ("model", "equi_lipschitz_estimate"),
    ("model", "admissible_diagnostics"),
    ("multipliers", "tc_approx"),
    ("multipliers", "certify_fj"),
    ("multipliers", "sip_multipliers"),
    ("geometry", "hull_member"),
    ("geometry", "hull_distance"),
    ("geometry", "one_sided_hull_gap"),
    ("geometry", "segment_hull_member"),
    ("geometry", "caratheodory_reduce"),
    ("geometry", "polyhedron_minimize"),
    ("geometry", "cone_interior_nonempty"),
    ("lp", "solve_lp"),
)


def _count_scan(counts, args, kwargs, result):
    counts["model.FamilyScan.entries"] += len(args[0].candidates)


def _count_ladder(counts, args, kwargs, result):
    counts["multipliers.tc_approx.rungs"] += len(result.ladder)
    counts["multipliers.tc_approx.rung_generators"] += sum(len(a.entries) for _, a in result.ladder)
    counts["multipliers.final_generators"] += len(result.final)


def _count_gap(counts, args, kwargs, result):
    counts["geometry.one_sided_hull_gap.offered"] += len(args[0] if args else kwargs["src"])


def _count_points(counts, args, kwargs, result):
    counts["expr.evaluate_many.points"] += len(result)


def _lp_shape(fn):
    signature = inspect.signature(fn)

    def count(counts, args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        counts["lp.solve_lp.columns"] += len(bound["c"])
        counts["lp.solve_lp.rows"] += sum(
            len(bound[k]) for k in ("b_ub", "b_eq") if bound.get(k) is not None
        )

    return count


HOOKS = {
    "model.FamilyScan": _count_scan,
    "multipliers.tc_approx": _count_ladder,
    "geometry.one_sided_hull_gap": _count_gap,
    "expr.evaluate_many": _count_points,
}

# the per-layer metrics a traced run reports: self ms and counts are means
# per operation, the two lp shapes are means per solve
METRICS = (
    "problemfile.load_problem.ms", "problemfile.emit_json.ms",
    "expr.parse.calls", "expr.parse.ms",
    "reduction.certify_equality.ms", "reduction.certify_composed.ms",
    "reduction.compute_jacobian.ms", "reduction.compose_family.ms",
    "cli.cmd_certify.ms", "cli.cmd_admissible.ms",
    "expr.gradient.calls", "expr.gradient.ms",
    "model.FamilyScan.ms", "model.FamilyScan.entries", "multipliers.final_generators",
    "geometry.hull_member.calls", "geometry.hull_member.ms",
    "geometry.segment_hull_member.calls", "geometry.segment_hull_member.ms",
    "geometry.caratheodory_reduce.calls", "geometry.caratheodory_reduce.ms",
    "multipliers.tc_approx.ms", "multipliers.tc_approx.rungs",
    "multipliers.tc_approx.rung_generators",
    "geometry.one_sided_hull_gap.calls", "geometry.one_sided_hull_gap.ms",
    "geometry.one_sided_hull_gap.offered", "geometry.hull_distance.calls",
    "expr.evaluate_many.calls", "expr.evaluate_many.points", "expr.evaluate_many.ms",
    "model.feasibility.calls", "model.feasibility.ms",
    "multipliers.certify_fj.ms", "multipliers.sip_multipliers.ms",
    "expr.evaluate.calls", "expr.evaluate.ms",
    "model.equi_lipschitz_estimate.ms", "model.admissible_diagnostics.ms",
    "geometry.polyhedron_minimize.calls", "geometry.polyhedron_minimize.ms",
    "geometry.cone_interior_nonempty.ms",
    "lp.solve_lp.calls", "lp.solve_lp.ms", "lp.solve_lp.columns", "lp.solve_lp.rows",
)
PER_SOLVE = ("lp.solve_lp.columns", "lp.solve_lp.rows")


def _layer(metric: str) -> str:
    """The traced function a metric belongs to."""
    if metric == "multipliers.final_generators":
        return "multipliers.tc_approx"
    return metric.rsplit(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent span, op id]
        self.counts = defaultdict(int)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []

    def install(self):
        """Wrap every target in every loaded sipcert module that binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sipcert" or name.startswith("sipcert."))]
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                original = getattr(importlib.import_module(f"sipcert.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            hook = _lp_shape(original) if name == "lp.solve_lp" else HOOKS.get(name)
            if isinstance(original, type):  # a class: time its construction
                original.__init__ = self._wrap(name, original.__init__, hook)
                continue
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrap(self, name, fn, hook=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = f"{name}.calls"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            counts[calls] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def self_ms(self) -> dict:
        """Total self time per traced name, in ms: span minus its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name_id, start, end, _, _) in enumerate(self.spans):
            totals[self.names[name_id]] += (end - start - child[i]) * 1e3
        return totals

    def metrics(self, ops: int, scale: float) -> dict:
        """name -> (value, unit) for every metric whose function still exists.

        Self times are multiplied by ``scale``, the run's speed correction.
        """
        self_ms = self.self_ms()
        solves = self.counts["lp.solve_lp.calls"]
        out = {}
        for metric in METRICS:
            if _layer(metric) in self.missing:
                continue
            if metric.endswith(".ms"):
                out[metric] = (self_ms.get(_layer(metric), 0.0) * scale / ops, "ms")
            elif metric in PER_SOLVE:
                out[metric] = (self.counts[metric] / solves if solves else 0.0, "count")
            else:
                out[metric] = (self.counts[metric] / ops, "count")
        return out

    def write(self, path):
        """Write the spans as CSV: name, start_s, end_s, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            names = self.names
            fh.writelines(
                f"{names[n]},{s:.9f},{e:.9f},{p},{op}\n" for n, s, e, p, op in self.spans
            )
