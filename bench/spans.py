"""Spans around calls into gridplan's modules, recorded from outside.

``Tracer.install`` wraps the pipeline's public functions plus
``DenseLp.solve``, ``DenseLp.from_milp`` and ``evaluate_assignment``,
patching each name where the calling module looks it up, so calls made
inside ``branch_bound`` and ``builder`` are seen too.  ``uninstall``
restores the originals.  Spans stay in memory as
``(name, start, end, parent, job, attrs)`` until ``write`` dumps them.

``layer_metrics`` turns the spans of one pass into the per-layer metrics
the benchmark reports.
"""

from __future__ import annotations

import json
import time

import numpy as np

import gridplan
from gridplan import branch_bound, builder
from gridplan.simplex import DenseLp

# (module, attribute, span name) for plain functions
_FUNCTIONS = (
    (gridplan, "parse_case", "case.parse"),
    (gridplan, "validate_case", "case.validate"),
    (builder, "validate_case", "case.validate"),
    (gridplan, "build_milp", "builder.build"),
    (gridplan, "decode_plan", "builder.decode"),
    (gridplan, "evaluate_assignment", "milp.evaluate"),
    (builder, "evaluate_assignment", "milp.evaluate"),
    (branch_bound, "evaluate_assignment", "milp.evaluate"),
    (gridplan, "solve_milp", "branch_bound.solve"),
    (gridplan, "write_mps", "mps.write"),
    (gridplan, "parse_mps", "mps.parse"),
    (gridplan, "read_solution", "mps.read_solution"),
    (gridplan, "compute_metrics", "report.render"),
    (gridplan, "render_report", "report.render"),
    (gridplan, "render_plan_csv", "report.render"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._bins: dict[int, list[int]] = {}

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> dict:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[5]

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return traced

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in _FUNCTIONS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

        solve = DenseLp.solve
        from_milp = DenseLp.from_milp.__func__
        self._saved.append((DenseLp, "solve", solve))
        self._saved.append((DenseLp, "from_milp", DenseLp.__dict__["from_milp"]))
        tracer = self

        def traced_solve(lp, lo=None, up=None, *args, **kwargs):
            index = tracer._open("simplex.solve")
            outcome = None
            try:
                outcome = solve(lp, lo, up, *args, **kwargs)
                return outcome
            finally:
                attrs = tracer._close(index)
                bins = tracer._bins.get(id(lp))
                if outcome is not None:
                    attrs["pivots"] = outcome.iterations
                    attrs["status"] = outcome.status
                attrs["pinned"] = bool(
                    bins and lo is not None and up is not None
                    and np.array_equal(np.asarray(lo)[bins], np.asarray(up)[bins])
                )

        def traced_from_milp(cls, model):
            index = tracer._open("simplex.densify")
            try:
                lp = from_milp(cls, model)
                tracer._bins[id(lp)] = model.binary_columns()
                return lp
            finally:
                attrs = tracer._close(index)
                attrs["m"] = model.n_constraints
                attrs["n"] = model.n_variables

        DenseLp.solve = traced_solve
        DenseLp.from_milp = classmethod(traced_from_milp)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
        self._bins.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path, t0: float) -> None:
        """One JSON object per span, times in seconds from ``t0``."""
        with open(path, "w") as out:
            for name, start, end, parent, job, attrs in self.spans:
                out.write(json.dumps({"name": name, "start": start - t0,
                                      "end": end - t0, "parent": parent,
                                      "job": job, **attrs}) + "\n")


def self_times(spans, lo: int, hi: int) -> list[float]:
    """Self time of each span in ``spans[lo:hi]``: duration minus children."""
    own = [s[2] - s[1] for s in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent is not None and parent >= lo:
            own[parent - lo] -= spans[i][2] - spans[i][1]
    return own


def layer_metrics(spans, lo: int, hi: int, nodes: int) -> dict[str, float]:
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one pass).

    ``nodes`` is the pass's total of ``SolveOutcome.nodes``, which no span
    sees.
    """
    own = self_times(spans, lo, hi)
    total: dict[str, float] = {}        # self time per span name
    inclusive: dict[str, float] = {}
    count: dict[str, int] = {}
    for (name, start, end, *_), self_s in zip(spans[lo:hi], own):
        total[name] = total.get(name, 0.0) + self_s
        inclusive[name] = inclusive.get(name, 0.0) + end - start
        count[name] = count.get(name, 0) + 1

    pivots = failures = polish = search_lps = root_pivots = 0
    root_s = tableau = 0.0
    seen_root: set[int] = set()
    for i in range(lo, hi):
        name, start, end, parent, _job, attrs = spans[i]
        if name == "simplex.densify":
            m, n = attrs["m"], attrs["n"]
            tableau = max(tableau, 8.0 * m * (n + m) / 2**20)
        if name != "simplex.solve":
            continue
        pivots += attrs.get("pivots", 0)
        failures += attrs.get("status") == "failure"
        polish += attrs["pinned"]
        if parent is not None and spans[parent][0] == "branch_bound.solve":
            search_lps += 1
            if parent not in seen_root:      # the first LP of a solve is its root
                seen_root.add(parent)
                root_s += end - start
                root_pivots += attrs.get("pivots", 0)

    lp_calls = count.get("simplex.solve", 0)
    lp_s = total.get("simplex.solve", 0.0)
    return {
        "case.parse_s": total.get("case.parse", 0.0),
        "case.validate_s": total.get("case.validate", 0.0),
        "builder.build_s": total.get("builder.build", 0.0),
        "builder.decode_s": total.get("builder.decode", 0.0),
        "milp.evaluate_s": total.get("milp.evaluate", 0.0),
        "milp.evaluate_calls": count.get("milp.evaluate", 0),
        "simplex.lp_calls": lp_calls,
        "simplex.pivots": pivots,
        "simplex.pivots_per_lp": pivots / lp_calls if lp_calls else 0.0,
        "simplex.root_s": root_s,
        "simplex.root_pivots": root_pivots,
        "simplex.lp_s": lp_s,
        "simplex.us_per_pivot": 1e6 * lp_s / pivots if pivots else 0.0,
        "simplex.densify_s": total.get("simplex.densify", 0.0),
        "simplex.tableau_mib": tableau,
        "simplex.lp_failures": failures,
        "branch_bound.solve_s": inclusive.get("branch_bound.solve", 0.0),
        "branch_bound.search_s": total.get("branch_bound.solve", 0.0),
        "branch_bound.polish_lps": polish,
        "branch_bound.nodes": nodes,
        "branch_bound.lps_per_node": search_lps / nodes if nodes else 0.0,
        "mps.write_s": total.get("mps.write", 0.0),
        "mps.parse_s": total.get("mps.parse", 0.0),
        "mps.read_solution_s": total.get("mps.read_solution", 0.0),
        "report.render_s": total.get("report.render", 0.0),
    }
