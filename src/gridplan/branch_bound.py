"""Branch-and-bound MILP solver and an exhaustive-enumeration oracle.

``solve_milp`` is a plain LP-based branch and bound: most-fractional
branching (ties to the lowest column), best-bound node selection with
depth-first plunging until the first incumbent, and no cuts or presolve.
The root LP is solved cold; every other node LP re-optimises from its
parent's optimal basis by dual simplex (each open node carries that basis,
not a tableau) and falls back to a cold two-phase solve under the same
certificate.  Every incumbent is re-solved, warm from its node's basis,
with its binaries pinned to exact 0/1 and must pass the model evaluator
before it is accepted, so reported solutions are integral to machine
precision, not merely within the rounding tolerance.

``enumerate_exact`` solves the LP for every binary assignment and keeps the
best feasible one.  It exists to check ``solve_milp``; the two share only
the LP solver underneath.  To keep full sweeps affordable it prescreens
rows that touch binaries alone and caches block LPs per connected component
of continuous columns, but the result is identical to the naive loop.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass

import numpy as np

from .milp import EQ, GE, LE, Milp, evaluate_assignment
from .simplex import DenseLp

OPTIMAL = "optimal"
GAP_LIMIT = "gap_limit"
TIME_LIMIT = "time_limit"
NODE_LIMIT = "node_limit"
INFEASIBLE = "infeasible"

_INT_TOL = 1e-6
_GAP_EPS = 1e-9


@dataclass(frozen=True)
class SolveParams:
    """Termination settings: 0.001% gap or 3000 seconds by default."""

    mip_gap: float = 1e-5
    time_limit: float = 3000.0
    node_limit: int | None = None

    def __post_init__(self):
        if self.mip_gap < 0:
            raise ValueError(f"mip_gap must be nonnegative, got {self.mip_gap}")
        if not self.time_limit > 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError(f"node_limit must be at least 1, got {self.node_limit}")


@dataclass
class SolveOutcome:
    """Incumbent, proof bound, and how the search stopped.

    ``gap`` is (objective - bound) / max(|objective|, 1e-9); ``bound`` never
    exceeds the incumbent objective.  ``nondeterministic`` marks runs cut
    off by wall-clock time, whose incumbent may vary between machines.
    """

    status: str
    assignment: list[float] | None
    objective: float | None
    bound: float | None
    gap: float | None
    nodes: int = 0
    nondeterministic: bool = False
    message: str = ""


def _relative_gap(objective: float, bound: float) -> float:
    return (objective - bound) / max(abs(objective), _GAP_EPS)


class _Search:
    def __init__(self, model: Milp, params: SolveParams):
        self.model = model
        self.params = params
        self.dense = DenseLp.from_milp(model)
        self.bins = model.binary_columns()
        self.incumbent: list[float] | None = None
        self.incumbent_obj = np.inf
        self.lowest_pruned = np.inf
        self.heap: list = []
        self.stack: list = []
        self.seq = 0
        self.nodes = 0
        self.started = time.monotonic()

    # -- bookkeeping ---------------------------------------------------------

    def _cutoff(self) -> float:
        if self.incumbent is None:
            return np.inf
        scale = max(1.0, abs(self.incumbent_obj))
        margin = max(self.params.mip_gap * scale, 1e-9 * scale)
        return self.incumbent_obj - margin

    def _open_bound(self) -> float:
        best = self.heap[0][0] if self.heap else np.inf
        for est, *_node in self.stack:
            best = min(best, est)
        return best

    def _global_bound(self) -> float:
        return min(self.incumbent_obj, self.lowest_pruned, self._open_bound())

    def _push(self, est: float, lo, up, basis):
        self.seq += 1
        node = (est, self.seq, lo, up, basis)
        if self.incumbent is None:
            self.stack.append(node)
        else:
            heapq.heappush(self.heap, node)

    def _report_progress(self):
        bound = self._global_bound()
        gap = _relative_gap(self.incumbent_obj, bound)
        print(
            f"node {self.nodes}: incumbent {self.incumbent_obj:.10e} "
            f"bound {bound:.10e} gap {gap:.6%}",
            file=sys.stderr,
        )

    # -- incumbent handling ----------------------------------------------------

    def _try_incumbent(self, lo, up, x, basis):
        """Pin binaries to the rounded values, re-solve, accept if it checks out."""
        plo, pup = lo.copy(), up.copy()
        for col in self.bins:
            r = float(round(x[col]))
            plo[col] = pup[col] = r
        polished = self.dense.solve(plo, pup, basis=basis)
        candidate = None
        if polished.status == "optimal":
            candidate = [float(v) for v in polished.x]
        else:
            candidate = [float(v) for v in x]
        report = evaluate_assignment(self.model, candidate, tol=_INT_TOL)
        if not report.feasible:
            raise RuntimeError(
                "branch and bound produced an incumbent that fails evaluation "
                f"(row {report.max_constraint_violation:.3e}, "
                f"bound {report.max_bound_violation:.3e})"
            )
        if report.objective < self.incumbent_obj:
            self.incumbent = candidate
            self.incumbent_obj = report.objective
            if self.stack:
                for node in self.stack:
                    heapq.heappush(self.heap, node)
                self.stack.clear()
            self._report_progress()

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SolveOutcome:
        root = self.dense.solve()
        if root.status == "infeasible":
            return SolveOutcome(INFEASIBLE, None, None, None, None, nodes=1,
                                message=root.message)
        if root.status == "unbounded":
            raise RuntimeError("MILP relaxation is unbounded; refusing to search")
        if root.status == "failure":
            raise RuntimeError(f"root LP failed: {root.message}")
        self.nodes = 1
        self._branch_or_bound(self.dense.lo, self.dense.up, root)

        while self.heap or self.stack:
            if time.monotonic() - self.started > self.params.time_limit:
                return self._stopped(TIME_LIMIT, nondeterministic=True,
                                     message="time limit reached")
            if self.params.node_limit is not None and self.nodes >= self.params.node_limit:
                return self._stopped(NODE_LIMIT, nondeterministic=False,
                                     message="node limit reached")
            if self.incumbent is not None:
                gap = _relative_gap(self.incumbent_obj, self._global_bound())
                if gap <= self.params.mip_gap:
                    return self._stopped(GAP_LIMIT, nondeterministic=False,
                                         message="gap target reached")
            if self.incumbent is None and self.stack:
                est, _seq, lo, up, basis = self.stack.pop()
            else:
                est, _seq, lo, up, basis = heapq.heappop(self.heap)
            if est >= self._cutoff():
                self.lowest_pruned = min(self.lowest_pruned, est)
                continue
            outcome = self.dense.solve(lo, up, basis=basis)
            self.nodes += 1
            if outcome.status == "infeasible":
                continue
            if outcome.status != "optimal":
                raise RuntimeError(f"node LP {outcome.status}: {outcome.message}")
            self._branch_or_bound(lo, up, outcome)

        if self.incumbent is None:
            return SolveOutcome(INFEASIBLE, None, None, None, None,
                                nodes=self.nodes, message="")
        bound = min(self.incumbent_obj, self.lowest_pruned)
        return SolveOutcome(
            OPTIMAL, self.incumbent, self.incumbent_obj, bound,
            _relative_gap(self.incumbent_obj, bound), nodes=self.nodes,
        )

    def _branch_or_bound(self, lo, up, outcome):
        if outcome.objective >= self._cutoff():
            self.lowest_pruned = min(self.lowest_pruned, outcome.objective)
            return
        x = outcome.x
        frac_col = -1
        frac_best = _INT_TOL
        for col in self.bins:
            frac = abs(x[col] - round(x[col]))
            if frac > frac_best:
                frac_col = col
                frac_best = frac
        if frac_col < 0:
            self._try_incumbent(lo, up, x, outcome.basis)
            return
        down_lo, down_up = lo.copy(), up.copy()
        up_lo, up_up = lo.copy(), up.copy()
        down_up[frac_col] = 0.0
        up_lo[frac_col] = 1.0
        # push the plunge branch last so depth-first picks it first
        est, basis = outcome.objective, outcome.basis
        if x[frac_col] >= 0.5:
            self._push(est, down_lo, down_up, basis)
            self._push(est, up_lo, up_up, basis)
        else:
            self._push(est, up_lo, up_up, basis)
            self._push(est, down_lo, down_up, basis)

    def _stopped(self, status, nondeterministic, message) -> SolveOutcome:
        bound = self._global_bound()
        if self.incumbent is None:
            return SolveOutcome(status, None, None,
                                None if not np.isfinite(bound) else bound, None,
                                nodes=self.nodes, nondeterministic=nondeterministic,
                                message=message)
        return SolveOutcome(
            status, self.incumbent, self.incumbent_obj,
            min(bound, self.incumbent_obj),
            _relative_gap(self.incumbent_obj, min(bound, self.incumbent_obj)),
            nodes=self.nodes, nondeterministic=nondeterministic, message=message,
        )


def solve_milp(model: Milp, params: SolveParams | None = None) -> SolveOutcome:
    """Solve ``model`` to the requested gap by branch and bound.

    Runs without a time limit are deterministic: identical inputs give
    identical outcomes.  Any incumbent returned satisfies every row, bound,
    and integrality requirement within 1e-6.  An unbounded relaxation raises
    instead of guessing (planning models are always bounded).
    """
    return _Search(model, params or SolveParams()).run()


# -- exhaustive oracle ----------------------------------------------------------


class _Block:
    """One connected component of continuous columns and its rows."""

    def __init__(self):
        self.cols: list[int] = []
        self.rows: list = []
        self.bits: list[int] = []      # positions into the binary-column list


def enumerate_exact(model: Milp, max_binaries: int = 20) -> SolveOutcome:
    """Minimum over all binary assignments, each checked by an LP solve.

    Refuses models with more than ``max_binaries`` binary columns.  Ties
    between equally good assignments go to the lowest assignment read as a
    bit string (binary column order, least significant first).
    """
    bins = model.binary_columns()
    nbin = len(bins)
    if nbin > max_binaries:
        raise ValueError(
            f"model has {nbin} binaries, above the enumeration cap {max_binaries}"
        )
    bit_of = {col: i for i, col in enumerate(bins)}
    bin_set = set(bins)
    n = model.n_variables

    screen_rows = []
    coupled = []
    for con in model.constraints:
        cont_cols = [c for c in con.columns if c not in bin_set]
        if cont_cols:
            coupled.append((con, cont_cols))
        else:
            screen_rows.append(con)

    parent = {j: j for j in range(n) if j not in bin_set}

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    for _con, cont_cols in coupled:
        root = find(cont_cols[0])
        for c in cont_cols[1:]:
            parent[find(c)] = root

    blocks: dict[int, _Block] = {}
    for j in parent:
        blocks.setdefault(find(j), _Block()).cols.append(j)
    for con, cont_cols in coupled:
        block = blocks[find(cont_cols[0])]
        block.rows.append(con)
        for c in con.columns:
            if c in bin_set and bit_of[c] not in block.bits:
                block.bits.append(bit_of[c])
    block_list = sorted(blocks.values(), key=lambda blk: min(blk.cols))
    for block in block_list:
        block.cols.sort()
        block.bits.sort()

    n_masks = 1 << nbin
    masks = np.arange(n_masks, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(nbin)) & 1).astype(float) if nbin else \
        np.zeros((1, 0))

    feasible = np.ones(n_masks, dtype=bool)
    for i, col in enumerate(bins):
        v = model.variables[col]
        if v.lower > 0.5:
            feasible &= bits[:, i] > 0.5
        elif v.upper < 0.5:
            feasible &= bits[:, i] < 0.5
    for con in screen_rows:
        cols = [bit_of[c] for c in con.columns]
        activity = bits[:, cols] @ np.asarray(con.coefficients)
        if con.sense == LE:
            feasible &= activity <= con.rhs + _INT_TOL
        elif con.sense == GE:
            feasible &= activity >= con.rhs - _INT_TOL
        else:
            feasible &= np.abs(activity - con.rhs) <= _INT_TOL

    totals = np.full(n_masks, model.objective_offset)
    if nbin:
        c_bin = np.array([model.objective.get(col, 0.0) for col in bins])
        totals = totals + bits @ c_bin

    lo_all = np.array([v.lower for v in model.variables])
    up_all = np.array([v.upper for v in model.variables])
    c_all = np.zeros(n)
    for col, coef in model.objective.items():
        c_all[col] = coef

    never_feasible = np.zeros(n_masks, dtype=bool)
    unbounded = np.zeros(n_masks, dtype=bool)
    block_values: list[tuple[np.ndarray, np.ndarray, list]] = []
    for block in block_list:
        pos = {c: i for i, c in enumerate(block.cols)}
        k = len(block.bits)
        objs = np.empty(1 << k)
        sols = []
        a = np.zeros((len(block.rows), len(block.cols)))
        senses = []
        base_rhs = np.zeros(len(block.rows))
        bin_terms = []
        for r, con in enumerate(block.rows):
            senses.append(con.sense)
            base_rhs[r] = con.rhs
            for c, coef in zip(con.columns, con.coefficients):
                if c in bin_set:
                    bin_terms.append((r, bit_of[c], coef))
                else:
                    a[r, pos[c]] = coef
        for combo in range(1 << k):
            rhs = base_rhs.copy()
            for r, bit, coef in bin_terms:
                idx = block.bits.index(bit)
                if (combo >> idx) & 1:
                    rhs[r] -= coef
            sub = DenseLp(a, senses, rhs, lo_all[block.cols], up_all[block.cols],
                          c_all[block.cols])
            out = sub.solve()
            if out.status == "optimal":
                objs[combo] = out.objective
                sols.append(out.x)
            elif out.status == "infeasible":
                objs[combo] = np.inf
                sols.append(None)
            elif out.status == "unbounded":
                objs[combo] = -np.inf
                sols.append(None)
            else:
                raise RuntimeError(f"block LP failed: {out.message}")
        if k:
            sub_index = np.zeros(n_masks, dtype=np.int64)
            for i, bit in enumerate(block.bits):
                sub_index += (bits[:, bit] > 0.5).astype(np.int64) << i
            vals = objs[sub_index]
        else:
            vals = np.full(n_masks, objs[0])
        never_feasible |= np.isposinf(vals)
        unbounded |= np.isneginf(vals)
        totals = totals + np.where(np.isfinite(vals), vals, 0.0)
        block_values.append((objs, np.asarray(block.cols), sols))

    feasible &= ~never_feasible
    if np.any(unbounded & feasible):
        raise RuntimeError("model is unbounded for a feasible binary assignment")
    totals = np.where(feasible, totals, np.inf)
    best = int(np.argmin(totals))
    if totals[best] == np.inf:
        return SolveOutcome(INFEASIBLE, None, None, None, None, nodes=n_masks,
                            message="no binary assignment admits a feasible LP")

    x = np.zeros(n)
    for i, col in enumerate(bins):
        x[col] = float((best >> i) & 1)
    for block, (objs, cols, sols) in zip(block_list, block_values):
        combo = 0
        for i, bit in enumerate(block.bits):
            combo |= ((best >> bit) & 1) << i
        x[cols] = sols[combo]
    assignment = [float(v) for v in x]
    report = evaluate_assignment(model, assignment, tol=_INT_TOL)
    if not report.feasible:
        raise RuntimeError("enumeration produced an assignment that fails evaluation")
    objective = report.objective
    return SolveOutcome(OPTIMAL, assignment, objective, objective, 0.0,
                        nodes=n_masks)
