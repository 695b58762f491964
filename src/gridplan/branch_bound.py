"""Branch-and-bound MILP solver and an exhaustive-enumeration oracle.

``solve_milp`` is an LP-based branch and bound over the presolved LP of
``simplex.presolve``, in its column ids; only an incumbent candidate is
postsolved to the model's columns.  It branches on the fractional binary
that gates the most rows, the one with the most nonzeros in its model
column (an availability binary gates every interval of its epoch, a status
binary one season's hours), ties to the most fractional, then to the lowest
column.  Nodes are selected best bound first, with depth-first plunging
until the first incumbent; there are no cuts.
Every LP is a bounded dual simplex, in one node loop whose first node is
the root: the root starts from the model's crash basis, every other node
LP from its parent's optimal basis (each open node carries that basis, not
a tableau), and an attempt that fails is retried from the crash basis and
then the all-slack basis, under the same certificate.  The ``DenseLp``
keeps the tableau of the last optimal LP, so a plunge child popped right
after its parent, and a polish LP, start from that tableau with no
refactor; it also keeps the factor of the last parent basis it factored,
which a sibling popped right after copies.
A node LP that still fails, or an incumbent candidate that fails the model
evaluator, leaves its subtree unsolved: the node's value stays in the
bound, which stays valid, so the gap target and the limits stop the search
as usual, but a search that runs out of nodes returns ``lp_failure``, never
``optimal``.  An incumbent whose binaries are not exactly 0/1 is re-solved,
warm from its node's basis, with its binaries pinned to the rounded values;
one whose binaries already are exactly 0/1 is kept as solved, since it
already solves that pinned LP.
Every incumbent must pass the model evaluator before it is accepted, so a
reported solution's binaries lie within ``FEASIBILITY_TOL`` (1e-6) of 0/1.
They are exactly 0/1 after a polish LP that ends ``optimal``; when it does
not, the node LP's own x is the candidate.

``enumerate_exact`` solves the LP for every binary assignment and keeps the
best feasible one.  It exists to check ``solve_milp``; the two share only
the LP solver underneath, not the presolve.  To keep full sweeps affordable
it works on the model's unreduced ``DenseLp``: rows that touch binaries
alone screen assignments without an LP, and the continuous columns split
into connected components (one DC-flow block per hour, season and epoch in
a planning model).  Each
block becomes one ``DenseLp`` of its continuous columns followed by the
binaries its rows touch, at zero cost, and each combination of those
binaries is one solve with their bounds pinned to its bits, the same
bounds-only variation the search and the incumbent polishing use.  The
block optima are cached per combination, so the result is identical to the
naive loop.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import simplex
from .milp import FEASIBILITY_TOL, Milp, evaluate_assignment
from .simplex import DenseLp, presolve

OPTIMAL = "optimal"
GAP_LIMIT = "gap_limit"
TIME_LIMIT = "time_limit"
INFEASIBLE = "infeasible"
LP_FAILURE = "lp_failure"

_GAP_EPS = 1e-9
# 2**20 binary assignments is the most ``enumerate_exact`` will sweep
_MAX_ENUM_BINARIES = 20


@dataclass(frozen=True)
class SolveParams:
    """Termination settings: 0.001% gap or 3000 seconds by default."""

    mip_gap: float = 1e-5
    time_limit: float = 3000.0

    def __post_init__(self):
        # NaN fails every cutoff comparison, so it would prune nothing
        if not self.mip_gap >= 0:
            raise ValueError(f"mip_gap must be nonnegative, got {self.mip_gap}")
        if not self.time_limit > 0:
            raise ValueError(f"time_limit must be positive, got {self.time_limit}")


@dataclass
class SolveOutcome:
    """Incumbent, proof bound, and how the search stopped.

    ``bound`` never exceeds the incumbent objective and is None when no LP
    gave one (a time limit before the root, or a root LP that failed).  Two
    properties derive from the fields: ``gap``, (objective - bound) /
    max(|objective|, 1e-9) or None without both, and ``nondeterministic``,
    true exactly for ``time_limit`` outcomes: runs cut off by wall-clock
    time, whose incumbent may vary between machines.
    """

    status: str
    assignment: list[float] | None
    objective: float | None
    bound: float | None
    nodes: int = 0
    message: str = ""

    @property
    def gap(self) -> float | None:
        if self.objective is None or self.bound is None:
            return None
        return _relative_gap(self.objective, self.bound)

    @property
    def nondeterministic(self) -> bool:
        return self.status == TIME_LIMIT


def _relative_gap(objective: float, bound: float) -> float:
    return (objective - bound) / max(abs(objective), _GAP_EPS)


class _Search:
    def __init__(self, model: Milp, params: SolveParams):
        self.model = model
        self.params = params
        # the search works in the presolved LP's column ids
        self.dense, self.postsolve = presolve(model)
        kept = self.postsolve.kept
        self.bins = np.flatnonzero(np.frombuffer(bytes(model.is_binary), np.uint8)[kept])
        # rows each binary gates: the nonzeros of its column in the model
        self.gates = np.bincount(np.frombuffer(model.row_col, np.int64),
                                 minlength=model.n_variables)[kept[self.bins]]
        self.incumbent: list[float] | None = None
        self.incumbent_obj = np.inf
        self.lowest_pruned = np.inf
        # open nodes (estimate, sequence, lo, up, basis): a stack until the
        # first incumbent, a heap from then on
        self.open: list = []
        self.seq = 0
        self.nodes = 0
        self.lp_failure = ""
        self.started = time.monotonic()

    # -- bookkeeping ---------------------------------------------------------

    def _cutoff(self) -> float:
        if self.incumbent is None:
            return np.inf
        scale = max(1.0, abs(self.incumbent_obj))
        margin = max(self.params.mip_gap * scale, 1e-9 * scale)
        return self.incumbent_obj - margin

    def _open_bound(self) -> float:
        if self.incumbent is not None:
            return self.open[0][0] if self.open else np.inf
        return min((node[0] for node in self.open), default=np.inf)

    def _global_bound(self) -> float:
        return min(self.incumbent_obj, self.lowest_pruned, self._open_bound())

    def _push(self, est: float, lo, up, basis):
        self.seq += 1
        node = (est, self.seq, lo, up, basis)
        if self.incumbent is None:
            self.open.append(node)
        else:
            heapq.heappush(self.open, node)

    def _report_progress(self):
        bound = self._global_bound()
        gap = _relative_gap(self.incumbent_obj, bound)
        print(
            f"node {self.nodes}: incumbent {self.incumbent_obj:.10e} "
            f"bound {bound:.10e} gap {gap:.6%}",
            file=sys.stderr,
        )

    # -- incumbent handling ----------------------------------------------------

    def _try_incumbent(self, lo, up, outcome):
        """Pin binaries to the rounded values, re-solve unless they already
        are, accept if it checks out."""
        x = outcome.x
        pinned = np.round(x[self.bins])
        # exactly integral binaries: x already solves the pinned LP
        if not np.array_equal(pinned, x[self.bins]):
            plo, pup = lo.copy(), up.copy()
            plo[self.bins] = pup[self.bins] = pinned
            polished = self.dense.solve(plo, pup, basis=outcome.basis)
            if polished.status == simplex.OPTIMAL:
                x = polished.x
        candidate = [float(v) for v in self.postsolve(x)]
        report = evaluate_assignment(self.model, candidate)
        if not report.feasible:
            # refused: the node's LP value stays in the bound
            self.lowest_pruned = min(self.lowest_pruned, outcome.objective)
            self.lp_failure = (
                "incumbent fails evaluation "
                f"(row {report.max_constraint_violation:.3e}, "
                f"bound {report.max_bound_violation:.3e})"
            )
        elif report.objective < self.incumbent_obj:
            if self.incumbent is None:
                heapq.heapify(self.open)
            self.incumbent = candidate
            self.incumbent_obj = report.objective
            self._report_progress()

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SolveOutcome:
        # the root is the first open node: model bounds, no basis of its own
        self._push(-np.inf, self.dense.lo, self.dense.up, None)
        while self.open:
            if time.monotonic() - self.started > self.params.time_limit:
                return self._outcome(TIME_LIMIT, "time limit reached")
            if self.incumbent is not None:
                gap = _relative_gap(self.incumbent_obj, self._global_bound())
                if gap <= self.params.mip_gap:
                    return self._outcome(GAP_LIMIT, "gap target reached")
            if self.incumbent is None:
                est, _seq, lo, up, basis = self.open.pop()
            else:
                est, _seq, lo, up, basis = heapq.heappop(self.open)
            if est >= self._cutoff():
                self.lowest_pruned = min(self.lowest_pruned, est)
                continue
            outcome = self.dense.solve(lo, up, basis=basis)
            self.nodes += 1
            if outcome.status == simplex.INFEASIBLE:
                continue
            if outcome.status == simplex.UNBOUNDED:
                # a node only narrows bounds, so the relaxation is unbounded
                raise RuntimeError("MILP relaxation is unbounded; refusing to search")
            if outcome.status != simplex.OPTIMAL:
                # the unsolved subtree keeps its estimate in the bound
                self.lowest_pruned = min(self.lowest_pruned, est)
                self.lp_failure = f"node LP {outcome.status}: {outcome.message}"
                continue
            self._branch_or_bound(lo, up, outcome)

        if self.lp_failure:
            return self._outcome(LP_FAILURE, self.lp_failure)
        return self._outcome(INFEASIBLE if self.incumbent is None else OPTIMAL)

    def _branch_or_bound(self, lo, up, outcome):
        if outcome.objective >= self._cutoff():
            self.lowest_pruned = min(self.lowest_pruned, outcome.objective)
            return
        x = outcome.x
        x_bins = x[self.bins]
        frac = np.abs(x_bins - np.round(x_bins))
        fractional = frac > FEASIBILITY_TOL
        if not fractional.any():
            self._try_incumbent(lo, up, outcome)
            return
        # the fractional binary that gates the most rows, then the most
        # fractional of those; argmax sends ties to the lowest column
        most = fractional & (self.gates == self.gates[fractional].max())
        frac_col = self.bins[int(np.argmax(np.where(most, frac, -1.0)))]
        # each child narrows one bound array and shares the other with this
        # node: no node's bounds are written once it is pushed
        down_up, up_lo = up.copy(), lo.copy()
        down_up[frac_col] = 0.0
        up_lo[frac_col] = 1.0
        # push the plunge branch last so depth-first picks it first
        est, basis = outcome.objective, outcome.basis
        if x[frac_col] >= 0.5:
            self._push(est, lo, down_up, basis)
            self._push(est, up_lo, up, basis)
        else:
            self._push(est, up_lo, up, basis)
            self._push(est, lo, down_up, basis)

    def _outcome(self, status, message="") -> SolveOutcome:
        """Every way ``run`` ends: the incumbent, if any, and the proof bound."""
        bound = self._global_bound()
        objective = None if self.incumbent is None else self.incumbent_obj
        return SolveOutcome(status, self.incumbent, objective,
                            bound if np.isfinite(bound) else None,
                            nodes=self.nodes, message=message)


def solve_milp(model: Milp, params: SolveParams | None = None) -> SolveOutcome:
    """Solve ``model`` to the requested gap by branch and bound.

    Runs without a time limit are deterministic: identical inputs give
    identical outcomes under the same BLAS thread count, whose summation
    order can break a near-tie in the search the other way.  Any incumbent
    returned satisfies every row, bound, and integrality requirement within
    1e-6.  An unbounded relaxation raises instead of guessing (planning
    models are always bounded); any other LP trouble, at the root or below,
    ends the search as ``lp_failure``.
    """
    return _Search(model, params or SolveParams()).run()


# -- exhaustive oracle ----------------------------------------------------------


def enumerate_exact(model: Milp) -> SolveOutcome:
    """Minimum over all binary assignments, each checked by an LP solve.

    Refuses models with more than ``_MAX_ENUM_BINARIES`` binary columns.  Ties
    between equally good assignments go to the lowest assignment read as a
    bit string (binary column order, least significant first).
    """
    bins = np.asarray(model.binary_columns(), dtype=np.int64)
    nbin = bins.size
    if nbin > _MAX_ENUM_BINARIES:
        raise ValueError(
            f"model has {nbin} binaries, above the enumeration cap {_MAX_ENUM_BINARIES}"
        )
    dense = DenseLp.from_milp(model)
    n = dense.a.shape[1]
    is_cont = np.ones(n, dtype=bool)
    is_cont[bins] = False
    cont_nz = (dense.a != 0.0) & is_cont
    coupled = cont_nz.any(axis=1)

    n_masks = 1 << nbin
    bits = ((np.arange(n_masks)[:, None] >> np.arange(nbin)) & 1).astype(float)

    # pinned binaries and rows that touch binaries alone screen whole masks
    lo_b, up_b = dense.lo[bins], dense.up[bins]
    feasible = (np.all((bits > 0.5) | (lo_b <= 0.5), axis=1)
                & np.all((bits < 0.5) | (up_b >= 0.5), axis=1))
    # a mask passes a row when the row's slack, b - a.bits, fits the slack
    # box the simplex gives it, within the evaluator's tolerance
    screen = np.nonzero(~coupled)[0]
    slack = dense.b[screen] - bits @ dense.a[np.ix_(screen, bins)].T
    feasible &= np.all((slack >= dense.slack_lo[screen] - FEASIBILITY_TOL)
                       & (slack <= dense.slack_up[screen] + FEASIBILITY_TOL), axis=1)

    totals = np.full(n_masks, model.objective_offset) + bits @ dense.c[bins]

    # connected components of continuous columns over the coupled rows: each
    # column takes the lowest label it shares such a row with, until no label
    # changes
    comp, previous = np.arange(n), None
    while not np.array_equal(comp, previous):
        previous = comp
        row_label = np.where(cont_nz, comp, n).min(axis=1, initial=n)
        comp = np.minimum(comp, np.where(cont_nz, row_label[:, None], n).min(axis=0, initial=n))
    row_comp = np.max(np.where(cont_nz, comp, -1), axis=1, initial=-1)

    never_feasible = np.zeros(n_masks, dtype=bool)
    unbounded = np.zeros(n_masks, dtype=bool)
    best_parts = []
    # a block is one DenseLp: its continuous columns, then its binaries at
    # cost 0 (their cost is in ``totals``), pinned per combination by bounds
    for root in dict.fromkeys(comp[is_cont]):
        cols = np.nonzero(is_cont & (comp == root))[0]
        rows = np.nonzero(row_comp == root)[0]
        block_bits = np.nonzero(dense.a[np.ix_(rows, bins)].any(axis=0))[0]
        k, nc = block_bits.size, cols.size
        sub_cols = np.concatenate([cols, bins[block_bits]])
        sub = DenseLp(dense.a[np.ix_(rows, sub_cols)], dense.b[rows],
                      dense.slack_lo[rows], dense.slack_up[rows],
                      dense.lo[sub_cols], dense.up[sub_cols],
                      np.concatenate([dense.c[cols], np.zeros(k)]))
        objs = np.empty(1 << k)
        sols = []
        for combo in range(1 << k):
            lo, up = sub.lo.copy(), sub.up.copy()
            lo[nc:] = up[nc:] = (combo >> np.arange(k)) & 1
            out = sub.solve(lo, up)
            if out.status == simplex.OPTIMAL:
                objs[combo] = out.objective
                sols.append(out.x[:nc])
            elif out.status == simplex.INFEASIBLE:
                objs[combo] = np.inf
                sols.append(None)
            elif out.status == simplex.UNBOUNDED:
                objs[combo] = -np.inf
                sols.append(None)
            else:
                raise RuntimeError(f"block LP failed: {out.message}")
        sub_index = bits[:, block_bits].astype(np.int64) @ (1 << np.arange(k))
        vals = objs[sub_index]
        never_feasible |= np.isposinf(vals)
        unbounded |= np.isneginf(vals)
        totals = totals + np.where(np.isfinite(vals), vals, 0.0)
        best_parts.append((cols, sub_index, sols))

    feasible &= ~never_feasible
    if np.any(unbounded & feasible):
        raise RuntimeError("model is unbounded for a feasible binary assignment")
    totals = np.where(feasible, totals, np.inf)
    best = int(np.argmin(totals))
    if totals[best] == np.inf:
        return SolveOutcome(INFEASIBLE, None, None, None, nodes=n_masks,
                            message="no binary assignment admits a feasible LP")

    x = np.zeros(n)
    x[bins] = bits[best]
    for cols, sub_index, sols in best_parts:
        x[cols] = sols[sub_index[best]]
    assignment = [float(v) for v in x]
    report = evaluate_assignment(model, assignment)
    if not report.feasible:
        raise RuntimeError("enumeration produced an assignment that fails evaluation")
    return SolveOutcome(OPTIMAL, assignment, report.objective, report.objective,
                        nodes=n_masks)
