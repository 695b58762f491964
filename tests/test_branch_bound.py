"""Search correctness: mutual oracle checks, scipy cross-checks, statuses."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize

from gridplan import branch_bound
from gridplan.branch_bound import (
    GAP_LIMIT,
    INFEASIBLE,
    LP_FAILURE,
    OPTIMAL,
    TIME_LIMIT,
    SolveParams,
    enumerate_exact,
    solve_milp,
)
from conftest import ALL_CASES
from gridplan.builder import Variant, build_milp
from gridplan.milp import BINARY, CONTINUOUS, EQ, GE, LE, Milp, evaluate_assignment
from gridplan.simplex import FAILURE, DenseLp, LpOutcome
from gridplan.simplex import INFEASIBLE as LP_INFEASIBLE

EXACT = SolveParams(mip_gap=0.0)


def test_params_validation():
    with pytest.raises(ValueError, match="mip_gap"):
        SolveParams(mip_gap=-1e-9)
    # NaN fails every cutoff comparison, so the search would prune nothing
    with pytest.raises(ValueError, match="mip_gap must be nonnegative, got nan"):
        SolveParams(mip_gap=float("nan"))
    with pytest.raises(ValueError, match="time_limit"):
        SolveParams(time_limit=0.0)
    assert SolveParams().mip_gap == 1e-5
    assert SolveParams().time_limit == 3000.0


def test_enumeration_refuses_more_than_twenty_binaries():
    m = Milp()
    for i in range(21):
        m.add_variable(BINARY, 0.0, 1.0, f"b{i}")
    with pytest.raises(ValueError, match="21 binaries, above the enumeration cap 20"):
        enumerate_exact(m)


def _knapsack(values, weights, capacity):
    m = Milp()
    for i, v in enumerate(values):
        col = m.add_variable(BINARY, 0.0, 1.0, f"b{i}")
        m.set_objective_coefficient(col, -float(v))
    m.add_constraint(
        [(i, float(w)) for i, w in enumerate(weights)], LE, float(capacity)
    )
    return m


def test_knapsack_exact():
    m = _knapsack([6, 5, 4], [4, 3, 2], 6)
    out = solve_milp(m, EXACT)
    assert out.status in (OPTIMAL, GAP_LIMIT)
    assert out.objective == pytest.approx(-10.0)   # items 0 and 2
    assert out.gap <= 1e-12
    oracle = enumerate_exact(m)
    assert oracle.objective == pytest.approx(-10.0)
    assert oracle.nodes == 8


def test_mixed_integer_rounding_is_not_assumed():
    # LP relaxation optimum is fractional; the true optimum differs from
    # naive rounding.
    m = Milp()
    b0 = m.add_variable(BINARY, 0.0, 1.0, "b0")
    b1 = m.add_variable(BINARY, 0.0, 1.0, "b1")
    x = m.add_variable(CONTINUOUS, 0.0, 10.0, "x")
    m.add_constraint([(b0, 2.0), (b1, 3.0), (x, 1.0)], GE, 4.0)
    m.set_objective_coefficient(b0, 5.0)
    m.set_objective_coefficient(b1, 5.0)
    m.set_objective_coefficient(x, 2.0)
    out = solve_milp(m, EXACT)
    oracle = enumerate_exact(m)
    assert out.objective == pytest.approx(oracle.objective, rel=1e-9)
    check = evaluate_assignment(m, out.assignment)
    assert check.feasible


def test_infeasible_status():
    m = Milp()
    b = m.add_variable(BINARY, 0.0, 1.0, "b")
    m.add_constraint([(b, 1.0)], GE, 2.0)
    out = solve_milp(m, EXACT)
    assert out.status == INFEASIBLE
    assert out.assignment is None
    assert enumerate_exact(m).status == INFEASIBLE


def test_unbounded_relaxation_refused():
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, math.inf, "x")
    m.add_variable(BINARY, 0.0, 1.0, "b")
    m.set_objective_coefficient(x, -1.0)
    with pytest.raises(RuntimeError, match="unbounded"):
        solve_milp(m, EXACT)


def test_time_limit_marks_nondeterminism():
    m = _knapsack([3, 5, 7], [2, 3, 4], 5)
    out = solve_milp(m, SolveParams(mip_gap=0.0, time_limit=1e-9))
    assert out.status == TIME_LIMIT
    assert out.nondeterministic is True
    # the limit expires before the root LP, which is the first node
    assert out.nodes == 0 and out.bound is None and out.assignment is None
    assert out.gap is None


def test_loose_gap_still_within_target():
    m = _knapsack(range(2, 12), [4, 5, 6, 7, 8, 9, 10, 11, 12, 13], 30)
    exact = enumerate_exact(m)
    out = solve_milp(m, SolveParams(mip_gap=0.25))
    assert out.status in (OPTIMAL, GAP_LIMIT)
    assert out.objective <= exact.objective + 0.25 * abs(exact.objective) + 1e-9
    assert out.bound <= exact.objective + 1e-9


# one fifth of the pivots the searches took when every node LP started cold
# (6,255 and 9,386); warm starts from the parent basis need far fewer
@pytest.mark.parametrize("variant, cap", [(Variant.SWITCH_EXISTING, 1251),
                                          (Variant.SWITCH_ALL, 1877)])
def test_node_lps_reuse_the_parent_basis(bundled, monkeypatch, variant, cap):
    model, _index = build_milp(bundled("eight_bus"), variant)
    pivots = []
    solve = DenseLp.solve

    def counting(self, *args, **kwargs):
        outcome = solve(self, *args, **kwargs)
        pivots.append(outcome.iterations)
        return outcome

    monkeypatch.setattr(DenseLp, "solve", counting)
    out = solve_milp(model, SolveParams(mip_gap=1e-5))
    assert out.status in (OPTIMAL, GAP_LIMIT)
    assert sum(pivots) <= cap


def test_bundled_sweep_counters_stay_pinned(bundled, monkeypatch):
    # deterministic work of a default solve_milp over the 21 bundled pairs:
    # 202 LPs, 1,361 pivots, 189 nodes on the presolved LP with gate-count
    # branching, zero-cost columns starting free at zero and roots from the
    # crash basis, under the one BLAS thread conftest sets and the same
    # under two threads (eight_bus switch-all takes 50 nodes and diamond
    # switch-all 16).  The caps keep the two-thread figures of the full
    # m x m factor (281, 2,120 and 238), so a run with more threads passes
    # too
    outcomes = []
    solve = DenseLp.solve

    def recording(self, *args, **kwargs):
        outcomes.append(solve(self, *args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(DenseLp, "solve", recording)
    nodes = 0
    for name in ALL_CASES:
        for variant in Variant:
            model, _index = build_milp(bundled(name), variant)
            nodes += solve_milp(model).nodes
    assert not [o.message for o in outcomes if o.status == FAILURE]
    lps, pivots = len(outcomes), sum(o.iterations for o in outcomes)
    figures = f"{lps} LPs, {pivots} pivots, {nodes} nodes"
    assert lps <= 281, figures
    assert pivots <= 2120, figures
    assert nodes <= 238, figures


def _first_branch(model, monkeypatch):
    """The column whose bound the first child LP of ``model``'s search
    changes, and the bound it gets."""
    bounds = []
    solve = DenseLp.solve

    def recording(self, lo=None, up=None, basis=None):
        bounds.append((np.array(lo), np.array(up)))
        return solve(self, lo, up, basis=basis)

    monkeypatch.setattr(DenseLp, "solve", recording)
    solve_milp(model, EXACT)
    monkeypatch.undo()
    (root_lo, root_up), (lo, up) = bounds[:2]
    changed = np.flatnonzero((lo != root_lo) | (up != root_up))
    assert changed.size == 1
    col = int(changed[0])
    return col, (lo[col], up[col])


def _fractional_pair(caps, extra_rows):
    """Binaries b0 and b1 whose root LP values are 1 / caps[i], the rest of
    the objective a continuous y; b0 also sits in ``extra_rows`` slack rows,
    so it has that many more nonzeros in its column."""
    m = Milp()
    bins = [m.add_variable(BINARY, 0.0, 1.0, f"b{i}") for i in range(2)]
    y = m.add_variable(CONTINUOUS, 0.0, 1.0, "y")
    for b, cap in zip(bins, caps):
        m.set_objective_coefficient(b, -1.0)
        m.add_constraint([(b, float(cap))], LE, 1.0)
    for _ in range(extra_rows):
        m.add_constraint([(bins[0], 1.0), (y, 1.0)], LE, 5.0)
    m.set_objective_coefficient(y, 1.0)
    return m


def test_branching_takes_the_binary_that_gates_most_rows(monkeypatch):
    # b1 = 1/2 is the most fractional, but b0 = 1/4 sits in three rows and
    # b1 in one: the first child pins b0 down, the plunge side of 1/4
    model = _fractional_pair([4, 2], extra_rows=2)
    assert _first_branch(model, monkeypatch) == (0, (0.0, 0.0))


def test_branching_ties_go_to_most_fractional_then_lowest_column(monkeypatch):
    # one row each: b1 = 1/2 beats b0 = 1/4, and its plunge side is up
    model = _fractional_pair([4, 2], extra_rows=0)
    assert _first_branch(model, monkeypatch) == (1, (1.0, 1.0))
    # one row each and both 1/2: the lowest column, b0
    model = _fractional_pair([2, 2], extra_rows=0)
    assert _first_branch(model, monkeypatch) == (0, (1.0, 1.0))


def test_exactly_integral_node_is_not_polished(monkeypatch):
    # the root LP's binary is exactly 1, so its x already solves the LP
    # with that binary pinned: the root is the only LP of the search
    m = Milp()
    b = m.add_variable(BINARY, 0.0, 1.0, "b")
    y = m.add_variable(CONTINUOUS, 0.0, 1.0, "y")
    m.add_constraint([(b, 1.0), (y, 1.0)], LE, 3.0)
    m.set_objective_coefficient(b, -1.0)
    m.set_objective_coefficient(y, -0.5)
    calls = []
    solve = DenseLp.solve

    def counting(self, *args, **kwargs):
        calls.append(solve(self, *args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(DenseLp, "solve", counting)
    out = solve_milp(m)
    assert out.status == OPTIMAL
    assert out.assignment == [1.0, 1.0]
    assert len(calls) == 1


@pytest.mark.parametrize("failing_call", [1, 2])   # the root, its first child
def test_failed_node_lp_keeps_incumbent_and_a_valid_bound(bundled, monkeypatch, failing_call):
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    calls = []
    solve = DenseLp.solve

    def failing(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == failing_call:
            return LpOutcome(FAILURE, message="injected")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(DenseLp, "solve", failing)
    out = solve_milp(model)
    monkeypatch.undo()
    assert out.status == LP_FAILURE
    assert "injected" in out.message
    if failing_call == 1:
        # nothing below a failed root is searched, so nothing bounds it
        assert out.assignment is None and out.bound is None
        assert out.nodes == 1
        return
    assert evaluate_assignment(model, out.assignment).feasible
    assert out.bound <= out.objective
    assert out.bound <= enumerate_exact(model).objective + 1e-6


def test_rejected_incumbents_end_as_lp_failure(bundled, monkeypatch):
    model, _index = build_milp(bundled("tri_switch"), Variant.SWITCH_ALL)
    optimum = enumerate_exact(model).objective

    def rejecting(*args):
        return dataclasses.replace(evaluate_assignment(*args), feasible=False)

    monkeypatch.setattr(branch_bound, "evaluate_assignment", rejecting)
    out = solve_milp(model)
    assert out.status == LP_FAILURE
    assert "fails evaluation" in out.message
    assert out.assignment is None and out.objective is None
    assert out.bound <= optimum + 1e-6


def test_progress_lines_go_to_stderr(capfd):
    m = _knapsack([6, 5, 4], [4, 3, 2], 6)
    solve_milp(m, EXACT)
    captured = capfd.readouterr()
    assert "incumbent" in captured.err
    assert captured.out == ""


def test_enumerate_refuses_large_models():
    m = Milp()
    for i in range(21):
        m.add_variable(BINARY, 0.0, 1.0, f"b{i}")
    with pytest.raises(ValueError, match="20"):
        enumerate_exact(m)


def test_enumerate_builds_one_lp_per_block(bundled, monkeypatch):
    # eight_bus splits into one DC-flow block per (hour, season, epoch); each
    # binary combination of a block only re-pins bounds on that block's LP
    case = bundled("eight_bus")
    model, _index = build_milp(case, Variant.SWITCH_ALL)
    built = []
    init = DenseLp.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DenseLp, "__init__", counting)
    out = enumerate_exact(model)
    assert out.status == OPTIMAL
    h = case.horizon
    assert len(built) == h.n_hours * h.n_seasons * h.n_epochs + 1


def test_enumerate_respects_pinned_binaries():
    m = _knapsack([6, 5, 4], [4, 3, 2], 6)
    m.with_bounds(0, 0.0, 0.0)   # forbid the best item; optimum moves to 1+2
    out = enumerate_exact(m)
    assert out.assignment[0] == 0.0
    assert out.objective == pytest.approx(-9.0)
    bb = solve_milp(m, EXACT)
    assert bb.objective == pytest.approx(out.objective, rel=1e-9)
    forced = _knapsack([6, 5, 4], [4, 3, 2], 6)
    forced.with_bounds(1, 1.0, 1.0)   # force the middle item in
    out = enumerate_exact(forced)
    assert out.assignment[1] == 1.0
    assert out.objective == pytest.approx(-9.0)   # weight leaves room for item 2


def test_enumerate_refuses_an_unbounded_block():
    # x - y + b <= 1 with x, y >= 0 and cost -x: x rises with y, whatever b is
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, math.inf, "x")
    y = m.add_variable(CONTINUOUS, 0.0, math.inf, "y")
    b = m.add_variable(BINARY, 0.0, 1.0, "b")
    m.add_constraint([(x, 1.0), (y, -1.0), (b, 1.0)], LE, 1.0)
    m.set_objective_coefficient(x, -1.0)
    with pytest.raises(RuntimeError,
                       match="^model is unbounded for a feasible binary assignment$"):
        enumerate_exact(m)
    # an unbounded block is no error when another block rules out every
    # binary assignment: 0 <= z <= 1 cannot reach z >= 2
    z = m.add_variable(CONTINUOUS, 0.0, 1.0, "z")
    m.add_constraint([(z, 1.0)], GE, 2.0)
    out = enumerate_exact(m)
    assert out.status == INFEASIBLE and out.assignment is None and out.gap is None


def test_enumerate_raises_when_a_block_lp_fails(bundled, monkeypatch):
    # the oracle has no failure status: a block LP it cannot solve ends it
    model, _index = build_milp(bundled("tri_switch"), Variant.SWITCH_ALL)
    monkeypatch.setattr(DenseLp, "solve",
                        lambda self, *args, **kwargs: LpOutcome(FAILURE, message="injected"))
    with pytest.raises(RuntimeError, match="^block LP failed: injected$"):
        enumerate_exact(model)


def test_enumerate_raises_when_its_optimum_fails_evaluation(bundled, monkeypatch):
    model, _index = build_milp(bundled("tri_switch"), Variant.SWITCH_ALL)

    def rejecting(*args):
        return dataclasses.replace(evaluate_assignment(*args), feasible=False)

    monkeypatch.setattr(branch_bound, "evaluate_assignment", rejecting)
    with pytest.raises(RuntimeError, match="^enumeration produced an assignment "
                                           "that fails evaluation$"):
        enumerate_exact(model)


def test_row_free_binary_model():
    m = Milp()
    m.add_variable(BINARY, 0.0, 1.0, "b0")
    m.set_objective_coefficient(0, -1.0)
    for out in (solve_milp(m), enumerate_exact(m)):
        assert out.status == OPTIMAL
        assert out.objective == -1.0
        assert out.assignment == [1.0]


_BINARY_BOXES = ((0.0, 1.0),) * 4 + ((0.0, 0.0), (1.0, 1.0))
# right-hand side offsets from an anchor mask's activity: fractions, and
# amounts inside and outside the evaluator's 1e-6 tolerance
_RHS_OFFSETS = (0.0, 0.0, 0.5, -0.5, 0.25, -1.5, 4e-7, -4e-7, 3e-6, -3e-6)


def _random_binary_model(rng):
    """Binaries only, some pinned by their bounds, with <=, >= and = rows
    whose right-hand sides sit near the activity of a random mask."""
    n = int(rng.integers(1, 8))
    m = Milp()
    for i in range(n):
        lo, up = _BINARY_BOXES[int(rng.integers(len(_BINARY_BOXES)))]
        m.add_variable(BINARY, lo, up, f"b{i}")
    anchor = rng.integers(0, 2, size=n)
    for _ in range(int(rng.integers(0, 5))):
        coefs = rng.integers(-3, 4, size=n) * 0.5
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        rhs = float(coefs @ anchor) + _RHS_OFFSETS[int(rng.integers(len(_RHS_OFFSETS)))]
        m.add_constraint([(j, v) for j, v in enumerate(coefs) if v], sense, rhs)
    for j in range(n):
        m.set_objective_coefficient(j, float(rng.integers(-3, 4)))
    m.objective_offset = float(rng.integers(-2, 3)) * 0.5
    return m


def test_enumeration_screen_matches_the_evaluator():
    # with no continuous columns every row is screened without an LP, so
    # the oracle must pick the brute-force minimum of the evaluator over
    # every mask, ties to the lowest mask (first binary least significant)
    rng = np.random.default_rng(20261019)
    statuses = {OPTIMAL: 0, INFEASIBLE: 0}
    for trial in range(300):
        m = _random_binary_model(rng)
        n = m.n_variables
        best = None
        for mask in range(1 << n):
            x = [float((mask >> j) & 1) for j in range(n)]
            report = evaluate_assignment(m, x)
            if report.feasible and (best is None or report.objective < best[0]):
                best = (report.objective, x)
        out = enumerate_exact(m)
        statuses[out.status] += 1
        if best is None:
            assert out.status == INFEASIBLE, trial
        else:
            assert out.status == OPTIMAL, trial
            assert (out.objective, out.assignment) == best, trial
    assert min(statuses.values()) >= 60, statuses


def _random_milp(rng, integer_rhs):
    n_bin = int(rng.integers(1, 5))
    n_cont = int(rng.integers(0, 4))
    m = Milp()
    for i in range(n_bin):
        m.add_variable(BINARY, 0.0, 1.0, f"b{i}")
    for i in range(n_cont):
        lo = float(rng.integers(-4, 1))
        up = lo + float(rng.integers(1, 8))
        m.add_variable(CONTINUOUS, lo, up, f"x{i}")
    n = n_bin + n_cont
    for _ in range(int(rng.integers(1, 5))):
        coefs = rng.integers(-3, 4, size=n).astype(float)
        if not coefs.any():
            coefs[0] = 1.0
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        rhs = float(rng.integers(-5, 8))
        if not integer_rhs and sense != EQ:
            rhs += float(rng.integers(0, 2)) * 0.5
        m.add_constraint(
            [(j, v) for j, v in enumerate(coefs) if v != 0.0], sense, rhs
        )
    for j in range(n):
        coef = float(rng.integers(-5, 6))
        if coef:
            m.set_objective_coefficient(j, coef)
    return m


def test_random_milps_match_enumeration():
    rng = np.random.default_rng(99)
    solved = 0
    for trial in range(60):
        m = _random_milp(rng, integer_rhs=False)
        exact = enumerate_exact(m)
        out = solve_milp(m, EXACT)
        if exact.status == INFEASIBLE:
            assert out.status == INFEASIBLE, f"trial {trial}"
            continue
        solved += 1
        scale = max(1.0, abs(exact.objective))
        assert out.status in (OPTIMAL, GAP_LIMIT), f"trial {trial}"
        assert abs(out.objective - exact.objective) <= 1e-6 * scale, trial
        assert out.bound <= out.objective + 1e-9 * scale, trial
        assert evaluate_assignment(m, out.assignment).feasible, trial
    assert solved >= 20


def test_random_milps_match_scipy():
    # scipy's HiGHS-based MILP is the independent reference. Equality rows
    # keep integer right-hand sides: scipy 1.15's presolve misreports some
    # fractional-RHS equality MILPs as infeasible, and the enumeration test
    # above already covers fractional data.
    rng = np.random.default_rng(4242)
    agreed = 0
    for trial in range(40):
        m = _random_milp(rng, integer_rhs=True)
        n = m.n_variables
        c = np.zeros(n)
        for j, coef in m.objective.items():
            c[j] = coef
        constraints = []
        for con in m.constraints:
            row = np.zeros(n)
            for j, coef in zip(con.columns, con.coefficients):
                row[j] = coef
            if con.sense == LE:
                constraints.append(scipy.optimize.LinearConstraint(row, -np.inf, con.rhs))
            elif con.sense == GE:
                constraints.append(scipy.optimize.LinearConstraint(row, con.rhs, np.inf))
            else:
                constraints.append(scipy.optimize.LinearConstraint(row, con.rhs, con.rhs))
        ref = scipy.optimize.milp(
            c,
            constraints=constraints,
            integrality=[1 if v.kind == BINARY else 0 for v in m.variables],
            bounds=scipy.optimize.Bounds(
                [v.lower for v in m.variables], [v.upper for v in m.variables]
            ),
        )
        ours = solve_milp(m, EXACT)
        if ref.status == 0:
            assert ours.status in (OPTIMAL, GAP_LIMIT), f"trial {trial}"
            scale = max(1.0, abs(ref.fun))
            assert abs(ours.objective - ref.fun) <= 1e-6 * scale, trial
            agreed += 1
        elif ref.status == 2:
            assert ours.status == INFEASIBLE, f"trial {trial}"
    assert agreed >= 15


def test_polish_and_plunge_lps_reuse_the_last_tableau(bundled, monkeypatch):
    # a polish LP and a plunge child start from the basis of the LP solved
    # just before them, so they take over its tableau and factor nothing;
    # a sibling whose parent's basis was the last one factored copies that
    # factor and factors nothing either
    model, _index = build_milp(bundled("diamond"), Variant.SWITCH_EXISTING)
    inv = mock.Mock(wraps=np.linalg.inv)
    polishing = []
    try_incumbent = branch_bound._Search._try_incumbent

    def flagged(self, *args):
        polishing.append(True)
        try:
            return try_incumbent(self, *args)
        finally:
            polishing.pop()

    calls = []
    solve = DenseLp.solve

    def recording(self, lo=None, up=None, basis=None):
        reuse = self._slot is not None and basis is self._slot[0]
        cached = (not reuse and basis is not None and self._factor is not None
                  and np.array_equal(basis.columns, self._factor[0]))
        before = inv.call_count
        outcome = solve(self, lo, up, basis=basis)
        calls.append((reuse, bool(polishing), inv.call_count - before, cached))
        return outcome

    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(branch_bound._Search, "_try_incumbent", flagged)
    monkeypatch.setattr(DenseLp, "solve", recording)
    out = solve_milp(model)
    assert out.status in (OPTIMAL, GAP_LIMIT)
    polish = [c for c in calls if c[1]]
    plunge = [c for c in calls if c[0] and not c[1]]
    assert polish and plunge
    assert all(reuse for reuse, _polish, _factors, _cached in polish)
    assert all(n == 0 for reuse, _polish, n, _cached in calls if reuse)
    # every other LP factors its start or copies the cached factor of that
    # very basis, which this search does at least once
    assert all(n == 0 for _reuse, _polish, n, cached in calls if cached)
    assert all(n >= 1 for reuse, _polish, n, cached in calls if not (reuse or cached))
    assert any(cached for _reuse, _polish, _factors, cached in calls)


@pytest.mark.parametrize("status", [FAILURE, LP_INFEASIBLE])
def test_a_polish_lp_that_is_not_optimal_keeps_the_node_lp_x(bundled, monkeypatch, status):
    # the one polish LP of this search is refused: the incumbent is then the
    # node LP's own x, whose binaries are within the evaluator's tolerance
    # of 0/1 but not exactly 0/1, and it is accepted as it is
    model, _index = build_milp(bundled("defer_build"), Variant.STATIC)
    expected = solve_milp(model)
    polishing, refused = [], []
    try_incumbent = branch_bound._Search._try_incumbent

    def flagged(self, *args):
        polishing.append(True)
        try:
            return try_incumbent(self, *args)
        finally:
            polishing.pop()

    solve = DenseLp.solve

    def refusing(self, *args, **kwargs):
        if polishing:
            refused.append(status)
            return LpOutcome(status, message="injected")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(branch_bound._Search, "_try_incumbent", flagged)
    monkeypatch.setattr(DenseLp, "solve", refusing)
    out = solve_milp(model)
    assert refused == [status]
    assert out.status == expected.status == OPTIMAL
    assert evaluate_assignment(model, out.assignment).feasible
    assert abs(out.objective - expected.objective) <= 1e-9 * abs(expected.objective)


def test_solve_milp_twice_on_one_model_is_identical(bundled):
    # the search keeps no state between runs, the kept tableau included
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    first, second = solve_milp(model), solve_milp(model)
    assert first.status in (OPTIMAL, GAP_LIMIT)
    assert first == second
