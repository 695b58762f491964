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
    NODE_LIMIT,
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

EXACT = SolveParams(mip_gap=0.0)


def test_params_validation():
    with pytest.raises(ValueError, match="mip_gap"):
        SolveParams(mip_gap=-1e-9)
    with pytest.raises(ValueError, match="time_limit"):
        SolveParams(time_limit=0.0)
    with pytest.raises(ValueError, match="node_limit"):
        SolveParams(node_limit=0)
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


def test_node_limit_reports_deterministic_stop():
    m = _knapsack(range(1, 13), [3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25], 40)
    out = solve_milp(m, SolveParams(mip_gap=0.0, node_limit=1))
    assert out.status == NODE_LIMIT
    assert "node" in out.message
    assert out.nondeterministic is False


def test_time_limit_marks_nondeterminism():
    m = _knapsack([3, 5, 7], [2, 3, 4], 5)
    out = solve_milp(m, SolveParams(mip_gap=0.0, time_limit=1e-9))
    assert out.status == TIME_LIMIT
    assert out.nondeterministic is True
    # the limit expires before the root LP, which is the first node
    assert out.nodes == 0 and out.bound is None and out.assignment is None


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
    # 257 LPs, 2,111 pivots, 238 nodes under the one BLAS thread conftest
    # sets, and the same under two threads (eight_bus switch-all takes 58
    # nodes, as it did with two threads and the full m x m factor).  The
    # caps keep the two-thread figures of that full factor (281, 2,120 and
    # 238), so a run with more threads passes too
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
    # just before them, so they take over its tableau and factor nothing
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
        before = inv.call_count
        outcome = solve(self, lo, up, basis=basis)
        calls.append((reuse, bool(polishing), inv.call_count - before))
        return outcome

    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(branch_bound._Search, "_try_incumbent", flagged)
    monkeypatch.setattr(DenseLp, "solve", recording)
    out = solve_milp(model)
    assert out.status in (OPTIMAL, GAP_LIMIT)
    polish = [c for c in calls if c[1]]
    plunge = [c for c in calls if c[0] and not c[1]]
    assert polish and plunge
    assert all(reuse for reuse, _polish, _factors in polish)
    assert all(n == 0 for reuse, _polish, n in calls if reuse)
    # every other LP factors its start
    assert all(n >= 1 for reuse, _polish, n in calls if not reuse)


def test_solve_milp_twice_on_one_model_is_identical(bundled):
    # the search keeps no state between runs, the kept tableau included
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    first, second = solve_milp(model), solve_milp(model)
    assert first.status in (OPTIMAL, GAP_LIMIT)
    assert first == second
