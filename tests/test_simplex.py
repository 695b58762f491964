"""LP engine: hand-checked optima, certificates, scipy cross-checks, and
warm starts from a related LP's basis."""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize

from conftest import ALL_CASES
from gridplan.builder import Variant, build_milp
from gridplan.case import parse_case
from gridplan.milp import CONTINUOUS, EQ, GE, LE, Milp
from gridplan.simplex import (
    FAILURE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Basis,
    DenseLp,
    LpOutcome,
    _Simplex,
    solve_lp,
)

DATA = Path(__file__).parent / "data"


def _model(bounds, rows, objective, offset=0.0):
    m = Milp()
    for lo, up in bounds:
        m.add_variable(CONTINUOUS, lo, up, f"x{m.n_variables}")
    for terms, sense, rhs in rows:
        m.add_constraint(terms, sense, rhs)
    for col, coef in objective:
        m.set_objective_coefficient(col, coef)
    m.objective_offset = offset
    return m


def test_box_lp_with_binding_row():
    m = _model(
        [(0, 3), (0, 2)],
        [([(0, 1.0), (1, 1.0)], LE, 4.0)],
        [(0, -1.0), (1, -2.0)],
    )
    out = solve_lp(m)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(-6.0, abs=1e-9)
    assert out.x[1] == pytest.approx(2.0, abs=1e-9)


def test_equality_row():
    m = _model(
        [(0, 2), (0, 2)],
        [([(0, 1.0), (1, 1.0)], EQ, 3.0)],
        [(0, 1.0), (1, 1.0)],
    )
    out = solve_lp(m)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(3.0, abs=1e-9)


def test_ge_row_and_offset():
    m = _model(
        [(0, 2.5), (0, 3)],
        [([(0, 1.0), (1, 1.0)], GE, 4.0)],
        [(0, 2.0), (1, 3.0)],
        offset=10.0,
    )
    out = solve_lp(m)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(19.5, abs=1e-9)


def test_negative_and_free_bounds():
    m = _model(
        [(-5, -1), (-math.inf, math.inf)],
        [([(1, 1.0)], GE, -3.0)],
        [(0, -1.0), (1, 1.0)],
    )
    out = solve_lp(m)
    assert out.status == OPTIMAL
    assert out.x[0] == pytest.approx(-1.0, abs=1e-9)
    assert out.x[1] == pytest.approx(-3.0, abs=1e-9)


def test_fixed_variable_and_zero_objective():
    m = _model(
        [(2, 2), (0, 1)],
        [([(0, 1.0), (1, 1.0)], LE, 5.0)],
        [],
    )
    out = solve_lp(m)
    assert out.status == OPTIMAL
    assert out.objective == 0.0
    assert out.x[0] == 2.0


def test_infeasible_box_rows():
    m = _model(
        [(0, 10)],
        [([(0, 1.0)], LE, 1.0), ([(0, 1.0)], GE, 2.0)],
        [(0, 1.0)],
    )
    out = solve_lp(m)
    assert out.status == INFEASIBLE
    assert out.x is None


def test_unbounded_direction():
    m = _model(
        [(0.0, math.inf)],
        [([(0, 1.0)], GE, 1.0)],
        [(0, -1.0)],
    )
    out = solve_lp(m)
    assert out.status == UNBOUNDED


# -- models without rows (m = 0): the implicit identity block is empty -----------


def test_row_free_lp_with_a_boxed_and_a_free_column():
    out = solve_lp(_model([(-1, 2), (-math.inf, math.inf)], [], [(0, 1.0)]))
    assert out.status == OPTIMAL
    assert out.objective == -1.0
    assert list(out.x) == [-1.0, 0.0]
    assert out.basis.columns.size == 0


def test_row_free_lp_with_an_improving_unbounded_column():
    out = solve_lp(_model([(0.0, math.inf)], [], [(0, -1.0)]))
    assert out.status == UNBOUNDED


def test_empty_model_is_optimal_at_zero():
    out = solve_lp(Milp())
    assert out.status == OPTIMAL
    assert out.objective == 0.0
    assert out.x.size == 0


def test_dual_bound_matches_objective_at_optimum():
    m = _model(
        [(0, 3), (0, 2), (0, 4)],
        [([(0, 1.0), (1, 2.0), (2, 1.0)], LE, 6.0),
         ([(0, 1.0), (2, -1.0)], GE, -1.0)],
        [(0, -2.0), (1, -3.0), (2, -1.0)],
    )
    out = solve_lp(m)
    assert out.status == OPTIMAL
    assert out.dual_bound <= out.objective + 1e-9
    assert out.objective - out.dual_bound <= 1e-6 * (1.0 + abs(out.objective))


def test_row_and_column_permutation_invariance():
    rng = np.random.default_rng(7)
    a = rng.integers(-3, 4, size=(4, 5)).astype(float)
    b = rng.integers(-2, 8, size=4).astype(float)
    c = rng.integers(-4, 5, size=5).astype(float)
    senses = [LE, GE, LE, EQ]

    def build(row_order, col_order):
        m = Milp()
        inverse = {orig: pos for pos, orig in enumerate(col_order)}
        for orig in col_order:
            m.add_variable(CONTINUOUS, -5.0, 5.0, f"x{orig}")
        for i in row_order:
            m.add_constraint(
                [(inverse[j], a[i, j]) for j in range(5) if a[i, j] != 0.0],
                senses[i], b[i],
            )
        for j in range(5):
            m.set_objective_coefficient(inverse[j], c[j])
        return m

    base = solve_lp(build(range(4), range(5)))
    assert base.status == OPTIMAL
    shuffled = solve_lp(build([2, 0, 3, 1], [4, 2, 0, 1, 3]))
    assert shuffled.status == OPTIMAL
    assert shuffled.objective == pytest.approx(base.objective, abs=1e-8)


def _random_instance(rng, free=False):
    """A small LP; with ``free``, columns may also be free on both sides."""
    n = int(rng.integers(2, 6))
    m_rows = int(rng.integers(1, 5))
    bounds = []
    for _ in range(n):
        kind = rng.integers(0, 5 if free else 4)
        if kind == 4:
            lo, up = -math.inf, math.inf
        elif kind == 0:
            lo, up = 0.0, float(rng.integers(1, 10))
        elif kind == 1:
            lo, up = -float(rng.integers(1, 10)), float(rng.integers(0, 10))
        elif kind == 2:
            lo, up = -math.inf, float(rng.integers(0, 10))
        else:
            lo, up = float(rng.integers(-5, 1)), math.inf
        if lo > up:
            lo, up = up, lo
        bounds.append((lo, up))
    rows = []
    for _ in range(m_rows):
        coefs = rng.integers(-3, 4, size=n).astype(float)
        if not coefs.any():
            coefs[0] = 1.0
        sense = (LE, GE, EQ)[int(rng.integers(0, 3))]
        rows.append((coefs, sense, float(rng.integers(-6, 7))))
    c = rng.integers(-5, 6, size=n).astype(float)
    return bounds, rows, c


def _scipy_solve(bounds, rows, c):
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coefs, sense, rhs in rows:
        if sense == LE:
            a_ub.append(coefs)
            b_ub.append(rhs)
        elif sense == GE:
            a_ub.append(-coefs)
            b_ub.append(-rhs)
        else:
            a_eq.append(coefs)
            b_eq.append(rhs)
    return scipy.optimize.linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(None if math.isinf(lo) else lo, None if math.isinf(up) else up)
                for lo, up in bounds],
        method="highs",
    )


def _dual_bound_by_column(lp, y, d):
    """Reference for ``_Simplex._dual_bound``: its per-column definition."""
    total = float(y @ lp.b)
    for j in np.nonzero(np.abs(d) > 1e-9)[0]:
        side = lp.lo[j] if d[j] > 0 else lp.up[j]
        if np.isfinite(side):
            total += d[j] * side
        elif abs(d[j]) <= 1e-5:
            total += d[j] * lp.x[j]
        else:
            return -np.inf
    return total


def test_dual_bound_matches_the_column_definition():
    rng = np.random.default_rng(11)
    finite = infinite = 0
    for _ in range(200):
        bounds, rows, c = _random_instance(rng)
        dense = DenseLp([coefs for coefs, _s, _b in rows], [s for _c, s, _b in rows],
                        [b for _c, _s, b in rows], *zip(*bounds), c)
        lp = _Simplex(dense, dense.lo, dense.up)
        y = rng.normal(size=lp.m)
        scale = rng.choice([0.0, 1e-10, 1e-6, 1.0], size=lp.lo.size)
        d = scale * rng.choice([-1.0, 1.0], size=scale.size) * rng.uniform(1, 9, scale.size)
        got, want = lp._dual_bound(y, d), _dual_bound_by_column(lp, y, d)
        if want == -np.inf:
            assert got == -np.inf
            infinite += 1
        else:
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
            finite += 1
    assert min(finite, infinite) >= 20


def _tally_against_scipy(rng, trials, free):
    """Solve ``trials`` random LPs, check each against HiGHS, count outcomes."""
    statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for trial in range(trials):
        bounds, rows, c = _random_instance(rng, free)
        model = _model(
            bounds,
            [([(j, v) for j, v in enumerate(coefs) if v != 0.0], sense, rhs)
             for coefs, sense, rhs in rows],
            [(j, v) for j, v in enumerate(c) if v != 0.0],
        )
        ours = solve_lp(model)
        ref = _scipy_solve(bounds, rows, c)
        if ref.status == 2 and _scipy_solve(bounds, rows, np.zeros_like(c)).status == 0:
            # HiGHS reports "infeasible or unbounded" as infeasible; a
            # feasible point makes it unbounded
            ref.status = 3
        assert ours.status != FAILURE, f"trial {trial}: solver gave up"
        if ref.status == 0:
            assert ours.status == OPTIMAL, f"trial {trial}: {ours.status}"
            scale = 1.0 + abs(ref.fun)
            assert abs(ours.objective - ref.fun) <= 1e-6 * scale, trial
        elif ref.status == 2:
            assert ours.status == INFEASIBLE, trial
        elif ref.status == 3:
            assert ours.status == UNBOUNDED, trial
        statuses[ours.status] = statuses.get(ours.status, 0) + 1
    return statuses


def test_random_lps_agree_with_scipy():
    for seed, free in ((20260814, False), (20261018, True)):
        statuses = _tally_against_scipy(np.random.default_rng(seed), 80, free)
        # the seed must exercise every outcome, or the test is weaker than it looks
        assert min(statuses[OPTIMAL], statuses[INFEASIBLE], statuses[UNBOUNDED]) >= 3, free


def test_probe_grid_root_lps_match_highs():
    # a 10-bus switching grid (bench/synth.make_case(10, 2, 2, 2, 3, 1)) on
    # which a ratio test that takes a tiny pivot among near-ties drives the
    # switch-all basis numerically singular (cond ~1e19), so it cannot certify
    case = parse_case((DATA / "probe_10x2x2x2x3_s1.json").read_text())
    for variant in Variant:
        model, _index = build_milp(case, variant)
        dense = DenseLp.from_milp(model)
        ours = dense.solve()
        assert ours.status == OPTIMAL, (variant.value, ours.message)
        senses = [con.sense for con in model.constraints]
        ref = _scipy_solve(list(zip(dense.lo, dense.up)),
                           list(zip(dense.a, senses, dense.b)), dense.c)
        assert ref.status == 0, variant.value
        expected = ref.fun + dense.c0
        assert abs(ours.objective - expected) <= 1e-9 * abs(expected), variant.value


# -- the two starts: caller's basis, then slack basis ----------------------------


def _attempts():
    """Count the ``_Simplex`` attempts that ``DenseLp.solve`` makes."""
    return mock.patch("gridplan.simplex._Simplex", wraps=_Simplex)


def _dual_verdicts():
    """Record the verdict of every ``_Simplex._dual_loop`` round."""
    verdicts = []
    dual_loop = _Simplex._dual_loop

    def spy(self, max_iter):
        result = dual_loop(self, max_iter)
        verdicts.append(result[0])
        return result

    return mock.patch.object(_Simplex, "_dual_loop", spy), verdicts


@pytest.mark.parametrize(
    "bounds, rows, c, rounds",
    [
        # x in [0, inf) at cost -1 sits at 0 with a reduced cost that wants up
        ([(0.0, math.inf), (0.0, 1.0)],
         [(np.array([1.0, 2.0]), LE, 4.0)], np.array([-1.0, -1.0]), [OPTIMAL]),
        # a free column with a nonzero cost has no bound to sit at
        ([(-math.inf, math.inf), (0.0, 2.0)],
         [(np.array([1.0, -1.0]), GE, -3.0)], np.array([1.0, 1.0]), [OPTIMAL]),
        # x1 = x2 rise together without end; neither column alone is a ray
        ([(0.0, math.inf), (0.0, math.inf)],
         [(np.array([1.0, -1.0]), EQ, 0.0)], np.array([-1.0, -1.0]), [OPTIMAL]),
        # x = 2y at cost -x + 2y = 0: x rests on its artificial bound, but
        # moving it further out gains nothing, so it is no ray
        ([(0.0, math.inf), (0.0, math.inf)],
         [(np.array([1.0, -2.0]), EQ, 0.0)], np.array([-1.0, 2.0]), [OPTIMAL, OPTIMAL]),
        # x <= y <= 5e9: the optimum lies beyond the first two artificial
        # bounds (1e6, 1e9), and y's finite bound blocks the ray each time
        ([(0.0, math.inf), (0.0, 5e9)],
         [(np.array([1.0, -1.0]), LE, 0.0)], np.array([-1.0, 0.0]),
         [OPTIMAL, OPTIMAL, OPTIMAL]),
        # 5e6 <= x <= 1e7 lies outside the first box [0, 1e6], which makes
        # the LP look infeasible until the box is widened
        ([(0.0, math.inf)],
         [(np.array([1.0]), GE, 5e6), (np.array([1.0]), LE, 1e7)], np.array([-1.0]),
         [INFEASIBLE, OPTIMAL]),
    ],
    ids=["half-open-negative-cost", "free-nonzero-cost", "combined-ray",
         "flat-direction-widens", "blocked-direction-widens", "infeasible-in-first-box"],
)
def test_artificial_bounds_repair_dual_infeasible_starts(bounds, rows, c, rounds):
    model = _model(
        bounds,
        [([(j, v) for j, v in enumerate(coefs) if v != 0.0], sense, rhs)
         for coefs, sense, rhs in rows],
        list(enumerate(c)),
    )
    spy, verdicts = _dual_verdicts()
    with spy, _attempts() as attempts:
        ours = solve_lp(model)
    assert attempts.call_count == 1
    assert verdicts == rounds
    ref = _scipy_solve(bounds, rows, c)
    if ref.status == 3:
        assert ours.status == UNBOUNDED
        return
    assert ref.status == 0
    assert ours.status == OPTIMAL
    assert abs(ours.objective - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))


def test_infeasible_lp_is_certified_after_the_dual_gives_up():
    # x <= 1 and x >= 2: the slack start's dual loop finds a row no column
    # can repair, and that row of B^-1 certifies the infeasibility
    m = _model(
        [(0, 10)],
        [([(0, 1.0)], LE, 1.0), ([(0, 1.0)], GE, 2.0)],
        [(0, 1.0)],
    )
    spy, verdicts = _dual_verdicts()
    with spy, _attempts() as attempts:
        out = solve_lp(m)
    assert attempts.call_count == 1
    assert verdicts == [INFEASIBLE]
    assert out.status == INFEASIBLE
    assert out.message.startswith("certified infeasible")


def test_bundled_root_lps_start_from_the_slack_basis(bundled):
    # 1,488 root pivots over the 21 pairs when roots ran two-phase primal
    pivots = 0
    for name in ALL_CASES:
        for variant in Variant:
            model, _index = build_milp(bundled(name), variant)
            dense = DenseLp.from_milp(model)
            with _attempts() as attempts:
                root = dense.solve()
            assert root.status == OPTIMAL, (name, variant.value)
            assert attempts.call_count == 1, (name, variant.value)
            pivots += root.iterations
    assert pivots <= 1300


# -- warm starts ------------------------------------------------------------------


def _branch_children(dense, root, bins):
    """Bounds of the two children on the root's most fractional binary."""
    frac = [abs(root.x[c] - round(root.x[c])) for c in bins]
    col = bins[int(np.argmax(frac))]
    down_up, up_lo = dense.up.copy(), dense.lo.copy()
    down_up[col] = 0.0
    up_lo[col] = 1.0
    return [(dense.lo, down_up), (up_lo, dense.up)]


def test_warm_children_match_cold_on_bundle(bundled):
    warm_pivots = cold_pivots = warm_factorizations = warm_stacks = children = 0
    for name in ALL_CASES:
        for variant in Variant:
            model, _index = build_milp(bundled(name), variant)
            dense = DenseLp.from_milp(model)
            root = dense.solve()
            assert root.status == OPTIMAL and root.basis is not None
            for lo, up in _branch_children(dense, root, model.binary_columns()):
                with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv, \
                        mock.patch.object(np, "hstack", wraps=np.hstack) as hstack:
                    warm = dense.solve(lo, up, basis=root.basis)
                warm_factorizations += inv.call_count
                warm_stacks += hstack.call_count
                children += 1
                cold = dense.solve(lo, up)
                label = (name, variant.value)
                assert warm.status == cold.status, label
                warm_pivots += warm.iterations
                cold_pivots += cold.iterations
                if cold.status != OPTIMAL:
                    continue
                scale = abs(cold.objective)
                assert abs(warm.objective - cold.objective) <= 1e-9 * scale, label
                assert abs(warm.objective - warm.dual_bound) <= 1e-6 * (1.0 + scale), label
    # re-optimising a child takes a few dual pivots, not a fresh solve from
    # the slack basis
    assert 5 * warm_pivots <= cold_pivots
    # the first child of each root starts from the basis of the solve just
    # before it and takes over that solve's tableau, with no factor at all;
    # the cold solve in between leaves the second child a basis that is no
    # longer the last one returned, so it factors its start once, one
    # np.linalg.inv of the k x k block of A under its basic structural
    # columns.  The duals, basic values and certificate all read B^-1 off
    # the tableau instead of refactoring
    assert children == 42
    assert warm_factorizations == 21
    # the standard form [A | I] belongs to the DenseLp; a warm solve only
    # swaps in its bounds and never rebuilds it
    assert warm_stacks == 0


def test_warm_start_into_infeasible_child_is_certified():
    # min 2x + y  s.t.  x + y >= 1.5,  x, y in [0, 1]: the root has x = 0.5,
    # and the child x <= 0 cannot reach the row
    m = _model([(0, 1), (0, 1)], [([(0, 1.0), (1, 1.0)], GE, 1.5)],
               [(0, 2.0), (1, 1.0)])
    dense = DenseLp.from_milp(m)
    root = dense.solve()
    assert root.status == OPTIMAL
    assert root.x[0] == pytest.approx(0.5, abs=1e-9)
    up = dense.up.copy()
    up[0] = 0.0
    with _attempts() as attempts:
        child = dense.solve(dense.lo, up, basis=root.basis)
    assert attempts.call_count == 1
    assert child.status == INFEASIBLE
    assert child.message.startswith("certified infeasible")


def _inv_calls():
    """Count the ``np.linalg.inv`` calls, the only factorization."""
    return mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv)


def _eight_bus_child(bundled):
    """eight_bus switch-all, its root, and the bounds of its first child."""
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    root = dense.solve()
    return dense, root, _branch_children(dense, root, model.binary_columns())[0]


def test_start_from_the_last_basis_reuses_its_tableau(bundled):
    dense, root, (lo, up) = _eight_bus_child(bundled)
    with pytest.raises(ValueError, match="read-only"):
        root.basis.columns[0] = root.basis.columns[1]
    with _inv_calls() as inv:
        warm = dense.solve(lo, up, basis=root.basis)
    cold = dense.solve(lo, up)
    assert inv.call_count == 0
    assert warm.status == cold.status == OPTIMAL
    assert abs(warm.objective - cold.objective) <= 1e-9 * abs(cold.objective)


def test_equal_basis_of_another_object_refactors(bundled):
    dense, root, (lo, up) = _eight_bus_child(bundled)
    twin = Basis(root.basis.columns.copy(), root.basis.status.copy())
    with _inv_calls() as inv:
        warm = dense.solve(lo, up, basis=twin)
    assert inv.call_count == 1
    cold = dense.solve(lo, up)
    assert warm.status == cold.status == OPTIMAL
    assert abs(warm.objective - cold.objective) <= 1e-9 * abs(cold.objective)


@pytest.mark.parametrize("ending", [INFEASIBLE, FAILURE])
def test_no_tableau_is_kept_past_an_unsolved_lp(ending):
    # min 2x + y  s.t.  x + y >= 1.5,  x, y in [0, 1]: the child x <= 0 is
    # infeasible, and a certificate forced to fail makes a re-solve of the
    # root end in failure.  Either solve starts from the root's basis and
    # takes its tableau, so the child x >= 1 from that basis factors afresh
    m = _model([(0, 1), (0, 1)], [([(0, 1.0), (1, 1.0)], GE, 1.5)],
               [(0, 2.0), (1, 1.0)])
    dense = DenseLp.from_milp(m)
    root = dense.solve()
    assert root.status == OPTIMAL
    up = dense.up.copy()
    up[0] = 0.0
    if ending == INFEASIBLE:
        unsolved = dense.solve(dense.lo, up, basis=root.basis)
    else:
        with mock.patch.object(_Simplex, "_finish_optimal",
                               return_value=LpOutcome(FAILURE, message="forced")):
            unsolved = dense.solve(basis=root.basis)
    assert unsolved.status == ending
    lo = dense.lo.copy()
    lo[0] = 1.0
    with _inv_calls() as inv:
        warm = dense.solve(lo, dense.up, basis=root.basis)
    assert inv.call_count == 1
    cold = dense.solve(lo, dense.up)
    assert warm.status == cold.status == OPTIMAL
    assert warm.objective == pytest.approx(2.5, abs=1e-12)
    assert np.array_equal(warm.x, cold.x)


def test_refactor_cadence_counts_pivots_across_reused_tableaus(bundled, monkeypatch):
    # a dive whose every LP starts from the basis its predecessor returned
    # never refactors at its start, so the cadence must count the pivots
    # made since the tableau was factored, whichever solve made them
    cadence = 3
    monkeypatch.setattr("gridplan.simplex._REFRESH_EVERY", cadence)
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    bins = model.binary_columns()
    dense, fresh = DenseLp.from_milp(model), DenseLp.from_milp(model)
    last = dense.solve()
    lo, up = dense.lo.copy(), dense.up.copy()
    age, chain, refactors = dense._slot[2], 0, 0
    while True:
        frac = np.abs(last.x[bins] - np.round(last.x[bins]))
        if frac.max() <= 1e-6:
            break
        col = bins[int(np.argmax(frac))]
        lo[col] = up[col] = np.round(last.x[col])
        with _inv_calls() as inv:
            out = dense.solve(lo, up, basis=last.basis)
        cold = fresh.solve(lo, up)
        assert out.status == cold.status == OPTIMAL
        assert abs(out.objective - cold.objective) <= 1e-9 * abs(cold.objective)
        # one refactor each time the factor's age reaches the cadence
        assert inv.call_count == (age + out.iterations) // cadence
        assert dense._slot[2] == (age + out.iterations) % cadence
        age = dense._slot[2]
        chain += out.iterations
        refactors += inv.call_count
        last = out
    assert refactors >= 2 and chain >= 2 * cadence


def _standard_form(dense):
    """The explicit ``[A | I]`` that ``DenseLp`` leaves implicit."""
    return np.hstack([dense.a, np.eye(dense.a.shape[0])])


def _factor(dense, columns):
    """The ``_refresh`` tableau of basis ``columns`` next to a dense solve of
    B T = [A | I]."""
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = np.array(columns)
    assert simplex._refresh()
    a_all = _standard_form(dense)
    return simplex.tableau, np.linalg.solve(a_all[:, columns], a_all)


def _assert_factor_matches(dense, columns, label):
    tableau, dense_solve = _factor(dense, columns)
    scale = np.abs(dense_solve).max()
    assert np.abs(tableau - dense_solve).max() <= 1e-9 * scale, label


def test_block_factor_matches_a_dense_solve(bundled):
    n_bases = 0
    for name in ALL_CASES:
        for variant in Variant:
            model, _index = build_milp(bundled(name), variant)
            dense = DenseLp.from_milp(model)
            root = dense.solve()
            bases = [root.basis]
            for lo, up in _branch_children(dense, root, model.binary_columns()):
                child = dense.solve(lo, up, basis=root.basis)
                if child.status == OPTIMAL:
                    bases.append(child.basis)
            for basis in bases:
                assert (basis.columns < dense.a.shape[1]).any()
                _assert_factor_matches(dense, basis.columns, (name, variant.value))
            n_bases += len(bases)
    assert n_bases == 63          # 21 roots and all 42 of their children
    case = parse_case((DATA / "probe_10x2x2x2x3_s1.json").read_text())
    rows = []
    for variant in Variant:
        model, _index = build_milp(case, variant)
        dense = DenseLp.from_milp(model)
        rows.append(dense.a.shape[0])
        _assert_factor_matches(dense, dense.solve().basis.columns, variant.value)
    assert max(rows) == 344


def test_block_factor_of_the_slack_basis_is_the_standard_form(bundled):
    # k = 0: nothing to factor, and the tableau is [A | I] itself
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    tableau, _dense_solve = _factor(dense, dense.slack_basis.columns)
    assert np.array_equal(tableau, _standard_form(dense))
    # one slack in two positions leaves a row with no basic column
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = dense.slack_basis.columns.copy()
    simplex.basis[1] = simplex.basis[0]
    assert not simplex._refresh()


def test_block_factor_of_an_all_structural_basis():
    # k = m: both rows bind at the optimum (2.5, 1.5), strictly inside the
    # column box, so both structural columns are basic and no slack is
    m = _model([(0, 10), (0, 10)],
               [([(0, 1.0), (1, 1.0)], LE, 4.0), ([(0, 1.0), (1, -1.0)], LE, 1.0)],
               [(0, -1.0), (1, -0.5)])
    dense = DenseLp.from_milp(m)
    out = dense.solve()
    assert out.status == OPTIMAL
    assert out.x == pytest.approx([2.5, 1.5], abs=1e-12)
    assert sorted(out.basis.columns) == [0, 1]
    _assert_factor_matches(dense, out.basis.columns, "k = m")


def test_implicit_identity_products_match_the_explicit_standard_form(bundled):
    # every product with [A | I] is formed from A and the identity apart:
    # basic values, residuals, duals with reduced costs, and the row
    # combination an infeasibility certificate reads.  Random bases come
    # from random pivots off the slack basis, each refactored afresh
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    a_all = _standard_form(dense)
    m, n = dense.a.shape
    rng = np.random.default_rng(20261019)
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = dense.slack_basis.columns.copy()
    assert simplex._refresh()

    def close(ours, ref):
        return np.abs(ours - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max())

    n_structural = 0
    for _basis in range(12):
        for _pivot in range(8):
            r = int(rng.integers(m))
            nonbasic = np.setdiff1d(np.arange(n + m), simplex.basis)
            usable = nonbasic[np.abs(simplex.tableau[r, nonbasic]) > 0.1]
            if usable.size:
                simplex.drow = np.zeros(n + m)
                simplex._exchange(r, int(rng.choice(usable)))
        assert simplex._refresh()
        n_structural = max(n_structural, int((simplex.basis < n).sum()))
        binv = simplex.tableau[:, n:]

        # residuals at a random point, where no cancellation hides an error
        simplex.x = rng.uniform(-5.0, 5.0, n + m)
        assert close(simplex._activity(simplex.x), a_all @ simplex.x)
        row_err, _bound_err = simplex._primal_error()
        ref_err = np.abs(dense.b - a_all @ simplex.x).max()
        assert abs(row_err - ref_err) <= 1e-12 * ref_err

        nonbasic_x = simplex.x.copy()
        nonbasic_x[simplex.basis] = 0.0
        simplex._basic_values()
        assert close(simplex.x[simplex.basis], binv @ (dense.b - a_all @ nonbasic_x))

        y, d = simplex._exact_duals()
        ref_y = dense.cost[simplex.basis] @ binv
        assert close(y, ref_y)
        assert close(d, dense.cost - ref_y @ a_all)

        # _certify_infeasible combines the rows by a signed row of B^-1
        farkas = binv[int(rng.integers(m))] * rng.choice([-1.0, 1.0])
        assert close(simplex._combine(farkas), farkas @ a_all)
    assert n_structural >= 40


def test_exchange_updates_only_rows_the_pivot_column_touches():
    # rows where the entering column is zero are skipped; the rows it touches
    # get exactly the dense rank-1 formula's values
    rng = np.random.default_rng(20261018)
    m, n = 40, 25
    dense = DenseLp(np.zeros((m, n)), [LE] * m, np.zeros(m), np.zeros(n),
                    np.ones(n), np.zeros(n))
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = dense.slack_basis.columns.copy()
    simplex.tableau = rng.standard_normal((m, n + m))
    simplex.drow = rng.standard_normal(n + m)
    r, q = 7, 3
    zero = rng.random(m) < 0.8
    zero[r] = False
    simplex.tableau[zero, q] = 0.0
    assert 0 < zero.sum() < m - 1
    expected = simplex.tableau.copy()
    expected[r] /= expected[r, q]
    col = expected[:, q].copy()
    col[r] = 0.0
    expected -= np.outer(col, expected[r])
    expected[:, q] = 0.0
    expected[r, q] = 1.0
    simplex._exchange(r, q)
    assert np.array_equal(simplex.tableau, expected)
    assert simplex.basis[r] == q


@pytest.mark.parametrize("defect", ["repeated column", "repeated slack column",
                                    "out-of-range column", "short"])
def test_unusable_snapshot_falls_back_to_the_cold_answer(bundled, defect):
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    root = dense.solve()
    lo, up = _branch_children(dense, root, model.binary_columns())[0]
    cold = dense.solve(lo, up)
    cols = root.basis.columns.copy()
    if defect == "repeated column":         # a singular basis matrix
        cols[1] = cols[0]
    elif defect == "repeated slack column":  # one row's slack in two positions
        slack = np.nonzero(cols >= dense.a.shape[1])[0]
        cols[slack[1]] = cols[slack[0]]
    elif defect == "out-of-range column":
        cols[0] = sum(dense.a.shape)
    else:
        cols = cols[:-1]
    warm = dense.solve(lo, up, basis=Basis(cols, root.basis.status))
    assert cold.status == warm.status == OPTIMAL
    assert warm.objective == cold.objective
    assert np.array_equal(warm.x, cold.x)
    assert warm.iterations == cold.iterations
