"""LP engine: hand-checked optima, certificates, scipy cross-checks, and
warm starts from a related LP's basis."""

import contextlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize

from conftest import ALL_CASES, slack_box
from gridplan.branch_bound import solve_milp
from gridplan.builder import Variant, build_milp
from gridplan.case import parse_case
from gridplan.milp import CONTINUOUS, EQ, GE, LE, Milp
from gridplan.simplex import (
    FAILURE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _AT_LO,
    _AT_UP,
    _BASIC,
    _FEAS_TOL,
    _FIXED,
    _FREE,
    _MAX_ROUNDS,
    _OPT_TOL,
    Basis,
    DenseLp,
    LpOutcome,
    _Simplex,
    presolve,
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


def _placed(simplex):
    """``simplex`` with every column at a bound, the upper one only where
    just that one is finite, and free at 0 where neither is: the ``x`` and
    ``status`` that a round's ``_start_round`` would otherwise set, for
    tests that read them without running a round."""
    lo, up = simplex.lo, simplex.up
    at_up, has_lo = np.isfinite(up) & ~np.isfinite(lo), np.isfinite(lo)
    simplex.status = np.where(at_up, _AT_UP, np.where(has_lo, _AT_LO, _FREE)).astype(np.int8)
    simplex.status[lo == up] = _FIXED
    simplex.x = np.where(at_up, up, np.where(has_lo, lo, 0.0))
    return simplex


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
        dense = DenseLp([coefs for coefs, _s, _b in rows], [b for _c, _s, b in rows],
                        *slack_box([s for _c, s, _b in rows]), *zip(*bounds), c)
        lp = _placed(_Simplex(dense, dense.lo, dense.up))
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


@pytest.mark.parametrize("cadence", [700, 1, 2])
def test_random_lps_agree_with_scipy(cadence, monkeypatch):
    # a refactor cadence of a pivot or two cuts nearly every round, on
    # instances with artificial bounds and every outcome
    monkeypatch.setattr("gridplan.simplex._REFRESH_EVERY", cadence)
    spy, verdicts = _dual_verdicts()
    for seed, free in ((20260814, False), (20261018, True)):
        with spy:
            statuses = _tally_against_scipy(np.random.default_rng(seed), 80, free)
        # the seed must exercise every outcome, or the test is weaker than it looks
        assert min(statuses[OPTIMAL], statuses[INFEASIBLE], statuses[UNBOUNDED]) >= 3, free
    # a round the cadence cuts ends with no verdict
    assert (None in verdicts) == (cadence < 700)


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


# -- the three starts: caller's basis, crash basis, slack basis ------------------


def _attempts():
    """Count the ``_Simplex`` attempts that ``DenseLp.solve`` makes."""
    return mock.patch("gridplan.simplex._Simplex", wraps=_Simplex)


@contextlib.contextmanager
def _starts():
    """Record the start of every ``_Simplex.run``, with the ``DenseLp`` it
    runs on."""
    starts = []
    run = _Simplex.run

    def recorded(self, start):
        starts.append((self.problem, start))
        return run(self, start)

    with mock.patch.object(_Simplex, "run", recorded):
        yield starts


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


def test_bundled_root_lps_start_from_the_crash_basis(bundled):
    # 1,488 root pivots over the 21 pairs when roots ran two-phase primal,
    # 1,025 from the slack basis, 801 from the crash basis
    pivots = 0
    for name in ALL_CASES:
        for variant in Variant:
            model, _index = build_milp(bundled(name), variant)
            dense = DenseLp.from_milp(model)
            with _starts() as starts:
                root = dense.solve()
            assert root.status == OPTIMAL, (name, variant.value)
            assert dense.crash_basis is not dense.slack_basis, (name, variant.value)
            assert starts == [(dense, dense.crash_basis)], (name, variant.value)
            pivots += root.iterations
    assert pivots <= 900


# -- the crash basis ---------------------------------------------------------------


def _island(reactances):
    """The reference bus r, with the only generator, feeds a ring a-b-c of
    unswitchable lines with these reactances through the switchable line
    r-a; loads sit at b and c over two seasons of two hours."""
    xab, xbc, xca = reactances
    return parse_case(json.dumps({
        "name": "island",
        "buses": [{"id": "r", "reference": True}, {"id": "a"}, {"id": "b"}, {"id": "c"}],
        "generators": [{"id": "g1", "bus": "r", "p_max": 500, "cost": 6}],
        "branches": [
            {"id": "kra", "from": "r", "to": "a", "x": 0.002, "rate": 300},
            {"id": "kab", "from": "a", "to": "b", "x": xab, "rate": 300, "switchable": False},
            {"id": "kbc", "from": "b", "to": "c", "x": xbc, "rate": 300, "switchable": False},
            {"id": "kca", "from": "c", "to": "a", "x": xca, "rate": 300, "switchable": False},
        ],
        "candidates": [],
        "horizon": {"epochs": 1, "years_per_epoch": 5, "seasons": 2, "hours": 2,
                    "load_growth": 0.0, "maintenance_rate": 0.04},
        "load": {"b": [[60, 40], [50, 30]], "c": [[20, 30], [10, 20]]},
    }))


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("reactances", [(0.002, 0.002, 0.002), (0.002, 0.003, 0.005)],
                         ids=["equal", "unequal"])
def test_the_crash_drops_a_pair_of_a_singular_island(variant, reactances):
    # in the switching variants the line r-a is gated, so its flow law
    # leaves the = rows and the ring's three balance rows hold its full
    # Laplacian in the three angles, singular with equal reactances and
    # singular but for rounding with unequal ones.  The crash keeps two of
    # those three pairs per interval; in static the ring reaches the fixed
    # reference angle through r-a, and all three stay
    model, _index = build_milp(_island(reactances), variant)
    dense, _postsolve = presolve(model)
    n = dense.a.shape[1]
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = dense.crash_basis.columns.copy()
    assert simplex._refresh()
    crashed = dense.crash_basis.columns != dense.slack_basis.columns
    assert np.all(dense.crash_basis.columns[crashed] < n)
    # four intervals of four balance rows (r, a, b, c), then each line's rows
    per_interval = model.n_constraints // 4
    ring = crashed.reshape(4, per_interval)[:, 1:4].sum(axis=1)
    assert list(ring) == [3 if variant == Variant.STATIC else 2] * 4
    with _starts() as starts:
        out = solve_milp(model)
    assert out.status == OPTIMAL
    assert out.objective == pytest.approx(1_423_500.0, rel=1e-9)
    assert starts and all(start is not lp.slack_basis for lp, start in starts)


def test_the_crash_is_the_slack_basis_when_no_block_inverts(bundled, monkeypatch):
    # the mutual pairs' block is refused, then the block of the pairs that
    # the elimination keeps: the crash falls back to the slack basis itself,
    # and the solve starts there alone
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    ref = presolve(model)[0]
    assert ref.crash_basis is not ref.slack_basis
    expected = ref.solve()
    monkeypatch.setattr("gridplan.simplex._invertible", lambda block: False)
    dense = presolve(model)[0]
    assert dense.crash_basis is dense.slack_basis
    with _starts() as starts:
        out = dense.solve()
    assert starts == [(dense, dense.slack_basis)]
    assert out.status == expected.status == OPTIMAL
    assert abs(out.objective - expected.objective) <= 1e-9 * abs(expected.objective)


def _crash_models(bundled):
    """The presolved LP of every bundled pair and of the 10-bus probe grid."""
    probe = parse_case((DATA / "probe_10x2x2x2x3_s1.json").read_text())
    for case in [bundled(name) for name in ALL_CASES] + [probe]:
        for variant in Variant:
            yield presolve(build_milp(case, variant)[0])[0]


def test_the_crash_start_has_the_slack_basis_reduced_costs(bundled):
    # every crash column costs 0, so the duals stay 0 and the start is dual
    # feasible with the slack basis's reduced costs and nonbasic placement
    for dense in _crash_models(bundled):
        n = dense.a.shape[1]
        assert dense.crash_basis is not dense.slack_basis
        assert np.all(dense.c[dense.crash_basis.columns[dense.crash_basis.columns < n]] == 0.0)
        placed = []
        for start in (dense.slack_basis, dense.crash_basis):
            simplex = _Simplex(dense, dense.lo, dense.up)
            simplex.basis = start.columns.copy()
            assert simplex._refresh()
            y, d = simplex._exact_duals()
            assert not y.any()
            simplex._start_round(d, start.status, 1e6)
            placed.append((d, simplex.status, simplex.x))
        (d_slack, status_slack, x_slack), (d_crash, status_crash, x_crash) = placed
        assert np.array_equal(d_crash, d_slack)
        nonbasic = (status_crash != _BASIC) & (status_slack != _BASIC)
        assert np.array_equal(status_crash[nonbasic], status_slack[nonbasic])
        assert np.array_equal(x_crash[nonbasic], x_slack[nonbasic])


def test_the_crash_cuts_the_root_pivots_of_the_probe_grid():
    # the presolved roots of the 10-bus grid take 130, 166 and 186 pivots
    # from the slack basis, 58, 101 and 97 from the crash basis
    case = parse_case((DATA / "probe_10x2x2x2x3_s1.json").read_text())
    slack_pivots = crash_pivots = 0
    for variant in Variant:
        dense, _postsolve = presolve(build_milp(case, variant)[0])
        slack = _Simplex(dense, dense.lo, dense.up).run(dense.slack_basis)
        with _starts() as starts:
            crash = dense.solve()
        assert starts == [(dense, dense.crash_basis)]
        assert slack.status == crash.status == OPTIMAL
        assert abs(crash.objective - slack.objective) <= 1e-9 * abs(slack.objective)
        slack_pivots += slack.iterations
        crash_pivots += crash.iterations
    assert 5 * crash_pivots <= 3 * slack_pivots, (crash_pivots, slack_pivots)


# -- zero-cost columns start free at zero ----------------------------------------


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_slack_start_leaves_only_the_loaded_balance_rows_infeasible(variant):
    # every angle and flow starts at 0, not at a bound, so no flow-law or
    # gating row starts violated: only the = rows that carry a load
    case = parse_case((DATA / "probe_10x2x2x2x3_s1.json").read_text())
    model, _index = build_milp(case, variant)
    dense = DenseLp.from_milp(model)
    n = dense.a.shape[1]
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = dense.slack_basis.columns.copy()
    assert simplex._refresh()
    simplex._start_round(simplex._exact_duals()[1], dense.slack_basis.status, 1e6)
    slack = simplex.x[n:]
    infeasible = (slack < dense.slack_lo - _FEAS_TOL) | (slack > dense.slack_up + _FEAS_TOL)
    loaded = (dense.slack_lo == 0.0) & (dense.slack_up == 0.0) & (dense.b != 0.0)
    assert loaded.any()
    assert np.array_equal(infeasible, loaded)
    zero = (dense.c == 0.0) & (dense.lo < 0.0) & (dense.up > 0.0)
    assert zero.any()
    assert np.all(simplex.x[:n][zero] == 0.0)
    assert np.all(simplex.status[:n][zero] == _FREE)


def test_a_resolve_from_an_optimum_with_a_free_column_pivots_none(bundled):
    # tri_switch's switch-all optimum leaves the flows of line k23 and of the
    # unbuilt candidate c1 free at zero
    model, _index = build_milp(bundled("tri_switch"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    root = dense.solve()
    assert root.status == OPTIMAL
    free = root.basis.status[:dense.a.shape[1]] == _FREE
    assert free.any() and np.all(root.x[free] == 0.0)
    again = dense.solve(basis=root.basis)
    assert again.status == OPTIMAL and again.iterations == 0
    assert _same_bits(again.x, root.x)
    assert repr(again.objective) == repr(root.objective)


@pytest.mark.parametrize("lo, up, cost, x, state", [
    (-1.0, 2.0, 0.5 * _OPT_TOL, 0.0, _FREE),
    (-1.0, 2.0, -0.5 * _OPT_TOL, 0.0, _FREE),
    (-1.0, 2.0, 2 * _OPT_TOL, -1.0, _AT_LO),
    (-1.0, 2.0, -2 * _OPT_TOL, 2.0, _AT_UP),
    (-1.0, 2.0, 1.0, -1.0, _AT_LO),
    (-1.0, 2.0, -1.0, 2.0, _AT_UP),
    # 0 on the box's edge or outside it: the lower bound, as for any tie
    (0.0, 2.0, 0.0, 0.0, _AT_LO),
    (0.25, 2.0, 0.0, 0.25, _AT_LO),
])
def test_only_a_zero_reduced_cost_inside_its_box_starts_at_zero(lo, up, cost, x, state):
    # column 0 is marked free in the start, as the slack basis marks a
    # zero-cost column; the round leaves it at 0 only when |d| <= _OPT_TOL
    # and 0 is strictly inside its box
    m = _model([(lo, up), (-1.0, 1.0)], [([(0, 1.0), (1, 1.0)], EQ, 0.5)], [(0, cost)])
    dense = DenseLp.from_milp(m)
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = dense.slack_basis.columns.copy()
    assert simplex._refresh()
    side = dense.slack_basis.status.copy()
    side[0] = _FREE
    simplex._start_round(simplex._exact_duals()[1], side, 1e6)
    assert (simplex.x[0], simplex.status[0]) == (x, state)
    assert (simplex.x[1], simplex.status[1]) == (0.0, _FREE)


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


def _infeasible_child():
    """min 2x + y  s.t.  x + y >= 1.5,  x, y in [0, 1]: its ``DenseLp``, the
    root, which has x = 0.5, and the upper bounds of the child x <= 0, which
    cannot reach the row."""
    m = _model([(0, 1), (0, 1)], [([(0, 1.0), (1, 1.0)], GE, 1.5)],
               [(0, 2.0), (1, 1.0)])
    dense = DenseLp.from_milp(m)
    root = dense.solve()
    up = dense.up.copy()
    up[0] = 0.0
    return dense, root, up


def test_warm_start_into_infeasible_child_is_certified():
    dense, root, up = _infeasible_child()
    assert root.status == OPTIMAL
    assert root.x[0] == pytest.approx(0.5, abs=1e-9)
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
    dense, root, up = _infeasible_child()
    assert root.status == OPTIMAL
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
    age, chain, refactors = _kept_age(dense), 0, 0
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
        assert _kept_age(dense) == (age + out.iterations) % cadence
        age = _kept_age(dense)
        chain += out.iterations
        refactors += inv.call_count
        last = out
    assert refactors >= 2 and chain >= 2 * cadence


def _kept_age(dense):
    """Pivots since the kept tableau was factored; the slot also holds that
    m x n tableau and the column at each of its positions."""
    basis, nonbasic, tableau, age = dense._slot
    m, n = dense.a.shape
    assert tableau.shape == (m, n)
    assert np.array_equal(np.sort(np.concatenate([basis.columns, nonbasic])),
                          np.arange(n + m))
    return age


def _same_bits(ours, ref):
    return ours.dtype == ref.dtype and ours.shape == ref.shape and ours.tobytes() == ref.tobytes()


def _sibling_solves(bundled):
    """eight_bus switch-all after its root and both children from the root's
    basis: the first child took the root's tableau, the second factored the
    root's basis afresh, which the problem keeps.  Returns the problem, the
    root and the second child's bounds and outcome."""
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    root = dense.solve()
    (lo0, up0), (lo1, up1) = _branch_children(dense, root, model.binary_columns())
    assert dense.solve(lo0, up0, basis=root.basis).status == OPTIMAL
    with _inv_calls() as inv:
        second = dense.solve(lo1, up1, basis=root.basis)
    assert inv.call_count >= 1 and second.status == OPTIMAL
    return dense, root, (lo1, up1), second


def test_cached_factor_is_a_fresh_refactor_of_its_basis(bundled):
    # the factor kept for a caller basis is taken before the solve pivots,
    # so it is exactly what a fresh _refresh of that basis gives
    dense, root, _bounds, _second = _sibling_solves(bundled)
    columns, nonbasic, tableau = dense._factor
    assert np.array_equal(columns, root.basis.columns)
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = root.basis.columns.copy()
    assert simplex._refresh()
    assert _same_bits(simplex.tableau, tableau)
    assert _same_bits(simplex.nonbasic, nonbasic)


def test_a_solve_from_the_cached_factor_equals_one_that_refactors(bundled):
    # a later start from those columns, the same Basis or an equal copy,
    # copies the kept factor instead of refactoring, with the same outcome
    # bit for bit as a solve that finds no factor kept
    dense, root, (lo, up), second = _sibling_solves(bundled)
    copy = Basis(root.basis.columns.copy(), root.basis.status.copy())
    outcomes = []
    for start in (root.basis, copy):
        with _inv_calls() as inv:
            outcomes.append(dense.solve(lo, up, basis=start))
        assert inv.call_count == 0
    dense._factor = None
    with _inv_calls() as inv:
        outcomes.append(dense.solve(lo, up, basis=root.basis))
    assert inv.call_count == 1
    for out in outcomes:
        assert out.status == second.status == OPTIMAL
        assert _same_bits(out.x, second.x)
        assert repr(out.objective) == repr(second.objective)
        assert out.iterations == second.iterations


def _outcome_bits(out):
    """Every field of an ``LpOutcome``, floats by their bits."""
    basis = out.basis and (out.basis.columns.tobytes(), out.basis.status.tobytes())
    x = None if out.x is None else out.x.tobytes()
    return (out.status, x, repr(out.objective), repr(out.dual_bound), out.iterations,
            out.message, basis)


def _node_polish_child(model):
    """Solves on one ``DenseLp``, yielded one at a time: the root, a node
    (the root's down child) from the root's basis, a polish LP pinning the
    node's binaries to their rounded values from the node's basis, and then
    the node's child from the node's basis."""
    dense = DenseLp.from_milp(model)
    bins = np.array(model.binary_columns())
    root = dense.solve()
    yield root
    lo, up = _branch_children(dense, root, list(bins))[0]
    node = dense.solve(lo, up, basis=root.basis)
    yield node
    frac = np.abs(node.x[bins] - np.round(node.x[bins]))
    assert frac.max() > 1e-6
    plo, pup = lo.copy(), up.copy()
    plo[bins] = pup[bins] = np.round(node.x[bins])
    yield dense.solve(plo, pup, basis=node.basis)
    child_up = up.copy()
    child_up[bins[int(np.argmax(frac))]] = 0.0
    yield dense.solve(lo, child_up, basis=node.basis)


def test_interleaved_solves_of_two_problems_match_separate_ones(bundled):
    # each solve reads only its own problem's kept tableau and factor, so
    # running two problems' solves alternately changes no bit of either.
    # Both cases have a fractional down child of the root, which
    # _node_polish_child branches on
    models = [build_milp(bundled(name), Variant.SWITCH_ALL)[0]
              for name in ("eight_bus", "diamond")]
    alone = [[_outcome_bits(out) for out in _node_polish_child(m)] for m in models]
    mixed = [_outcome_bits(out)
             for pair in zip(*(_node_polish_child(m) for m in models)) for out in pair]
    assert mixed[0::2] == alone[0] and mixed[1::2] == alone[1]
    assert all(len(seq) == 4 and all(bits[0] == OPTIMAL for bits in seq) for seq in alone)


def test_a_certified_optimum_computes_its_duals_once_after_the_last_pivot(bundled, monkeypatch):
    # the optimality check's duals and residuals certify the optimum, so a
    # one-round warm solve computes duals twice in all: at the start of its
    # round, before its first pivot, and once after its last pivot
    events = []

    def logged(name):
        method = getattr(_Simplex, name)

        def call(self, *args):
            events.append(name)
            return method(self, *args)
        return call

    for name in ("_exact_duals", "_exchange", "_primal_error"):
        monkeypatch.setattr(_Simplex, name, logged(name))
    dense, root, (lo, up) = _eight_bus_child(bundled)
    warm_start = len(events)
    warm = dense.solve(lo, up, basis=root.basis)
    assert warm.status == OPTIMAL and warm.iterations > 0
    for solve_events in (events[:warm_start], events[warm_start:]):
        last_pivot = len(solve_events) - solve_events[::-1].index("_exchange")
        tail = solve_events[last_pivot:]
        assert tail.count("_exact_duals") == 1 and tail.count("_primal_error") == 1
    warm_events = events[warm_start:]
    assert warm_events.count("_exact_duals") == 2
    assert warm_events.index("_exact_duals") < warm_events.index("_exchange")


def _dense_by_rows(model):
    """The ``DenseLp`` of ``model`` with ``A``, ``b`` and ``c`` filled one row
    and one objective entry at a time."""
    a = np.zeros((model.n_constraints, model.n_variables))
    b = np.zeros(model.n_constraints)
    for i, con in enumerate(model.constraints):
        a[i, list(con.columns)] = con.coefficients
        b[i] = con.rhs
    c = np.zeros(model.n_variables)
    for col, coef in model.objective.items():
        c[col] = coef
    return DenseLp(a, b, *slack_box([con.sense for con in model.constraints]),
                   [v.lower for v in model.variables], [v.upper for v in model.variables],
                   c, model.objective_offset)


def test_from_milp_scatters_exactly_the_row_by_row_arrays(bundled):
    models = [build_milp(bundled(name), variant)[0]
              for name in ALL_CASES for variant in Variant]
    models.append(_model([(0, 1), (-2, 3)], [], [(1, -1.5)], offset=2.0))
    models.append(_model([(0, 1), (-2, 3), (0, 4)],
                         [([(2, 2.0), (0, -1.0)], LE, 1.0), ([], GE, -1.0),
                          ([(1, 0.5)], EQ, 0.25)], []))
    for model in models:
        dense, ref = DenseLp.from_milp(model), _dense_by_rows(model)
        for field in ("a", "b", "c", "lo", "up", "slack_lo", "slack_up", "cost"):
            assert _same_bits(getattr(dense, field), getattr(ref, field)), field
        assert dense.c0 == ref.c0 and dense.sigma == ref.sigma


def _standard_form(dense):
    """The explicit ``[A | I]`` that ``DenseLp`` leaves implicit."""
    return np.hstack([dense.a, np.eye(dense.a.shape[0])])


def _factor(dense, columns):
    """The ``_refresh`` tableau of basis ``columns`` next to a dense solve of
    B T = [A | I] at its nonbasic columns, which ``_refresh`` puts in id
    order."""
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = np.array(columns)
    assert simplex._refresh()
    assert np.array_equal(simplex.nonbasic,
                          np.setdiff1d(np.arange(sum(dense.a.shape)), columns))
    a_all = _standard_form(dense)
    return simplex.tableau, np.linalg.solve(a_all[:, columns], a_all)[:, simplex.nonbasic]


def _assert_factor_matches(dense, columns, label):
    tableau, dense_solve = _factor(dense, columns)
    assert tableau.shape == dense.a.shape, label
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
    # k = 0: nothing to factor, and the tableau is A itself
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    tableau, _dense_solve = _factor(dense, dense.slack_basis.columns)
    assert np.array_equal(tableau, dense.a)
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


def _random_exchanges(simplex, rng, pivots):
    """``pivots`` exchanges on random rows, each on a random entry of that
    row of magnitude above 0.1."""
    for _pivot in range(pivots):
        r = int(rng.integers(simplex.m))
        usable = np.flatnonzero(np.abs(simplex.tableau[r]) > 0.1)
        if usable.size:
            simplex.drow = np.zeros(simplex.n)
            simplex._exchange(r, int(rng.choice(usable)))


def test_implicit_identity_products_match_the_explicit_standard_form(bundled):
    # every product with [A | I] or B^-1 is formed without either: basic
    # values, residuals, duals with reduced costs, and the row combination
    # an infeasibility certificate reads.  Random bases come from random
    # pivots off the slack basis, each refactored afresh
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    a_all = _standard_form(dense)
    m, n = dense.a.shape
    rng = np.random.default_rng(20261019)
    simplex = _placed(_Simplex(dense, dense.lo, dense.up))
    simplex.basis = dense.slack_basis.columns.copy()
    assert simplex._refresh()

    def close(ours, ref):
        return np.abs(ours - ref).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(ref).max())

    n_structural = 0
    for _basis in range(12):
        _random_exchanges(simplex, rng, 8)
        assert simplex._refresh()
        n_structural = max(n_structural, int((simplex.basis < n).sum()))
        binv = np.linalg.inv(a_all[:, simplex.basis])

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


def test_exchanged_tableau_reads_match_the_explicit_inverse(bundled):
    # between refactors the tableau and everything read off it follow the
    # basis: after runs of random exchanges with no refactor, the tableau,
    # the basic values, the duals and every row of B^-1 (the Farkas rows)
    # match a dense solve with the explicit B^-1
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    dense = DenseLp.from_milp(model)
    a_all = _standard_form(dense)
    m, n = dense.a.shape
    rng = np.random.default_rng(20261020)
    simplex = _placed(_Simplex(dense, dense.lo, dense.up))
    simplex.basis = dense.slack_basis.columns.copy()
    assert simplex._refresh()

    def close(ours, ref):
        return np.abs(ours - ref).max(initial=0.0) <= 1e-9 * max(1.0, np.abs(ref).max())

    n_structural = 0
    for _run in range(6):
        _random_exchanges(simplex, rng, 15)
        n_structural = max(n_structural, int((simplex.basis < n).sum()))
        assert np.array_equal(np.sort(np.concatenate([simplex.basis, simplex.nonbasic])),
                              np.arange(n + m))
        binv = np.linalg.inv(a_all[:, simplex.basis])
        assert close(simplex.tableau, binv @ a_all[:, simplex.nonbasic])

        simplex.x = rng.uniform(-5.0, 5.0, n + m)
        nonbasic_x = simplex.x.copy()
        nonbasic_x[simplex.basis] = 0.0
        simplex._basic_values()
        assert close(simplex.x[simplex.basis], binv @ (dense.b - a_all @ nonbasic_x))

        y, _d = simplex._exact_duals()
        assert close(y, dense.cost[simplex.basis] @ binv)
        rows = np.array([simplex._times_binv(unit) for unit in np.eye(m)])
        assert close(rows, binv)
    assert n_structural >= 20


def test_exchange_updates_only_rows_the_pivot_column_touches():
    # rows where the entering column is zero are skipped; the rows it touches
    # get exactly the dense rank-1 formula's values, and the entering
    # column's position takes the leaving column: -col / piv, 1 / piv in row r
    rng = np.random.default_rng(20261018)
    m, n = 40, 25
    dense = DenseLp(np.zeros((m, n)), np.zeros(m), *slack_box([LE] * m), np.zeros(n),
                    np.ones(n), np.zeros(n))
    simplex = _placed(_Simplex(dense, dense.lo, dense.up))
    simplex.basis = dense.slack_basis.columns.copy()
    simplex.nonbasic = np.arange(n)
    simplex.tableau = rng.standard_normal((m, n))
    simplex.drow = rng.standard_normal(n)
    r, p = 7, 3
    zero = rng.random(m) < 0.8
    zero[r] = False
    simplex.tableau[zero, p] = 0.0
    assert 0 < zero.sum() < m - 1
    expected = simplex.tableau.copy()
    col = expected[:, p].copy()
    piv = col[r]
    expected[r] /= piv
    col[r] = 0.0
    expected -= np.outer(col, expected[r])
    expected[:, p] = -col * (1.0 / piv)
    expected[r, p] = 1.0 / piv
    drow = simplex.drow.copy()
    dq = drow[p]
    drow -= dq * expected[r]
    drow[p] = -dq * (1.0 / piv)
    simplex._exchange(r, p)
    assert np.array_equal(simplex.tableau, expected)
    assert np.array_equal(simplex.drow, drow)
    assert simplex.basis[r] == p and simplex.nonbasic[p] == n + r


_STATES = {"at lower": _AT_LO, "at upper": _AT_UP, "free": _FREE, "fixed": _FIXED}


def _one_row(state, alpha, rise, drow0):
    """A one-row ``_Simplex`` whose row's slack is basic and fixed at 0,
    sitting at -1 (below its bound, so it must rise) when ``rise`` and at
    +1 otherwise.  Tableau position 0 holds column 0 in ``state`` with entry
    ``alpha`` and reduced cost ``drow0``; position 1 holds column 1, at its
    lower bound with reduced cost 1, whose entry always repairs the row at
    ratio 1."""
    lo, up, x0 = {_AT_LO: (0.0, 1.0, 0.0), _AT_UP: (0.0, 1.0, 1.0),
                  _FREE: (-math.inf, math.inf, 0.0), _FIXED: (0.5, 0.5, 0.5)}[state]
    dense = DenseLp(np.zeros((1, 2)), np.zeros(1), *slack_box([EQ]), [lo, 0.0], [up, 1.0],
                    np.zeros(2))
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis, simplex.nonbasic = np.array([2]), np.array([0, 1])
    simplex.tableau = np.array([[alpha, -1.0 if rise else 1.0]])
    simplex.drow = np.array([drow0, 1.0])
    simplex.status = np.array([state, _AT_LO, _BASIC], dtype=np.int8)
    simplex.x = np.array([x0, 0.0, -1.0 if rise else 1.0])
    simplex.factor_age = 0
    return simplex


# the module docstring's rule: a column may enter when moving it off its
# bound moves the leaving value toward its violated bound (x_B falls by
# alpha per unit the column rises); column 0 has the smaller ratio, so it
# enters exactly when it may
@pytest.mark.parametrize("leaving, state, alpha, enters", [
    ("rises", "at lower", -1.0, 0), ("rises", "at lower", 1.0, 1),
    ("rises", "at upper", 1.0, 0), ("rises", "at upper", -1.0, 1),
    ("rises", "free", 1.0, 0), ("rises", "free", -1.0, 0),
    ("rises", "fixed", 1.0, 1), ("rises", "fixed", -1.0, 1),
    ("falls", "at lower", 1.0, 0), ("falls", "at lower", -1.0, 1),
    ("falls", "at upper", -1.0, 0), ("falls", "at upper", 1.0, 1),
    ("falls", "free", 1.0, 0), ("falls", "free", -1.0, 0),
    ("falls", "fixed", 1.0, 1), ("falls", "fixed", -1.0, 1),
])
def test_entering_column_by_leaving_direction_and_nonbasic_state(leaving, state, alpha, enters):
    # dual feasible reduced costs: >= 0 at a lower bound, <= 0 at an upper
    # one, 0 when free
    drow0 = {"at lower": 0.5, "at upper": -0.5, "free": 0.0, "fixed": 0.5}[state]
    simplex = _one_row(_STATES[state], alpha, leaving == "rises", drow0)
    before, entry = simplex.x.copy(), simplex.tableau[0, enters]
    verdict, _r, _rise = simplex._dual_loop(1)
    assert simplex.iterations == 1
    assert list(simplex.basis) == [enters]
    # the leaving slack takes the entering column's position, at its bound,
    # and the entering column moves just enough to put it there
    assert simplex.nonbasic[enters] == 2
    assert simplex.x[2] == 0.0
    assert simplex.x[enters] == before[enters] + before[2] / entry
    assert verdict == OPTIMAL


def test_a_nan_ratio_ends_the_round_as_failure():
    simplex = _one_row(_AT_LO, -1.0, True, math.nan)
    assert simplex._dual_loop(10)[0] == FAILURE
    assert simplex.iterations == 0


@pytest.mark.parametrize("order", ["id order", "swapped"])
def test_ratio_and_magnitude_ties_enter_the_lowest_column_id(order):
    # min x0 + x1  s.t.  x0 + x1 >= 1 on [0, 1]^2: from the slack basis the
    # row's slack leaves, and x0 and x1 tie on ratio and on |alpha|.  The
    # lower id enters wherever the two sit in the tableau
    m = _model([(0, 1), (0, 1)], [([(0, 1.0), (1, 1.0)], GE, 1.0)],
               [(0, 1.0), (1, 1.0)])
    dense = DenseLp.from_milp(m)
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = dense.slack_basis.columns.copy()
    assert simplex._refresh()
    if order == "swapped":
        simplex.nonbasic = simplex.nonbasic[::-1].copy()
        simplex.tableau = simplex.tableau[:, ::-1].copy()
    assert list(simplex.nonbasic) == ([0, 1] if order == "id order" else [1, 0])
    simplex._start_round(simplex._exact_duals()[1], dense.slack_basis.status, 1e6)
    assert simplex._dual_loop(10)[0] == OPTIMAL
    assert simplex.iterations == 1
    assert list(simplex.basis) == [0]
    assert simplex.x[:2] == pytest.approx([1.0, 0.0], abs=1e-15)


def test_pivot_tolerance_scales_with_the_row():
    # min x0  s.t.  1e6 x0 + 1e-6 x1 >= 1 on [0, 1]^2: x1's entry is 1e-12
    # of its row, rounding noise next to x0's, though far above _PIV_TOL.
    # Its zero reduced cost gives it the smaller ratio, so only a tolerance
    # scaled by the row keeps the pivot on x0
    m = _model([(0, 1), (0, 1)], [([(0, 1e6), (1, 1e-6)], GE, 1.0)], [(0, 1.0)])
    dense = DenseLp.from_milp(m)
    simplex = _Simplex(dense, dense.lo, dense.up)
    simplex.basis = dense.slack_basis.columns.copy()
    assert simplex._refresh()
    simplex._start_round(simplex._exact_duals()[1], dense.slack_basis.status, 1e6)
    simplex._dual_loop(1)
    assert simplex.iterations == 1
    assert list(simplex.basis) == [0]
    out = dense.solve()
    assert out.status == OPTIMAL
    assert out.x[0] == pytest.approx(1e-6, rel=1e-9)


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


@pytest.mark.parametrize("lo, up", [(2.0, 1.0), (0.0, math.nan), (math.nan, 1.0),
                                    (math.inf, math.inf), (-math.inf, -math.inf)],
                         ids=["crossed", "nan-upper", "nan-lower", "fixed-at-inf",
                              "fixed-at-minus-inf"])
def test_a_bound_no_model_admits_is_refused(lo, up):
    # NaN fails every comparison, so only a test that NaN fails refuses it
    dense = DenseLp([[1.0, 1.0]], [1.0], [0.0], [math.inf], [0.0, 0.0], [5.0, 5.0],
                    [1.0, 1.0])
    with pytest.raises(ValueError, match="^crossed, NaN or infinite fixed variable bounds$"):
        dense.solve([0.0, lo], [5.0, up])


# -- failure paths: certificates and rounds that give up ---------------------


def _answering(monkeypatch, name, answer):
    """Replace ``_Simplex.<name>`` by ``answer(call, real)``, where ``call``
    counts its calls from 1 and ``real()`` returns the real answer, or
    ``real(*args)`` the real answer to other arguments; returns the list of
    calls, one entry each."""
    method = getattr(_Simplex, name)
    calls = []

    def patched(self, *args):
        calls.append(name)
        return answer(len(calls), lambda *given: method(self, *(given or args)))

    monkeypatch.setattr(_Simplex, name, patched)
    return calls


def _real(call, real):
    return real()


def test_a_failed_certificate_is_retried_on_a_refactor_with_fresh_duals(bundled,
                                                                        monkeypatch):
    # the optimality test's duals fail weak duality once: the tableau is
    # refactored, and the next round's optimum certifies
    dense, root, (lo, up) = _eight_bus_child(bundled)
    ref_dense, ref_root, _bounds = _eight_bus_child(bundled)
    ref = ref_dense.solve(lo, up, basis=ref_root.basis)
    bound = _answering(monkeypatch, "_dual_bound",
                       lambda call, real: -np.inf if call == 1 else real())
    refresh = _answering(monkeypatch, "_refresh", _real)
    duals = _answering(monkeypatch, "_exact_duals", _real)
    errors = _answering(monkeypatch, "_primal_error", _real)
    with _attempts() as attempts:
        warm = dense.solve(lo, up, basis=root.basis)
    assert attempts.call_count == 1
    assert warm.status == OPTIMAL
    # a start from the kept tableau refactors nothing, so the one refactor
    # is the retry's, and each round computes duals at its start and at its
    # optimum
    assert (len(bound), len(refresh), len(duals), len(errors)) == (2, 1, 4, 2)
    # the same optimum as the run whose first certificate holds
    assert np.array_equal(warm.basis.columns, ref.basis.columns)
    assert abs(warm.objective - ref.objective) <= 1e-9 * abs(ref.objective)
    assert np.allclose(warm.x, ref.x, rtol=0.0, atol=1e-9)


def test_a_certificate_that_always_fails_retries_from_the_slack_basis(bundled,
                                                                      monkeypatch):
    # every attempt pivots to an optimum that no duals certify; the caller's
    # basis is tried first, then the crash basis, then B = I, and the
    # iterations of all three are reported
    dense, root, (lo, up) = _eight_bus_child(bundled)
    _answering(monkeypatch, "_dual_bound", lambda call, real: -np.inf)
    attempts = []
    run = _Simplex.run

    def recorded(self, start):
        outcome = run(self, start)
        attempts.append((start, outcome, self.iterations))
        return outcome

    monkeypatch.setattr(_Simplex, "run", recorded)
    out = dense.solve(lo, up, basis=root.basis)
    assert ([start for start, _out, _its in attempts]
            == [root.basis, dense.crash_basis, dense.slack_basis])
    for _start, attempt, iterations in attempts:
        assert attempt.status == FAILURE and iterations > 0
        assert attempt.message == "weak duality check failed (gap inf)"
    assert out.status == FAILURE and out.message == "weak duality check failed (gap inf)"
    assert out.iterations == sum(its for _start, _out, its in attempts)
    assert out.x is None and out.basis is None


def test_residuals_that_grow_after_the_refactor_fail_the_retry(bundled, monkeypatch):
    dense, root, (lo, up) = _eight_bus_child(bundled)
    _answering(monkeypatch, "_dual_bound",
               lambda call, real: -np.inf if call == 1 else real())
    _answering(monkeypatch, "_primal_error",
               lambda call, real: real() if call == 1 else (2e-7, 0.0))
    simplex = _Simplex(dense, lo, up)
    out = simplex.run(root.basis)
    assert out.status == FAILURE
    assert out.message == "primal residuals too large (2.000e-07, 0.000e+00)"
    assert out.iterations == simplex.iterations > 0


def test_an_optimum_that_drifts_every_round_ends_after_the_round_cap(bundled, monkeypatch):
    # every round's optimum reads as drifted, so each refactors and starts
    # another round, until no round is left and the last reason is reported
    dense, _root, (lo, up) = _eight_bus_child(bundled)
    _answering(monkeypatch, "_primal_error", lambda call, real: (1.0, 0.0))
    refresh = _answering(monkeypatch, "_refresh", _real)
    spy, verdicts = _dual_verdicts()
    simplex = _Simplex(dense, lo, up)
    with spy:
        out = simplex.run(dense.slack_basis)
    assert verdicts == [OPTIMAL] * _MAX_ROUNDS
    assert len(refresh) == 1 + _MAX_ROUNDS  # the start's factor, then one a round
    assert out.status == FAILURE
    assert out.message == "primal residuals too large (1.000e+00, 0.000e+00)"
    assert out.iterations == simplex.iterations > 0


def _zero_ray(call, real):
    # a zero combination of the child's one row bounds nothing, so the real
    # Farkas check fails on it
    return real(np.zeros(1))


def test_a_farkas_check_that_fails_once_certifies_on_the_next_round(monkeypatch):
    dense, root, up = _infeasible_child()
    check = _answering(monkeypatch, "_certify_infeasible",
                       lambda call, real: _zero_ray(call, real) if call == 1 else real())
    refresh = _answering(monkeypatch, "_refresh", _real)
    spy, verdicts = _dual_verdicts()
    with spy, _attempts() as attempts:
        child = dense.solve(dense.lo, up, basis=root.basis)
    assert attempts.call_count == 1
    # the start takes the root's kept tableau, so the one refactor is the retry's
    assert verdicts == [INFEASIBLE, INFEASIBLE]
    assert (len(check), len(refresh)) == (2, 1)
    assert child.status == INFEASIBLE
    assert child.message.startswith("certified infeasible")


def test_a_farkas_check_that_always_fails_ends_at_the_round_cap(monkeypatch):
    dense, root, up = _infeasible_child()
    _answering(monkeypatch, "_certify_infeasible", _zero_ray)
    refresh = _answering(monkeypatch, "_refresh", _real)
    spy, verdicts = _dual_verdicts()
    simplex = _Simplex(dense, dense.lo, up)
    with spy:
        out = simplex.run(root.basis)
    assert verdicts == [INFEASIBLE] * _MAX_ROUNDS
    assert len(refresh) == _MAX_ROUNDS
    assert out.status == FAILURE
    assert out.message == "infeasibility could not be certified"
    assert out.iterations == simplex.iterations


def test_an_optimum_that_is_never_dual_feasible_ends_after_the_round_cap(bundled,
                                                                       monkeypatch):
    # dual feasibility is checked first, so no residual is computed
    dense, _root, (lo, up) = _eight_bus_child(bundled)
    _answering(monkeypatch, "_dual_infeasibility", lambda call, real: np.ones(1))
    errors = _answering(monkeypatch, "_primal_error", _real)
    spy, verdicts = _dual_verdicts()
    with spy:
        out = _Simplex(dense, lo, up).run(dense.slack_basis)
    assert verdicts == [OPTIMAL] * _MAX_ROUNDS
    assert errors == []
    assert out.status == FAILURE
    assert out.message == "reduced costs not dual feasible (1.000e+00)"


def test_an_optimum_on_artificial_bounds_that_is_no_ray_ends_after_the_round_cap(monkeypatch):
    # x1 = x2 rise together without end, but the ray test is made to refuse
    # it: every round rests on wider artificial bounds until none is left
    model = _model([(0.0, math.inf), (0.0, math.inf)], [([(0, 1.0), (1, -1.0)], EQ, 0.0)],
                   [(0, -1.0), (1, -1.0)])
    _answering(monkeypatch, "_improving_ray", lambda call, real: False)
    spy, verdicts = _dual_verdicts()
    with spy:
        out = solve_lp(model)
    assert verdicts == [OPTIMAL] * _MAX_ROUNDS
    assert out.status == FAILURE
    assert out.message == "optimum rests on artificial bounds"


def test_a_singular_refactor_between_rounds_fails_the_attempt(bundled, monkeypatch):
    dense, _root, (lo, up) = _eight_bus_child(bundled)
    _answering(monkeypatch, "_primal_error", lambda call, real: (1.0, 0.0))
    _answering(monkeypatch, "_refresh", lambda call, real: real() if call == 1 else False)
    simplex = _Simplex(dense, lo, up)
    out = simplex.run(dense.slack_basis)
    assert out.status == FAILURE and out.message == "singular basis during refresh"
    assert out.iterations == simplex.iterations > 0


def test_a_round_that_hits_the_iteration_limit_fails_the_attempt(bundled, monkeypatch):
    # the slack start leaves the loaded balance rows infeasible, so a limit
    # of no pivots ends the first round
    dense, _root, (lo, up) = _eight_bus_child(bundled)
    dual_loop = _Simplex._dual_loop
    monkeypatch.setattr(_Simplex, "_dual_loop", lambda self, max_iter: dual_loop(self, 0))
    out = _Simplex(dense, lo, up).run(dense.slack_basis)
    assert out.status == FAILURE
    assert out.message == "dual: iteration limit or NaN ratio"
    assert out.iterations == 0
