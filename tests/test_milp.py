"""Model container: construction guards, evaluation, and copying."""

import dataclasses
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan.milp import (
    BINARY,
    CONTINUOUS,
    EQ,
    FEASIBILITY_TOL,
    GE,
    LE,
    Evaluation,
    LinearConstraint,
    Milp,
    Variable,
    evaluate_assignment,
)
from gridplan.mps import parse_mps, write_mps
from gridplan.simplex import DenseLp
from conftest import slack_box


def _state(m):
    """Every array of the model, to see that a refused append left it as it was."""
    return (bytes(m.is_binary), bytes(m.lower), bytes(m.upper), list(m.names),
            bytes(m.row_end), bytes(m.row_col), bytes(m.row_coef), bytes(m.row_sense),
            bytes(m.rhs))


def _column_adder(bulk):
    if not bulk:
        return Milp.add_variable

    def add(m, kind, lower, upper, name=""):
        # last in one append after a good column, which a refusal drops too
        return m.add_variables(kind, [0.0, lower], [1.0, upper], ["spare", name]) + 1
    return add


def _row_adder(bulk):
    if not bulk:
        return Milp.add_constraint

    def add(m, terms, sense, rhs):
        # last in one append after a good row, which a refusal drops too
        cols, coefs = [0, *(col for col, _ in terms)], [1.0, *(coef for _, coef in terms)]
        return m.add_constraints([1, len(cols)], cols, coefs, [LE, sense], [1.0, rhs]) + 1
    return add


@pytest.mark.parametrize("bulk", [False, True], ids=["add_variable", "add_variables"])
def test_add_variable_validates(bulk):
    add, m = _column_adder(bulk), Milp()
    x = add(m, CONTINUOUS, 0.0, 1.0, "x")
    b = add(m, BINARY, 0.0, 1.0, "b")
    assert m.variables[x] == Variable(x, CONTINUOUS, 0.0, 1.0, "x")
    assert m.variables[b] == Variable(b, BINARY, 0.0, 1.0, "b")
    before = _state(m)
    for args, message in [
        (("integer", 0.0, 1.0, "i"), "unknown variable kind 'integer'"),
        ((CONTINUOUS, 2.0, 1.0, "c"), "variable 'c': lower bound 2.0 exceeds upper 1.0"),
        ((CONTINUOUS, math.nan, 1.0, "c"), "variable 'c': lower bound nan exceeds upper 1.0"),
        ((CONTINUOUS, math.inf, math.inf, "c"), "variable 'c': bounds leave no finite value"),
        ((CONTINUOUS, -math.inf, -math.inf, "c"), "variable 'c': bounds leave no finite value"),
        ((BINARY, -0.5, 1.0, "d"), "binary variable 'd' must have bounds within [0, 1]"),
        ((BINARY, 0.0, 2.0, "d"), "binary variable 'd' must have bounds within [0, 1]"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            add(m, *args)
        assert _state(m) == before, args


@pytest.mark.parametrize("bulk", [False, True], ids=["add_constraint", "add_constraints"])
def test_add_constraint_validates(bulk):
    add, m = _row_adder(bulk), Milp()
    x = m.add_variable(CONTINUOUS, 0.0, 10.0, "x")
    y = m.add_variable(CONTINUOUS, 0.0, 10.0, "y")
    row = add(m, [(y, 2.0), (x, -1.0)], LE, 5.0)
    assert m.constraints[row] == LinearConstraint((y, x), (2.0, -1.0), LE, 5.0)
    before = _state(m)
    for args, message in [
        (([(x, 1.0)], "<", 1.0), "unknown constraint sense '<'"),
        (([(7, math.nan)], "<", 1.0), "unknown constraint sense '<'"),
        (([(x, 1.0), (7, 1.0)], LE, 1.0), "constraint references unknown column 7"),
        (([(-1, 1.0)], LE, 1.0), "constraint references unknown column -1"),
        (([(x, 1.0), (y, 1.0), (x, 2.0)], LE, 1.0), "duplicate column 0 in constraint terms"),
        (([(y, 1.0), (x, 1.0), (y, math.nan)], GE, 1.0), "duplicate column 1 in constraint terms"),
        (([(x, math.nan)], LE, 1.0), "non-finite coefficient nan for column 0"),
        (([(x, 1.0), (y, -math.inf)], EQ, 1.0), "non-finite coefficient -inf for column 1"),
        (([(x, 1.0)], LE, math.inf), "non-finite right-hand side inf"),
        (([], GE, math.nan), "non-finite right-hand side nan"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            add(m, *args)
        assert _state(m) == before, args


def test_malformed_calls_are_refused_and_change_nothing():
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, 10.0, "x")
    m.add_variable(BINARY, 0.0, 1.0, "b")
    m.add_constraint([(x, 1.0)], LE, 5.0)
    m.set_objective_coefficient(x, 2.0)
    before, objective = _state(m), dict(m.objective)
    for call, error, message in [
        (lambda: m.add_variables(CONTINUOUS, [0.0, 0.0], [1.0], ["y", "z"]), ValueError,
         "bounds, names and objective must give one entry per column"),
        (lambda: m.add_variables(CONTINUOUS, [0.0], [1.0], ["y"], [1.0, 2.0]), ValueError,
         "bounds, names and objective must give one entry per column"),
        (lambda: m.add_constraint([(0.0, 1.0)], LE, 1.0), TypeError,
         "column ids must be integers, got float64"),
        (lambda: m.add_constraints([1, 2], [0, 1], [1.0, 1.0], [LE, GE], [1.0]), ValueError,
         "ends, senses and rhs must give one entry per row, ends the end of each row's terms"),
        (lambda: m.add_constraints([2, 1], [0, 1], [1.0, 1.0], [LE, GE], [1.0, 1.0]),
         ValueError,
         "ends, senses and rhs must give one entry per row, ends the end of each row's terms"),
        (lambda: m.set_objective_coefficient(2, 1.0), ValueError,
         "objective references unknown column 2"),
        (lambda: m.set_objective_coefficient(-1, 1.0), ValueError,
         "objective references unknown column -1"),
        (lambda: m.set_objective_coefficient(x, math.inf), ValueError,
         "non-finite objective coefficient inf"),
        (lambda: m.set_objective_coefficient(x, math.nan), ValueError,
         "non-finite objective coefficient nan"),
        (lambda: evaluate_assignment(m, [1.0]), ValueError,
         "assignment has 1 entries, model has 2 columns"),
        (lambda: evaluate_assignment(m, [1.0, 0.0, 0.0]), ValueError,
         "assignment has 3 entries, model has 2 columns"),
    ]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
        assert _state(m) == before and m.objective == objective, message


def test_bulk_append_equals_one_at_a_time():
    one, bulk = Milp(), Milp()
    for kind, lower, upper, names, costs in [
        (CONTINUOUS, [-1.0, -0.0], [math.inf, 0.0], ["x", "y"], [2.5, -0.0]),
        (BINARY, [0.0], [1.0], ["b"], [-1.0]),
    ]:
        for lo, up, name, cost in zip(lower, upper, names, costs):
            one.set_objective_coefficient(one.add_variable(kind, lo, up, name), cost)
        first = bulk.add_variables(kind, lower, upper, names, costs)
        assert first == one.n_variables - len(names)
    assert list(bulk.objective.items()) == list(one.objective.items()) == [(0, 2.5), (2, -1.0)]
    before = _state(bulk)
    with pytest.raises(ValueError, match="^non-finite objective coefficient nan$"):
        bulk.add_variables(CONTINUOUS, [0.0, 0.0], [1.0, 1.0], ["z", "w"], [1.0, math.nan])
    assert _state(bulk) == before and len(bulk.objective) == 2
    rows = [([(2, 1.5), (0, -0.0)], GE, 0.25), ([], EQ, 0.0), ([(1, 3.0)], LE, -0.0)]
    for terms, sense, rhs in rows:
        one.add_constraint(terms, sense, rhs)
    assert bulk.add_constraints([2, 2, 3], [2, 0, 1], [1.5, -0.0, 3.0],
                                [GE, EQ, LE], [0.25, 0.0, -0.0]) == 0
    assert _state(bulk) == _state(one)


def test_row_and_column_records_are_slotted():
    # a model holds tens of thousands of each: no per-instance dict
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, 1.0, "x")
    m.add_constraint([(x, 1.0)], LE, 1.0)
    for record in (m.variables[0], m.constraints[0]):
        assert not hasattr(record, "__dict__")


def test_objective_value_includes_offset():
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, 10.0, "x")
    y = m.add_variable(CONTINUOUS, 0.0, 10.0, "y")
    m.set_objective_coefficient(x, 3.0)
    m.set_objective_coefficient(y, -1.0)
    m.objective_offset = 5.0
    assert m.objective_value([2.0, 4.0]) == 3.0 * 2.0 - 4.0 + 5.0
    m.set_objective_coefficient(x, 0.0)   # zero removes the term
    assert m.objective_value([2.0, 4.0]) == -4.0 + 5.0


def test_evaluate_assignment_reports_violations():
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, 1.0, "x")
    b = m.add_variable(BINARY, 0.0, 1.0, "b")
    m.add_constraint([(x, 1.0), (b, 1.0)], GE, 1.5)
    good = evaluate_assignment(m, [0.5, 1.0])
    assert good.feasible
    assert good.max_constraint_violation == 0.0

    off = evaluate_assignment(m, [0.2, 1.0])
    assert not off.feasible
    assert off.max_constraint_violation == pytest.approx(0.3)

    frac = evaluate_assignment(m, [1.0, 0.5])
    assert not frac.feasible
    assert frac.max_integrality_violation == pytest.approx(0.5)

    out = evaluate_assignment(m, [1.2, 1.0])
    assert not out.feasible
    assert out.max_bound_violation == pytest.approx(0.2)


def test_evaluate_assignment_rejects_non_finite_entries():
    m = Milp()
    x = m.add_variable(CONTINUOUS, -math.inf, math.inf, "x")
    y = m.add_variable(CONTINUOUS, 0.0, 10.0, "y")
    m.add_constraint([(x, 1.0), (y, 1.0)], EQ, 5.0)
    assert evaluate_assignment(m, [4.0, 1.0]).feasible
    for bad in ([math.nan, 1.0], [4.0, math.nan], [math.inf, 1.0], [4.0, -math.inf]):
        report = evaluate_assignment(m, bad)
        assert not report.feasible, bad
        assert report.max_bound_violation == math.inf, bad
    m.add_variable(BINARY, 0.0, 1.0, "b")
    assert evaluate_assignment(m, [4.0, 1.0, 1.0]).feasible
    for bad in (math.nan, math.inf, -math.inf):     # round() would raise
        report = evaluate_assignment(m, [4.0, 1.0, bad])
        assert not report.feasible
        assert report.max_integrality_violation == math.inf


def test_evaluate_assignment_is_the_same_for_lists_and_arrays():
    m = Milp()
    cols = [m.add_variable(CONTINUOUS, -10.0, 10.0, f"x{i}") for i in range(4)]
    b = m.add_variable(BINARY, 0.0, 1.0, "b")
    m.add_constraint([(cols[0], 0.1), (cols[2], -0.7), (b, 3.0)], LE, 0.3)
    m.add_constraint([(cols[3], 1e-3), (cols[1], 2.5), (cols[0], 1.0 / 3.0)], GE, -1.0)
    m.add_constraint([(c, 0.2) for c in cols], EQ, 0.4)
    m.set_objective_coefficient(cols[1], -1.25)
    values = [0.1, -7.3, 1.0 / 7.0, 9.99, 0.5]
    assert evaluate_assignment(m, values) == evaluate_assignment(m, np.array(values))


def test_evaluation_reports_rows_that_cannot_be_summed():
    # these raised OverflowError and ValueError from math.fsum
    m = Milp()
    x = m.add_variable(CONTINUOUS, -math.inf, math.inf, "x")
    y = m.add_variable(CONTINUOUS, -math.inf, math.inf, "y")
    m.add_constraint([(x, 1.0), (y, 1.0)], LE, 1.0)
    m.set_objective_coefficient(x, 1.0)
    m.set_objective_coefficient(y, 1.0)
    for values in ([1e308, 1e308], [math.inf, -math.inf]):
        for assignment in (values, np.array(values)):
            report = evaluate_assignment(m, assignment)
            assert report.max_constraint_violation == math.inf
            assert not report.feasible
    assert m.objective_value([1e308, 1e308]) == math.inf
    assert math.isnan(m.objective_value(np.array([math.inf, -math.inf])))
    assert evaluate_assignment(m, [1e308, 1e308]).max_bound_violation == 0.0


@pytest.mark.parametrize("rows, x", [
    # the vectorised sum of the first row misses its 1.0; the second row is
    # the largest violation by that sum
    ([([1e16, 1.0, -1e16], LE, 0.0), ([0.5, 0.0, 0.0], LE, 0.0)], [1.0, 1.0, 1.0]),
    ([([1.0, 1e16, -1e16], GE, 2.0), ([1.0, 0.0, 0.0], GE, 1.5)], [1.0, 1.0, 1.0]),
    ([([1e16, 1.0, -1e16], EQ, -1.0), ([1e16, 1.0, -1e16], EQ, 2.5)], [1.0, 1.0, 1.0]),
    # ties at the largest violation, reached by cancelling and plain rows
    ([([1e16, 1.0, -1e16], LE, 0.0), ([0.5, 0.5, 0.0], LE, 0.0),
      ([-1e16, 1e16, 1.0], LE, 0.0)], [1.0, 1.0, 1.0]),
    ([([3.0, 1e16, -1e16], EQ, 0.0), ([1.0, 1.0, 1.0], EQ, 0.0)], [1.0, 1.0, 1.0]),
    # a satisfied row whose error bound crosses the largest violation
    ([([1e16, 1.0, -1e16], LE, 1.0), ([1e-9, 0.0, 0.0], LE, 0.0)], [1.0, 1.0, 1.0]),
])
def test_exact_max_rule(rows, x):
    m = Milp()
    cols = [m.add_variable(CONTINUOUS, -math.inf, math.inf, f"x{i}") for i in range(3)]
    for coefs, sense, rhs in rows:
        m.add_constraint(list(zip(cols, coefs)), sense, rhs)
    got = evaluate_assignment(m, x)
    assert _fields(got) == _fields(_reference_evaluation(m, x))
    assert got.max_constraint_violation == max(
        {LE: a - rhs, GE: rhs - a, EQ: abs(a - rhs)}[sense]
        for coefs, sense, rhs in rows for a in [math.fsum(map(operator.mul, coefs, x))])


def test_copy_is_independent():
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, 1.0, "x")
    m.add_constraint([(x, 1.0)], EQ, 0.5)
    m.set_objective_coefficient(x, 1.0)
    clone = m.copy()
    clone.with_bounds(x, 0.25, 0.25)
    clone.add_variable(CONTINUOUS, 0.0, 1.0, "y")
    assert m.variables[x].lower == 0.0
    assert m.n_variables == 1
    assert clone.n_variables == 2


def test_with_bounds_validates():
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, 1.0, "x")
    with pytest.raises(ValueError):
        m.with_bounds(x, 2.0, 1.0)
    with pytest.raises(ValueError):
        m.with_bounds(5, 0.0, 1.0)


@pytest.mark.parametrize("kind, lower, upper", [
    (BINARY, 0.0, 2.0), (BINARY, -1.0, 1.0), (CONTINUOUS, math.inf, math.inf),
    (CONTINUOUS, -math.inf, -math.inf), (CONTINUOUS, 2.0, 1.0),
])
def test_with_bounds_refuses_what_add_variable_refuses(kind, lower, upper):
    # such bounds used to reach write_mps, whose text parse_mps then refused
    with pytest.raises(ValueError):
        Milp().add_variable(kind, lower, upper, "v")
    m = Milp()
    col = m.add_variable(kind, 0.0, 1.0, "v")
    with pytest.raises(ValueError):
        m.with_bounds(col, lower, upper)
    assert m.variables == [Variable(0, kind, 0.0, 1.0, "v")]
    m.with_bounds(col, 1.0, 1.0)
    again, _table = parse_mps(write_mps(m))
    assert again.variables == [Variable(0, kind, 1.0, 1.0, "v")]


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_objective_value_matches_fsum(values):
    m = Milp()
    cols = [m.add_variable(CONTINUOUS, -1e3, 1e3, f"x{i}") for i in range(3)]
    coefs = [1.5, -2.25, 0.125]
    for col, coef in zip(cols, coefs):
        m.set_objective_coefficient(col, coef)
    m.objective_offset = 0.5
    expected = math.fsum(c * v for c, v in zip(coefs, values)) + 0.5
    assert m.objective_value(values) == expected


# the array-backed model against references computed from its records

def _reference_evaluation(model, x):
    rows = 0.0
    for con in model.constraints:
        try:
            a = math.fsum(c * x[j] for j, c in zip(con.columns, con.coefficients))
        except (OverflowError, ValueError):     # cannot be summed: infinitely violated
            rows = math.inf
            continue
        rows = max(rows, {LE: max(0.0, a - con.rhs), GE: max(0.0, con.rhs - a),
                          EQ: abs(a - con.rhs)}[con.sense])
    bounds = 0.0
    for v in model.variables:
        if not math.isfinite(x[v.column]):
            bounds = math.inf
        bounds = max(bounds, v.lower - x[v.column], x[v.column] - v.upper)
    bounds = max(bounds, 0.0)
    integrality = 0.0
    for v in model.variables:
        if v.kind == BINARY:
            xv = x[v.column]
            integrality = max(integrality,
                              abs(xv - round(xv)) if math.isfinite(xv) else math.inf)
    return Evaluation(model.objective_value(x), rows, bounds, integrality,
                      rows <= FEASIBILITY_TOL and bounds <= FEASIBILITY_TOL
                      and integrality <= FEASIBILITY_TOL)


def _reference_dense(model):
    cons = model.constraints
    a = np.zeros((len(cons), model.n_variables))
    for i, con in enumerate(cons):
        for j, coef in zip(con.columns, con.coefficients):
            a[i, j] = coef
    c = np.zeros(model.n_variables)
    for j, coef in model.objective.items():
        c[j] = coef
    return DenseLp(a, [con.rhs for con in cons], *slack_box([con.sense for con in cons]),
                   [v.lower for v in model.variables], [v.upper for v in model.variables],
                   c, model.objective_offset)


def _reference_columns(model):
    """(column, row, value) of each COLUMNS entry: rows in order, then the
    objective, or a zero objective term for a column that has neither."""
    entries = []
    for v in model.variables:
        own = [(v.name, f"R{i + 1:07d}", repr(coef))
               for i, con in enumerate(model.constraints)
               for j, coef in zip(con.columns, con.coefficients) if j == v.column]
        if v.column in model.objective or not own:
            own.append((v.name, "COST", repr(model.objective.get(v.column, 0.0))))
        entries += own
    return entries


def _fields(evaluation):
    """The evaluation's fields, floats by their bits."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(evaluation)]


# ±1e16 beside 1.0 cancel: a vectorised row sum can then miss a term
_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e16, -1e16]) | st.floats(-1e6, 1e6)
_NAMES = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1,
                 max_size=5).filter(lambda name: name[0] not in "*#")


@st.composite
def _appended_models(draw):
    """Models built through the append API: unsorted and empty rows, unused
    columns, signed zeros in bounds, coefficients and right-hand sides, and
    rows repeated with their terms reordered, which tie at one violation."""
    m = Milp()
    for name in draw(st.lists(_NAMES, max_size=6, unique=True)):
        if draw(st.booleans()):
            lo, up = sorted(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]), min_size=2,
                                          max_size=2)))
            m.add_variable(BINARY, lo, up, name)
        else:
            lo, up = sorted(draw(st.lists(_SIGNED | st.just(math.inf) | st.just(-math.inf),
                                          min_size=2, max_size=2)))
            if lo == up and math.isinf(lo):
                lo, up = -math.inf, math.inf
            m.add_variable(CONTINUOUS, lo, up, name)
    n = m.n_variables
    for _ in range(draw(st.integers(0, 5))):
        cols = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
        m.add_constraint([(j, draw(_SIGNED)) for j in cols],
                         draw(st.sampled_from([LE, GE, EQ])), draw(_SIGNED))
    rows = m.constraints
    for row in draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else ():
        terms = draw(st.permutations(list(zip(row.columns, row.coefficients))))
        m.add_constraint(terms, row.sense, row.rhs)
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        m.set_objective_coefficient(j, draw(_SIGNED))
    m.objective_offset = draw(_SIGNED)
    return m


@given(_appended_models(), st.data())
@settings(max_examples=150, deadline=None)
def test_array_model_matches_its_records(model, data):
    values = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e16, -1e16, math.nan, math.inf,
                              -math.inf, 1e308]) | st.floats(-1e6, 1e6)
    x = data.draw(st.lists(values, min_size=model.n_variables, max_size=model.n_variables))
    # overflowing products and opposite infinities are reported, not raised
    assert _fields(evaluate_assignment(model, x)) == _fields(_reference_evaluation(model, x))

    dense, ref_dense = DenseLp.from_milp(model), _reference_dense(model)
    for field in ("a", "b", "lo", "up", "c", "slack_lo", "slack_up"):
        assert getattr(dense, field).tobytes() == getattr(ref_dense, field).tobytes(), field
    assert dense.c0 == ref_dense.c0

    text = write_mps(model)
    columns = text[text.index("COLUMNS\n") + 8:text.index("RHS\n")].splitlines()
    assert [tuple(line.split()) for line in columns
            if "'MARKER'" not in line.split()[1:2]] == _reference_columns(model)
    again, _table = parse_mps(text)
    assert write_mps(again) == text
    assert again.variables == model.variables
    assert [(sorted(zip(c.columns, c.coefficients)), c.sense, c.rhs)
            for c in model.constraints] == [
        (list(zip(c.columns, c.coefficients)), c.sense, c.rhs) for c in again.constraints]
