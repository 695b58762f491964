"""Model container: construction guards, evaluation, and copying."""

import dataclasses
import math

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
    Milp,
    Variable,
    evaluate_assignment,
)
from gridplan.mps import parse_mps, write_mps
from gridplan.simplex import DenseLp


def test_add_variable_validates():
    m = Milp()
    assert m.add_variable(CONTINUOUS, 0.0, 1.0, "x") == 0
    assert m.add_variable(BINARY, 0.0, 1.0, "b") == 1
    with pytest.raises(ValueError, match="kind"):
        m.add_variable("integer", 0.0, 1.0)
    with pytest.raises(ValueError, match="lower"):
        m.add_variable(CONTINUOUS, 2.0, 1.0)
    with pytest.raises(ValueError):
        m.add_variable(CONTINUOUS, math.inf, math.inf)
    with pytest.raises(ValueError):
        m.add_variable(BINARY, -0.5, 1.0)


def test_add_constraint_validates():
    m = Milp()
    x = m.add_variable(CONTINUOUS, 0.0, 10.0, "x")
    row = m.add_constraint([(x, 2.0)], LE, 5.0)
    assert row == 0
    with pytest.raises(ValueError, match="sense"):
        m.add_constraint([(x, 1.0)], "<", 1.0)
    with pytest.raises(ValueError, match="column"):
        m.add_constraint([(7, 1.0)], LE, 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        m.add_constraint([(x, 1.0), (x, 2.0)], LE, 1.0)
    with pytest.raises(ValueError):
        m.add_constraint([(x, math.nan)], LE, 1.0)


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
        a = math.fsum(c * x[j] for j, c in zip(con.columns, con.coefficients))
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
    return DenseLp(a, [con.sense for con in cons], [con.rhs for con in cons],
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


def _outcome(evaluate, model, x):
    """The evaluation's fields, floats by their bits, or the error raised."""
    try:
        evaluation = evaluate(model, x)
    except ValueError as exc:
        return repr(exc)
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(evaluation)]


_SIGNED = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e6, 1e6)
_NAMES = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1,
                 max_size=5).filter(lambda name: not name.startswith("*"))


@st.composite
def _appended_models(draw):
    """Models built through the append API: unsorted and empty rows, unused
    columns, signed zeros in bounds, coefficients and right-hand sides."""
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
    for j in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        m.set_objective_coefficient(j, draw(_SIGNED))
    m.objective_offset = draw(_SIGNED)
    return m


@given(_appended_models(), st.data())
@settings(max_examples=150, deadline=None)
def test_array_model_matches_its_records(model, data):
    values = st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, math.inf]) | st.floats(-1e6, 1e6)
    x = data.draw(st.lists(values, min_size=model.n_variables, max_size=model.n_variables))
    # opposite infinities meeting in one sum make both raise alike
    assert _outcome(evaluate_assignment, model, x) == _outcome(_reference_evaluation, model, x)

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
