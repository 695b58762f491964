"""Model container: construction guards, evaluation, and copying."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan.milp import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    LE,
    Milp,
    evaluate_assignment,
)


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
