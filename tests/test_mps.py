"""MPS writer/parser: byte fixed point, strictness, solution import."""

import math

import pytest

from conftest import ALL_CASES
from gridplan.builder import Variant, build_milp
from gridplan.milp import BINARY, CONTINUOUS, EQ, GE, LE, Milp
from gridplan.mps import (
    MpsError,
    column_name_table,
    parse_mps,
    read_solution,
    write_mps,
)
from gridplan.simplex import OPTIMAL, solve_lp


def _feature_model():
    """One model exercising every bound form the writer can emit."""
    m = Milp()
    m.add_variable(BINARY, 0.0, 1.0, "b_free")
    m.add_variable(BINARY, 1.0, 1.0, "b_fixed")
    m.add_variable(CONTINUOUS, 2.5, 2.5, "x_fixed")
    m.add_variable(CONTINUOUS, -math.inf, math.inf, "x_free")
    m.add_variable(CONTINUOUS, -math.inf, 4.0, "x_upper")
    m.add_variable(CONTINUOUS, -6.0, math.inf, "x_lower")
    m.add_variable(CONTINUOUS, 0.25, 8.0, "x_boxed")
    m.add_variable(CONTINUOUS, 0.0, 5.0, "x_unused")
    m.add_constraint([(0, 1.0), (2, 2.0), (6, -1.0)], LE, 3.0)
    m.add_constraint([(3, 1.0), (4, 1.0)], GE, -2.0)
    m.add_constraint([(5, 1.5), (6, 1.0)], EQ, 0.0)
    m.set_objective_coefficient(0, 10.0)
    m.set_objective_coefficient(6, -0.125)
    m.objective_offset = 7.5
    return m


def test_write_parse_write_is_byte_identical():
    text = write_mps(_feature_model())
    reparsed, _table = parse_mps(text)
    assert write_mps(reparsed) == text


def test_round_trip_preserves_structure_and_optimum():
    model = _feature_model()
    again, table = parse_mps(write_mps(model))
    assert again.n_variables == model.n_variables
    assert again.n_constraints == model.n_constraints
    assert again.objective_offset == model.objective_offset
    assert [v.kind for v in again.variables] == [v.kind for v in model.variables]
    assert [v.lower for v in again.variables] == [v.lower for v in model.variables]
    assert [v.upper for v in again.variables] == [v.upper for v in model.variables]
    assert table == column_name_table(model)
    ours = solve_lp(model)
    theirs = solve_lp(again)
    assert ours.status == theirs.status == OPTIMAL
    assert theirs.objective == pytest.approx(ours.objective, abs=1e-9)


@pytest.mark.parametrize("name", ALL_CASES)
def test_bundled_models_reach_byte_fixed_point(name, bundled):
    case = bundled(name)
    for variant in Variant:
        model, _index = build_milp(case, variant)
        text = write_mps(model)
        reparsed, _table = parse_mps(text)
        assert write_mps(reparsed) == text, f"{name}/{variant.value}"
        assert reparsed.n_variables == model.n_variables
        assert reparsed.n_constraints == model.n_constraints


def test_marker_lines_wrap_binary_runs():
    text = write_mps(_feature_model())
    assert text.count("'INTORG'") == 1
    assert text.count("'INTEND'") == 1
    lines = text.splitlines()
    on = lines.index("    MARKER                 'MARKER'                 'INTORG'")
    off = lines.index("    MARKER                 'MARKER'                 'INTEND'")
    assert on < off
    assert any("b_fixed" in line for line in lines[on:off])


def test_unused_column_is_still_declared():
    model, table = parse_mps(write_mps(_feature_model()))
    assert "x_unused" in table
    assert model.variables[table["x_unused"]].upper == 5.0


def test_bounds_lines_are_pinned():
    m = Milp()
    m.add_variable(BINARY, 0.0, 1.0, "b_free")
    m.add_variable(BINARY, 1.0, 1.0, "b_on")
    m.add_variable(BINARY, 0.0, 0.5, "b_half")
    m.add_variable(CONTINUOUS, -math.inf, math.inf, "x_free")
    m.add_variable(CONTINUOUS, -math.inf, 4.0, "x_upper")
    m.add_variable(CONTINUOUS, -6.0, math.inf, "x_lower")
    m.add_variable(CONTINUOUS, 2.5, 2.5, "x_fixed")
    text = write_mps(m)
    assert text[text.index("BOUNDS"):].splitlines() == [
        "BOUNDS",
        " BV BND      b_free",
        " FX BND      b_on     1.0",
        " LO BND      b_half   0.0",
        " UP BND      b_half   0.5",
        " FR BND      x_free",
        " MI BND      x_upper",
        " UP BND      x_upper  4.0",
        " LO BND      x_lower  -6.0",
        " PL BND      x_lower",
        " FX BND      x_fixed  2.5",
        "ENDATA",
    ]


def test_offset_written_as_negated_objective_rhs():
    text = write_mps(_feature_model())
    assert "-7.5" in text
    model, _ = parse_mps(text)
    assert model.objective_offset == 7.5


def test_ranges_expand_to_row_pairs():
    text = "\n".join([
        "NAME          T",
        "ROWS",
        " N  COST",
        " L  R1",
        " G  R2",
        " E  R3",
        "COLUMNS",
        "    X  R1  1.0  R2  1.0",
        "    X  R3  1.0  COST  1.0",
        "RHS",
        "    RHS  R1  4.0  R2  1.0",
        "    RHS  R3  2.0",
        "RANGES",
        "    RNG  R1  2.0  R2  3.0",
        "    RNG  R3  -1.5",
        "BOUNDS",
        " FR BND  X",
        "ENDATA",
    ])
    model, _table = parse_mps(text)
    got = [(c.sense, c.rhs) for c in model.constraints]
    assert got == [
        (LE, 4.0), (GE, 2.0),      # L row with range 2
        (GE, 1.0), (LE, 4.0),      # G row with range 3
        (GE, 0.5), (LE, 2.0),      # E row with negative range
    ]


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.replace(" L  R0000001", " L  R0000001\n L  R0000001"),
         "duplicate row"),
        (lambda t: t.replace("ROWS", "ROWZ", 1), "unknown section"),
        (lambda t: t + "junk\n", "content after ENDATA"),
        (lambda t: t.replace("RHS\n", "RHS\n    RHS1      NOPE  1.0\n", 1),
         "undeclared row 'NOPE'"),
    ],
)
def test_parser_rejects_malformed_text(mutate, message):
    text = write_mps(_feature_model())
    with pytest.raises(MpsError, match=message):
        parse_mps(mutate(text))


_NUMBERS = [
    "ROWS", " N  COST", " L  R1",
    "COLUMNS", "    X  R1  1.0  COST  2.0",
    "RHS", "    RHS  R1  4.0",
    "RANGES", "    RNG  R1  2.0",
    "BOUNDS", " UP BND  X  5.0",
    "ENDATA",
]


@pytest.mark.parametrize(
    "lineno, line, bad",
    [
        (7, "    RHS  R1  abc", "abc"),
        (9, "    RNG  R1  zz", "zz"),
        (11, " UP BND  X  zz", "zz"),
        (5, "    X  R1  inf  COST  2.0", "inf"),
        (5, "    X  R1  1.0  COST  nan", "nan"),
        (7, "    RHS  R1  inf", "inf"),
        (11, " UP BND  X  nan", "nan"),
    ],
    ids=["rhs-word", "range-word", "bound-word", "coefficient-inf",
         "objective-nan", "rhs-inf", "bound-nan"],
)
def test_parser_rejects_bad_and_nonfinite_numbers(lineno, line, bad):
    parse_mps("\n".join(_NUMBERS))
    lines = list(_NUMBERS)
    lines[lineno - 1] = line
    with pytest.raises(MpsError, match=f"^line {lineno}: bad numeric value '{bad}'$"):
        parse_mps("\n".join(lines))


def test_parser_rejects_duplicate_column_entry():
    text = "\n".join([
        "ROWS", " N  COST", " L  R1",
        "COLUMNS", "    X  R1  1.0", "    X  R1  2.0",
        "ENDATA",
    ])
    with pytest.raises(MpsError, match="duplicate entry"):
        parse_mps(text)


def test_parser_rejects_general_integers():
    text = "\n".join([
        "ROWS", " N  COST", " L  R1",
        "COLUMNS",
        "    MARKER                 'MARKER'                 'INTORG'",
        "    X  R1  1.0",
        "    MARKER                 'MARKER'                 'INTEND'",
        "BOUNDS",
        " UP BND  X  5.0",
        "ENDATA",
    ])
    with pytest.raises(MpsError, match="binary-ranged"):
        parse_mps(text)


def test_parser_rejects_bound_on_unknown_column():
    text = "\n".join([
        "ROWS", " N  COST", " L  R1",
        "COLUMNS", "    X  R1  1.0",
        "BOUNDS", " UP BND  Y  5.0",
        "ENDATA",
    ])
    with pytest.raises(MpsError, match="undeclared column"):
        parse_mps(text)


def test_name_table_rejects_bad_names():
    m = Milp()
    m.add_variable(CONTINUOUS, 0.0, 1.0, "ok")
    m.add_variable(CONTINUOUS, 0.0, 1.0, "has space")
    with pytest.raises(MpsError, match="unusable"):
        column_name_table(m)
    m2 = Milp()
    m2.add_variable(CONTINUOUS, 0.0, 1.0, "same")
    m2.add_variable(CONTINUOUS, 0.0, 1.0, "same")
    with pytest.raises(MpsError, match="duplicate column name"):
        column_name_table(m2)


def test_read_solution_rules():
    table = {"a": 0, "b": 1, "c": 2}
    text = "# comment\n\na 1.5\nc -2.0\n"
    assert read_solution(text, table, 3) == [1.5, 0.0, -2.0]
    with pytest.raises(MpsError, match="unknown variable"):
        read_solution("z 1.0", table, 3)
    with pytest.raises(MpsError, match="duplicate variable"):
        read_solution("a 1.0\na 2.0", table, 3)
    with pytest.raises(MpsError, match="expected 'name value'"):
        read_solution("a 1.0 extra", table, 3)
    with pytest.raises(MpsError, match="bad value"):
        read_solution("a wat", table, 3)


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_read_solution_rejects_non_finite_values(value):
    with pytest.raises(MpsError, match=f"solution line 2: bad value '{value}'"):
        read_solution(f"a 1.0\nb {value}\n", {"a": 0, "b": 1}, 2)


def test_values_round_trip_exactly():
    m = Milp()
    m.add_variable(CONTINUOUS, -1.0 / 3.0, 1e300, "x")
    m.add_constraint([(0, 0.1)], LE, 2.2250738585072014e-308)
    m.set_objective_coefficient(0, 1.0000000000000002)
    again, _ = parse_mps(write_mps(m))
    assert again.variables[0].lower == -1.0 / 3.0
    assert again.constraints[0].coefficients[0] == 0.1
    assert again.constraints[0].rhs == 2.2250738585072014e-308
    assert again.objective[0] == 1.0000000000000002
