"""MPS export/import and external-solution reading.

The writer emits deterministic, byte-reproducible fixed-format MPS: columns
appear in model order with one (row, value) pair per line, every variable
gets an explicit BOUNDS entry (no reliance on reader defaults), binaries sit
inside INTORG/INTEND markers, and values are printed with ``repr`` so they
round-trip exactly.  Writing a parsed model reproduces the original text
byte for byte.

The parser is deliberately stricter than the zoo of MPS dialects: names are
whitespace-delimited tokens, duplicate entries are errors rather than
silently summed, every number must be finite (infinite bounds are spelled
MI, PL or FR), and integer columns must be binary-ranged (the model type
has no general integers).  RANGES sections are accepted and expanded into
constraint pairs.

Solutions from external solvers come back as plain ``name value`` lines;
names that do not belong to the model are rejected so a stale file cannot
be decoded silently against the wrong model.
"""

from __future__ import annotations

import math
import re

from .milp import BINARY, CONTINUOUS, EQ, GE, LE, Milp

_SENSE_TO_TAG = {LE: "L", GE: "G", EQ: "E"}
_TAG_TO_SENSE = {"L": LE, "G": GE, "E": EQ}

_OBJ_ROW = "COST"
_RHS_SET = "RHS1"
_BOUND_SET = "BND"
_MARKER_ON = "    MARKER                 'MARKER'                 'INTORG'"
_MARKER_OFF = "    MARKER                 'MARKER'                 'INTEND'"


class MpsError(ValueError):
    """Malformed MPS text or names unusable in MPS."""


_PRINTABLE = re.compile(r"[!-~]+")     # ASCII 33..126: no space, no control


def _printable(name: str) -> bool:
    return _PRINTABLE.fullmatch(name) is not None


def column_name_table(model: Milp) -> dict[str, int]:
    """Map variable names to columns, insisting the names are usable.

    Raises when a name is empty, contains whitespace or non-ASCII, or
    collides with another column; generated names are injective, so a
    collision signals an indexing bug upstream.
    """
    table: dict[str, int] = {}
    for v in model.variables:
        if not _printable(v.name):
            raise MpsError(
                f"column {v.column} has name {v.name!r}, unusable in MPS"
            )
        if v.name in table:
            raise MpsError(f"duplicate column name {v.name!r}")
        table[v.name] = v.column
    return table


def _row_names(model: Milp) -> list[str]:
    return [f"R{i + 1:07d}" for i in range(model.n_constraints)]


def write_mps(model: Milp, name: str = "GRIDPLAN") -> str:
    """Render ``model`` as fixed-format MPS text.

    Output is a pure function of the model: identical models give identical
    bytes.
    """
    columns = column_name_table(model)
    names = [v.name for v in model.variables]
    rows = _row_names(model)
    width = max((len(s) for s in names + rows + [_OBJ_ROW, _RHS_SET, _BOUND_SET]),
                default=8)

    def pair(a: str, b: str, value: float) -> str:
        return f"    {a:<{width}}  {b:<{width}}  {value!r}"

    out = [f"NAME          {name}", "ROWS", f" N  {_OBJ_ROW}"]
    for row_name, con in zip(rows, model.constraints):
        out.append(f" {_SENSE_TO_TAG[con.sense]}  {row_name}")

    terms_by_col: dict[int, list[tuple[str, float]]] = {
        v.column: [] for v in model.variables
    }
    for row_name, con in zip(rows, model.constraints):
        for col, coef in zip(con.columns, con.coefficients):
            terms_by_col[col].append((row_name, coef))
    for col, coef in model.objective.items():
        terms_by_col[col].append((_OBJ_ROW, coef))

    out.append("COLUMNS")
    integer_mode = False
    for v in model.variables:
        if (v.kind == BINARY) != integer_mode:
            out.append(_MARKER_ON if v.kind == BINARY else _MARKER_OFF)
            integer_mode = v.kind == BINARY
        entries = terms_by_col[v.column]
        if not entries:
            # declare otherwise-unreferenced columns via a zero objective term
            entries = [(_OBJ_ROW, 0.0)]
        for row_name, coef in entries:
            out.append(pair(v.name, row_name, coef))
    if integer_mode:
        out.append(_MARKER_OFF)

    out.append("RHS")
    if model.objective_offset:
        out.append(pair(_RHS_SET, _OBJ_ROW, -model.objective_offset))
    for row_name, con in zip(rows, model.constraints):
        if con.rhs != 0.0:
            out.append(pair(_RHS_SET, row_name, con.rhs))

    out.append("BOUNDS")
    for v in model.variables:
        lo, up = v.lower, v.upper

        def bound(tag: str, value: float | None = None, _name: str = v.name) -> str:
            line = f" {tag:<2} {_BOUND_SET:<{width}}  {_name:<{width}}"
            if value is None:
                return line.rstrip()
            return f"{line}  {value!r}"

        if v.kind == BINARY and lo == 0.0 and up == 1.0:
            out.append(bound("BV"))
        elif lo == up:
            out.append(bound("FX", lo))
        elif not math.isfinite(lo) and not math.isfinite(up):
            out.append(bound("FR"))
        elif not math.isfinite(lo):
            out.append(bound("MI"))
            out.append(bound("UP", up))
        elif not math.isfinite(up):
            out.append(bound("LO", lo))
            out.append(bound("PL"))
        else:
            out.append(bound("LO", lo))
            out.append(bound("UP", up))

    out.append("ENDATA")
    return "\n".join(out) + "\n"


def parse_mps(text: str):
    """Parse MPS text into a model plus its column-name table.

    Returns ``(Milp, name_table)`` where the table maps column names to
    indices.  The model is equivalent to the source: same columns in order,
    same rows (RANGES rows expand into a ≤/≥ pair), same objective.
    """
    section = None
    model_rows: list[tuple[str, str]] = []          # (sense tag, name)
    row_sense: dict[str, str] = {}
    obj_row: str | None = None
    col_order: list[str] = []
    col_terms: dict[str, dict[str, float]] = {}
    col_integer: dict[str, bool] = {}
    rhs: dict[str, float] = {}
    ranges: dict[str, float] = {}
    bounds: list[tuple[str, str, float | None]] = []
    integer_mode = False
    ended = False

    def fail(lineno: int, why: str):
        raise MpsError(f"line {lineno}: {why}")

    def number(lineno: int, text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            fail(lineno, f"bad numeric value '{text}'")
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if ended:
            fail(lineno, "content after ENDATA")
        if raw[0] not in (" ", "\t"):
            tokens = raw.split()
            keyword = tokens[0]
            if keyword == "NAME":
                continue
            if keyword == "ENDATA":
                ended = True
                continue
            if keyword in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                section = keyword
                continue
            fail(lineno, f"unknown section '{keyword}'")
        tokens = raw.split()
        if section == "ROWS":
            if len(tokens) != 2:
                fail(lineno, "expected '<sense> <row>'")
            tag, row_name = tokens[0].upper(), tokens[1]
            if row_name in row_sense or row_name == obj_row:
                fail(lineno, f"duplicate row '{row_name}'")
            if tag == "N":
                if obj_row is not None:
                    fail(lineno, "multiple objective rows")
                obj_row = row_name
            elif tag in _TAG_TO_SENSE:
                row_sense[row_name] = tag
                model_rows.append((tag, row_name))
            else:
                fail(lineno, f"unknown row sense '{tokens[0]}'")
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                if tokens[2] == "'INTORG'":
                    integer_mode = True
                elif tokens[2] == "'INTEND'":
                    integer_mode = False
                else:
                    fail(lineno, f"unknown marker {tokens[2]}")
                continue
            if len(tokens) not in (3, 5):
                fail(lineno, "expected '<col> <row> <value>' pairs")
            col = tokens[0]
            if col not in col_terms:
                col_terms[col] = {}
                col_order.append(col)
                col_integer[col] = integer_mode
            for at in range(1, len(tokens), 2):
                row_name, value = tokens[at], tokens[at + 1]
                if row_name != obj_row and row_name not in row_sense:
                    fail(lineno, f"column references undeclared row '{row_name}'")
                if row_name in col_terms[col]:
                    fail(lineno, f"duplicate entry for column '{col}' row '{row_name}'")
                col_terms[col][row_name] = number(lineno, value)
        elif section == "RHS":
            if len(tokens) not in (3, 5):
                fail(lineno, "expected '<set> <row> <value>' pairs")
            for at in range(1, len(tokens), 2):
                row_name, value = tokens[at], tokens[at + 1]
                if row_name != obj_row and row_name not in row_sense:
                    fail(lineno, f"rhs references undeclared row '{row_name}'")
                if row_name in rhs:
                    fail(lineno, f"duplicate rhs for row '{row_name}'")
                rhs[row_name] = number(lineno, value)
        elif section == "RANGES":
            if len(tokens) not in (3, 5):
                fail(lineno, "expected '<set> <row> <value>' pairs")
            for at in range(1, len(tokens), 2):
                row_name, value = tokens[at], tokens[at + 1]
                if row_name not in row_sense:
                    fail(lineno, f"range references undeclared row '{row_name}'")
                if row_name in ranges:
                    fail(lineno, f"duplicate range for row '{row_name}'")
                ranges[row_name] = number(lineno, value)
        elif section == "BOUNDS":
            tag = tokens[0].upper()
            if tag in ("FR", "MI", "PL", "BV"):
                if len(tokens) != 3:
                    fail(lineno, f"bound {tag} takes no value")
                bounds.append((tag, tokens[2], None))
            elif tag in ("LO", "UP", "FX"):
                if len(tokens) != 4:
                    fail(lineno, f"bound {tag} needs a value")
                bounds.append((tag, tokens[2], number(lineno, tokens[3])))
            else:
                fail(lineno, f"unknown bound type '{tokens[0]}'")
        else:
            fail(lineno, "data line outside any section")

    lo: dict[str, float] = {}
    up: dict[str, float] = {}
    for col in col_order:
        if col_integer[col]:
            lo[col], up[col] = 0.0, 1.0
        else:
            lo[col], up[col] = 0.0, math.inf
    for tag, col, value in bounds:
        if col not in col_terms:
            raise MpsError(f"bound on undeclared column '{col}'")
        if tag == "LO":
            lo[col] = value
        elif tag == "UP":
            up[col] = value
        elif tag == "FX":
            lo[col] = up[col] = value
        elif tag == "FR":
            lo[col], up[col] = -math.inf, math.inf
        elif tag == "MI":
            lo[col] = -math.inf
        elif tag == "PL":
            up[col] = math.inf
        elif tag == "BV":
            col_integer[col] = True
            lo[col], up[col] = 0.0, 1.0

    model = Milp()
    table: dict[str, int] = {}
    for col in col_order:
        kind = BINARY if col_integer[col] else CONTINUOUS
        if kind == BINARY and not (0.0 <= lo[col] and up[col] <= 1.0):
            raise MpsError(
                f"integer column '{col}' has bounds [{lo[col]}, {up[col]}]; "
                "only binary-ranged integers are supported"
            )
        if lo[col] > up[col]:
            raise MpsError(f"column '{col}' has crossed bounds")
        table[col] = model.add_variable(kind, lo[col], up[col], col)

    row_terms: dict[str, list[tuple[int, float]]] = {rn: [] for rn in row_sense}
    obj_terms: list[tuple[int, float]] = []
    for col in col_order:
        for row_name, coef in col_terms[col].items():
            if row_name == obj_row:
                obj_terms.append((table[col], coef))
            else:
                row_terms[row_name].append((table[col], coef))

    for tag, row_name in model_rows:
        sense = _TAG_TO_SENSE[tag]
        base = rhs.get(row_name, 0.0)
        terms = row_terms[row_name]
        if row_name not in ranges:
            model.add_constraint(terms, sense, base)
            continue
        r = ranges[row_name]
        if sense == LE:
            model.add_constraint(terms, LE, base)
            model.add_constraint(terms, GE, base - abs(r))
        elif sense == GE:
            model.add_constraint(terms, GE, base)
            model.add_constraint(terms, LE, base + abs(r))
        else:
            lo_r, up_r = (base, base + r) if r >= 0 else (base + r, base)
            model.add_constraint(terms, GE, lo_r)
            model.add_constraint(terms, LE, up_r)

    for col_idx, coef in obj_terms:
        if coef != 0.0:
            model.set_objective_coefficient(col_idx, coef)
    if obj_row is not None and obj_row in rhs:
        model.objective_offset = -rhs[obj_row]
    return model, table


def read_solution(text: str, name_table: dict[str, int], n_columns: int) -> list[float]:
    """Parse ``name value`` lines into a dense assignment.

    Lines starting with ``#`` and blank lines are skipped.  A name absent
    from ``name_table`` or a value that is not a finite number is an error;
    columns never mentioned default to 0.
    """
    assignment = [0.0] * n_columns
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MpsError(f"solution line {lineno}: expected 'name value'")
        name, value = tokens
        if name not in name_table:
            raise MpsError(f"solution line {lineno}: unknown variable '{name}'")
        if name in seen:
            raise MpsError(f"solution line {lineno}: duplicate variable '{name}'")
        seen.add(name)
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            raise MpsError(f"solution line {lineno}: bad value '{value}'")
        assignment[name_table[name]] = number
    return assignment
