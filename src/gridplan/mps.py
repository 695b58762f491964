"""MPS export/import and external-solution reading.

The writer emits deterministic, byte-reproducible fixed-format MPS: columns
appear in model order with one (row, value) pair per line, every variable
gets an explicit BOUNDS entry (no reliance on reader defaults), binaries sit
inside INTORG/INTEND markers, and values are printed with ``repr``.  The
text is a byte fixed point: writing a parsed model reproduces the original
text byte for byte.  Every value the text spells reads back with the same
bits, sign included, but some zeros are not spelled and lose their sign:
a zero right-hand side or objective offset is not written and reads back
``0.0``, a ``[-0.0, 1.0]`` binary is written ``BV`` and reads back
``[0.0, 1.0]``, and a ``[-0.0, 0.0]`` column (the builder's reference
angles) is written ``FX -0.0`` and reads back ``[-0.0, -0.0]``.  A model
read back equals the written one under ``==``.  Each line is formatted once: every row name is padded to
the field width once, every column name once per column, and a COLUMNS,
RHS or BOUNDS line is one concatenation of padded fields ending in the
value's ``repr``.  Each distinct value is formatted once per write, since
a model repeats few coefficients, bounds and right-hand sides many times;
zeros bypass that memo, as ``0.0`` and ``-0.0`` are one dict key but two
spellings.

The parser is deliberately stricter than the zoo of MPS dialects: names are
whitespace-delimited tokens, duplicate entries are errors rather than
silently summed, every number must be finite (infinite bounds are spelled
MI, PL or FR), and integer columns must be binary-ranged (the model type
has no general integers).  RANGES sections are accepted and expanded into
constraint pairs.  A column name must not start with ``*``, since a line
whose first token does is a comment.

The parser makes one pass over the lines.  A column gets its index, its
binary flag (from the marker state) and its default bounds on its first
COLUMNS line.  COLUMNS, RHS and RANGES lines share one reader of
``<name> <row> <value> [<row> <value>]`` pairs, which files each value
under its row.  A BOUNDS line updates its column's bounds when read.  After
the loop only the model is assembled: variables, then rows, then the
objective and its offset.  Pair lines are most of a file, so the loop
tests for them first: a COLUMNS line that continues the previous line's
column reuses its index without a table lookup, and each value is read
inline with one ``float`` and one ``isfinite``.  Blank and comment lines
are recognised from the split tokens.

Solutions from external solvers come back as plain ``name value`` lines;
names that do not belong to the model are rejected so a stale file cannot
be decoded silently against the wrong model.

The writer, the parser and the solution reader pause the cyclic garbage
collector (see ``milp.nogc``).
"""

from __future__ import annotations

import math
import re

from .milp import BINARY, CONTINUOUS, EQ, GE, LE, Milp, nogc

_SENSE_TO_TAG = {LE: "L", GE: "G", EQ: "E"}
_TAG_TO_SENSE = {"L": LE, "G": GE, "E": EQ}

_OBJ_ROW = "COST"
_RHS_SET = "RHS1"
_BOUND_SET = "BND"
_MARKER_ON = "    MARKER                 'MARKER'                 'INTORG'"
_MARKER_OFF = "    MARKER                 'MARKER'                 'INTEND'"


class MpsError(ValueError):
    """Malformed MPS text or names unusable in MPS."""


# ASCII 33..126 (no space, no control), not starting with '*': a line whose
# first token starts with '*' is a comment
_NAME = re.compile(r"(?!\*)[!-~]+")


def column_name_table(model: Milp) -> dict[str, int]:
    """Map variable names to columns, insisting the names are usable.

    Raises when a name is empty, contains whitespace or non-ASCII, starts
    with ``*`` (MPS reads such a line as a comment), or collides with another
    column; generated names are injective, so a collision signals an
    indexing bug upstream.
    """
    table: dict[str, int] = {}
    for v in model.variables:
        if _NAME.fullmatch(v.name) is None:
            raise MpsError(
                f"column {v.column} has name {v.name!r}, unusable in MPS"
            )
        if v.name in table:
            raise MpsError(f"duplicate column name {v.name!r}")
        table[v.name] = v.column
    return table


def _row_names(model: Milp) -> list[str]:
    return [f"R{i + 1:07d}" for i in range(model.n_constraints)]


class _Spellings(dict):
    """Value -> its ``repr``, each formatted on first use; zeros are not
    stored, as ``0.0`` and ``-0.0`` share a key but not a spelling."""

    def __missing__(self, value):
        text = repr(value)
        if value:
            self[value] = text
        return text


@nogc
def write_mps(model: Milp, name: str = "GRIDPLAN") -> str:
    """Render ``model`` as fixed-format MPS text.

    Output is a pure function of the model: identical models give identical
    bytes.
    """
    column_name_table(model)        # refuses names MPS cannot carry
    spell = _Spellings()
    rows = _row_names(model)
    width = max((len(s) for s in [v.name for v in model.variables] + rows
                 + [_OBJ_ROW, _RHS_SET, _BOUND_SET]), default=8)
    obj_field = f"{_OBJ_ROW:<{width}}  "

    out = [f"NAME          {name}", "ROWS", f" N  {_OBJ_ROW}"]
    out += [f" {_SENSE_TO_TAG[con.sense]}  {row}"
            for row, con in zip(rows, model.constraints)]

    # each column's (padded row name, coefficient) entries, in row order
    terms_by_col: list[list[tuple[str, float]]] = [[] for _ in model.variables]
    row_fields = [f"{row:<{width}}  " for row in rows]
    for row_field, con in zip(row_fields, model.constraints):
        for col, coef in zip(con.columns, con.coefficients):
            terms_by_col[col].append((row_field, coef))
    for col, coef in model.objective.items():
        terms_by_col[col].append((obj_field, coef))

    out.append("COLUMNS")
    integer_mode = False
    for v, entries in zip(model.variables, terms_by_col):
        if (v.kind == BINARY) != integer_mode:
            out.append(_MARKER_ON if v.kind == BINARY else _MARKER_OFF)
            integer_mode = v.kind == BINARY
        head = f"    {v.name:<{width}}  "
        # declare otherwise-unreferenced columns via a zero objective term
        out += [head + row_field + spell[coef]
                for row_field, coef in entries or [(obj_field, 0.0)]]
    if integer_mode:
        out.append(_MARKER_OFF)
    del terms_by_col            # freed before the text is joined: a lower peak

    out.append("RHS")
    head = f"    {_RHS_SET:<{width}}  "
    if model.objective_offset:
        out.append(head + obj_field + repr(-model.objective_offset))
    out += [head + row_field + spell[con.rhs]
            for row_field, con in zip(row_fields, model.constraints)
            if con.rhs != 0.0]

    out.append("BOUNDS")
    bound_set = f"{_BOUND_SET:<{width}}  "
    for v in model.variables:
        lo, up = v.lower, v.upper
        # a valued line pads the column name; a bare one ends with it
        valued = bound_set + f"{v.name:<{width}}  "
        bare = bound_set + v.name
        if v.kind == BINARY and lo == 0.0 and up == 1.0:
            out.append(" BV " + bare)
        elif lo == up:
            out.append(" FX " + valued + spell[lo])
        elif not math.isfinite(lo) and not math.isfinite(up):
            out.append(" FR " + bare)
        elif not math.isfinite(lo):
            out.append(" MI " + bare)
            out.append(" UP " + valued + spell[up])
        elif not math.isfinite(up):
            out.append(" LO " + valued + spell[lo])
            out.append(" PL " + bare)
        else:
            out.append(" LO " + valued + spell[lo])
            out.append(" UP " + valued + spell[up])

    out += ["ENDATA", ""]       # the empty last line ends the text with a newline
    return "\n".join(out)


def _finite(text: str) -> float | None:
    """``text`` as a float, or None unless it is a finite number."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


# BOUNDS tag -> its effect on a column's (lower, upper), given the line's value
_BOUND_TYPES = {
    "LO": lambda lo, up, v: (v, up),
    "UP": lambda lo, up, v: (lo, v),
    "FX": lambda lo, up, v: (v, v),
    "FR": lambda lo, up, v: (-math.inf, math.inf),
    "MI": lambda lo, up, v: (-math.inf, up),
    "PL": lambda lo, up, v: (lo, math.inf),
    "BV": lambda lo, up, v: (0.0, 1.0),
}
_VALUED_BOUNDS = ("LO", "UP", "FX")


@nogc
def parse_mps(text: str):
    """Parse MPS text into a model plus its column-name table.

    Returns ``(Milp, name_table)`` where the table maps column names to
    indices.  The model is equivalent to the source: same columns in order,
    same rows (RANGES rows expand into a ≤/≥ pair), same objective.
    """
    section = None
    senses: dict[str, str] = {}                     # constraint row -> sense
    obj_row: str | None = None
    # row -> {column index: coefficient, "RHS": rhs, "RANGES": range}; the
    # objective row is kept here too, with its RHS the negated offset
    rows: dict[str, dict] = {}
    table: dict[str, int] = {}                      # column name -> index
    binary: list[bool] = []                         # per column
    col_bounds: list[tuple[float, float]] = []      # per column (lower, upper)
    integer_mode = False
    pairs = False               # in COLUMNS, RHS or RANGES
    column = None               # name of the COLUMNS line before, if any
    key = None                  # where a pair line files its values
    isfinite = math.isfinite

    def fail(lineno: int, why: str):
        raise MpsError(f"line {lineno}: {why}")

    def number(lineno: int, word: str) -> float:
        value = _finite(word)
        if value is None:
            fail(lineno, f"bad numeric value '{word}'")
        return value

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "*":
            continue
        if pairs and raw[0] in " \t":
            # COLUMNS, RHS and RANGES lines: <name> <row> <value> [<row> <value>]
            n = len(tokens)
            if n >= 3 and tokens[1] == "'MARKER'" and section == "COLUMNS":
                if tokens[2] not in ("'INTORG'", "'INTEND'"):
                    fail(lineno, f"unknown marker {tokens[2]}")
                integer_mode = tokens[2] == "'INTORG'"
                continue
            if n != 3 and n != 5:
                fail(lineno, "expected '<name> <row> <value>' pairs")
            if section == "COLUMNS" and tokens[0] != column:
                column = tokens[0]
                key = table.setdefault(column, len(table))
                if key == len(binary):
                    binary.append(integer_mode)
                    col_bounds.append((0.0, 1.0 if integer_mode else math.inf))
            for i in range(1, n, 2):
                row = tokens[i]
                entries = rows.get(row)
                if entries is None or (row == obj_row and section == "RANGES"):
                    fail(lineno, f"undeclared row '{row}' in {section}")
                if key in entries:
                    fail(lineno, f"duplicate entry for row '{row}' in {section}")
                try:
                    value = float(tokens[i + 1])
                except ValueError:
                    value = math.nan
                if not isfinite(value):
                    fail(lineno, f"bad numeric value '{tokens[i + 1]}'")
                entries[key] = value
        elif section == "ENDATA":
            fail(lineno, "content after ENDATA")
        elif raw[0] not in " \t":
            keyword = tokens[0]
            if keyword in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
                section = keyword
                pairs = keyword in ("COLUMNS", "RHS", "RANGES")
                column, key = None, keyword
            elif keyword != "NAME":
                fail(lineno, f"unknown section '{keyword}'")
        elif section == "ROWS":
            if len(tokens) != 2:
                fail(lineno, "expected '<sense> <row>'")
            tag, row = tokens[0].upper(), tokens[1]
            if row in rows:
                fail(lineno, f"duplicate row '{row}'")
            if tag == "N":
                if obj_row is not None:
                    fail(lineno, "multiple objective rows")
                obj_row = row
            elif tag in _TAG_TO_SENSE:
                senses[row] = _TAG_TO_SENSE[tag]
            else:
                fail(lineno, f"unknown row sense '{tokens[0]}'")
            rows[row] = {}
        elif section == "BOUNDS":
            tag = tokens[0].upper()
            if tag not in _BOUND_TYPES:
                fail(lineno, f"unknown bound type '{tokens[0]}'")
            valued = tag in _VALUED_BOUNDS
            if len(tokens) != 3 + valued:
                fail(lineno, f"bound {tag} needs a value" if valued
                     else f"bound {tag} takes no value")
            value = number(lineno, tokens[3]) if valued else None
            col = table.get(tokens[2])
            if col is None:
                fail(lineno, f"bound on undeclared column '{tokens[2]}'")
            col_bounds[col] = _BOUND_TYPES[tag](*col_bounds[col], value)
            binary[col] = binary[col] or tag == "BV"
        else:
            fail(lineno, "data line outside any section")

    model = Milp()
    for col, integer, (lo, up) in zip(table, binary, col_bounds):
        if integer and not (0.0 <= lo and up <= 1.0):
            raise MpsError(f"integer column '{col}' has bounds [{lo}, {up}]; "
                           "only binary-ranged integers are supported")
        if lo > up:
            raise MpsError(f"column '{col}' has crossed bounds")
        model.add_variable(BINARY if integer else CONTINUOUS, lo, up, col)

    for row, sense in senses.items():
        entries = rows[row]
        base = entries.pop("RHS", 0.0)
        r = entries.pop("RANGES", None)
        terms = sorted(entries.items())
        if r is None:
            model.add_constraint(terms, sense, base)
        elif sense == LE:
            model.add_constraint(terms, LE, base)
            model.add_constraint(terms, GE, base - abs(r))
        elif sense == GE:
            model.add_constraint(terms, GE, base)
            model.add_constraint(terms, LE, base + abs(r))
        else:
            lo_r, up_r = (base, base + r) if r >= 0 else (base + r, base)
            model.add_constraint(terms, GE, lo_r)
            model.add_constraint(terms, LE, up_r)

    objective = rows.get(obj_row, {})
    if "RHS" in objective:
        model.objective_offset = -objective.pop("RHS")
    for col, coef in sorted(objective.items()):
        if coef != 0.0:
            model.set_objective_coefficient(col, coef)
    return model, table


@nogc
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
        number = _finite(value)
        if number is None:
            raise MpsError(f"solution line {lineno}: bad value '{value}'")
        assignment[name_table[name]] = number
    return assignment
