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
read back equals the written one under ``==`` once each row's terms are
sorted by column.

The writer reads the model's arrays.  One stable argsort of the terms by
column gives each column's entries in row order.  The text is one join of
line fragments: each row and column name is padded once, and each distinct
value is spelled once per write (zeros bypass that memo, as ``0.0`` and
``-0.0`` are one dict key but two spellings).

The parser is deliberately stricter than the zoo of MPS dialects: names are
whitespace-delimited tokens, duplicate entries are errors rather than
silently summed, every number must be finite (infinite bounds are spelled
MI, PL or FR), and integer columns must be binary-ranged (the model type
has no general integers).  RANGES sections are accepted and expanded into
constraint pairs.  A column name must not start with ``*``, since a line
whose first token does is a comment.

The parser makes one pass over the lines.  A column gets its index, binary
flag (from the marker state) and default bounds on its first COLUMNS line;
a BOUNDS line updates its bounds.  COLUMNS, RHS and RANGES lines share one
reader of ``<name> <row> <value> [<row> <value>]`` pairs that files each
value as a flat (row, key, value) triple, the key being the column index
or a tag for RHS and RANGES.  After the loop one ``np.lexsort`` by (row,
key) assembles the rows, each with its terms sorted by column, and finds
repeated entries as equal neighbours.  A repeat is reported at its own
line, found by recounting, and before any error on a later line.

Solutions from external solvers come back as plain ``name value`` lines;
names that do not belong to the model are rejected so a stale file cannot
be decoded silently against the wrong model.
"""

from __future__ import annotations

import math
import re
from array import array
from itertools import chain, islice, repeat

import numpy as np

from .milp import Milp

_TAGS = "LGE"           # the ROWS tag of each sense code, in SENSES order
_TAG_CODES = {tag: code for code, tag in enumerate(_TAGS)}
_LE, _GE = 0, 1         # sense codes

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
    for column, name in enumerate(model.names):
        if _NAME.fullmatch(name) is None:
            raise MpsError(f"column {column} has name {name!r}, unusable in MPS")
        if name in table:
            raise MpsError(f"duplicate column name {name!r}")
        table[name] = column
    return table


class _Spellings(dict):
    """Value -> its ``repr``, each formatted on first use; zeros are not
    stored, as ``0.0`` and ``-0.0`` share a key but not a spelling."""

    def __missing__(self, value):
        text = repr(value)
        if value:
            self[value] = text
        return text


def write_mps(model: Milp, name: str = "GRIDPLAN") -> str:
    """Render ``model`` as fixed-format MPS text.

    Output is a pure function of the model: identical models give identical
    bytes.
    """
    column_name_table(model)        # refuses names MPS cannot carry
    spell = _Spellings()
    names = model.names
    rows = [f"R{i + 1:07d}" for i in range(model.n_constraints)]
    # the last row name is the longest
    width = max(map(len, [*names, *rows[-1:], _OBJ_ROW, _RHS_SET, _BOUND_SET]))
    # padded name fields: each row's, then the objective row's at index m
    fields = [f"{row:<{width}}  " for row in [*rows, _OBJ_ROW]]
    padded = [f"{col_name:<{width}}  " for col_name in names]

    # the text is one join of fragments, each line's fields and its newline
    text = [f"NAME          {name}\nROWS\n N  {_OBJ_ROW}\n"]
    tags = [f" {tag}  " for tag in _TAGS]
    text += chain.from_iterable(zip(map(tags.__getitem__, model.row_sense), rows,
                                    repeat("\n")))

    # COLUMNS entries (column, field, value): the rows' terms, the
    # objective's, and a zero objective term declaring each column that has
    # neither; one stable sort by column keeps each column's in that order
    term_rows, term_cols, coefs = model.entries()
    obj_cols = np.fromiter(model.objective, np.int64, len(model.objective))
    unused = np.flatnonzero(np.bincount(np.concatenate([term_cols, obj_cols]),
                                        minlength=len(names)) == 0)
    cols = np.concatenate([term_cols, obj_cols, unused])
    by_col = np.argsort(cols, kind="stable")
    cols = cols[by_col]
    field_ids = np.concatenate([term_rows, np.full(obj_cols.size + unused.size, len(rows))])
    values = np.concatenate([coefs, np.fromiter(model.objective.values(), float, obj_cols.size),
                             np.zeros(unused.size)])
    heads = ["    " + pad for pad in padded]
    lines = zip(map(heads.__getitem__, cols.tolist()),
                map(fields.__getitem__, field_ids[by_col].tolist()),
                map(spell.__getitem__, values[by_col].tolist()), repeat("\n"))
    # a marker line goes before the first entry of each column whose kind
    # differs from the one before, and at the end after a binary run
    flips = np.flatnonzero(np.diff(np.frombuffer(model.is_binary, np.uint8),
                                   prepend=0, append=0))
    text.append("COLUMNS\n")
    done = 0
    for k, at in enumerate(np.searchsorted(cols, flips).tolist()):
        text += chain.from_iterable(islice(lines, at - done))
        text.append(_MARKER_OFF if k % 2 else _MARKER_ON)
        text.append("\n")
        done = at
    text += chain.from_iterable(lines)
    # freed before the text is joined: a lower peak
    del term_rows, term_cols, coefs, cols, by_col, field_ids, values, lines

    text.append("RHS\n")
    head = f"    {_RHS_SET:<{width}}  "
    if model.objective_offset:
        text += (head, fields[-1], repr(-model.objective_offset), "\n")
    text += chain.from_iterable((head, field, spell[rhs], "\n")
                                for field, rhs in zip(fields, model.rhs) if rhs != 0.0)

    # a valued line pads the column name; a bare one ends with it
    text.append("BOUNDS\n")
    bound_set = f"{_BOUND_SET:<{width}}  "
    bv, fx, fr, mi, up_, lo_, pl = (f" {tag} {bound_set}"
                                    for tag in ("BV", "FX", "FR", "MI", "UP", "LO", "PL"))
    for col_name, pad, binary, lo, up in zip(names, padded, model.is_binary,
                                             model.lower, model.upper):
        if binary and lo == 0.0 and up == 1.0:
            text += (bv, col_name, "\n")
        elif lo == up:
            text += (fx, pad, spell[lo], "\n")
        elif math.isfinite(lo) or math.isfinite(up):
            text += (lo_, pad, spell[lo], "\n") if math.isfinite(lo) else (mi, col_name, "\n")
            text += (up_, pad, spell[up], "\n") if math.isfinite(up) else (pl, col_name, "\n")
        else:
            text += (fr, col_name, "\n")

    text.append("ENDATA\n")
    return "".join(text)


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


# triple keys of RHS and RANGES values, and the objective row's id; column
# indices and constraint row ids are >= 0
_RHS, _RANGES, _OBJECTIVE = -1, -2, -1
# token count of a pair line -> the index of each pair's row
_PAIRS_AT = {3: (1,), 5: (1, 3)}


def _entry_order(text: str, row_ids: dict[str, int], rows: array, keys: array):
    """Stable order of the filed triples by (row, key).

    Raises at the line of the first triple, in reading order, that repeats
    an earlier one's row and key, as a check at each line would have.
    """
    rows, keys = np.frombuffer(rows, np.int64), np.frombuffer(keys, np.int64)
    order = np.lexsort((keys, rows))
    same = (np.diff(rows[order]) == 0) & (np.diff(keys[order]) == 0)
    if not same.any():
        return order
    first = int(order[1:][same].min())
    row = next(name for name, i in row_ids.items() if i == rows[first])
    filed, section = 0, None        # every line before the repeat is valid
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "*":
            continue
        if raw[0] not in " \t":
            section = section if tokens[0] == "NAME" else tokens[0]
        elif section in ("RHS", "RANGES") or (section == "COLUMNS" and tokens[1] != "'MARKER'"):
            filed += len(tokens) // 2
            if filed > first:
                raise MpsError(f"line {lineno}: duplicate entry for row '{row}' in {section}")


def _range_rows(code: int, base: float, r: float):
    """The two (sense code, rhs) rows of a row with RANGES value ``r``."""
    if code == _LE:
        return (_LE, base), (_GE, base - abs(r))
    if code == _GE:
        return (_GE, base), (_LE, base + abs(r))
    return ((_GE, base), (_LE, base + r)) if r >= 0 else ((_GE, base + r), (_LE, base))


def parse_mps(text: str):
    """Parse MPS text into a model plus its column-name table.

    Returns ``(Milp, name_table)`` where the table maps column names to
    indices.  The model is equivalent to the source: same columns in order,
    same rows (RANGES rows expand into a ≤/≥ pair), same objective.
    """
    section = None
    row_ids: dict[str, int] = {}    # row -> constraint index, or _OBJECTIVE
    senses = bytearray()            # per constraint row, its sense code
    table: dict[str, int] = {}      # column name -> index
    # per column, the model's own arrays: binary flag, lower and upper bound
    binary, lower, upper = bytearray(), array("d"), array("d")
    # every pair-line value, in reading order, as (row id, key, value)
    t_rows, t_keys, t_values = array("q"), array("q"), array("d")
    integer_mode = False
    pairs = False               # in COLUMNS, RHS or RANGES
    column = None               # name of the COLUMNS line before, if any
    key = None                  # the key a pair line files its values under
    isfinite = math.isfinite
    file_row, file_key, file_value = t_rows.append, t_keys.append, t_values.append

    def fail(lineno: int, why: str):
        _entry_order(text, row_ids, t_rows, t_keys)     # an earlier duplicate goes first
        raise MpsError(f"line {lineno}: {why}")

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
            at = _PAIRS_AT.get(n)
            if at is None:
                fail(lineno, "expected '<name> <row> <value>' pairs")
            if section == "COLUMNS" and tokens[0] != column:
                column = tokens[0]
                key = table.setdefault(column, len(table))
                if key == len(binary):
                    binary.append(integer_mode)
                    lower.append(0.0)
                    upper.append(1.0 if integer_mode else math.inf)
            for i in at:
                row = row_ids.get(tokens[i])
                if row is None or (row == _OBJECTIVE and key == _RANGES):
                    fail(lineno, f"undeclared row '{tokens[i]}' in {section}")
                # filed before the value is read: a repeat is reported first
                file_row(row)
                file_key(key)
                try:
                    value = float(tokens[i + 1])
                except ValueError:
                    value = math.nan
                if not isfinite(value):
                    fail(lineno, f"bad numeric value '{tokens[i + 1]}'")
                file_value(value)
        elif section == "ENDATA":
            fail(lineno, "content after ENDATA")
        elif raw[0] not in " \t":
            keyword = tokens[0]
            if keyword in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
                section = keyword
                pairs = keyword in ("COLUMNS", "RHS", "RANGES")
                column, key = None, {"RHS": _RHS, "RANGES": _RANGES}.get(keyword)
            elif keyword != "NAME":
                fail(lineno, f"unknown section '{keyword}'")
        elif section == "ROWS":
            if len(tokens) != 2:
                fail(lineno, "expected '<sense> <row>'")
            tag, row = tokens[0].upper(), tokens[1]
            if row in row_ids:
                fail(lineno, f"duplicate row '{row}'")
            if tag == "N":
                if _OBJECTIVE in row_ids.values():
                    fail(lineno, "multiple objective rows")
                row_ids[row] = _OBJECTIVE
            elif tag in _TAG_CODES:
                row_ids[row] = len(senses)
                senses.append(_TAG_CODES[tag])
            else:
                fail(lineno, f"unknown row sense '{tokens[0]}'")
        elif section == "BOUNDS":
            tag = tokens[0].upper()
            if tag not in _BOUND_TYPES:
                fail(lineno, f"unknown bound type '{tokens[0]}'")
            valued = tag in _VALUED_BOUNDS
            if len(tokens) != 3 + valued:
                fail(lineno, f"bound {tag} needs a value" if valued
                     else f"bound {tag} takes no value")
            value = _finite(tokens[3]) if valued else 0.0
            if value is None:
                fail(lineno, f"bad numeric value '{tokens[3]}'")
            col = table.get(tokens[2])
            if col is None:
                fail(lineno, f"bound on undeclared column '{tokens[2]}'")
            lower[col], upper[col] = _BOUND_TYPES[tag](lower[col], upper[col], value)
            binary[col] = binary[col] or tag == "BV"
        else:
            fail(lineno, "data line outside any section")

    order = _entry_order(text, row_ids, t_rows, t_keys)
    for col, integer, lo, up in zip(table, binary, lower, upper):
        if integer and not (0.0 <= lo and up <= 1.0):
            raise MpsError(f"integer column '{col}' has bounds [{lo}, {up}]; "
                           "only binary-ranged integers are supported")
        if lo > up:
            raise MpsError(f"column '{col}' has crossed bounds")
    model = Milp()
    model.names, model.is_binary, model.lower, model.upper = list(table), binary, lower, upper

    rows = np.frombuffer(t_rows, np.int64)[order]
    keys = np.frombuffer(t_keys, np.int64)[order]
    values = np.frombuffer(t_values)[order]
    objective, terms, given = rows == _OBJECTIVE, keys >= 0, keys == _RHS
    for col, coef in zip(keys[objective & terms].tolist(), values[objective & terms].tolist()):
        if coef != 0.0:
            model.objective[col] = coef
    for offset in values[objective & given].tolist():
        model.objective_offset = -offset
    m = len(senses)
    base = np.zeros(m)
    base[rows[given & ~objective]] = values[given & ~objective]
    # a ranged row becomes two rows in its place; src is each row's source
    ranged = dict(zip(rows[keys == _RANGES].tolist(), values[keys == _RANGES].tolist()))
    src = np.repeat(np.arange(m), [1 + (i in ranged) for i in range(m)])
    codes, rhs = np.frombuffer(senses, np.uint8)[src], base[src]
    for i, r in ranged.items():
        p = np.searchsorted(src, i)
        (codes[p], rhs[p]), (codes[p + 1], rhs[p + 1]) = _range_rows(senses[i], base[i], r)
    terms &= ~objective
    ends = np.cumsum(np.bincount(rows[terms], minlength=m))
    sizes = np.diff(ends, prepend=0)[src]
    row_end = np.cumsum(sizes)
    take = np.arange(sizes.sum()) + np.repeat(ends[src] - row_end, sizes)
    model.row_end = array("q", row_end.tobytes())
    model.row_col = array("q", keys[terms][take].tobytes())
    model.row_coef = array("d", values[terms][take].tobytes())
    model.row_sense, model.rhs = bytearray(codes.tobytes()), array("d", rhs.tobytes())
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
        number = _finite(value)
        if number is None:
            raise MpsError(f"solution line {lineno}: bad value '{value}'")
        assignment[name_table[name]] = number
    return assignment
