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
``-0.0`` are one dict key but two spellings).  The column names are checked
in bulk, by a few scans of two joined strings and one set;
``column_name_table`` runs only to word the error.

The parser is deliberately stricter than the zoo of MPS dialects: names are
whitespace-delimited tokens, duplicate entries are errors rather than
silently summed, every number must be finite (infinite bounds are spelled
MI, PL or FR), and integer columns must be binary-ranged (the model type
has no general integers).  RANGES sections are accepted and expanded into
constraint pairs.  A column name must not start with ``*``, since a line
whose first token does is a comment, nor with ``#``, which starts a
comment in a solution file.

The parser reads the text a section at a time.  One regex scan finds the
lines that start with neither a blank nor ``*``: the section headers.  A
section's lines, in pieces of about a million characters, are split into
tokens at once, with an added token closing each line, so every token's
line is known; blank lines and comment lines drop out by their first
token.  Every check then runs over the whole piece and finds its first
failing token, and the reader raises the earliest of these in reading
order, with the message and line number a line-by-line reader would give.
Row names map to row ids through one dict, each distinct number spelling
is read once, and a column gets its index, and its binary flag from the
INTORG/INTEND marker runs, where its name first appears.  COLUMNS, RHS and
RANGES share one reader of ``<name> <row> <value> [<row> <value>]`` pairs
that files each value as a (row, key, value) triple, with its line, the
key being the column index or a tag for RHS and RANGES.  Of the BOUNDS
lines that set one side of a column's bounds, the last wins.  At the end
one ``np.lexsort`` by (row, key) assembles the rows, each with its terms
sorted by column, and finds repeated entries as equal neighbours; a repeat
is reported at its own line, and before any error on a later line.

Solutions from external solvers come back as plain ``name value`` lines,
read the same way; names that do not belong to the model are rejected so a
stale file cannot be decoded silently against the wrong model.  For the
same reason a ``#`` line whose first token is a column name is an error,
not a comment.
"""

from __future__ import annotations

import math
import re
from array import array
from itertools import chain, islice, repeat

import numpy as np

from .milp import Milp

_TAGS = "LGE"           # the ROWS tag of each sense code, in SENSES order
_LE, _GE = 0, 1         # sense codes

_OBJ_ROW = "COST"
_RHS_SET = "RHS1"
_BOUND_SET = "BND"
_MARKER_ON = "    MARKER                 'MARKER'                 'INTORG'"
_MARKER_OFF = "    MARKER                 'MARKER'                 'INTEND'"


class MpsError(ValueError):
    """Malformed MPS text or names unusable in MPS."""


# ASCII 33..126 (no space, no control), not starting with '*' or '#': an MPS
# line whose first token starts with '*' is a comment, and so is a solution
# line whose first token starts with '#'
_NAME = re.compile(r"(?![*#])[!-~]+")


def column_name_table(model: Milp) -> dict[str, int]:
    """Map variable names to columns, insisting the names are usable.

    Raises when a name is empty, contains whitespace or non-ASCII, starts
    with ``*`` or ``#`` (MPS and solution files read such a line as a
    comment), or collides with another column; generated names are
    injective, so a collision signals an indexing bug upstream.
    """
    table: dict[str, int] = {}
    for column, name in enumerate(model.names):
        if _NAME.fullmatch(name) is None:
            raise MpsError(f"column {column} has name {name!r}, unusable in MPS")
        if name in table:
            raise MpsError(f"duplicate column name {name!r}")
        table[name] = column
    return table


def _usable(names: list[str]) -> bool:
    """Whether ``column_name_table`` accepts ``names``, checked in bulk."""
    unique = set(names)
    flat, heads = "".join(names), "\n" + "\n".join(names)
    return (flat.isascii() and flat.isprintable() and " " not in flat
            and "\n*" not in heads and "\n#" not in heads
            and "" not in unique and len(unique) == len(names))


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
    if not _usable(model.names):
        column_name_table(model)    # raises at the first name MPS cannot carry
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


# -- reading ----------------------------------------------------------------

# the line breaks of str.splitlines other than "\n", in ASCII text
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"
# the start of each line that begins with neither a blank nor '*': a section
# header, or a line the parser refuses
_HEAD = re.compile(r"\n[^ \t\n*]")
_PIECE = 1 << 20        # characters of a section read at once, cut at a line end
_SECTIONS = ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")

# pair keys of RHS and RANGES values, and the objective row's id; column
# indices and constraint row ids are >= 0
_RHS, _RANGES, _OBJECTIVE = -1, -2, -1
_UNDECLARED = -2        # the id of an undeclared row or sense tag
# ROWS tag -> sense code, or _OBJECTIVE for the objective row
_ROW_TAGS = {"N": _OBJECTIVE, **{tag: code for code, tag in enumerate(_TAGS)}}

# BOUNDS type -> what it sets the column's (lower, upper) to: the line's
# value (_VALUE), a constant, or nothing (None); the types taking a value
# come first
_VALUE = math.nan
_BOUND_TYPES = {
    "LO": (_VALUE, None),
    "UP": (None, _VALUE),
    "FX": (_VALUE, _VALUE),
    "FR": (-math.inf, math.inf),
    "MI": (-math.inf, None),
    "PL": (None, math.inf),
    "BV": (0.0, 1.0),
}
_VALUED = 3
_BOUND_CODES = {tag: code for code, tag in enumerate(_BOUND_TYPES)}
_BOUND_SETS = np.array([[to is not None for to in sides] for sides in _BOUND_TYPES.values()])
_BOUND_TO = np.array([[_VALUE if to is None else to for to in sides]
                      for sides in _BOUND_TYPES.values()])


def _one_break(text: str) -> str:
    """``text`` with ``\\n`` as its only line break, its lines as
    ``str.splitlines`` counts them."""
    if text.isascii() and not any(c in text for c in _OTHER_BREAKS):
        return text
    return "\n".join(text.splitlines())


def _end_token(text: str) -> str:
    """A character absent from ``text`` that ``str.split`` does not split on:
    a token that can only be an added line end.  Not NUL, which numpy's
    string comparison drops."""
    return next(c for c in map(chr, chain(range(1, 9), range(14, 28), range(0xE000, 0xF900)))
                if c not in text)


def _chunks(text: str, start: int, stop: int):
    """``text[start:stop]`` in pieces of whole lines, each about ``_PIECE``
    characters long."""
    while start < stop:
        cut = text.find("\n", start + _PIECE, stop) + 1 or stop
        yield text[start:cut]
        start = cut


def _lines(piece: str, end: str, comment: str):
    """Tokenise ``piece`` with one split, an ``end`` token closing each line.

    Returns the tokens as an object array, the index of each ``end`` token,
    and of each data line its first token's index and its token count, and
    of each comment line its first token's index.  Blank lines are dropped;
    a comment line's first token starts with ``comment``.
    """
    words = piece.replace("\n", f" {end} ").split()
    words.append(end)
    tokens = np.array(words, object)
    del words
    ends = np.flatnonzero(tokens == end)
    starts = np.concatenate(([0], ends[:-1] + 1))
    count = ends - starts
    lines = np.flatnonzero(count)
    first, count = starts[lines], count[lines]
    noted = np.zeros(len(first), bool)
    if comment in piece:
        heads = tokens[first].tolist()
        noted = np.fromiter(map(str.startswith, heads, repeat(comment)), bool, len(heads))
    return tokens, ends, first[~noted], count[~noted], first[noted]


def _first_repeat(names: list, before) -> int | None:
    """Index of the first of ``names`` that is in ``before`` or earlier in
    ``names``, if any."""
    if len(set(names)) == len(names) and before.isdisjoint(names):
        return None
    seen = set()
    for i, name in enumerate(names):
        if name in before or name in seen:
            return i
        seen.add(name)


def _first_failure(failures: list, ends, lineno: int) -> tuple[int, str]:
    """The line number and message of the first of ``failures``, (token
    index, rank on its line, message) triples of a piece whose first line is
    ``lineno`` and whose line ends are ``ends``."""
    at, _rank, why = min(failures)
    return lineno + int(np.searchsorted(ends, at)), why


class _Numbers(dict):
    """Spelling -> its value, nan unless it spells a finite number; each
    distinct spelling is read once."""

    def __missing__(self, text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        self[text] = value = value if math.isfinite(value) else math.nan
        return value


class _Reader:
    """The model ``parse_mps`` has read so far.

    Each method reads one piece of a section's lines and returns its line
    count.  It runs every check on the piece in bulk, each finding its first
    failing token, raises the earliest failure in reading order, and only
    then adds the piece to the model.
    """

    def __init__(self, end: str):
        self.end = end                      # the added line-end token
        self.row_ids: dict[str, int] = {}   # row -> constraint index, or _OBJECTIVE
        self.senses = bytearray()           # per constraint row, its sense code
        self.columns: dict[str, int] = {}   # column name -> index
        # per column, the model's own arrays: binary flag, lower and upper bound
        self.binary, self.lower, self.upper = bytearray(), array("d"), array("d")
        self.integer = False                # between INTORG and INTEND markers
        self.number = _Numbers().__getitem__
        # per piece, its pair values as (row id, key, value, line) arrays
        self.filed = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0),
                       np.empty(0, np.int64))]

    def entries(self):
        """The filed values as (rows, keys, values, order by (row, key)).

        Raises at the line of the first value, in reading order, that
        repeats an earlier one's row and key.
        """
        rows, keys, values, lines = map(np.concatenate, zip(*self.filed))
        order = np.lexsort((keys, rows))
        same = (np.diff(rows[order]) == 0) & (np.diff(keys[order]) == 0)
        if same.any():
            first = int(order[1:][same].min())
            row = next(name for name, i in self.row_ids.items() if i == rows[first])
            section = {_RHS: "RHS", _RANGES: "RANGES"}.get(int(keys[first]), "COLUMNS")
            raise MpsError(f"line {lines[first]}: duplicate entry for row '{row}' in {section}")
        return rows, keys, values, order

    def fail(self, lineno: int, why: str):
        """Raise ``why`` at ``lineno``, or at a repeated entry filed before."""
        self.entries()
        raise MpsError(f"line {lineno}: {why}")

    def check(self, failures: list, ends, lineno: int) -> None:
        """Fail at the first of a piece's ``failures``, if any (see
        ``_first_failure``)."""
        if failures:
            self.fail(*_first_failure(failures, ends, lineno))

    def rows(self, piece: str, lineno: int, section: str) -> int:
        """ROWS lines: ``<sense> <row>``."""
        tokens, ends, first, count, _ = _lines(piece, self.end, "*")
        failures = [(first[p], 0, "expected '<sense> <row>'")
                    for p in np.flatnonzero(count != 2)[:1]]
        first = first[count == 2]
        tags, names = tokens[first].tolist(), tokens[first + 1].tolist()
        codes = np.fromiter(map(_ROW_TAGS.get, map(str.upper, tags), repeat(_UNDECLARED)),
                            np.int64, len(tags))
        p = _first_repeat(names, self.row_ids.keys())
        if p is not None:
            failures.append((first[p], 1, f"duplicate row '{names[p]}'"))
        extra = np.flatnonzero(codes == _OBJECTIVE)[0 if _OBJECTIVE in self.row_ids.values()
                                                     else 1:]
        failures += [(first[p], 2, "multiple objective rows") for p in extra[:1]]
        failures += [(first[p], 3, f"unknown row sense '{tags[p]}'")
                     for p in np.flatnonzero(codes == _UNDECLARED)[:1]]
        self.check(failures, ends, lineno)
        constraint = codes >= 0
        ids = np.where(constraint, len(self.senses) - 1 + np.cumsum(constraint), _OBJECTIVE)
        self.row_ids.update(zip(names, ids.tolist()))
        self.senses += codes[constraint].astype(np.uint8).tobytes()
        return len(ends) - 1

    def pairs(self, piece: str, lineno: int, section: str) -> int:
        """COLUMNS, RHS and RANGES lines: ``<name> <row> <value>
        [<row> <value>]``, and in COLUMNS the integer markers."""
        tokens, ends, first, count, _ = _lines(piece, self.end, "*")
        failures = []
        marker = np.zeros(len(first), bool)
        if section == "COLUMNS":
            marker = (count >= 3) & (tokens[first + 1] == "'MARKER'")
            kinds = tokens[first[marker] + 2]
            opens = kinds == "'INTORG'"
            failures += [(first[marker][p], 0, f"unknown marker {kinds[p]}")
                         for p in np.flatnonzero(~opens & (kinds != "'INTEND'"))[:1]]
        paired = ~marker & ((count == 3) | (count == 5))
        failures += [(first[p], 0, "expected '<name> <row> <value>' pairs")
                     for p in np.flatnonzero(~marker & ~paired)[:1]]
        # the index of each pair's row token, in reading order
        per = count[paired] // 2
        at = np.repeat(first[paired] + 1, per)
        at[np.cumsum(per)[per == 2] - 1] += 2
        names = tokens[at].tolist()
        rows = np.fromiter(map(self.row_ids.get, names, repeat(_UNDECLARED)), np.int64, len(names))
        refused = rows < 0 if section == "RANGES" else rows == _UNDECLARED
        failures += [(at[p], 0, f"undeclared row '{names[p]}' in {section}")
                     for p in np.flatnonzero(refused)[:1]]
        spellings = tokens[at + 1].tolist()
        values = np.fromiter(map(self.number, spellings), float, len(spellings))
        failures += [(at[p] + 1, 0, f"bad numeric value '{spellings[p]}'")
                     for p in np.flatnonzero(np.isnan(values))[:1]]
        if section == "COLUMNS":
            keys = np.repeat(self.declare(tokens[first[paired]].tolist(),
                                          marker, opens, paired), per)
        else:
            keys = np.full(len(at), _RHS if section == "RHS" else _RANGES)
        # a value is filed once its row is read: a repeat is reported first
        filed = np.searchsorted(at, min(failures)[0]) if failures else len(at)
        self.filed.append((rows[:filed], keys[:filed], values[:filed],
                           lineno + np.searchsorted(ends, at[:filed])))
        self.check(failures, ends, lineno)
        return len(ends) - 1

    def declare(self, names: list, marker, opens, paired):
        """The column of each of ``names``, one per pair line; a column read
        for the first time is binary if it sits between INTORG and INTEND."""
        known = len(self.binary)
        fresh = dict.fromkeys(names)
        for name in fresh.keys() & self.columns.keys():
            del fresh[name]
        self.columns.update(zip(fresh, range(known, known + len(fresh))))
        cols = np.fromiter(map(self.columns.__getitem__, names), np.int64, len(names))
        # new columns take their indices in order: a first line raises the maximum
        first = cols > np.maximum.accumulate(np.concatenate(([known - 1], cols)))[:-1]
        # the marker state at each pair line: the last marker before it
        state = np.concatenate(([self.integer], opens))
        binary = state[np.searchsorted(np.flatnonzero(marker), np.flatnonzero(paired))][first]
        self.binary += binary.astype(np.uint8).tobytes()
        self.lower.frombytes(np.zeros(binary.size).tobytes())
        self.upper.frombytes(np.where(binary, 1.0, math.inf).tobytes())
        self.integer = bool(state[-1])
        return cols

    def bounds(self, piece: str, lineno: int, section: str) -> int:
        """BOUNDS lines: ``<type> <set> <column> [<value>]``."""
        tokens, ends, first, count, _ = _lines(piece, self.end, "*")
        spelled = tokens[first].tolist()
        tags = list(map(str.upper, spelled))
        codes = np.fromiter(map(_BOUND_CODES.get, tags, repeat(-1)), np.int64, len(tags))
        failures = [(first[p], 0, f"unknown bound type '{spelled[p]}'")
                    for p in np.flatnonzero(codes < 0)[:1]]
        valued = (codes >= 0) & (codes < _VALUED)
        shaped = (codes >= 0) & (count == 3 + valued)
        failures += [(first[p], 1, f"bound {tags[p]} needs a value" if valued[p]
                      else f"bound {tags[p]} takes no value")
                     for p in np.flatnonzero((codes >= 0) & ~shaped)[:1]]
        first, codes, valued = first[shaped], codes[shaped], valued[shaped]
        values = np.zeros(len(first))
        spellings = tokens[first[valued] + 3].tolist()
        values[valued] = np.fromiter(map(self.number, spellings), float, len(spellings))
        failures += [(first[p], 2, f"bad numeric value '{tokens[first[p] + 3]}'")
                     for p in np.flatnonzero(np.isnan(values))[:1]]
        names = tokens[first + 2].tolist()
        cols = np.fromiter(map(self.columns.get, names, repeat(-1)), np.int64, len(names))
        failures += [(first[p], 3, f"bound on undeclared column '{names[p]}'")
                     for p in np.flatnonzero(cols < 0)[:1]]
        self.check(failures, ends, lineno)
        # each line sets one side or both; the last line setting it wins
        for side, bound in enumerate((self.lower, self.upper)):
            sets = _BOUND_SETS[codes, side]
            to = np.where(np.isnan(_BOUND_TO[codes, side]), values, _BOUND_TO[codes, side])
            cols_set, last = np.unique(cols[sets][::-1], return_index=True)
            np.frombuffer(bound)[cols_set] = to[sets][::-1][last]
        np.frombuffer(self.binary, np.uint8)[cols[codes == _BOUND_CODES["BV"]]] = 1
        return len(ends) - 1

    def stray(self, piece: str, lineno: int, section: str | None) -> int:
        """Lines before the first section or after ENDATA: none may hold data."""
        _tokens, ends, first, _count, _ = _lines(piece, self.end, "*")
        why = "content after ENDATA" if section == "ENDATA" else "data line outside any section"
        self.check([(first[0], 0, why)] if first.size else [], ends, lineno)
        return len(ends) - 1


_READERS = {"ROWS": _Reader.rows, "COLUMNS": _Reader.pairs, "RHS": _Reader.pairs,
            "RANGES": _Reader.pairs, "BOUNDS": _Reader.bounds}


def parse_mps(text: str):
    """Parse MPS text into a model plus its column-name table.

    Returns ``(Milp, name_table)`` where the table maps column names to
    indices.  The model is equivalent to the source: same columns in order,
    same rows (RANGES rows expand into a ≤/≥ pair), same objective.
    """
    text = _one_break(text)
    reader = _Reader(_end_token(text))
    heads = [match.start() + 1 for match in _HEAD.finditer(text)]
    if text and text[0] not in " \t\n*":
        heads.insert(0, 0)
    section, at, lineno = None, 0, 1
    # the lines before each header belong to the section before it
    for head in heads + [len(text)]:
        read = _READERS.get(section, _Reader.stray)
        for piece in _chunks(text, at, head):
            lineno += read(reader, piece, lineno, section)
        at = text.find("\n", head) + 1 or len(text)
        tokens = text[head:at].split()
        if not tokens or tokens[0][0] == "*":
            pass
        elif section == "ENDATA":
            reader.fail(lineno, "content after ENDATA")
        elif tokens[0] in _SECTIONS:
            section = tokens[0]
        elif tokens[0] != "NAME":
            reader.fail(lineno, f"unknown section '{tokens[0]}'")
        lineno += 1

    rows, keys, values, order = reader.entries()
    names = list(reader.columns)
    binary = np.frombuffer(reader.binary, np.uint8) == 1
    lower, upper = np.frombuffer(reader.lower), np.frombuffer(reader.upper)
    unbinary = binary & ~((0.0 <= lower) & (upper <= 1.0))
    for j in np.flatnonzero(unbinary | (lower > upper))[:1]:
        if unbinary[j]:
            raise MpsError(f"integer column '{names[j]}' has bounds [{lower[j]}, {upper[j]}]; "
                           "only binary-ranged integers are supported")
        raise MpsError(f"column '{names[j]}' has crossed bounds")
    del binary, lower, upper        # views: the arrays cannot grow while they live
    model = Milp()
    model.names, model.is_binary = names, reader.binary
    model.lower, model.upper = reader.lower, reader.upper

    rows, keys, values = rows[order], keys[order], values[order]
    objective, terms, given = rows == _OBJECTIVE, keys >= 0, keys == _RHS
    coefs = objective & terms & (values != 0.0)
    model.objective = dict(zip(keys[coefs].tolist(), values[coefs].tolist()))
    for offset in values[objective & given].tolist():
        model.objective_offset = -offset
    senses = np.frombuffer(reader.senses, np.uint8)
    m = len(senses)
    base = np.zeros(m)
    base[rows[given & ~objective]] = values[given & ~objective]
    # a ranged row becomes two rows in its place; src is each row's source
    ranged, r = rows[keys == _RANGES], values[keys == _RANGES]
    copies = np.ones(m, np.int64)
    copies[ranged] = 2
    src = np.repeat(np.arange(m), copies)
    codes, rhs = senses[src], base[src]
    # an L row gets a G twin |r| below it, a G row an L twin |r| above it,
    # and an E row becomes the G and L rows of [base, base + r]
    twin, b = np.cumsum(copies)[ranged] - 2, base[ranged]
    le, ge = senses[ranged] == _LE, senses[ranged] == _GE
    codes[twin], codes[twin + 1] = np.where(le, _LE, _GE), np.where(le, _GE, _LE)
    rhs[twin] = np.where(le | ge | (r >= 0), b, b + r)
    rhs[twin + 1] = np.where(le, b - abs(r), np.where(ge, b + abs(r), np.where(r >= 0, b + r, b)))
    terms &= ~objective
    ends = np.cumsum(np.bincount(rows[terms], minlength=m))
    sizes = np.diff(ends, prepend=0)[src]
    row_end = np.cumsum(sizes)
    take = np.arange(sizes.sum()) + np.repeat(ends[src] - row_end, sizes)
    model.row_end = array("q", row_end.tobytes())
    model.row_col = array("q", keys[terms][take].tobytes())
    model.row_coef = array("d", values[terms][take].tobytes())
    model.row_sense, model.rhs = bytearray(codes.tobytes()), array("d", rhs.tobytes())
    return model, reader.columns


def read_solution(text: str, name_table: dict[str, int], n_columns: int) -> list[float]:
    """Parse ``name value`` lines into a dense assignment.

    Blank lines and lines whose first token starts with ``#`` are skipped,
    unless that token is a column name: such a line is an error, not a
    comment.  A name absent from ``name_table``, a repeated name or a value
    that is not a finite number is an error; columns never mentioned
    default to 0.
    """
    text = _one_break(text)
    end = _end_token(text)
    number = _Numbers().__getitem__
    assignment = np.zeros(n_columns)
    seen: set[str] = set()
    lineno = 1
    for piece in _chunks(text, 0, len(text)):
        tokens, ends, first, count, notes = _lines(piece, end, "#")
        heads = tokens[notes].tolist()
        failures = [(notes[p], 0, f"variable '{heads[p]}' starts a comment line")
                    for p in np.flatnonzero(np.fromiter(map(name_table.__contains__, heads),
                                                        bool, len(heads)))[:1]]
        failures += [(first[p], 0, "expected 'name value'") for p in np.flatnonzero(count != 2)[:1]]
        first = first[count == 2]
        names, spellings = tokens[first].tolist(), tokens[first + 1].tolist()
        cols = np.fromiter(map(name_table.get, names, repeat(-1)), np.int64, len(names))
        failures += [(first[p], 1, f"unknown variable '{names[p]}'")
                     for p in np.flatnonzero(cols < 0)[:1]]
        p = _first_repeat(names, seen)
        if p is not None:
            failures.append((first[p], 2, f"duplicate variable '{names[p]}'"))
        values = np.fromiter(map(number, spellings), float, len(spellings))
        failures += [(first[p], 3, f"bad value '{spellings[p]}'")
                     for p in np.flatnonzero(np.isnan(values))[:1]]
        if failures:
            raise MpsError("solution line %d: %s" % _first_failure(failures, ends, lineno))
        assignment[cols] = values
        seen.update(names)
        lineno += len(ends) - 1
    return assignment.tolist()
