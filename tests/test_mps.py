"""MPS writer/parser: byte fixed point, strictness, solution import."""

import gc
import hashlib
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridplan.mps
from conftest import ALL_CASES
from gridplan.builder import Variant, build_milp
from gridplan.case import parse_case
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


_RANGES_TEXT = "\n".join([
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


def test_ranges_expand_to_row_pairs():
    model, _table = parse_mps(_RANGES_TEXT)
    got = [(c.sense, c.rhs) for c in model.constraints]
    assert got == [
        (LE, 4.0), (GE, 2.0),      # L row with range 2
        (GE, 1.0), (LE, 4.0),      # G row with range 3
        (GE, 0.5), (LE, 2.0),      # E row with negative range
    ]


_NONCONTIGUOUS_TEXT = "\n".join([
    "ROWS", " N  COST", " L  R1", " G  R2",
    "COLUMNS", "    X  R2  1.0", "    Y  R1  2.0", "    X  R1  3.0  COST  1.0",
    "RHS", "    RHS  R1  4.0",
    "BOUNDS", " UP BND  Y  5.0",
    "ENDATA",
])

# sha256 of repr((variables, constraints, objective, objective_offset, table))
# of each parsed model
PARSED_MODEL_SHA256 = {
    ("braess_build", "static"):
        "29a3f88235abf2a7b66c55f2e8c4d52d301735a2eb129012f68284bac8b90e2c",
    ("braess_build", "switch-existing"):
        "29a3f88235abf2a7b66c55f2e8c4d52d301735a2eb129012f68284bac8b90e2c",
    ("braess_build", "switch-all"):
        "48d414644ced3c8374b02866323fb697d16a5210001d002bd90bb3f977ac4c58",
    ("defer_build", "static"):
        "b485b966e732c58101c3e06052aed4aed5ef6a29aec97a21e600e84c41a85ad2",
    ("defer_build", "switch-existing"):
        "2374379833279aa15eddc4c85d5559ea3c763614abef1d8b147a22fc8b89981e",
    ("defer_build", "switch-all"):
        "5604f52dea435c863ba3622e1c92de01da42df97a7d31aa3509fa025e15f096b",
    ("diamond", "static"):
        "c35141ea08cc26958f076b11eb741c49361a2cd216d9d5afd1e23e6ce134cf80",
    ("diamond", "switch-existing"):
        "b4c4e7399629a2631cf84003e3891fe946c7eab783356b8cc6d4e7d11359e48b",
    ("diamond", "switch-all"):
        "469588db0003c587b09c9e919847bb9ddd11487ee48bb0db9c9d61fc6e1e4be8",
    ("eight_bus", "static"):
        "52eea77a6eae670fa0750d553bc0b0cdb2516a91e6f6660d03d56bccbdbaa655",
    ("eight_bus", "switch-existing"):
        "894eeba44131ff6f1c919ddff4c1437e138c6d6eecae3fa19d5ea37fd6759c41",
    ("eight_bus", "switch-all"):
        "da525a7147de2bffb627c31960dfcb025da5083a784d28c4f1ccbf656316337b",
    ("season_flip", "static"):
        "803f83890479488fbe594088e435e6fff486d834faca1fd18ca46c0dde39ed0f",
    ("season_flip", "switch-existing"):
        "ae483c82e9fbbe0efe9ec253671f8b3a61cc5af7b00bc3333e6ff98531118158",
    ("season_flip", "switch-all"):
        "36ac31ad9f96461c87171d2b10161d2bb44438f548f237bc66fbf3e11b5d3e8f",
    ("tri_switch", "static"):
        "1f82adb1168045171cb222e45471b404a063824af2977d86e0155aaeec17624f",
    ("tri_switch", "switch-existing"):
        "c76ef298aec702bcac247badf872fad55a3e3dfa73a49b7ebd050b46803fdde7",
    ("tri_switch", "switch-all"):
        "2f7a3e86791521d2e8f3bca68f1ef60ab35312539ef5107f8130df43388f17a1",
    ("two_bus", "static"):
        "98eb419b2b6587f2fffab05996d4ae58ce341d315a8cea260bd421e969d2fe2e",
    ("two_bus", "switch-existing"):
        "3b189fa549cae917fc96aaa3348d1455a629e8c4036538ea65b2cf59506c4a95",
    ("two_bus", "switch-all"):
        "d7b41f6e06a25f85617b24c049fcd07754aaa3b2acb599b2bb5beead1a8a3eb2",
    "feature":
        "98632f83974cf7d59cfd621c3b64984557a21cb6ab184f2ca890123432ee8f7d",
    "ranges":
        "b714fbc276540bbebf81fea9a3c51537abe0e4c9e3cdcfb9da6297348202db4e",
    "noncontiguous":
        "f69f0dfc599d74f174e92a2ddd1b60b39b68c57c7edc339c6c89845a183e04f0",
}


def test_parsed_models_are_pinned(bundled):
    texts = {(name, variant.value): write_mps(build_milp(bundled(name), variant)[0])
             for name in ALL_CASES for variant in Variant}
    texts["feature"] = write_mps(_feature_model())
    texts["ranges"] = _RANGES_TEXT
    texts["noncontiguous"] = _NONCONTIGUOUS_TEXT
    digests = {}
    for key, text in texts.items():
        m, table = parse_mps(text)
        parsed = (m.variables, m.constraints, m.objective, m.objective_offset, table)
        digests[key] = hashlib.sha256(repr(parsed).encode()).hexdigest()
    assert digests == PARSED_MODEL_SHA256


# each mutation of the feature model's text, and the error it must raise
_MALFORMED = [
    (lambda t: t.replace(" L  R0000001", " L  R0000001\n L  R0000001"),
     "duplicate row"),
    (lambda t: t.replace("ROWS", "ROWZ", 1), "unknown section"),
    (lambda t: t + "junk\n", "content after ENDATA"),
    (lambda t: t.replace("RHS\n", "RHS\n    RHS1      NOPE  1.0\n", 1),
     "undeclared row 'NOPE'"),
    (lambda t: t.replace(" N  COST\n", " N  COST\n N  COST2\n"),
     r"^line 4: multiple objective rows$"),
    (lambda t: t.replace(" G  R0000002", " Q  R0000002"),
     r"^line 5: unknown row sense 'Q'$"),
    (lambda t: t.replace(" G  R0000002", " G  R0000002  extra"),
     r"^line 5: expected '<sense> <row>'$"),
    (lambda t: t.replace("'INTEND'", "'INTWAT'"), r"^line 12: unknown marker 'INTWAT'$"),
    (lambda t: t.replace("x_free    R0000002", "x_free    R0000009"),
     r"^line 14: .*undeclared row 'R0000009'"),
    (lambda t: t.replace("x_unused  COST      0.0", "x_unused  COST      0.0  R0000001"),
     r"^line 20: expected '<\w+> <row> <value>' pairs$"),
    (lambda t: t.replace("RHS1      R0000002  -2.0", "RHS1      R0000002"),
     r"^line 24: expected '<\w+> <row> <value>' pairs$"),
    (lambda t: t.replace("BOUNDS\n", "RANGES\n    RNG  R0000001  1.0  R0000002\nBOUNDS\n"),
     r"^line 26: expected '<\w+> <row> <value>' pairs$"),
    (lambda t: t.replace("RHS1      R0000002  -2.0", "RHS1      R0000002  -2.0  R0000001  1.0"),
     r"^line 24: duplicate .*row 'R0000001'"),
    (lambda t: t.replace("BOUNDS\n", "RANGES\n    RNG  R0000001  1.0\n"
                                     "    RNG2  R0000001  2.0\nBOUNDS\n"),
     r"^line 27: duplicate .*row 'R0000001'"),
    (lambda t: t.replace("BOUNDS\n", "RANGES\n    RNG  COST  1.0\nBOUNDS\n"),
     r"^line 26: .*undeclared row 'COST'"),
    (lambda t: t.replace(" FR BND       x_free", " FR BND       x_free    1.0"),
     r"^line 29: bound FR takes no value$"),
    (lambda t: t.replace(" UP BND       x_upper   4.0", " UP BND       x_upper"),
     r"^line 31: bound UP needs a value$"),
    (lambda t: t.replace(" FR BND", " XX BND"), r"^line 29: unknown bound type 'XX'$"),
    (lambda t: t.replace("x_boxed   8.0", "x_boxed   0.125"),
     r"^column 'x_boxed' has crossed bounds$"),
    (lambda t: t.replace("ROWS\n", "    stray  line\nROWS\n", 1),
     r"^line 2: data line outside any section$"),
    (lambda t: t.replace(" UP BND       x_boxed ", " UP BND       nope    "),
     r"^line 35: bound on undeclared column 'nope'$"),
    # a repeated entry is reported at its line, before any later error
    (lambda t: t.replace("x_boxed   R0000003  1.0", "x_boxed   R0000001  1.0")
     .replace(" FR BND", " XX BND"),
     r"^line 18: duplicate entry for row 'R0000001' in COLUMNS$"),
    (lambda t: t.replace("x_boxed   R0000003  1.0", "x_boxed   R0000001  1.0  R0000003  zz"),
     r"^line 18: duplicate entry for row 'R0000001' in COLUMNS$"),
    (lambda t: t.replace("x_boxed   R0000003  1.0", "x_boxed   R0000003  zz  R0000001  1.0"),
     r"^line 18: bad numeric value 'zz'$"),
    (lambda t: t.replace("x_boxed   R0000003  1.0", "x_boxed   R0000001  zz"),
     r"^line 18: duplicate entry for row 'R0000001' in COLUMNS$"),
    # of two defects, the one on the earlier line is reported: in two
    # sections, then on two lines of one section
    (lambda t: t.replace(" G  R0000002", " Q  R0000002").replace(" FR BND", " XX BND"),
     r"^line 5: unknown row sense 'Q' *$"),
    (lambda t: t.replace("x_free    R0000002  1.0", "x_free    R0000002  zz")
     .replace("RHS1      R0000002", "RHS1      NOPE    "),
     r"^line 14: bad numeric value 'zz'$"),
    (lambda t: t.replace(" L  R0000001", " L  COST").replace(" E  R0000003", " Q  R0000003"),
     r"^line 4: duplicate row 'COST'$"),
    (lambda t: t.replace("x_upper   R0000002  1.0", "x_upper   R0000009  1.0")
     .replace("x_boxed   R0000003  1.0", "x_boxed   R0000003  zz"),
     r"^line 15: .*undeclared row 'R0000009'"),
    (lambda t: t.replace("x_free    R0000002  1.0", "x_free    R0000002  1.0  R0000003")
     .replace("x_lower   R0000003", "x_lower   R0000009"),
     r"^line 14: expected '<\w+> <row> <value>' pairs$"),
    (lambda t: t.replace("b_fixed   1.0", "b_fixed   zz").replace(" UP BND       x_boxed ",
                                                            " UP BND       nope    "),
     r"^line 27: bad numeric value 'zz'$"),
    # comment and blank lines before a defect count in its line number
    (lambda t: t.replace("COLUMNS\n", "COLUMNS\n* note\n\n   * indented note\n\t\n")
     .replace("x_free    R0000002", "x_free    R0000009"),
     r"^line 18: .*undeclared row 'R0000009'"),
    (lambda t: t.replace("ROWS\n", "* top\nROWS\n\n").replace(" FR BND", " XX BND"),
     r"^line 31: unknown bound type 'XX'$"),
    (lambda t: t.replace("RHS\n", "RHS\n  * note\n\n")
     .replace("RHS1      R0000002  -2.0", "RHS1      R0000001  -2.0"),
     r"^line 26: duplicate entry for row 'R0000001' in RHS$"),
    # line breaks as str.splitlines counts them: CRLF, and a lone CR
    (lambda t: t.replace("\n", "\r\n", 20).replace("BOUNDS\n", "BOUNDS\r")
     .replace(" FR BND", " XX BND"),
     r"^line 29: unknown bound type 'XX' *$"),
]


@pytest.mark.parametrize("mutate, message", _MALFORMED)
def test_parser_rejects_malformed_text(mutate, message):
    text = write_mps(_feature_model())
    with pytest.raises(MpsError, match=message):
        parse_mps(mutate(text))


@pytest.mark.parametrize("piece", [1, 40])
def test_pieces_of_any_size_read_alike(piece, monkeypatch, bundled):
    # the reader carries rows, columns, markers and filed entries from one
    # piece of a section to the next; tiny pieces put a cut on every line
    texts = [write_mps(build_milp(bundled(name), variant)[0])
             for name in ["eight_bus", "season_flip"] for variant in Variant]
    texts += [write_mps(_feature_model()), _RANGES_TEXT, _NONCONTIGUOUS_TEXT]
    expected = [parse_mps(text) for text in texts]
    monkeypatch.setattr(gridplan.mps, "_PIECE", piece)
    for text, (model, table) in zip(texts, expected):
        again, again_table = parse_mps(text)
        assert write_mps(again) == write_mps(model)
        assert (again.variables, again.constraints, again_table) == (
            model.variables, model.constraints, table)
    feature = write_mps(_feature_model())
    for mutate, message in _MALFORMED:
        with pytest.raises(MpsError, match=message):
            parse_mps(mutate(feature))
    with pytest.raises(MpsError, match=r"^solution line 4: duplicate variable 'a'$"):
        read_solution("a 1.0\n# note\nb 2.0\na 3.0", {"a": 0, "b": 1}, 2)


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
    ] + [
        # the second value of a 5-token line reports that line
        (lineno, line + bad, bad)
        for lineno, line in [(5, "    X  R1  1.0  COST  "), (7, "    RHS  R1  4.0  COST  ")]
        for bad in ["nan", "inf", "1e999", "abc"]
    ],
    ids=["rhs-word", "range-word", "bound-word", "coefficient-inf",
         "objective-nan", "rhs-inf", "bound-nan"]
    + [f"{where}-second-{bad}" for where in ["columns", "rhs"]
       for bad in ["nan", "inf", "1e999", "abc"]],
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


def test_parser_rejects_a_split_duplicate_column_entry():
    text = "\n".join([
        "ROWS", " N  COST", " L  R1",
        "COLUMNS", "    X  R1  1.0", "    Y  R1  2.0", "    X  COST  1.0  R1  3.0",
        "ENDATA",
    ])
    with pytest.raises(MpsError, match=r"^line 7: duplicate entry for row 'R1' in COLUMNS$"):
        parse_mps(text)


def test_parser_keeps_the_first_index_of_a_split_column():
    model, table = parse_mps("\n".join([
        "ROWS", " N  COST", " L  R1", " G  R2",
        "COLUMNS", "    A  R1  1.0", "    B  R1  2.0", "    A  R2  3.0  COST  4.0",
        "ENDATA",
    ]))
    assert table == {"A": 0, "B": 1}
    assert [(c.columns, c.coefficients) for c in model.constraints] == [
        ((0, 1), (1.0, 2.0)), ((0,), (3.0,)),
    ]
    assert model.objective == {0: 4.0}


def test_column_straddling_a_marker_keeps_its_first_kind():
    on = "    MARKER                 'MARKER'                 'INTORG'"
    off = "    MARKER                 'MARKER'                 'INTEND'"
    model, table = parse_mps("\n".join([
        "ROWS", " N  COST", " L  R1", " L  R2",
        "COLUMNS",
        "    X  R1  1.0", on, "    X  R2  1.0", "    B  R1  1.0",
        "    C  R1  1.0", off, "    C  R2  1.0",
        "ENDATA",
    ]))
    assert table == {"X": 0, "B": 1, "C": 2}
    assert [(v.kind, v.lower, v.upper) for v in model.variables] == [
        (CONTINUOUS, 0.0, math.inf), (BINARY, 0.0, 1.0), (BINARY, 0.0, 1.0),
    ]


def test_later_bounds_lines_win():
    # each BOUNDS line sets one side or both, in reading order
    model, table = parse_mps("\n".join([
        "ROWS", " N  COST", " L  R1",
        "COLUMNS", "    X  R1  1.0", "    Y  R1  1.0", "    Z  R1  1.0", "    W  R1  1.0",
        "BOUNDS",
        " UP BND  X  5.0", " FX BND  X  2.0", " UP BND  X  3.0",
        " FR BND  Y", " LO BND  Y  1.0",
        " LO BND  Z  1.0", " MI BND  Z", " UP BND  Z  -1.0",
        " PL BND  W", " BV BND  W", " UP BND  W  0.5", " LO BND  W  0.25",
        "ENDATA",
    ]))
    assert [(v.kind, v.lower, v.upper) for v in model.variables] == [
        (CONTINUOUS, 2.0, 3.0), (CONTINUOUS, 1.0, math.inf),
        (CONTINUOUS, -math.inf, -1.0), (BINARY, 0.25, 0.5),
    ]


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
    m3 = Milp()
    m3.add_variable(CONTINUOUS, 0.0, 1.0, "x*")
    m3.add_variable(CONTINUOUS, 0.0, 1.0, "*x")
    with pytest.raises(MpsError, match=r"^column 1 has name '\*x', unusable"):
        column_name_table(m3)
    m4 = Milp()
    m4.add_variable(CONTINUOUS, 0.0, 1.0, "x#")
    m4.add_variable(CONTINUOUS, 0.0, 1.0, "#x")
    with pytest.raises(MpsError, match=r"^column 1 has name '#x', unusable"):
        column_name_table(m4)


@pytest.mark.parametrize("names", [
    ["ok", "has space"], ["*x"], ["ok", "#x"], [""], ["ok", ""], ["tab\there"], ["new\nline"],
    ["caf\u00e9"], ["del\x7f"], ["same", "other", "same"],
])
def test_writer_refuses_what_the_name_table_refuses(names):
    m = Milp()
    for name in names:
        m.add_variable(CONTINUOUS, 0.0, 1.0, name)
    with pytest.raises(MpsError) as expected:
        column_name_table(m)
    with pytest.raises(MpsError, match=f"^{re.escape(str(expected.value))}$"):
        write_mps(m)


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
    # the defect on the earlier line is reported, and comment and blank
    # lines count in its line number
    with pytest.raises(MpsError, match=r"^solution line 2: unknown variable 'z'$"):
        read_solution("a 1.0\nz 2.0\na 3.0", table, 3)
    with pytest.raises(MpsError, match=r"^solution line 1: expected 'name value'$"):
        read_solution("a 1.0 x\nb wat", table, 3)
    with pytest.raises(MpsError, match=r"^solution line 1: bad value 'wat'$"):
        read_solution("a wat\na 1.0", table, 3)
    with pytest.raises(MpsError, match=r"^solution line 5: unknown variable 'z'$"):
        read_solution("# c\n\n  # d\n\t\nz 1.0", table, 3)


def test_read_solution_refuses_a_comment_that_names_a_column():
    # a '#' line is a comment, unless its first token is a column: parse_mps
    # reads such names, and skipping the line would decode the column as 0
    model, table = parse_mps("\n".join([
        "ROWS", " N  COST", " L  R1",
        "COLUMNS", "    #x  R1  1.0", "    y  R1  1.0",
        "ENDATA",
    ]))
    assert table == {"#x": 0, "y": 1}
    with pytest.raises(MpsError, match=r"^solution line 1: variable '#x' starts a comment line$"):
        read_solution("#x 3.0\ny 2.0", table, 2)
    assert read_solution("# x 3.0\ny 2.0", table, 2) == [0.0, 2.0]


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


def _sign(value: float) -> float:
    return math.copysign(1.0, value)


def test_signed_zeros_keep_their_spelling_and_sign():
    # each value is formatted once per write, but 0.0 and -0.0 are one
    # dict key: the two zeros alternate in each column's rows and in every
    # valued bound form, so a memo that stored either would misspell the other
    m = Milp()
    for lo, up, name in [(-0.0, 1.0, "lo_neg"), (0.0, 2.0, "lo_pos"),
                         (-1.0, -0.0, "up_neg"), (-2.0, 0.0, "up_pos"),
                         (-0.0, -0.0, "fx_neg"), (0.0, 0.0, "fx_pos")]:
        m.add_variable(CONTINUOUS, lo, up, name)
    m.add_constraint([(0, 0.0), (1, -0.0), (2, 1.0)], LE, 1.0)
    m.add_constraint([(0, -0.0), (1, 0.0), (3, 1.0)], GE, -1.0)
    text = write_mps(m)
    for line in ["    lo_neg    R0000001  0.0", "    lo_neg    R0000002  -0.0",
                 "    lo_pos    R0000001  -0.0", "    lo_pos    R0000002  0.0",
                 " LO BND       lo_neg    -0.0", " LO BND       lo_pos    0.0",
                 " UP BND       up_neg    -0.0", " UP BND       up_pos    0.0",
                 " FX BND       fx_neg    -0.0", " FX BND       fx_pos    0.0"]:
        assert line + "\n" in text, line
    again, _table = parse_mps(text)
    assert write_mps(again) == text
    for ours, theirs in zip(m.variables, again.variables):
        assert (_sign(theirs.lower), _sign(theirs.upper)) == (_sign(ours.lower),
                                                              _sign(ours.upper))
    for ours, theirs in zip(m.constraints, again.constraints):
        assert list(map(_sign, theirs.coefficients)) == list(map(_sign, ours.coefficients))


def _spelled_signs(model):
    """Sign of every value MPS text spells.  A zero right-hand side and a
    zero offset are left out, a [0, 1] binary is written BV, and a fixed
    column's one value is its lower bound, so those read back as +0.0 or as
    the lower bound whatever their own sign."""
    signs = []
    for v in model.variables:
        if not (v.kind == BINARY and v.lower == 0.0 and v.upper == 1.0):
            signs += map(_sign, (v.lower,) if v.lower == v.upper else (v.lower, v.upper))
    for con in model.constraints:
        signs += map(_sign, con.coefficients + ((con.rhs,) if con.rhs else ()))
    signs += map(_sign, model.objective.values())
    if model.objective_offset:
        signs.append(_sign(model.objective_offset))
    return signs


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NAMES = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1,
                 max_size=6).filter(lambda name: name[0] not in "*#")


@st.composite
def _milps(draw):
    """Small models with every bound form; row terms in column order."""
    m = Milp()
    for name in draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True)):
        if draw(st.booleans()):
            unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
            lo, up = sorted(draw(st.lists(unit, min_size=2, max_size=2)))
            m.add_variable(BINARY, lo, up, name)
            continue
        form = draw(st.sampled_from(["free", "upper", "lower", "fixed", "boxed"]))
        a, b = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2)))
        lo, up = {"free": (-math.inf, math.inf), "upper": (-math.inf, b),
                  "lower": (a, math.inf), "fixed": (a, a), "boxed": (a, b)}[form]
        m.add_variable(CONTINUOUS, lo, up, name)
    n = m.n_variables
    for _ in range(draw(st.integers(0, 4))):
        cols = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        m.add_constraint([(j, draw(_FINITE)) for j in cols],
                         draw(st.sampled_from([LE, GE, EQ])), draw(_FINITE))
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        m.set_objective_coefficient(j, draw(_FINITE))
    m.objective_offset = draw(_FINITE)
    return m


@given(_milps())
@settings(max_examples=150, deadline=None)
def test_write_parse_write_property(model):
    text = write_mps(model)
    again, table = parse_mps(text)
    assert write_mps(again) == text
    assert again.variables == model.variables
    assert again.constraints == model.constraints
    assert again.objective == model.objective
    assert again.objective_offset == model.objective_offset
    # == cannot tell -0.0 from 0.0
    assert _spelled_signs(again) == _spelled_signs(model)
    assert table == column_name_table(model)


def _equivalent_text(text: str, rnd) -> str:
    """``text`` written another way that means the same model: a repeated
    column, 5-token pair lines in COLUMNS and RHS, lower-case ROWS and BOUNDS
    tags, tabs and padding, and comment and blank lines."""
    lines, section, out = text.splitlines(), None, []
    # a column's later line moves after the next column's line, so that the
    # column reappears; no marker lies between, so no kind changes
    for i in range(len(lines) - 2):
        cols = [line.split()[0] for line in lines[i:i + 3]]
        if (all(line.startswith("    ") for line in lines[i:i + 3])
                and "'MARKER'" not in "".join(lines[i:i + 3])
                and cols[0] == cols[1] != cols[2] and rnd.random() < 0.5):
            lines[i + 1], lines[i + 2] = lines[i + 2], lines[i + 1]
    for line in lines:
        tokens = line.split()
        if not line.startswith(" "):
            section = tokens[0]
        elif section in ("ROWS", "BOUNDS") and rnd.random() < 0.5:
            tokens[0] = tokens[0].lower()
        elif (section in ("COLUMNS", "RHS") and len(out[-1][1]) == 3
              and "'MARKER'" not in tokens + out[-1][1] and out[-1][1][0] == tokens[0]
              and rnd.random() < 0.5):
            out[-1][1].extend(tokens[1:])
            continue
        out.append((line.startswith(" "), tokens))
    text = []
    for indented, tokens in out:
        for _ in range(rnd.choice([0, 0, 0, 1, 2])):
            text.append(rnd.choice(["", "  ", "\t", "* note", "*", "   * indented note",
                                    "\t*note * 1"]))
        gaps = [rnd.choice([" ", "  ", "\t", " \t "]) for _ in tokens]
        head = rnd.choice([" ", "    ", "\t", " \t"]) if indented else ""
        text.append(head + "".join(t + gap for t, gap in zip(tokens, gaps)).rstrip(" \t")
                    + rnd.choice(["", " ", "\t"]))
    return "\n".join(text) + rnd.choice(["", "\n", "\n\n"])


@given(_milps(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_equivalent_text_gives_the_same_model(model, rnd):
    text = write_mps(model)
    expected, expected_table = parse_mps(text)
    again, table = parse_mps(_equivalent_text(text, rnd))
    assert write_mps(again) == text
    assert again.variables == expected.variables
    assert again.constraints == expected.constraints
    assert again.objective == expected.objective
    assert again.objective_offset == expected.objective_offset
    assert table == expected_table


# the four bulk passes leave the cyclic collector as they found it, also
# when they raise

def _negative_cost_case():
    return parse_case(json.dumps({
        "buses": [{"id": "a", "reference": True}, {"id": "b"}],
        "generators": [{"id": "g", "bus": "a", "p_max": 10, "cost": -3}],
        "branches": [{"id": "k", "from": "a", "to": "b", "x": 0.002, "rate": 5}],
    }))


def _badly_named_model():
    m = Milp()
    m.add_variable(CONTINUOUS, 0.0, 1.0, "has space")
    return m


@pytest.fixture
def gc_state():
    """Sets the collector on or off for a test and restores it after."""
    enabled = gc.isenabled()

    def set_state(on):
        (gc.enable if on else gc.disable)()
    yield set_state
    set_state(enabled)


_BULK_CALLS = {
    "build_milp": lambda case: build_milp(case, Variant.SWITCH_ALL),
    "write_mps": lambda case: write_mps(build_milp(case, Variant.STATIC)[0]),
    "parse_mps": lambda case: parse_mps(write_mps(_feature_model())),
    "read_solution": lambda case: read_solution("a 1.5\nb -2.0\n", {"a": 0, "b": 1}, 2),
}
_BULK_FAILURES = {
    "build_milp": (lambda: build_milp(_negative_cost_case(), Variant.STATIC),
                   ValueError, "negative cost"),
    "write_mps": (lambda: write_mps(_badly_named_model()), MpsError, "unusable in MPS"),
    "parse_mps": (lambda: parse_mps("ROWS\n N  COST\nBOGUS\n"), MpsError,
                  "unknown section"),
    "read_solution": (lambda: read_solution("z 1.0", {"a": 0}, 1), MpsError,
                      "unknown variable"),
}


@pytest.mark.parametrize("on", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("name", list(_BULK_CALLS))
def test_bulk_passes_leave_the_collector_as_they_found_it(name, on, gc_state, bundled):
    case = bundled("eight_bus")
    gc_state(on)
    _BULK_CALLS[name](case)
    assert gc.isenabled() is on
    call, error, message = _BULK_FAILURES[name]
    with pytest.raises(error, match=message):
        call()
    assert gc.isenabled() is on


def test_model_round_trip_makes_no_reference_cycles(gc_state, bundled):
    # with the collector paused, reference counting alone must free all
    # that a build, write, parse and read cycle drops
    case = bundled("eight_bus")
    gc_state(False)
    gc.collect()
    for variant in Variant:
        model, _index = build_milp(case, variant)
        parsed, table = parse_mps(write_mps(model))
        solution = "\n".join(f"{v.name} 0.0" for v in parsed.variables)
        read_solution(solution, table, parsed.n_variables)
    del model, _index, parsed, table, solution
    assert gc.collect() == 0
