"""Case parsing, serialization round-trips, load growth, and validation."""

import hashlib
import json
import math
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan.case import (
    Branch,
    Bus,
    CandidateLine,
    Case,
    CaseError,
    Generator,
    Horizon,
    LoadProfile,
    grow_load,
    load_case,
    parse_case,
    render_case,
    validate_case,
)
from gridplan.builder import Variant, build_milp
from gridplan.cases import load_bundled

MINIMAL = """
{
  "buses": [{"id": "a", "reference": true}, {"id": "b"}],
  "generators": [{"id": "g", "bus": "a", "p_max": 10, "cost": 3}],
  "branches": [{"id": "k", "from": "a", "to": "b", "x": 0.002, "rate": 5}]
}
"""


def test_parse_minimal_applies_defaults():
    case = parse_case(MINIMAL)
    assert case.horizon == Horizon()
    assert case.angle_bound == 0.6
    assert case.branches[0].switchable is True
    assert case.generators[0].p_min == 0.0
    assert case.candidates == ()
    assert case.load_profile.get("b", 1, 1) == 0.0


def test_parse_reports_json_position():
    with pytest.raises(CaseError, match=r"line 1, column 2"):
        parse_case("{oops")


def test_parse_missing_field_named():
    with pytest.raises(CaseError, match="missing required field 'rate'"):
        parse_case(MINIMAL.replace('"rate": 5', '"rating": 5'))


@pytest.mark.parametrize("document, message", [
    ("[]", "case document must be a JSON object"),
    ('{"buses": [{"id": "a", "reference": true}]}',
     "missing required field 'generators' in case"),
])
def test_parse_refuses_a_document_of_the_wrong_shape(document, message):
    with pytest.raises(CaseError, match=f"^{re.escape(message)}$"):
        parse_case(document)


def test_parse_unknown_bus_reference():
    with pytest.raises(CaseError, match="unknown bus reference 'z'"):
        parse_case(MINIMAL.replace('"from": "a"', '"from": "z"'))


def test_parse_dense_load_shape_checked():
    doc = MINIMAL.rstrip().rstrip("}") + ', "load": {"b": [[1, 2]]}}'
    with pytest.raises(CaseError, match="4x24"):
        parse_case(doc)


def test_parse_dense_load_array_follows_bus_order():
    doc = json.loads(MINIMAL)
    doc.update(horizon={"seasons": 1, "hours": 2}, load=[[[0, 0]], [[1.5, 2]]])
    case = parse_case(json.dumps(doc))
    assert case.load_profile.base_load == {("b", 1, 1): 1.5, ("b", 2, 1): 2.0}


@pytest.mark.parametrize(
    "key, value", [("hours", 2.7), ("epochs", True), ("seasons", 4.0), ("years_per_epoch", "5")]
)
def test_parse_rejects_non_integer_horizon_counts(key, value):
    doc = json.loads(MINIMAL)
    doc["horizon"] = {key: value}
    with pytest.raises(CaseError, match=f"horizon '{key}' must be an integer"):
        parse_case(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("branches", 0, "switchable"), "false", "branch k 'switchable'"),
        (("buses", 0, "reference"), "false", "bus a 'reference'"),
        (("horizon", "load_growth"), True, "horizon 'load_growth'"),
        (("generators", 0, "p_max"), "10", "generator g 'p_max'"),
        (("angle_bound",), "0.6", "case 'angle_bound'"),
        (("buses", 1, "id"), 1.5, "bus 'id'"),
        (("candidates", 0, "parallel_to"), 3.0, "candidate c 'parallel_to'"),
    ],
)
def test_parse_rejects_wrong_json_types(path, value, where):
    doc = json.loads(MINIMAL)
    doc["candidates"] = [{"id": "c", "from": "a", "to": "b", "x": 0.1, "rate": 2, "cost": 5}]
    doc["horizon"] = {}
    *parents, key = path
    record = doc
    for step in parents:
        record = record[step]
    record[key] = value
    with pytest.raises(CaseError, match=re.escape(f"{where} must be ") + ".*, got "
                       + re.escape(repr(value))):
        parse_case(json.dumps(doc))


# sha256 of repr(parse_case(document)): any change to a parsed value, a type
# or a default of the case format changes it
PARSED_CASE_SHA256 = {
    "braess_build": "c40be172d366d0014cc7aa1685d269859c0d20cc641b0e0677c78e0b753cb2d6",
    "defer_build": "c9bb5a8e4d6ac3aefff7ec5d834849cf5d1e7eba1a2383f34e201a83d7088cc8",
    "diamond": "fa3f19c36ff0595a069e94e574fd429c43be2f7e97f2e578fe64405dd150aabf",
    "eight_bus": "8af555ac121f537cd5ff260258b32f6872aefaa90ddea5826fa5d6c6973c6641",
    "season_flip": "2448e03b743f855a8ca24d83a5ddde2d54355e41b7d039db6949473a47513e26",
    "tri_switch": "7a1687140de0b12596e6c060e3fcc1d0881be7a65c6e8e08228dbc2f38b1907e",
    "two_bus": "9152d33704e4a104f8bef6ac2721d44e4566b38d6399e38626fbc68d690f94cb",
    "probe_10x2x2x2x3_s1": "35cceadbee93d622d79b38a55336f27fcffd91c1f76555014bc3a5c926a6b06d",
}


def test_parsed_cases_are_pinned(bundled):
    from conftest import ALL_CASES

    probe = Path(__file__).parent / "data" / "probe_10x2x2x2x3_s1.json"
    cases = {name: bundled(name) for name in ALL_CASES}
    cases[probe.stem] = load_case(probe)
    digests = {name: hashlib.sha256(repr(case).encode()).hexdigest()
               for name, case in cases.items()}
    assert digests == PARSED_CASE_SHA256


def test_render_writes_defaulted_fields():
    case = parse_case(MINIMAL.rstrip().rstrip("}") + ', "candidates": [{"id": "c", '
                      '"from": "a", "to": "b", "x": 0.1, "rate": 2, "cost": 5}]}')
    doc = json.loads(render_case(case))
    assert doc["branches"][0]["switchable"] is True
    assert doc["generators"][0]["p_min"] == 0.0
    assert doc["candidates"][0]["parallel_to"] is None
    assert doc["buses"][1]["reference"] is False
    assert doc["horizon"] == {"epochs": 3, "years_per_epoch": 5, "seasons": 4, "hours": 24,
                              "load_growth": 0.02, "maintenance_rate": 0.04}
    assert parse_case(render_case(case)) == case


def test_load_case_round_trip(tmp_path, bundled):
    for name in ("defer_build", "eight_bus"):
        case = bundled(name)
        path = tmp_path / f"{name}.json"
        path.write_text(render_case(case))
        assert load_case(path) == case


def test_render_parse_round_trip_exact(bundled):
    case = bundled("tri_switch")
    assert parse_case(render_case(case)) == case


def test_grow_load_compounds_over_full_epochs():
    # 2 percent over one five-year epoch: 100 * 1.02**5
    assert grow_load(100.0, 0.02, 5, 2) == 110.40808032
    assert grow_load(100.0, 0.02, 5, 1) == 100.0
    assert grow_load(100.0, 0.02, 5, 3) == 100.0 * 1.02 ** 10
    with pytest.raises(ValueError):
        grow_load(100.0, 0.02, 5, 0)


@given(
    base=st.floats(0.0, 1e4),
    rate=st.floats(0.0, 0.2),
    n_ye=st.integers(1, 10),
    e=st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_grow_load_monotone_in_epoch(base, rate, n_ye, e):
    assert grow_load(base, rate, n_ye, e + 1) >= grow_load(base, rate, n_ye, e)


def test_load_profile_array_round_trip():
    profile = LoadProfile.from_arrays({"b": [[0.0, 2.5], [1.0, 0.0]]})
    assert profile.get("b", 2, 1) == 2.5
    assert profile.get("b", 1, 1) == 0.0
    assert profile.to_arrays(2, 2) == {"b": [[0.0, 2.5], [1.0, 0.0]]}


def _valid_case():
    return parse_case(MINIMAL)


def test_validate_accepts_valid_case():
    report = validate_case(_valid_case())
    assert report.ok
    assert str(report) == "case is valid"


def test_validate_flags_fatal_findings():
    case = _valid_case()
    bad = Case(
        buses=case.buses,
        generators=(Generator("g", "a", p_max=10, cost=-1),
                    Generator("g2", "z", p_max=10, cost=1),
                    Generator("g3", "a", p_max=10, cost=1, p_min=-1),
                    Generator("g4", "a", p_max=1, cost=1, p_min=5)),
        branches=(Branch("k", "a", "b", x=-0.002, rate=5),
                  Branch("k", "a", "b", x=0.002, rate=5),
                  Branch("k2", "a", "z", x=0.002, rate=5)),
        candidates=(CandidateLine("c", "a", "a", x=0.002, rate=0, capital_cost=-3),
                    CandidateLine("c2", "z", "b", x=0.1, rate=1, capital_cost=1,
                                  parallel_to="nope")),
        horizon=Horizon(n_epochs=0, load_growth=-0.1, maintenance_rate=-0.04),
        load_profile=LoadProfile({("b", 1, 1): -5.0, ("z", 1, 1): 3.0, ("b", 99, 1): 1.0}),
        angle_bound=0.0,
    )
    report = validate_case(bad)
    text = str(report)
    assert not report.ok
    for fragment in (
        "duplicate branch id 'k'",
        "negative cost",
        "nonpositive reactance",
        "connects bus 'a' to itself",
        "nonpositive rate",
        "negative capital cost",
        "must be >= 1",
        "load growth must be >= 0",
        "angle bound must be > 0",
        "negative load",
        "error: generator 'g2' references unknown bus 'z'",
        "error: branch 'k2' references an unknown bus",
        "error: candidate 'c2' references an unknown bus",
        "error: load profile references unknown bus 'z'",
        "error: generator 'g3' has negative minimum output -1",
        "error: generator 'g4' has p_min 5 above p_max 1",
        "warning: generator 'g4' has p_min 5 > 0; commitment decisions are not modeled",
        "warning: candidate 'c2' marked parallel to unknown branch 'nope'",
        "error: maintenance rate must be >= 0, got -0.04",
        "error: load entry (b, t=99, s=1) is outside the horizon",
    ):
        assert fragment in text, fragment


def test_validate_names_each_unknown_bus_once():
    case = _valid_case()
    horizon = Horizon(n_seasons=4, n_hours=24)
    load = {("zz", t, s): 1.0 for t in range(1, 25) for s in range(1, 5)}
    load[("b", 1, 1)] = 2.0
    bad = Case(
        buses=case.buses,
        generators=case.generators,
        branches=(Branch("k2", "y", "w", x=0.002, rate=5),
                  Branch("k3", "v", "v", x=0.002, rate=5)),
        candidates=(CandidateLine("c", "a", "q", x=0.002, rate=5, capital_cost=1),),
        horizon=horizon,
        load_profile=LoadProfile(load),
    )
    errors = validate_case(bad).errors
    unknown = [e for e in errors if "unknown bus" in e]
    assert unknown == [
        "branch 'k2' references an unknown bus 'y'",
        "branch 'k2' references an unknown bus 'w'",
        "branch 'k3' references an unknown bus 'v'",
        "candidate 'c' references an unknown bus 'q'",
        "load profile references unknown bus 'zz'",
    ]


def test_validate_flags_non_finite_numbers():
    # json.loads accepts the NaN and Infinity literals
    doc = (MINIMAL.replace('"x": 0.002', '"x": NaN').replace('"p_max": 10', '"p_max": Infinity')
           .rstrip().rstrip("}") + ', "angle_bound": -Infinity, "horizon": {"hours": 1, '
           '"seasons": 1, "load_growth": NaN}, "load": {"b": [[NaN]]}}')
    case = parse_case(doc)
    text = str(validate_case(case))
    for fragment in (
        "generator 'g' has non-finite p_max inf",
        "branch 'k' has non-finite x nan",
        "case has non-finite angle_bound -inf",
        "horizon has non-finite load_growth nan",
        "non-finite load nan at bus 'b', hour 1, season 1",
    ):
        assert f"error: {fragment}" in text, fragment
    with pytest.raises(ValueError, match="non-finite x nan"):
        build_milp(case, Variant.STATIC)


def test_validate_requires_one_reference_bus():
    case = _valid_case()
    twice = Case(
        buses=(Bus("a", is_reference=True), Bus("b", is_reference=True)),
        generators=case.generators,
        branches=case.branches,
        candidates=(),
        horizon=case.horizon,
        load_profile=case.load_profile,
    )
    report = validate_case(twice)
    assert "exactly one reference bus required, found 2" in str(report)


def test_bundled_cases_all_valid(bundled):
    from conftest import ALL_CASES

    assert len(ALL_CASES) >= 5
    for name in ALL_CASES:
        case = bundled(name)
        report = validate_case(case)
        assert report.ok, f"{name}: {report}"
        assert case.name == name
        assert case.description
        assert parse_case(render_case(case)) == case


def test_an_unknown_bundled_case_lists_the_available_ones():
    from conftest import ALL_CASES

    with pytest.raises(KeyError) as raised:
        load_bundled("nine_bus")
    assert raised.value.args[0] == (
        f"no bundled case named 'nine_bus'; available: {', '.join(ALL_CASES)}")


def _grown(epochs, growth, load):
    doc = json.loads(MINIMAL)
    doc.update(horizon={"epochs": epochs, "load_growth": growth, "seasons": 1, "hours": 1},
               load={"b": [[load]]})
    return parse_case(json.dumps(doc))


def test_validate_warns_once_at_the_first_inadequate_epoch():
    # 8 MW grows 50 % a year: 60.75 MW in epoch 2 against 10 MW of capacity
    report = validate_case(_grown(6, 0.5, 8.0))
    assert report.ok
    assert report.warnings == ["inadequate generation from epoch 2 on: peak load "
                               "60.750 MW exceeds total capacity 10.000 MW"]
    assert validate_case(_grown(6, 0.5, 11.0)).warnings[0].startswith(
        "inadequate generation from epoch 1 on")
    assert validate_case(_grown(6, 0.0, 10.0)).warnings == []


def test_validate_takes_no_walk_over_epochs():
    start = time.perf_counter()
    report = validate_case(_grown(10**8, 0.0, 1.0))
    assert report.ok and not report.warnings
    assert time.perf_counter() - start < 1.0
