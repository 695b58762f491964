"""Model assembly: variant semantics, counts, costs, physics, freezing."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from conftest import ALL_CASES
from gridplan import builder
from gridplan.branch_bound import enumerate_exact, solve_milp, SolveParams
from gridplan.builder import (
    Plan,
    Variant,
    branch_big_m,
    build_milp,
    decode_plan,
    freeze_switching,
    investment_multiplier,
)
from gridplan.case import load_case, parse_case
from gridplan.cases import load_bundled
from gridplan.milp import BINARY
from gridplan.mps import write_mps

EXACT = SolveParams(mip_gap=0.0)


def test_investment_multiplier_paper_horizon():
    assert investment_multiplier(3, 5, 0.04, 1) == 1.6
    assert investment_multiplier(3, 5, 0.04, 2) == 1.4
    assert investment_multiplier(3, 5, 0.04, 3) == 1.2
    with pytest.raises(ValueError):
        investment_multiplier(3, 5, 0.04, 4)
    with pytest.raises(ValueError):
        investment_multiplier(3, 5, 0.04, 0)


def test_branch_big_m_is_angle_range_over_reactance():
    assert branch_big_m(0.002, 0.6) == 600.0
    assert branch_big_m(0.001, 0.3) == 600.0
    with pytest.raises(ValueError):
        branch_big_m(0.0, 0.6)
    with pytest.raises(ValueError):
        branch_big_m(0.002, 0.0)


def _wide_case(n_candidates=14, n_epochs=3, n_seasons=4, n_switchable=1):
    doc = {
        "buses": [{"id": "a", "reference": True}, {"id": "b"}],
        "generators": [
            {"id": "g", "bus": "a", "p_max": 1000, "cost": 5},
            {"id": "h", "bus": "b", "p_max": 1000, "cost": 40},
        ],
        "branches": [
            {
                "id": f"k{i}", "from": "a", "to": "b", "x": 0.002, "rate": 50,
                "switchable": i < n_switchable,
            }
            for i in range(max(n_switchable, 1))
        ],
        "candidates": [
            {"id": f"c{i}", "from": "a", "to": "b", "x": 0.002, "rate": 50,
             "cost": 1e6 + i}
            for i in range(n_candidates)
        ],
        "horizon": {"epochs": n_epochs, "years_per_epoch": 5,
                    "seasons": n_seasons, "hours": 1,
                    "load_growth": 0.02, "maintenance_rate": 0.04},
        "load": {"b": [[40.0]] * n_seasons},
    }
    return parse_case(json.dumps(doc))


def _n_binary(model):
    return sum(1 for v in model.variables if v.kind == BINARY)


def test_binary_count_formulas():
    case = _wide_case()
    j, e, s = 14, 3, 4
    static, _ = build_milp(case, Variant.STATIC)
    assert _n_binary(static) == 2 * j * e == 84
    sw_existing, _ = build_milp(case, Variant.SWITCH_EXISTING)
    sw_all, _ = build_milp(case, Variant.SWITCH_ALL)
    assert _n_binary(sw_all) - _n_binary(sw_existing) == j * s * e == 168
    assert _n_binary(sw_existing) == 2 * j * e + 1 * s * e


def test_switchable_flag_controls_branch_binaries():
    case = _wide_case(n_candidates=1, n_epochs=1, n_seasons=2, n_switchable=0)
    sw_existing, index = build_milp(case, Variant.SWITCH_EXISTING)
    assert index.branch_status == {}
    static, _ = build_milp(case, Variant.STATIC)
    assert _n_binary(sw_existing) == _n_binary(static)


def test_build_milp_rejects_invalid_case():
    doc = {
        "buses": [{"id": "a", "reference": True}, {"id": "b"}],
        "generators": [{"id": "g", "bus": "a", "p_max": 10, "cost": -3}],
        "branches": [{"id": "k", "from": "a", "to": "b", "x": 0.002, "rate": 5}],
    }
    case = parse_case(json.dumps(doc))
    with pytest.raises(ValueError, match="negative cost"):
        build_milp(case, Variant.STATIC)


def test_variable_blocks_have_stable_names(bundled):
    case = bundled("defer_build")
    model, index = build_milp(case, Variant.SWITCH_ALL)
    names = {v.name for v in model.variables}
    assert "p_g1_t1_s1_e1" in names
    assert "th_n2_t2_s1_e2" in names
    assert "pk_k12_t1_s1_e1" in names
    assert "pj_c1_t1_s1_e2" in names
    assert "u_c1_e1" in names and "v_c1_e2" in names
    assert "zk_k12_s1_e2" in names and "zj_c1_s1_e1" in names
    assert len(names) == model.n_variables   # injective naming


def test_reference_bus_angle_is_pinned(bundled):
    case = bundled("tri_switch")
    model, index = build_milp(case, Variant.STATIC)
    (ref,) = [bus.id for bus in case.buses if bus.is_reference]
    col = index.angle[(ref, 1, 1, 1)]
    assert model.variables[col].lower == 0.0
    assert model.variables[col].upper == 0.0
    other = index.angle[("n2", 1, 1, 1)]
    assert model.variables[other].lower == -case.angle_bound
    assert model.variables[other].upper == case.angle_bound


@pytest.mark.parametrize("name", ALL_CASES)
def test_variant_nesting_on_bundle(name, bundled, oracle):
    static = oracle(name, Variant.STATIC).objective
    sw_existing = oracle(name, Variant.SWITCH_EXISTING).objective
    sw_all = oracle(name, Variant.SWITCH_ALL).objective
    assert sw_all <= sw_existing + 1e-9 * max(1.0, abs(sw_existing))
    assert sw_existing <= static + 1e-6 * abs(static)


@pytest.mark.parametrize("name", ("defer_build", "eight_bus", "braess_build"))
def test_decoded_costs_match_objective(name, bundled, oracle):
    case = bundled(name)
    for variant in Variant:
        outcome = oracle(name, variant)
        _model, index = build_milp(case, variant)
        plan = decode_plan(case, variant, index, outcome.assignment)
        scale = max(1.0, abs(outcome.objective))
        assert abs(plan.tc - outcome.objective) <= 1e-9 * scale
        assert plan.tc == plan.tc_g + plan.tc_i


@pytest.mark.parametrize("name", ALL_CASES)
def test_physics_on_oracle_optimum(name, bundled, oracle, physics):
    case = bundled(name)
    for variant in Variant:
        outcome = oracle(name, variant)
        _model, index = build_milp(case, variant)
        worst = physics(case, variant, index, outcome.assignment)
        for check, value in worst.items():
            assert value <= 1e-6, f"{name}/{variant.value}/{check}: {value}"


def test_freeze_switching_recovers_static(bundled, oracle):
    for name in ("tri_switch", "defer_build", "braess_build"):
        case = bundled(name)
        static_obj = oracle(name, Variant.STATIC).objective
        for variant in (Variant.SWITCH_EXISTING, Variant.SWITCH_ALL):
            model, index = build_milp(case, variant)
            frozen = freeze_switching(model, index)
            out = enumerate_exact(frozen)
            scale = abs(static_obj)
            assert abs(out.objective - static_obj) <= 1e-6 * scale, (name, variant)
            # the unfrozen model must keep its own optimum
            free_obj = oracle(name, variant).objective
            assert free_obj <= out.objective + 1e-9 * scale


def test_decode_plan_rejects_mismatched_index(bundled):
    case = bundled("tri_switch")
    _model, static_index = build_milp(case, Variant.STATIC)
    t1_model, sw_existing_index = build_milp(case, Variant.SWITCH_EXISTING)
    out = enumerate_exact(t1_model)
    with pytest.raises(ValueError):
        decode_plan(case, Variant.SWITCH_EXISTING, static_index, out.assignment)


def test_decode_plan_rejects_infeasible_assignment(bundled):
    case = bundled("tri_switch")
    model, index = build_milp(case, Variant.STATIC)
    zeros = [0.0] * model.n_variables
    with pytest.raises(ValueError):
        decode_plan(case, Variant.STATIC, index, zeros)


def test_decode_plan_reuses_the_built_model(bundled, oracle, monkeypatch):
    case = bundled("tri_switch")
    _model, index = build_milp(case, Variant.SWITCH_ALL)
    outcome = oracle("tri_switch", Variant.SWITCH_ALL)

    def no_rebuild(*_args, **_kwargs):
        raise AssertionError("decode_plan rebuilt the model")

    monkeypatch.setattr(builder, "build_milp", no_rebuild)
    plan = decode_plan(case, Variant.SWITCH_ALL, index, outcome.assignment)
    assert plan.tc == pytest.approx(outcome.objective, rel=1e-9)


def test_deferral_case_story(bundled, oracle):
    case = bundled("defer_build")
    static = oracle("defer_build", Variant.STATIC)
    sw_existing = oracle("defer_build", Variant.SWITCH_EXISTING)
    _m, static_index = build_milp(case, Variant.STATIC)
    _m, sw_existing_index = build_milp(case, Variant.SWITCH_EXISTING)
    static_plan = decode_plan(case, Variant.STATIC, static_index, static.assignment)
    sw_existing_plan = decode_plan(case, Variant.SWITCH_EXISTING, sw_existing_index, sw_existing.assignment)
    assert static_plan.builds == [("c1", 1)]
    assert sw_existing_plan.builds == [("c1", 2)]
    assert ("k12", 1, 1) in sw_existing_plan.open_existing
    assert sw_existing_plan.tc < static_plan.tc
    # deferring one epoch saves one maintenance step of the capital cost
    assert static_plan.tc_i == pytest.approx(1.4 * 8e6)
    assert sw_existing_plan.tc_i == pytest.approx(1.2 * 8e6)


def test_braess_case_opens_built_line(bundled, oracle):
    case = bundled("braess_build")
    sw_existing = oracle("braess_build", Variant.SWITCH_EXISTING)
    sw_all = oracle("braess_build", Variant.SWITCH_ALL)
    assert sw_all.objective < sw_existing.objective - 1e5
    _m, index = build_milp(case, Variant.SWITCH_ALL)
    plan = decode_plan(case, Variant.SWITCH_ALL, index, sw_all.assignment)
    assert plan.builds == [("c1", 1)]
    assert ("c1", 2, 1) in plan.open_new
    assert ("c1", 1, 1) not in plan.open_new


def test_season_flip_case(bundled, oracle):
    case = bundled("season_flip")
    sw_existing = oracle("season_flip", Variant.SWITCH_EXISTING)
    _m, index = build_milp(case, Variant.SWITCH_EXISTING)
    plan = decode_plan(case, Variant.SWITCH_EXISTING, index, sw_existing.assignment)
    assert ("k12", 1, 1) in plan.open_existing
    assert ("k12", 2, 1) not in plan.open_existing
    assert plan.builds == []


def test_eight_bus_switching_changes_investment(bundled, oracle):
    case = bundled("eight_bus")
    _m, s_index = build_milp(case, Variant.STATIC)
    _m, sw_existing_index = build_milp(case, Variant.SWITCH_EXISTING)
    static_plan = decode_plan(
        case, Variant.STATIC, s_index,
        oracle("eight_bus", Variant.STATIC).assignment,
    )
    sw_existing_plan = decode_plan(
        case, Variant.SWITCH_EXISTING, sw_existing_index,
        oracle("eight_bus", Variant.SWITCH_EXISTING).assignment,
    )
    assert static_plan.builds == [("c1", 1)]
    assert sw_existing_plan.builds == [("c2", 1)]
    assert ("k8", 1, 1) in sw_existing_plan.open_existing


# sha256 of ``write_mps(build_milp(case, variant)[0])``: a refactor of the
# builder must not reorder, rename or rescale a single column or row.
# "probe" is tests/data/probe_10x2x2x2x3_s1.json.
MODEL_DIGESTS = {
    ("braess_build", "static"):
        "68e16f38c84b0e4bd43f4c74abc1e07aee1de8df35e36b211f8e7f53ac812f9a",
    ("braess_build", "switch-existing"):
        "68e16f38c84b0e4bd43f4c74abc1e07aee1de8df35e36b211f8e7f53ac812f9a",
    ("braess_build", "switch-all"):
        "5913210914a5d0967f208f0b4c490b48b34312560b448a9c8fc19671e75577ad",
    ("defer_build", "static"):
        "ff231491af9d74ad1be924f46269bd2bd933b463c09d3dd5444d7ffad75fac00",
    ("defer_build", "switch-existing"):
        "eea37bcf28e4823b6fc3839e98a379f847ddd717bdb1eda2a44594fccc729b98",
    ("defer_build", "switch-all"):
        "56b4c93c11a1a3176ef3cada5b26d89424842a302d370bc482e1a43504054cb8",
    ("diamond", "static"):
        "9026d8f4ae91c3f5e2fb4942ad1b66d7e0a9a3cc0bc7abf35c21d3a9dfb2a1ed",
    ("diamond", "switch-existing"):
        "29238c2e3a2124daa06547a6434ee7da0de9407db4ac2a51d02b746a7be42d49",
    ("diamond", "switch-all"):
        "debc1000785301ec9d341361c86bf99a00a711d7053ecf878b3118bccb461da3",
    ("eight_bus", "static"):
        "7bf4fbe49b305db138304e6a0b5d75dacc6d4bee6e0ce68b5d80042de1b97a59",
    ("eight_bus", "switch-existing"):
        "ce290f3c5d0c8864ff1f74c3036c617915f2f024bb1badbaff47d89da1675951",
    ("eight_bus", "switch-all"):
        "1ecd609cdc5138102d9112fe070363ead5b8bd6ecfd5b9b1eaf4876cd522508e",
    ("season_flip", "static"):
        "ce91f65a08d9d13c52e748889352241391d7b98a3d4d8c75b6045d005a8a6bc8",
    ("season_flip", "switch-existing"):
        "672a4ffa6bb680f375c0a4434e8163f804263158cc7d69c44b4887eeb5edd81f",
    ("season_flip", "switch-all"):
        "1ea56a51f7e2a12a6b389cc85cb3e6908cac7a27cc3c5ba3750bb85bf3667f74",
    ("tri_switch", "static"):
        "90801d98a165d80acfc152c3554b38aca0aabfeab19f8c8f2b27eabf6b4083b0",
    ("tri_switch", "switch-existing"):
        "d696c15b3b886960f9f3e1232901de40814c940ccc8d100c6b112fc95f324fd0",
    ("tri_switch", "switch-all"):
        "f54317c64a1d9ec248a8616dabdb3e9400380eeb2efaf9b29bda3d42c756ae8c",
    ("two_bus", "static"):
        "a4f83bc902eb3fe27ffed902c3b81c60ed4941c287b8cb4c1062e359bb4fb4f6",
    ("two_bus", "switch-existing"):
        "2d394570944b33be334456caa54ee2d2121a160a15533575e309f5167384295e",
    ("two_bus", "switch-all"):
        "e9e19e37614511ff14e8f39b1fc667e6a3e2877b1302d4f9ea2f23313d73bfd9",
    ("probe", "static"):
        "3d1349df32f68adcf8bb617697c09b963dc4b9c5c6ed58b0b20d8fe414dadacc",
    ("probe", "switch-existing"):
        "1001e50eddbfa7c31af36631bcf41f6498bfa2f872f1204ef571abcefb864381",
    ("probe", "switch-all"):
        "5bcfe4ea452c146f38d9902774cff148f165e42aab547ef723803b37414081f0",
}


@pytest.mark.parametrize("name, variant", sorted(MODEL_DIGESTS))
def test_model_text_is_pinned(name, variant):
    if name == "probe":
        case = load_case(Path(__file__).parent / "data" / "probe_10x2x2x2x3_s1.json")
    else:
        case = load_bundled(name)
    model, _index = build_milp(case, Variant(variant))
    digest = hashlib.sha256(write_mps(model).encode()).hexdigest()
    assert digest == MODEL_DIGESTS[(name, variant)]


# each VariableIndex map and the name its columns carry, given the key
INDEX_NAMES = {
    "gen": "p_{}_t{}_s{}_e{}",
    "angle": "th_{}_t{}_s{}_e{}",
    "branch_flow": "pk_{}_t{}_s{}_e{}",
    "candidate_flow": "pj_{}_t{}_s{}_e{}",
    "available": "u_{}_e{}",
    "build": "v_{}_e{}",
    "branch_status": "zk_{}_s{}_e{}",
    "candidate_status": "zj_{}_s{}_e{}",
}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", [*ALL_CASES, "probe", "wide"])
def test_index_covers_every_column_once(name, variant):
    # the interval columns are tiled from one block: an off-by-one block
    # offset would leave a column unindexed, index one twice, or misname it
    if name == "probe":
        case = load_case(Path(__file__).parent / "data" / "probe_10x2x2x2x3_s1.json")
    elif name == "wide":
        case = _wide_case()
    else:
        case = load_bundled(name)
    model, index = build_milp(case, variant)
    assert set(INDEX_NAMES) == {f.name for f in dataclasses.fields(index) if f.init}
    columns = []
    for field, name_of in INDEX_NAMES.items():
        for key, col in getattr(index, field).items():
            assert model.names[col] == name_of.format(*key), (field, key)
            columns.append(col)
    assert sorted(columns) == list(range(model.n_variables))
