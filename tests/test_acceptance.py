"""Acceptance gate: ten go/no-go checks at fixed tolerances.

Run ``pytest -v tests/test_acceptance.py`` to get exactly one pass/fail
line per criterion.  Each test states its tolerance inline; the bundled
cases and the enumeration oracle under ``gridplan.branch_bound`` are the
ground truth throughout.
"""

import time

import pytest

from conftest import ALL_CASES, ENVELOPE, physics_violations
from gridplan import builder
from gridplan.branch_bound import (
    GAP_LIMIT,
    OPTIMAL,
    SolveParams,
    enumerate_exact,
    solve_milp,
)
from gridplan.builder import (
    Variant,
    build_milp,
    decode_plan,
    freeze_switching,
    investment_multiplier,
)
from gridplan.milp import BINARY
from gridplan.mps import column_name_table, parse_mps, read_solution, write_mps
from gridplan.report import compute_metrics

EXACT = SolveParams(mip_gap=0.0)

_solve_cache = {}


def _solved(bundled, name, variant):
    """Branch-and-bound solve at zero gap, cached per (case, variant)."""
    key = (name, variant)
    if key not in _solve_cache:
        model, index = build_milp(bundled(name), variant)
        start = time.perf_counter()
        outcome = solve_milp(model, EXACT)
        elapsed = time.perf_counter() - start
        assert outcome.status in (OPTIMAL, GAP_LIMIT), f"{name}/{variant.value}"
        _solve_cache[key] = (outcome, index, elapsed)
    return _solve_cache[key]


def test_criterion_01_oracle_equivalence(bundled, oracle):
    """Search and exhaustive enumeration agree within 1e-6 relative on at
    least five bundled 3-8 bus cases, each variant solving in under 10 s."""
    assert len(ENVELOPE) >= 5
    for name in ENVELOPE:
        case = bundled(name)
        assert 3 <= len(case.buses) <= 8
        assert 1 <= len(case.candidates) <= 4
        assert case.horizon.n_hours <= 4 and case.horizon.n_seasons <= 2
        assert case.horizon.n_epochs <= 2
        for variant in Variant:
            model, _ = build_milp(case, variant)
            assert sum(1 for v in model.variables if v.kind == BINARY) <= 16
            exact = oracle(name, variant)
            outcome, _index, elapsed = _solved(bundled, name, variant)
            diff = abs(outcome.objective - exact.objective)
            assert diff <= 1e-6 * abs(exact.objective), f"{name}/{variant.value}"
            assert elapsed < 10.0, f"{name}/{variant.value} took {elapsed:.1f}s"


def test_criterion_02_variant_nesting(oracle):
    """On every bundled case the optimal totals nest: allowing more
    switching never costs more (switch-all <= switch-existing <= static,
    the last within 1e-6 relative slack)."""
    for name in ALL_CASES:
        static = oracle(name, Variant.STATIC).objective
        sw_existing = oracle(name, Variant.SWITCH_EXISTING).objective
        sw_all = oracle(name, Variant.SWITCH_ALL).objective
        assert sw_all <= sw_existing, f"{name}: switch-all above switch-existing"
        assert sw_existing <= static + 1e-6 * static, f"{name}: switch-existing above static"


def test_criterion_03_fix_and_recover(bundled, oracle):
    """Freezing all switching binaries closed recovers the static optimum
    within 1e-6 relative, for both switching variants on every bundled
    case."""
    for name in ALL_CASES:
        case = bundled(name)
        static_obj = oracle(name, Variant.STATIC).objective
        frozen_objs = {}
        for variant in (Variant.SWITCH_EXISTING, Variant.SWITCH_ALL):
            model, index = build_milp(case, variant)
            frozen = enumerate_exact(freeze_switching(model, index))
            frozen_objs[variant] = frozen.objective
            diff = abs(frozen.objective - static_obj)
            assert diff <= 1e-6 * abs(static_obj), f"{name}/{variant.value}"
        diff = abs(frozen_objs[Variant.SWITCH_ALL]
                   - frozen_objs[Variant.SWITCH_EXISTING])
        assert diff <= 1e-6 * abs(frozen_objs[Variant.SWITCH_EXISTING]), name


def test_criterion_04_metrics_reference_values():
    """Cost-reduction metrics reproduce the reference pairs: baseline
    9,921,190,000 against 9,456,150,000 and 9,429,990,000 give savings of
    465,040,000 (4.69%) and 491,200,000 (4.95%), ratios within 0.005
    percentage points."""
    first = compute_metrics(9_921_190_000.0, 9_456_150_000.0)
    assert first.tcr == 465_040_000.0
    assert abs(100.0 * first.rho - 4.69) <= 0.005
    second = compute_metrics(9_921_190_000.0, 9_429_990_000.0)
    assert second.tcr == 491_200_000.0
    assert abs(100.0 * second.rho - 4.95) <= 0.005


def test_criterion_05_investment_multiplier_exact():
    """The epoch multiplier on capital cost is exactly {1.6, 1.4, 1.2} for
    a three-epoch, five-year, 4 percent-maintenance horizon."""
    assert investment_multiplier(3, 5, 0.04, 1) == 1.6
    assert investment_multiplier(3, 5, 0.04, 2) == 1.4
    assert investment_multiplier(3, 5, 0.04, 3) == 1.2


def test_criterion_06_binary_count_formulas():
    """Binary counts follow the structural formulas exactly: the static
    variant has 2|J||E| binaries (84 at 14 candidates, 3 epochs) and
    switch-all exceeds switch-existing by |J||S||E| (168 at 4 seasons)."""
    from test_builder import _wide_case

    case = _wide_case(n_candidates=14, n_epochs=3, n_seasons=4)

    def n_binary(variant):
        model, _ = build_milp(case, variant)
        return sum(1 for v in model.variables if v.kind == BINARY)

    assert n_binary(Variant.STATIC) == 2 * 14 * 3 == 84
    delta = n_binary(Variant.SWITCH_ALL) - n_binary(Variant.SWITCH_EXISTING)
    assert delta == 14 * 4 * 3 == 168


def test_criterion_07_deferral_demonstration(bundled, oracle):
    """The bundled defer_build case shows investment deferral: the static
    optimum builds c1 in epoch 1, the switch-existing optimum serves epoch
    1 by opening a line and builds c1 only in epoch 2, at lower total
    cost.  The case file documents this oracle solution."""
    case = bundled("defer_build")
    static = oracle("defer_build", Variant.STATIC)
    sw_existing = oracle("defer_build", Variant.SWITCH_EXISTING)
    _m, s_index = build_milp(case, Variant.STATIC)
    _m, t_index = build_milp(case, Variant.SWITCH_EXISTING)
    s_plan = decode_plan(case, Variant.STATIC, s_index, static.assignment)
    t_plan = decode_plan(case, Variant.SWITCH_EXISTING, t_index, sw_existing.assignment)
    assert s_plan.builds == [("c1", 1)]
    assert t_plan.builds == [("c1", 2)]
    assert ("k12", 1, 1) in t_plan.open_existing
    assert t_plan.tc < s_plan.tc
    for fragment in ("epoch 1", "epoch 2", "k12", "c1"):
        assert fragment in case.description


def test_criterion_08_physics_invariants(bundled):
    """Every incumbent the solver returns satisfies the network physics to
    1e-6: nodal balance, zero flow on open lines, the flow-angle law on
    closed lines, nondecreasing availability, and switching only of
    available lines."""
    for name in ALL_CASES:
        case = bundled(name)
        for variant in Variant:
            outcome, index, _elapsed = _solved(bundled, name, variant)
            worst = physics_violations(case, variant, index, outcome.assignment)
            for check, value in worst.items():
                assert value <= 1e-6, f"{name}/{variant.value}/{check}={value}"


def test_criterion_09_big_m_validity(bundled, oracle, monkeypatch):
    """Scaling every deactivation constant tenfold moves no bundled case's
    optimal objective by more than 1e-6 relative: the tight constants are
    valid, not binding by accident."""
    tight = builder.branch_big_m
    scaled_lines = []

    def loose(reactance, angle_bound):
        scaled_lines.append(reactance)
        return 10.0 * tight(reactance, angle_bound)

    for name in ALL_CASES:
        case = bundled(name)
        for variant in Variant:
            base = oracle(name, variant).objective
            with monkeypatch.context() as patch:
                patch.setattr(builder, "branch_big_m", loose)
                scaled_model, _ = build_milp(case, variant)
            scaled = enumerate_exact(scaled_model).objective
            assert abs(scaled - base) <= 1e-6 * abs(base), f"{name}/{variant.value}"
    assert scaled_lines


def test_criterion_10_interop_round_trip(bundled, oracle):
    """Interchange holds on every bundled model: write-parse-write reaches
    a byte fixed point, and importing the oracle optimum as an external
    solution decodes to a plan whose total cost matches the oracle
    objective within 1e-6 relative."""
    for name in ALL_CASES:
        case = bundled(name)
        for variant in Variant:
            model, index = build_milp(case, variant)
            text = write_mps(model)
            reparsed, table = parse_mps(text)
            assert write_mps(reparsed) == text, f"{name}/{variant.value}"
            exact = oracle(name, variant)
            names = {col: n for n, col in column_name_table(model).items()}
            solution_text = "".join(
                f"{names[col]} {value!r}\n"
                for col, value in enumerate(exact.assignment)
            )
            imported = read_solution(solution_text, table, reparsed.n_variables)
            plan = decode_plan(case, variant, index, imported)
            diff = abs(plan.tc - exact.objective)
            assert diff <= 1e-6 * abs(exact.objective), f"{name}/{variant.value}"
