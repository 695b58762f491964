"""Metrics arithmetic and report/CSV rendering."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridplan.builder import Plan, Variant
from gridplan.report import (
    Metrics,
    compute_metrics,
    render_plan_csv,
    render_report,
)


def test_metrics_reference_pairs():
    first = compute_metrics(9_921_190_000.0, 9_456_150_000.0)
    assert first.tcr == 465_040_000.0
    assert abs(100.0 * first.rho - 4.69) <= 0.005
    assert f"{100 * first.rho:.2f}" == "4.69"
    second = compute_metrics(9_921_190_000.0, 9_429_990_000.0)
    assert second.tcr == 491_200_000.0
    assert abs(100.0 * second.rho - 4.95) <= 0.005
    assert f"{100 * second.rho:.2f}" == "4.95"


def test_metrics_requires_positive_baseline():
    with pytest.raises(ValueError):
        compute_metrics(0.0, 1.0)
    with pytest.raises(ValueError):
        compute_metrics(-5.0, 1.0)


@given(
    baseline=st.floats(1e-3, 1e12),
    variant=st.floats(0.0, 1e12),
)
@settings(max_examples=80, deadline=None)
def test_metrics_fields_never_disagree(baseline, variant):
    m = compute_metrics(baseline, variant)
    assert m.tcr == baseline - variant
    assert m.rho == m.tcr / baseline   # rho is derived, so this is exact
    if variant < baseline:
        assert m.tcr > 0 and m.rho > 0


def _plan(tc_g, tc_i, builds=(), open_existing=(), open_new=()):
    return Plan(
        builds=list(builds),
        open_existing=list(open_existing),
        open_new=list(open_new),
        dispatch={("g1", 1, 1, 1): 12.5},
        branch_flow={("k1", 1, 1, 1): -3.25},
        candidate_flow={("c1", 1, 1, 1): 0.0},
        angle={("n1", 1, 1, 1): 0.0, ("n2", 1, 1, 1): -0.1},
        tc_g=tc_g,
        tc_i=tc_i,
        tc=tc_g + tc_i,
    )


def _three_plans():
    plans = {
        Variant.STATIC: _plan(9e9, 9.2119e8, builds=[("c1", 1)]),
        Variant.SWITCH_EXISTING: _plan(
            9e9, 4.5615e8, builds=[("c1", 2)],
            open_existing=[("k1", 1, 1), ("k1", 1, 2)],
        ),
        Variant.SWITCH_ALL: _plan(
            9e9, 4.2999e8, builds=[("c1", 2)],
            open_existing=[("k1", 1, 1)], open_new=[("c1", 2, 2)],
        ),
    }
    metrics = {
        v: compute_metrics(plans[Variant.STATIC].tc, plans[v].tc)
        for v in (Variant.SWITCH_EXISTING, Variant.SWITCH_ALL)
    }
    return plans, metrics


def test_report_shape_and_formatting():
    plans, metrics = _three_plans()
    text, csvs = render_report(plans, metrics, n_seasons=2, n_epochs=2)
    assert "COST SUMMARY" in text
    assert "9,921,190,000" in text
    assert "465,040,000" in text and "4.69" in text
    assert "491,200,000" in text and "4.95" in text
    assert text.count("N/A") >= 2          # baseline has no saving entries
    # sign convention footnote
    assert "saving is baseline minus variant" in text
    assert "INVESTMENT SCHEDULE" in text
    assert "SWITCHING SCHEDULE (switch-existing): existing lines open" in text
    assert "SWITCHING SCHEDULE (switch-all): new lines open" in text
    # the static variant never gets a switching section
    assert "SWITCHING SCHEDULE (static)" not in text
    # switch-existing never gets a new-lines section
    assert "SWITCHING SCHEDULE (switch-existing): new lines open" not in text
    assert set(csvs) == {"summary.csv", "investment.csv", "switching.csv"}


def test_a_saving_a_few_ulp_below_zero_prints_unsigned():
    # totals that agree but for rounding: the switching ones a few ulp
    # above the static one give savings just below zero, which print as 0
    # and 0.00, never as -0 or -0.00
    static = _plan(18_594_386.6981376, 0.0)
    above = math.nextafter(math.nextafter(static.tc, math.inf), math.inf)
    plans = {Variant.STATIC: static, Variant.SWITCH_EXISTING: _plan(above, 0.0),
             Variant.SWITCH_ALL: _plan(math.nextafter(static.tc, math.inf), 0.0)}
    metrics = {v: compute_metrics(static.tc, plans[v].tc)
               for v in (Variant.SWITCH_EXISTING, Variant.SWITCH_ALL)}
    assert all(-1e-6 < m.tcr < 0.0 and m.rho < 0.0 for m in metrics.values())
    text, _csvs = render_report(plans, metrics, n_seasons=2, n_epochs=2)
    lines = text.splitlines()
    for label, zero in (("saving vs baseline ($)", "0"), ("saving vs baseline (%)", "0.00")):
        row = next(line for line in lines if line.startswith(label))
        assert row.split()[-3:] == ["N/A", zero, zero], row


def test_summary_csv_round_trips_exact_totals():
    plans, metrics = _three_plans()
    _text, csvs = render_report(plans, metrics, n_seasons=2, n_epochs=2)
    lines = csvs["summary.csv"].strip().splitlines()
    assert lines[0] == ("variant,total_cost,generation_cost,investment_cost,"
                        "saving,saving_fraction")
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    static = rows["static"]
    assert float(static[1]) == plans[Variant.STATIC].tc
    assert static[4] == "" and static[5] == ""
    switch_all_row = rows["switch-all"]
    assert float(switch_all_row[4]) == metrics[Variant.SWITCH_ALL].tcr
    assert float(switch_all_row[5]) == metrics[Variant.SWITCH_ALL].rho


def test_switching_and_investment_csvs():
    plans, metrics = _three_plans()
    _text, csvs = render_report(plans, metrics, n_seasons=2, n_epochs=2)
    assert "switch-existing,c1,2" in csvs["investment.csv"]
    assert "switch-all,existing,k1,1,1" in csvs["switching.csv"]
    assert "switch-all,new,c1,2,2" in csvs["switching.csv"]
    assert "static,existing" not in csvs["switching.csv"]


def test_single_variant_report_has_no_metrics():
    plans, _ = _three_plans()
    only = {Variant.STATIC: plans[Variant.STATIC]}
    text, csvs = render_report(only, {}, n_seasons=1, n_epochs=2)
    assert "static" in text
    assert "switch-existing" not in text
    assert "N/A" in text
    assert len(csvs["summary.csv"].strip().splitlines()) == 2


def test_report_requires_plans():
    with pytest.raises(ValueError):
        render_report({}, {}, n_seasons=1, n_epochs=1)


def test_report_is_deterministic():
    plans, metrics = _three_plans()
    first = render_report(plans, metrics, n_seasons=2, n_epochs=2)
    second = render_report(plans, metrics, n_seasons=2, n_epochs=2)
    assert first == second


def test_plan_csv_full_precision():
    plan = _plan(1e9 / 3.0, 2.5e8, builds=[("c1", 1)],
                 open_existing=[("k1", 2, 1)], open_new=[("c1", 1, 1)])
    text = render_plan_csv(plan)
    lines = text.strip().splitlines()
    assert lines[0] == "record,id,hour,season,epoch,value"
    assert "build,c1,,,1,1" in lines
    assert "open_existing,k1,,2,1,0" in lines
    assert "open_new,c1,,1,1,0" in lines
    assert f"dispatch,g1,1,1,1,{12.5!r}" in lines
    assert f"flow_existing,k1,1,1,1,{-3.25!r}" in lines
    assert f"cost,tc,,,,{plan.tc!r}" in lines
    tc_line = [l for l in lines if l.startswith("cost,tc,")][0]
    assert float(tc_line.rsplit(",", 1)[1]) == plan.tc
