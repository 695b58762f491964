"""The search's presolved LP: same optimum, a postsolve the model accepts,
the stated reduction, and an oracle that never sees it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_CASES
from gridplan import branch_bound, simplex
from gridplan.branch_bound import OPTIMAL, enumerate_exact
from gridplan.builder import Variant, build_milp
from gridplan.milp import (
    BINARY,
    CONTINUOUS,
    EQ,
    FEASIBILITY_TOL,
    GE,
    LE,
    Milp,
    evaluate_assignment,
)
from gridplan.simplex import DenseLp, presolve


def _ungated_flows(index):
    """Flow columns of the lines with no in-service binary in ``index``."""
    gated = {k for k, _s, _e in index.branch_status}
    return {col for (k, *_rest), col in index.branch_flow.items() if k not in gated}


@pytest.mark.parametrize("name", ALL_CASES)
@pytest.mark.parametrize("variant", list(Variant))
def test_presolved_root_matches_the_full_lp(bundled, name, variant):
    model, index = build_milp(bundled(name), variant)
    full = DenseLp.from_milp(model).solve()
    lp, post = presolve(model)
    root = lp.solve()
    assert full.status == root.status == simplex.OPTIMAL
    assert abs(root.objective - full.objective) <= 1e-9 * abs(full.objective)

    # every ungated flow and every fixed column leaves; every row stays
    fixed = {j for j in range(model.n_variables) if model.lower[j] == model.upper[j]}
    assert set(post.flows.tolist()) == _ungated_flows(index)
    assert set(post.fixed.tolist()) == fixed
    assert lp.a.shape == (model.n_constraints,
                          model.n_variables - len(post.flows) - len(fixed))

    x = post(root.x)
    report = evaluate_assignment(model, [float(v) for v in x])
    assert report.max_constraint_violation <= 1e-7
    assert report.max_bound_violation <= 1e-7
    assert report.objective == pytest.approx(full.objective, rel=1e-9)


def test_eight_bus_switch_all_drops_a_third_of_its_columns(bundled):
    # 32 ungated flows and 4 reference angles of 116 columns; all 156 rows stay
    model, _index = build_milp(bundled("eight_bus"), Variant.SWITCH_ALL)
    lp, post = presolve(model)
    assert (model.n_variables, lp.a.shape[1]) == (116, 80)
    assert (len(post.flows), len(post.fixed)) == (32, 4)
    assert lp.a.shape[0] == model.n_constraints == 156


def test_enumerate_exact_never_presolves(bundled, monkeypatch):
    def refused(model):
        raise AssertionError("presolve called")

    model, _index = build_milp(bundled("tri_switch"), Variant.SWITCH_ALL)
    monkeypatch.setattr(simplex, "presolve", refused)
    monkeypatch.setattr(branch_bound, "presolve", refused)
    assert enumerate_exact(model).status == OPTIMAL
    with pytest.raises(AssertionError, match="presolve called"):
        branch_bound.solve_milp(model)


@st.composite
def _grid_models(draw):
    """A small DC-flow model: buses with angles (one fixed), generators,
    lines with a flow each, ungated ones by their flow law and gated ones by
    big-M rows on a binary, some binaries pinned.  A reactance of 1 puts a
    unit coefficient on an angle too, and a fixed cost column sits in a
    balance row."""
    m = Milp()
    n_bus = draw(st.integers(2, 4))
    ref = draw(st.sampled_from([0.0, 0.25, -0.5]))
    theta = [m.add_variable(CONTINUOUS, ref if i == 0 else -1.0, ref if i == 0 else 1.0,
                            f"th{i}") for i in range(n_bus)]
    at_bus = [[] for _ in range(n_bus)]
    for i in range(n_bus):
        if draw(st.booleans()) or i == 0:
            g = m.add_variable(CONTINUOUS, 0.0, draw(st.sampled_from([5.0, 20.0])), f"g{i}")
            m.set_objective_coefficient(g, draw(st.sampled_from([1.0, 3.0, 10.0])))
            at_bus[i].append((g, 1.0))
    if draw(st.booleans()):
        fixed = m.add_variable(CONTINUOUS, 2.0, 2.0, "fixed")
        m.set_objective_coefficient(fixed, 4.0)
        at_bus[draw(st.integers(0, n_bus - 1))].append((fixed, 1.0))
    pairs = [(a, b) for a in range(n_bus) for b in range(n_bus) if a != b]
    for line, (a, b) in enumerate(draw(st.lists(st.sampled_from(pairs), min_size=1,
                                                max_size=5))):
        rate = draw(st.sampled_from([3.0, 10.0]))
        x = draw(st.sampled_from([0.5, 1.0, 0.01]))
        f = m.add_variable(CONTINUOUS, -rate, rate, f"f{line}")
        at_bus[b].append((f, 1.0))
        at_bus[a].append((f, -1.0))
        law = [(f, 1.0), (theta[a], -1.0 / x), (theta[b], 1.0 / x)]
        if not draw(st.booleans()):
            m.add_constraint(law, EQ, 0.0)
            continue
        pin = draw(st.sampled_from([None, 0.0, 1.0]))
        z = m.add_variable(BINARY, *((0.0, 1.0) if pin is None else (pin, pin)), f"z{line}")
        big_m = 2.0 / x
        m.add_constraint([(f, 1.0), (z, -rate)], LE, 0.0)
        m.add_constraint([(f, 1.0), (z, rate)], GE, 0.0)
        m.add_constraint(law + [(z, big_m)], LE, big_m)
        m.add_constraint(law + [(z, -big_m)], GE, -big_m)
        m.set_objective_coefficient(z, draw(st.sampled_from([0.0, 0.5])))
    for i, terms in enumerate(at_bus):
        if terms:
            m.add_constraint(terms, EQ, draw(st.sampled_from([0.0, 1.0, 4.0])) if i else 0.0)
    m.objective_offset = draw(st.sampled_from([0.0, 7.0]))
    return m


@given(_grid_models())
@settings(max_examples=120, deadline=None)
def test_postsolve_of_the_presolved_lp_solves_the_model(model):
    full = DenseLp.from_milp(model).solve()
    lp, post = presolve(model)
    reduced = lp.solve()
    assert full.status != simplex.FAILURE and reduced.status != simplex.FAILURE
    assert reduced.status == full.status
    if full.status != simplex.OPTIMAL:
        return
    assert reduced.objective == pytest.approx(full.objective, rel=1e-7, abs=1e-7)
    x = [float(v) for v in post(reduced.x)]
    report = evaluate_assignment(model, x)
    assert report.max_constraint_violation <= FEASIBILITY_TOL
    assert report.max_bound_violation <= FEASIBILITY_TOL
    assert report.objective == pytest.approx(full.objective, rel=1e-7, abs=1e-7)
    # with every binary pinned, the relaxation is the model: it accepts x
    if all(model.lower[j] == model.upper[j] for j in model.binary_columns()):
        assert report.feasible
