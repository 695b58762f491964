"""Shared fixtures: bundled cases, a cached enumeration oracle, and the
physics checks applied to every incumbent the solver hands back."""

import os

# one BLAS thread, fixed before numpy is first imported: LAPACK's summation
# order depends on the thread count, and the pinned solver counters on it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402

import pytest  # noqa: E402

from gridplan.branch_bound import enumerate_exact
from gridplan.builder import Variant, build_milp
from gridplan.cases import case_names, load_bundled
from gridplan.milp import EQ, GE, LE

# Bundled cases inside the 3-8 bus acceptance envelope; the full bundle
# additionally carries two_bus and braess_build.
ENVELOPE = ("defer_build", "diamond", "eight_bus", "season_flip", "tri_switch")

ALL_CASES = tuple(case_names())


def slack_box(senses):
    """``DenseLp``'s slack bounds for rows of these senses: a ``<=`` row's
    slack is nonnegative, a ``>=`` row's nonpositive, an ``=`` row's zero."""
    box = {LE: (0.0, math.inf), GE: (-math.inf, 0.0), EQ: (0.0, 0.0)}
    return [box[s][0] for s in senses], [box[s][1] for s in senses]


@pytest.fixture(scope="session")
def bundled():
    cache = {}

    def load(name):
        if name not in cache:
            cache[name] = load_bundled(name)
        return cache[name]

    return load


@pytest.fixture(scope="session")
def oracle(bundled):
    """Enumeration optimum for (bundled case name, variant), cached."""
    cache = {}

    def run(name, variant):
        key = (name, variant)
        if key not in cache:
            model, _index = build_milp(bundled(name), variant)
            cache[key] = enumerate_exact(model)
        return cache[key]

    return run


def physics_violations(case, variant, index, x):
    """Worst-case violation of the network physics in an assignment.

    Returns a dict of named residuals: nodal balance (MW), flow on open
    lines (MW), flow-angle mismatch on closed lines (MW), availability
    monotonicity, and new-line switching against availability.
    """
    h = case.horizon
    worst = {"balance": 0.0, "open_flow": 0.0, "closed_law": 0.0,
             "u_monotone": 0.0, "z_le_u": 0.0}
    gens_at = {}
    for g in case.generators:
        gens_at.setdefault(g.bus, []).append(g.id)

    def branch_open(k, s, e):
        key = (k.id, s, e)
        if key in index.branch_status:
            return x[index.branch_status[key]] < 0.5
        return False

    def candidate_closed(j, s, e):
        if (j.id, s, e) in index.candidate_status:
            return x[index.candidate_status[(j.id, s, e)]] > 0.5
        return x[index.available[(j.id, e)]] > 0.5

    for e in range(1, h.n_epochs + 1):
        growth = (1.0 + h.load_growth) ** ((e - 1) * h.years_per_epoch)
        for s in range(1, h.n_seasons + 1):
            for t in range(1, h.n_hours + 1):
                for bus in case.buses:
                    inflow = 0.0
                    for g in gens_at.get(bus.id, []):
                        inflow += x[index.gen[(g, t, s, e)]]
                    for k in case.branches:
                        flow = x[index.branch_flow[(k.id, t, s, e)]]
                        if k.to_bus == bus.id:
                            inflow += flow
                        if k.from_bus == bus.id:
                            inflow -= flow
                    for j in case.candidates:
                        flow = x[index.candidate_flow[(j.id, t, s, e)]]
                        if j.to_bus == bus.id:
                            inflow += flow
                        if j.from_bus == bus.id:
                            inflow -= flow
                    demand = case.load_profile.get(bus.id, t, s) * growth
                    worst["balance"] = max(worst["balance"], abs(inflow - demand))
                for k in case.branches:
                    flow = x[index.branch_flow[(k.id, t, s, e)]]
                    dth = (x[index.angle[(k.from_bus, t, s, e)]]
                           - x[index.angle[(k.to_bus, t, s, e)]])
                    if branch_open(k, s, e):
                        worst["open_flow"] = max(worst["open_flow"], abs(flow))
                    else:
                        worst["closed_law"] = max(worst["closed_law"],
                                                  abs(flow - dth / k.x))
                for j in case.candidates:
                    flow = x[index.candidate_flow[(j.id, t, s, e)]]
                    dth = (x[index.angle[(j.from_bus, t, s, e)]]
                           - x[index.angle[(j.to_bus, t, s, e)]])
                    if candidate_closed(j, s, e):
                        worst["closed_law"] = max(worst["closed_law"],
                                                  abs(flow - dth / j.x))
                    else:
                        worst["open_flow"] = max(worst["open_flow"], abs(flow))
    for j in case.candidates:
        for e in range(2, h.n_epochs + 1):
            drop = (x[index.available[(j.id, e - 1)]]
                    - x[index.available[(j.id, e)]])
            worst["u_monotone"] = max(worst["u_monotone"], drop)
        for (jid, s, e), col in index.candidate_status.items():
            if jid != j.id:
                continue
            excess = x[col] - x[index.available[(jid, e)]]
            worst["z_le_u"] = max(worst["z_le_u"], excess)
    return worst


@pytest.fixture(scope="session")
def physics():
    return physics_violations
