"""Assemble expansion-planning MILPs and decode their solutions.

Three model variants share one DC-flow backbone over (hour, season, epoch)
intervals and differ only in which lines may be opened seasonally:

* ``STATIC``: the classic plan; every existing line and every built
  candidate stays in service.
* ``SWITCH_EXISTING``: existing lines marked switchable get a per-season,
  per-epoch on/off binary; candidates behave as in ``STATIC``.
* ``SWITCH_ALL``: additionally, built candidates get their own seasonal
  status binaries (a built line may still sit out a season).

Existing branches and candidates are one kind of DC line, gated or not in
each season of each epoch.  The gate is a switchable branch's status binary
in the switching variants (other branches are ungated), and a candidate's
status binary in ``SWITCH_ALL`` or its availability binary otherwise.  An
ungated line gets the flow-law row; a gated one gets the disjunctive big-M
rows of Binato, Pereira & Granville (IEEE Trans. Power Systems 16(2), 2001).

The builder applies load growth to right-hand sides at assembly time,
encodes generator and flow limits as variable bounds where a bound is
equivalent to a row, and uses a per-line big-M of 2*angle_bound/x, the
smallest constant valid under the angle box.  ``decode_plan`` inverts a
solution back into builds, seasonal openings, dispatch, and costs, with
every cost recomputed from first principles rather than read off the
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .case import CandidateLine, Case, grow_load, validate_case
from .milp import BINARY, CONTINUOUS, EQ, GE, LE, Milp, evaluate_assignment


class Variant(Enum):
    """Which parts of the network the plan may switch seasonally."""

    STATIC = "static"
    SWITCH_EXISTING = "switch-existing"
    SWITCH_ALL = "switch-all"

    @classmethod
    def from_token(cls, token: str) -> "Variant":
        for variant in cls:
            if variant.value == token:
                return variant
        tokens = ", ".join(v.value for v in cls)
        raise ValueError(f"unknown variant '{token}' (expected one of: {tokens})")


@dataclass
class VariableIndex:
    """Column lookup for every decision variable of a built model.

    Keys use entity ids plus 1-based hour ``t``, season ``s``, epoch ``e``.
    The maps are disjoint and together cover every column exactly once.
    ``build_milp`` also records the model, case and variant it built, which
    ``decode_plan`` checks against.
    """

    gen: dict = field(default_factory=dict)               # (g, t, s, e) -> p
    angle: dict = field(default_factory=dict)             # (n, t, s, e) -> theta
    branch_flow: dict = field(default_factory=dict)       # (k, t, s, e) -> p
    candidate_flow: dict = field(default_factory=dict)    # (j, t, s, e) -> p
    available: dict = field(default_factory=dict)         # (j, e) -> u
    build: dict = field(default_factory=dict)             # (j, e) -> v
    branch_status: dict = field(default_factory=dict)     # (k, s, e) -> z
    candidate_status: dict = field(default_factory=dict)  # (j, s, e) -> z
    model: Milp | None = field(default=None, init=False, repr=False, compare=False)
    case: Case | None = field(default=None, init=False, repr=False, compare=False)
    variant: Variant | None = field(default=None, init=False, compare=False)


def investment_multiplier(n_e: int, n_ye: int, a_m: float, e: int) -> float:
    """Capital-cost factor for a line built in epoch ``e``.

    A line finished at the start of epoch ``e`` is maintained for the
    remaining (n_e - e + 1)*n_ye years at ``a_m`` of its capital cost per
    year, so building early costs more in lifetime upkeep.
    """
    if not 1 <= e <= n_e:
        raise ValueError(f"epoch {e} outside 1..{n_e}")
    return 1.0 + (n_e - e + 1) * n_ye * a_m


def branch_big_m(reactance: float, angle_bound: float) -> float:
    """Tightest valid deactivation constant for one branch.

    With every angle in [-angle_bound, +angle_bound], the angle difference
    across a branch is at most 2*angle_bound, so an open line's flow
    equation can deviate by at most 2*angle_bound/x.
    """
    if reactance <= 0:
        raise ValueError(f"reactance must be positive, got {reactance}")
    if angle_bound <= 0:
        raise ValueError(f"angle bound must be positive, got {angle_bound}")
    return 2.0 * angle_bound / reactance


def build_milp(case: Case, variant: Variant, *, big_m_scale: float = 1.0):
    """Assemble the MILP for ``case`` under ``variant``.

    Returns the model and the index of its columns.  ``big_m_scale``
    multiplies every per-line deactivation constant; the default 1.0 is
    the tight value, and results must not depend on the scale (a test
    raises it tenfold to prove the tight constants are valid).

    Raises ValueError when the case fails validation.
    """
    report = validate_case(case)
    if report.errors:
        raise ValueError("case has fatal errors:\n" + "\n".join(report.errors))
    if big_m_scale < 1.0:
        # below 1.0 the deactivation constants would cut feasible angles off
        raise ValueError(f"big_m_scale must be at least 1.0, got {big_m_scale}")

    h = case.horizon
    switch_existing = variant in (Variant.SWITCH_EXISTING, Variant.SWITCH_ALL)
    switch_new = variant is Variant.SWITCH_ALL
    epochs = range(1, h.n_epochs + 1)
    seasons = range(1, h.n_seasons + 1)
    hours = range(1, h.n_hours + 1)
    # each typical day stands for one season-year's share of days, each year
    # of the epoch reuses the same profile
    hour_weight = h.years_per_epoch * (365.0 / h.n_seasons)

    model = Milp()
    index = VariableIndex()
    index.model, index.case, index.variant = model, case, variant

    # every DC line, existing branches first: (line, flow columns, name prefix)
    lines = [(k, index.branch_flow, "pk") for k in case.branches]
    lines += [(j, index.candidate_flow, "pj") for j in case.candidates]

    for e in epochs:
        for s in seasons:
            for t in hours:
                for g in case.generators:
                    col = model.add_variable(
                        CONTINUOUS, g.p_min, g.p_max, f"p_{g.id}_t{t}_s{s}_e{e}"
                    )
                    model.set_objective_coefficient(col, hour_weight * g.cost)
                    index.gen[(g.id, t, s, e)] = col
                for bus in case.buses:
                    bound = 0.0 if bus.is_reference else case.angle_bound
                    index.angle[(bus.id, t, s, e)] = model.add_variable(
                        CONTINUOUS, -bound, bound, f"th_{bus.id}_t{t}_s{s}_e{e}"
                    )
                for line, flows, prefix in lines:
                    flows[(line.id, t, s, e)] = model.add_variable(
                        CONTINUOUS, -line.rate, line.rate,
                        f"{prefix}_{line.id}_t{t}_s{s}_e{e}",
                    )
    for e in epochs:
        for j in case.candidates:
            index.available[(j.id, e)] = model.add_variable(
                BINARY, 0, 1, f"u_{j.id}_e{e}"
            )
    for e in epochs:
        for j in case.candidates:
            col = model.add_variable(BINARY, 0, 1, f"v_{j.id}_e{e}")
            multiplier = investment_multiplier(
                h.n_epochs, h.years_per_epoch, h.maintenance_rate, e
            )
            model.set_objective_coefficient(col, j.capital_cost * multiplier)
            index.build[(j.id, e)] = col
    if switch_existing:
        for e in epochs:
            for s in seasons:
                for k in case.branches:
                    if k.switchable:
                        index.branch_status[(k.id, s, e)] = model.add_variable(
                            BINARY, 0, 1, f"zk_{k.id}_s{s}_e{e}"
                        )
    if switch_new:
        for e in epochs:
            for s in seasons:
                for j in case.candidates:
                    index.candidate_status[(j.id, s, e)] = model.add_variable(
                        BINARY, 0, 1, f"zj_{j.id}_s{s}_e{e}"
                    )

    def gate(line, s, e):  # in-service binary, None if ungated
        if not isinstance(line, CandidateLine):
            return index.branch_status.get((line.id, s, e))
        if switch_new:
            return index.candidate_status[(line.id, s, e)]
        return index.available[(line.id, e)]

    for e in epochs:
        for s in seasons:
            for t in hours:
                # nodal balance: inflow minus outflow plus generation = load
                terms = {bus.id: [] for bus in case.buses}
                for g in case.generators:
                    terms[g.bus].append((index.gen[(g.id, t, s, e)], 1.0))
                for line, flows, _prefix in lines:
                    flow = flows[(line.id, t, s, e)]
                    terms[line.to_bus].append((flow, 1.0))
                    terms[line.from_bus].append((flow, -1.0))
                for bus in case.buses:
                    demand = grow_load(
                        case.load_profile.get(bus.id, t, s),
                        h.load_growth, h.years_per_epoch, e,
                    )
                    model.add_constraint(terms[bus.id], EQ, demand)

                for line, flows, _prefix in lines:
                    flow = flows[(line.id, t, s, e)]
                    inv_x = 1.0 / line.x
                    law = [(flow, 1.0), (index.angle[(line.from_bus, t, s, e)], -inv_x),
                           (index.angle[(line.to_bus, t, s, e)], inv_x)]
                    z = gate(line, s, e)
                    if z is None:
                        model.add_constraint(law, EQ, 0.0)
                        continue
                    big_m = branch_big_m(line.x, case.angle_bound) * big_m_scale
                    # open line carries nothing
                    model.add_constraint([(flow, 1.0), (z, -line.rate)], LE, 0.0)
                    model.add_constraint([(flow, 1.0), (z, line.rate)], GE, 0.0)
                    # closed line obeys the flow law
                    model.add_constraint(law + [(z, big_m)], LE, big_m)
                    model.add_constraint(law + [(z, -big_m)], GE, -big_m)

    # build logic: availability turns on at the build epoch and stays on
    for e in epochs:
        for j in case.candidates:
            u = index.available[(j.id, e)]
            terms = [(index.build[(j.id, z)], 1.0) for z in range(1, e + 1)]
            model.add_constraint(terms + [(u, -1.0)], LE, 0.0)
            v = index.build[(j.id, e)]
            if e == 1:
                model.add_constraint([(v, 1.0), (u, -1.0)], EQ, 0.0)
            else:
                u_prev = index.available[(j.id, e - 1)]
                model.add_constraint(
                    [(v, 1.0), (u, -1.0), (u_prev, 1.0)], GE, 0.0
                )
    if switch_new:
        # a candidate can only be in service once it is built
        for e in epochs:
            for s in seasons:
                for j in case.candidates:
                    model.add_constraint(
                        [
                            (index.candidate_status[(j.id, s, e)], 1.0),
                            (index.available[(j.id, e)], -1.0),
                        ],
                        LE, 0.0,
                    )

    return model, index


def freeze_switching(model: Milp, index: VariableIndex) -> Milp:
    """Copy of ``model`` with all seasonal switching forced off.

    Existing-line status binaries are pinned to 1, and candidate status
    binaries are tied to the availability flag of their line and epoch, so
    the switching variants collapse to the static feasible set.
    """
    frozen = model.copy()
    for col in index.branch_status.values():
        frozen.with_bounds(col, 1.0, 1.0)
    for (jid, _s, e), col in index.candidate_status.items():
        frozen.add_constraint(
            [(col, 1.0), (index.available[(jid, e)], -1.0)], EQ, 0.0
        )
    return frozen


@dataclass
class Plan:
    """Decoded solution: what to build, what to open, and what it costs.

    ``open_existing`` and ``open_new`` hold (line id, season, epoch) for
    every interval in which a line capable of service is left open; a
    candidate appears only for epochs in which it is available.  ``tc`` is
    exactly ``tc_g + tc_i``.
    """

    builds: list
    open_existing: list
    open_new: list
    dispatch: dict
    branch_flow: dict
    candidate_flow: dict
    angle: dict
    tc_g: float
    tc_i: float
    tc: float


def decode_plan(case: Case, variant: Variant, index: VariableIndex,
                assignment) -> Plan:
    """Turn a feasible assignment of the built model into a ``Plan``.

    ``index`` must come from ``build_milp(case, variant)``.  The assignment
    is re-checked against the model that call built and rejected if any
    violation exceeds 1e-6.  Costs are recomputed from dispatch and build
    decisions, not read from the objective.
    """
    if index.model is None or index.variant is not variant or index.case != case:
        raise ValueError("variable index does not match the case and variant")
    evaluation = evaluate_assignment(index.model, assignment)
    if not evaluation.feasible:
        raise ValueError(
            "assignment is not feasible for the built model "
            f"(constraint {evaluation.max_constraint_violation:.3e}, "
            f"bound {evaluation.max_bound_violation:.3e}, "
            f"integrality {evaluation.max_integrality_violation:.3e})"
        )

    h = case.horizon
    builds = [key for key, col in index.build.items() if assignment[col] > 0.5]
    open_existing = [
        key for key, col in index.branch_status.items() if assignment[col] < 0.5
    ]
    open_new = [
        (jid, s, e)
        for (jid, s, e), col in index.candidate_status.items()
        if assignment[col] < 0.5
        and assignment[index.available[(jid, e)]] > 0.5
    ]
    dispatch = {key: assignment[col] for key, col in index.gen.items()}
    branch_flow = {key: assignment[col] for key, col in index.branch_flow.items()}
    candidate_flow = {
        key: assignment[col] for key, col in index.candidate_flow.items()
    }
    angle = {key: assignment[col] for key, col in index.angle.items()}

    hour_weight = h.years_per_epoch * (365.0 / h.n_seasons)
    cost_of = {g.id: g.cost for g in case.generators}
    tc_g = math.fsum(
        hour_weight * cost_of[gid] * dispatch[(gid, t, s, e)]
        for (gid, t, s, e) in index.gen
    )
    capital_of = {j.id: j.capital_cost for j in case.candidates}
    tc_i = math.fsum(
        capital_of[jid]
        * investment_multiplier(h.n_epochs, h.years_per_epoch, h.maintenance_rate, e)
        for (jid, e) in builds
    )
    return Plan(
        builds=builds,
        open_existing=open_existing,
        open_new=open_new,
        dispatch=dispatch,
        branch_flow=branch_flow,
        candidate_flow=candidate_flow,
        angle=angle,
        tc_g=tc_g,
        tc_i=tc_i,
        tc=tc_g + tc_i,
    )
