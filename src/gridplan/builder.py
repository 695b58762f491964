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

Every interval repeats one block of columns (generation, bus angles, line
flows) and rows (nodal balances, then each line's flow-law or big-M rows);
the blocks are linked only through the binaries (dual block-angular form).
``build_milp`` assembles that block once, on block-local columns with one
slot per gated line, and tiles it with numpy over the intervals in (epoch,
season, hour) order: each copy's own columns shift by the block width, and
only two things differ per interval, the grown loads on the balance rows
and the gate column of each (season, epoch).  The binaries and the build
logic rows follow the interval columns and rows.  The interval columns,
the binaries and all rows enter the model in three checked bulk appends.

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
from itertools import accumulate, count

import numpy as np

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
    intervals = [(t, s, e) for e in epochs for s in seasons for t in hours]
    n = len(intervals)
    # each typical day stands for one season-year's share of days, each year
    # of the epoch reuses the same profile
    hour_weight = h.years_per_epoch * (365.0 / h.n_seasons)

    model = Milp()
    index = VariableIndex()
    index.model, index.case, index.variant = model, case, variant

    # every DC line, existing branches first, with its flow name prefix
    lines = [(k, "pk") for k in case.branches] + [(j, "pj") for j in case.candidates]

    # one interval's columns: generation, bus angles, line flows, each with
    # its name up to the interval, bounds and cost
    gens, buses = case.generators, case.buses
    block = [(f"p_{g.id}_t", g.p_min, g.p_max, hour_weight * g.cost) for g in gens]
    for bus in buses:
        bound = 0.0 if bus.is_reference else case.angle_bound
        block.append((f"th_{bus.id}_t", -bound, bound, 0.0))
    block += [(f"{prefix}_{line.id}_t", -line.rate, line.rate, 0.0) for line, prefix in lines]
    prefixes, *values = zip(*block)
    width = len(block)
    lower, upper, cost = np.array(values)[:, None].repeat(n, axis=1).reshape(3, -1)
    model.add_variables(
        CONTINUOUS, lower, upper,
        [prefix + tail for t, s, e in intervals for tail in (f"{t}_s{s}_e{e}",)
         for prefix in prefixes],
        cost,
    )

    def tile(ids, offset):  # (id, t, s, e) -> column, over every interval's copy
        return {(eid, t, s, e): i * width + offset + a
                for i, (t, s, e) in enumerate(intervals) for a, eid in enumerate(ids)}

    flow_at = len(gens) + len(buses)        # block column of the first line's flow
    index.gen = tile([g.id for g in gens], 0)
    index.angle = tile([bus.id for bus in buses], len(gens))
    index.branch_flow = tile([k.id for k in case.branches], flow_at)
    index.candidate_flow = tile([j.id for j in case.candidates],
                                flow_at + len(case.branches))

    # the binaries: availability, build (which carries the capital cost),
    # then the seasonal status of switchable branches and of candidates
    builds = [(j, e) for e in epochs for j in case.candidates]
    binaries = [
        ("available", "u_{}_e{}", [(j.id, e) for j, e in builds]),
        ("build", "v_{}_e{}", [(j.id, e) for j, e in builds]),
        ("branch_status", "zk_{}_s{}_e{}",
         [(k.id, s, e) for e in epochs for s in seasons for k in case.branches
          if k.switchable and switch_existing]),
        ("candidate_status", "zj_{}_s{}_e{}",
         [(j.id, s, e) for e in epochs for s in seasons for j in case.candidates
          if switch_new]),
    ]
    names = [name.format(*key) for _field, name, keys in binaries for key in keys]
    capital = [j.capital_cost * investment_multiplier(
        h.n_epochs, h.years_per_epoch, h.maintenance_rate, e) for j, e in builds]
    col = model.add_variables(
        BINARY, [0.0] * len(names), [1.0] * len(names), names,
        [0.0] * len(builds) + capital + [0.0] * (len(names) - 2 * len(builds)),
    )
    for field_name, _name, keys in binaries:
        setattr(index, field_name, dict(zip(keys, count(col))))
        col += len(keys)

    def gate(line, s, e):  # in-service binary, None if ungated
        if not isinstance(line, CandidateLine):
            return index.branch_status.get((line.id, s, e))
        if switch_new:
            return index.candidate_status[(line.id, s, e)]
        return index.available[(line.id, e)]

    # one interval's rows on block columns, where -1 - q stands for the
    # in-service binary of the q-th gated line
    at_bus = {bus.id: [] for bus in buses}
    for a, g in enumerate(gens):
        at_bus[g.bus].append((a, 1.0))
    for flow, (line, _prefix) in enumerate(lines, start=flow_at):
        at_bus[line.to_bus].append((flow, 1.0))
        at_bus[line.from_bus].append((flow, -1.0))
    # nodal balance: inflow minus outflow plus generation = load, filled in
    # per interval below
    rows = [(at_bus[bus.id], EQ, 0.0) for bus in buses]
    angle_of = {bus.id: col for col, bus in enumerate(buses, start=len(gens))}
    gates = []      # each gated line's in-service column in every interval
    for flow, (line, _prefix) in enumerate(lines, start=flow_at):
        inv_x = 1.0 / line.x
        law = [(flow, 1.0), (angle_of[line.from_bus], -inv_x),
               (angle_of[line.to_bus], inv_x)]
        if gate(line, 1, 1) is None:
            rows.append((law, EQ, 0.0))
            continue
        z = -1 - len(gates)
        gates.append(np.repeat([gate(line, s, e) for e in epochs for s in seasons],
                               h.n_hours))
        big_m = branch_big_m(line.x, case.angle_bound) * big_m_scale
        rows += [
            # open line carries nothing
            ([(flow, 1.0), (z, -line.rate)], LE, 0.0),
            ([(flow, 1.0), (z, line.rate)], GE, 0.0),
            # closed line obeys the flow law
            (law + [(z, big_m)], LE, big_m),
            (law + [(z, -big_m)], GE, -big_m),
        ]

    # build logic: availability turns on at the build epoch and stays on
    logic = []
    for e in epochs:
        for j in case.candidates:
            u = index.available[(j.id, e)]
            terms = [(index.build[(j.id, z)], 1.0) for z in range(1, e + 1)]
            logic.append((terms + [(u, -1.0)], LE, 0.0))
            v = index.build[(j.id, e)]
            if e == 1:
                logic.append(([(v, 1.0), (u, -1.0)], EQ, 0.0))
            else:
                u_prev = index.available[(j.id, e - 1)]
                logic.append(([(v, 1.0), (u, -1.0), (u_prev, 1.0)], GE, 0.0))
    # a candidate can only be in service once it is built
    logic += [([(z, 1.0), (index.available[(jid, e)], -1.0)], LE, 0.0)
              for (jid, _s, e), z in index.candidate_status.items()]

    # tile the block over the intervals: shift its own columns by each
    # interval's offset, fill in the gates and the grown loads; then append
    # the logic rows, all in one checked append
    ends, cols, coefs, senses, rhs = _csr(rows)
    own = cols >= 0
    tiled = np.empty((n, cols.size), dtype=np.int64)
    tiled[:, own] = cols[own] + width * np.arange(n)[:, None]
    gate_cols = np.array(gates, dtype=np.int64).reshape(len(gates), n).T
    tiled[:, ~own] = gate_cols[:, -1 - cols[~own]]
    base = np.array([[case.load_profile.get(bus.id, t, s) for bus in buses]
                     for s in seasons for t in hours])
    rhs = rhs[None].repeat(n, axis=0)
    rhs[:, :len(buses)] = np.concatenate(
        [grow_load(base, h.load_growth, h.years_per_epoch, e) for e in epochs]
    )
    tail_ends, tail_cols, tail_coefs, tail_senses, tail_rhs = _csr(logic)
    model.add_constraints(
        np.concatenate([(ends + cols.size * np.arange(n)[:, None]).ravel(),
                        tail_ends + tiled.size]),
        np.concatenate([tiled.ravel(), tail_cols]),
        np.concatenate([coefs[None].repeat(n, axis=0).ravel(), tail_coefs]),
        senses * n + tail_senses,
        np.concatenate([rhs.ravel(), tail_rhs]),
    )
    return model, index


def _csr(rows):
    """``Milp.add_constraints`` arguments for a list of (terms, sense, rhs):
    row ends, columns and coefficients as arrays, senses as a list, and the
    right-hand sides as an array."""
    terms = [term for row_terms, _sense, _rhs in rows for term in row_terms]
    return (np.fromiter(accumulate(len(row_terms) for row_terms, _s, _r in rows),
                        np.int64, len(rows)),
            np.array([col for col, _coef in terms], dtype=np.int64),
            np.array([coef for _col, coef in terms], dtype=float),
            [sense for _terms, sense, _rhs in rows],
            np.array([rhs for _terms, _sense, rhs in rows], dtype=float))


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
