"""Planning case data model: network, horizon, and base-year load.

A case bundles the physical system (buses, generators, existing branches,
candidate new lines), the multi-epoch planning horizon, and the base-year
hourly load per season.  Cases are frozen after construction and safe to
share between concurrent model builds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


class CaseError(ValueError):
    """Raised for malformed case documents (syntax, missing fields, bad refs)."""


@dataclass(frozen=True)
class Bus:
    id: str
    is_reference: bool = False


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    p_max: float
    cost: float          # $/MWh
    p_min: float = 0.0


@dataclass(frozen=True)
class Branch:
    id: str
    from_bus: str
    to_bus: str
    x: float             # reactance, per-unit
    rate: float          # long-term MW limit
    switchable: bool = True


@dataclass(frozen=True)
class CandidateLine:
    id: str
    from_bus: str
    to_bus: str
    x: float
    rate: float
    capital_cost: float  # $ once, at construction
    parallel_to: str | None = None


@dataclass(frozen=True)
class Horizon:
    """Planning horizon: epochs of equal length, seasons of typical days.

    ``load_growth`` and ``maintenance_rate`` are annual fractions (0.02 means
    2 percent per year).
    """

    n_epochs: int = 3
    years_per_epoch: int = 5
    n_seasons: int = 4
    n_hours: int = 24
    load_growth: float = 0.02
    maintenance_rate: float = 0.04


@dataclass(frozen=True)
class LoadProfile:
    """Base-year load in MW, keyed by (bus id, hour, season), 1-based.

    Only nonzero entries are stored; any (bus, hour, season) not present is
    zero load.  Hours and seasons must stay within the case horizon.
    """

    base_load: dict[tuple[str, int, int], float] = field(default_factory=dict)

    def get(self, bus: str, hour: int, season: int) -> float:
        return self.base_load.get((bus, hour, season), 0.0)

    @staticmethod
    def from_arrays(per_bus: dict[str, list[list[float]]]) -> "LoadProfile":
        """Build from dense per-bus arrays shaped [season][hour]."""
        entries: dict[tuple[str, int, int], float] = {}
        for bus, grid in per_bus.items():
            for s, row in enumerate(grid, start=1):
                for t, mw in enumerate(row, start=1):
                    if mw != 0.0:
                        entries[(bus, t, s)] = float(mw)
        return LoadProfile(entries)

    def to_arrays(self, n_hours: int, n_seasons: int) -> dict[str, list[list[float]]]:
        """Dense per-bus [season][hour] arrays for every bus with any load."""
        buses = sorted({bus for bus, _, _ in self.base_load})
        return {
            bus: [[self.get(bus, t, s) for t in range(1, n_hours + 1)]
                  for s in range(1, n_seasons + 1)]
            for bus in buses
        }


@dataclass(frozen=True)
class Case:
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    branches: tuple[Branch, ...]
    candidates: tuple[CandidateLine, ...]
    horizon: Horizon
    load_profile: LoadProfile
    angle_bound: float = 0.6   # radians; |theta| bound at every bus
    name: str = ""
    description: str = ""

    def bus_ids(self) -> list[str]:
        return [b.id for b in self.buses]

    def reference_bus(self) -> str:
        refs = [b.id for b in self.buses if b.is_reference]
        if len(refs) != 1:
            raise CaseError(f"case must declare exactly one reference bus, found {len(refs)}")
        return refs[0]


def grow_load(d_base: float, a_d: float, n_ye: int, e: int) -> float:
    """Load at epoch ``e`` from the base-year value ``d_base``.

    Compounds the annual growth rate over the full epochs preceding ``e``:
    ``d_base * (1 + a_d) ** ((e - 1) * n_ye)``.  Epoch 1 is the base year.
    """
    if e < 1:
        raise ValueError(f"epoch index must be >= 1, got {e}")
    return d_base * (1.0 + a_d) ** ((e - 1) * n_ye)


# ---------------------------------------------------------------------------
# Case document format (JSON)
# ---------------------------------------------------------------------------

_HORIZON_KEYS = {
    "epochs": ("n_epochs", int),
    "years_per_epoch": ("years_per_epoch", int),
    "seasons": ("n_seasons", int),
    "hours": ("n_hours", int),
    "load_growth": ("load_growth", float),
    "maintenance_rate": ("maintenance_rate", float),
}


def _req(record: dict, key: str, where: str):
    if key not in record:
        raise CaseError(f"missing required field '{key}' in {where}")
    return record[key]


def _as_id(value) -> str:
    return str(value)


def parse_case(document: str) -> Case:
    """Parse a JSON case document into a :class:`Case`.

    Defaults are applied while parsing: branches are switchable, generator
    minimum output is 0, the angle bound is 0.6 rad, and the horizon falls
    back to 3 five-year epochs with 4 seasons of 24 hours, 2 percent annual
    load growth and 4 percent annual maintenance.

    Raises
    ------
    CaseError
        On JSON syntax errors (with position), missing required fields, or
        references to undeclared buses/branches.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CaseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise CaseError("case document must be a JSON object")

    buses = tuple(
        Bus(id=_as_id(_req(rec, "id", "bus")), is_reference=bool(rec.get("reference", False)))
        for rec in _req(raw, "buses", "case")
    )
    known = {b.id for b in buses}

    def check_bus(bus_id: str, where: str) -> str:
        if bus_id not in known:
            raise CaseError(f"unknown bus reference '{bus_id}' in {where}")
        return bus_id

    generators = tuple(
        Generator(
            id=_as_id(_req(rec, "id", "generator")),
            bus=check_bus(_as_id(_req(rec, "bus", "generator")), f"generator {rec.get('id')}"),
            p_max=float(_req(rec, "p_max", f"generator {rec.get('id')}")),
            cost=float(_req(rec, "cost", f"generator {rec.get('id')}")),
            p_min=float(rec.get("p_min", 0.0)),
        )
        for rec in _req(raw, "generators", "case")
    )
    def line_fields(rec: dict, kind: str) -> dict:
        """Fields every DC line record carries: id, ends, reactance, rate."""
        where = f"{kind} {rec.get('id')}"
        return {
            "id": _as_id(_req(rec, "id", kind)),
            "from_bus": check_bus(_as_id(_req(rec, "from", kind)), where),
            "to_bus": check_bus(_as_id(_req(rec, "to", kind)), where),
            "x": float(_req(rec, "x", where)),
            "rate": float(_req(rec, "rate", where)),
        }

    branches = tuple(
        Branch(**line_fields(rec, "branch"), switchable=bool(rec.get("switchable", True)))
        for rec in _req(raw, "branches", "case")
    )
    candidates = tuple(
        CandidateLine(
            **line_fields(rec, "candidate"),
            capital_cost=float(_req(rec, "cost", f"candidate {rec.get('id')}")),
            parallel_to=(_as_id(rec["parallel_to"]) if rec.get("parallel_to") is not None else None),
        )
        for rec in raw.get("candidates", [])
    )

    hraw = raw.get("horizon", {})
    hargs = {}
    for file_key, (field_name, kind) in _HORIZON_KEYS.items():
        if file_key in hraw:
            value = hraw[file_key]
            if kind is int and type(value) is not int:  # a float or a bool is no count
                raise CaseError(f"horizon '{file_key}' must be an integer, got {value!r}")
            hargs[field_name] = kind(value)
    horizon = Horizon(**hargs)

    load_raw = raw.get("load", {})
    per_bus: dict[str, list[list[float]]] = {}
    if isinstance(load_raw, dict):
        for bus_id, grid in load_raw.items():
            check_bus(_as_id(bus_id), "load")
            per_bus[_as_id(bus_id)] = grid
    elif isinstance(load_raw, list):
        if len(load_raw) != len(buses):
            raise CaseError(
                f"dense load array has {len(load_raw)} bus entries, case has {len(buses)} buses"
            )
        per_bus = {bus.id: grid for bus, grid in zip(buses, load_raw)}
    else:
        raise CaseError("'load' must be an object keyed by bus id or a dense array")
    for bus_id, grid in per_bus.items():
        if len(grid) != horizon.n_seasons or any(len(row) != horizon.n_hours for row in grid):
            raise CaseError(
                f"load for bus '{bus_id}' must be a dense "
                f"{horizon.n_seasons}x{horizon.n_hours} [season][hour] array"
            )

    return Case(
        buses=buses,
        generators=generators,
        branches=branches,
        candidates=candidates,
        horizon=horizon,
        load_profile=LoadProfile.from_arrays(per_bus),
        angle_bound=float(raw.get("angle_bound", 0.6)),
        name=str(raw.get("name", "")),
        description=str(raw.get("description", "")),
    )


def render_case(case: Case) -> str:
    """Serialize a case back to its JSON document form.

    ``parse_case(render_case(c)) == c`` for every valid case: floats are
    written with full round-trip precision and zero-only load buses are
    omitted on both sides.
    """
    doc: dict = {}
    if case.name:
        doc["name"] = case.name
    if case.description:
        doc["description"] = case.description
    doc["buses"] = [
        {"id": b.id, **({"reference": True} if b.is_reference else {})} for b in case.buses
    ]
    doc["generators"] = [
        {"id": g.id, "bus": g.bus, "p_max": g.p_max, "cost": g.cost,
         **({"p_min": g.p_min} if g.p_min != 0.0 else {})}
        for g in case.generators
    ]
    doc["branches"] = [
        {"id": k.id, "from": k.from_bus, "to": k.to_bus, "x": k.x, "rate": k.rate,
         **({} if k.switchable else {"switchable": False})}
        for k in case.branches
    ]
    doc["candidates"] = [
        {"id": j.id, "from": j.from_bus, "to": j.to_bus, "x": j.x, "rate": j.rate,
         "cost": j.capital_cost,
         **({"parallel_to": j.parallel_to} if j.parallel_to is not None else {})}
        for j in case.candidates
    ]
    doc["horizon"] = {
        "epochs": case.horizon.n_epochs,
        "years_per_epoch": case.horizon.years_per_epoch,
        "seasons": case.horizon.n_seasons,
        "hours": case.horizon.n_hours,
        "load_growth": case.horizon.load_growth,
        "maintenance_rate": case.horizon.maintenance_rate,
    }
    doc["angle_bound"] = case.angle_bound
    doc["load"] = case.load_profile.to_arrays(case.horizon.n_hours, case.horizon.n_seasons)
    return json.dumps(doc, indent=2)


def load_case(path) -> Case:
    """Read and parse a case file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_case(handle.read())


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def __str__(self) -> str:
        lines = []
        for msg in self.errors:
            lines.append(f"error: {msg}")
        for msg in self.warnings:
            lines.append(f"warning: {msg}")
        if not lines:
            lines.append("case is valid")
        return "\n".join(lines)


def _check_duplicates(ids: list[str], kind: str, report: ValidationReport) -> None:
    seen = set()
    for item in ids:
        if item in seen:
            report.errors.append(f"duplicate {kind} id '{item}'")
        seen.add(item)


def _check_line(line, kind: str, known: set, report: ValidationReport) -> None:
    if line.from_bus not in known or line.to_bus not in known:
        report.errors.append(f"{kind} '{line.id}' references an unknown bus")
    if line.from_bus == line.to_bus:
        report.errors.append(f"{kind} '{line.id}' connects bus '{line.from_bus}' to itself")
    if line.x <= 0:
        report.errors.append(f"{kind} '{line.id}' has nonpositive reactance {line.x}")
    if line.rate <= 0:
        report.errors.append(f"{kind} '{line.id}' has nonpositive rate {line.rate}")


def validate_case(case: Case) -> ValidationReport:
    """Check case invariants; fatal findings go to ``errors``, advice to ``warnings``.

    Validation never raises: an infeasible or physically odd case is still a
    legal input, and the report is the caller's to act on.
    """
    report = ValidationReport()
    known = set(case.bus_ids())

    _check_duplicates(case.bus_ids(), "bus", report)
    _check_duplicates([g.id for g in case.generators], "generator", report)
    _check_duplicates([k.id for k in case.branches], "branch", report)
    _check_duplicates([j.id for j in case.candidates], "candidate", report)

    n_refs = sum(1 for b in case.buses if b.is_reference)
    if n_refs != 1:
        report.errors.append(f"exactly one reference bus required, found {n_refs}")

    # json.loads takes NaN and Infinity, so every number is checked here
    kinds = (("generator", case.generators), ("branch", case.branches),
             ("candidate", case.candidates))
    owners = [("case", case), ("horizon", case.horizon)]
    owners += [(f"{kind} '{item.id}'", item) for kind, items in kinds for item in items]
    for owner, item in owners:
        for name, value in vars(item).items():
            if isinstance(value, (int, float)) and not math.isfinite(value):
                report.errors.append(f"{owner} has non-finite {name} {value}")

    for g in case.generators:
        if g.bus not in known:
            report.errors.append(f"generator '{g.id}' references unknown bus '{g.bus}'")
        if g.p_min < 0:
            report.errors.append(f"generator '{g.id}' has negative minimum output {g.p_min}")
        if g.p_min > g.p_max:
            report.errors.append(f"generator '{g.id}' has p_min {g.p_min} above p_max {g.p_max}")
        if g.cost < 0:
            report.errors.append(f"generator '{g.id}' has negative cost {g.cost}")
        if g.p_min > 0:
            report.warnings.append(
                f"generator '{g.id}' has p_min {g.p_min} > 0; commitment decisions are "
                "not modeled, the unit is always on"
            )

    for k in case.branches:
        _check_line(k, "branch", known, report)
    branch_ids = {k.id for k in case.branches}
    for j in case.candidates:
        _check_line(j, "candidate", known, report)
        if j.capital_cost < 0:
            report.errors.append(f"candidate '{j.id}' has negative capital cost {j.capital_cost}")
        if j.parallel_to is not None and j.parallel_to not in branch_ids:
            report.warnings.append(
                f"candidate '{j.id}' marked parallel to unknown branch '{j.parallel_to}'"
            )

    h = case.horizon
    for label, count in (("epochs", h.n_epochs), ("years_per_epoch", h.years_per_epoch),
                         ("seasons", h.n_seasons), ("hours", h.n_hours)):
        if count < 1:
            report.errors.append(f"horizon {label} must be >= 1, got {count}")
    if h.load_growth < 0:
        report.errors.append(f"load growth must be >= 0, got {h.load_growth}")
    if h.maintenance_rate < 0:
        report.errors.append(f"maintenance rate must be >= 0, got {h.maintenance_rate}")
    if case.angle_bound <= 0:
        report.errors.append(f"angle bound must be > 0, got {case.angle_bound}")

    for (bus, t, s), mw in case.load_profile.base_load.items():
        if bus not in known:
            report.errors.append(f"load profile references unknown bus '{bus}'")
        if not (1 <= t <= h.n_hours) or not (1 <= s <= h.n_seasons):
            report.errors.append(f"load entry ({bus}, t={t}, s={s}) is outside the horizon")
        if not math.isfinite(mw):
            report.errors.append(f"non-finite load {mw} at bus '{bus}', hour {t}, season {s}")
        if mw < 0:
            report.errors.append(f"negative load {mw} at bus '{bus}', hour {t}, season {s}")

    # Adequacy is a warning, not an error: an infeasible model is a legal answer.
    total_pmax = sum(g.p_max for g in case.generators)
    if h.load_growth >= 0 and all(c >= 1 for c in (h.n_epochs, h.n_seasons, h.n_hours)):
        for e in range(1, h.n_epochs + 1):
            peak = 0.0
            for s in range(1, h.n_seasons + 1):
                for t in range(1, h.n_hours + 1):
                    total = sum(
                        grow_load(case.load_profile.get(b, t, s), h.load_growth,
                                  h.years_per_epoch, e)
                        for b in known
                    )
                    peak = max(peak, total)
            if peak > total_pmax:
                report.warnings.append(
                    f"inadequate generation in epoch {e}: peak load {peak:.3f} MW exceeds "
                    f"total capacity {total_pmax:.3f} MW"
                )
    return report

