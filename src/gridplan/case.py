"""Planning case data model: network, horizon, and base-year load.

A case bundles the physical system (buses, generators, existing branches,
candidate new lines), the multi-epoch planning horizon, and the base-year
hourly load per season.  Cases are frozen after construction and safe to
share between concurrent model builds.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields


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

# Each record's JSON keys, in document order, mapped to (field, type).  The
# dataclass defaults say which keys are optional; a ``Bus`` field holds the
# id of a declared bus.
_FORMAT = {
    Case: {"name": ("name", str), "description": ("description", str),
           "angle_bound": ("angle_bound", float)},
    Bus: {"id": ("id", str), "reference": ("is_reference", bool)},
    Generator: {"id": ("id", str), "bus": ("bus", Bus), "p_max": ("p_max", float),
                "cost": ("cost", float), "p_min": ("p_min", float)},
    Branch: {"id": ("id", str), "from": ("from_bus", Bus), "to": ("to_bus", Bus),
             "x": ("x", float), "rate": ("rate", float), "switchable": ("switchable", bool)},
    CandidateLine: {"id": ("id", str), "from": ("from_bus", Bus), "to": ("to_bus", Bus),
                    "x": ("x", float), "rate": ("rate", float),
                    "cost": ("capital_cost", float), "parallel_to": ("parallel_to", str)},
    Horizon: {"epochs": ("n_epochs", int), "years_per_epoch": ("years_per_epoch", int),
              "seasons": ("n_seasons", int), "hours": ("n_hours", int),
              "load_growth": ("load_growth", float),
              "maintenance_rate": ("maintenance_rate", float)},
}
_DEFAULTS = {cls: {f.name: f.default for f in fields(cls)} for cls in _FORMAT}

# field type -> (the JSON value types it accepts, how an error names them);
# a JSON bool is never a number and a JSON float is never a count or an id
_JSON_TYPES = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str, int), "a string or an integer"),
}
_JSON_TYPES[Bus] = _JSON_TYPES[str]


def _too_large(value) -> bool:
    """A JSON integer that no float can hold (``float(value)`` would overflow)."""
    return type(value) is int and abs(value) > sys.float_info.max


def _known(bus_id: str, known: set, where: str) -> str:
    if bus_id not in known:
        raise CaseError(f"unknown bus reference '{bus_id}' in {where}")
    return bus_id


def _read(cls, rec, where: str, known=frozenset()) -> dict:
    """Every ``cls`` field of the JSON object ``rec``: type-checked, or its default."""
    if type(rec) is not dict:
        raise CaseError(f"{where} must be a JSON object, got {rec!r}")
    values = {}
    for key, (name, kind) in _FORMAT[cls].items():
        default = _DEFAULTS[cls][name]
        value = rec.get(key, default)
        if value is MISSING:
            raise CaseError(f"missing required field '{key}' in {where}")
        if key not in rec or (value is None and default is None):
            values[name] = value
        elif type(value) not in _JSON_TYPES[kind][0]:
            raise CaseError(f"{where} '{key}' must be {_JSON_TYPES[kind][1]}, got {value!r}")
        elif kind in (int, float) and _too_large(value):
            raise CaseError(f"{where} '{key}' is an integer too large for a float")
        else:
            values[name] = _known(str(value), known, where) if kind is Bus else kind(value)
        if key == "id":
            where = f"{where} {values['id']}"
    return values


def _write(item) -> dict:
    """Every ``_FORMAT`` field of ``item`` under its JSON key."""
    return {key: getattr(item, name) for key, (name, _) in _FORMAT[type(item)].items()}


def _records(raw: dict, key: str, cls, where: str, known=frozenset(), default=None) -> tuple:
    """The ``cls`` records in the array ``raw[key]``; required unless ``default``."""
    if key not in raw and default is None:
        raise CaseError(f"missing required field '{key}' in case")
    recs = raw.get(key, default)
    if type(recs) is not list:
        raise CaseError(f"case '{key}' must be an array, got {recs!r}")
    return tuple(cls(**_read(cls, rec, where, known)) for rec in recs)


def parse_case(document: str) -> Case:
    """Parse a JSON case document into a :class:`Case`.

    Each value must have its field's JSON type, with no coercion: ids are
    strings or integers, counts integers, numbers integers or floats, flags
    ``true`` or ``false``; only ``parallel_to`` may be ``null``.  Omitted
    optional fields take the dataclass defaults: switchable branches, zero
    generator minimum, a 0.6 rad angle bound, and 3 five-year epochs of 4
    seasons x 24 hours with 2 % annual load growth and 4 % maintenance.

    Raises
    ------
    CaseError
        On JSON syntax errors (with position), a value of the wrong JSON
        type, missing required fields, or references to undeclared buses.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CaseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise CaseError("case document must be a JSON object")

    buses = _records(raw, "buses", Bus, "bus")
    known = {b.id for b in buses}
    generators = _records(raw, "generators", Generator, "generator", known)
    branches = _records(raw, "branches", Branch, "branch", known)
    candidates = _records(raw, "candidates", CandidateLine, "candidate", known, default=[])
    horizon = Horizon(**_read(Horizon, raw.get("horizon", {}), "horizon"))

    load_raw = raw.get("load", {})
    if isinstance(load_raw, dict):
        per_bus = {_known(bus_id, known, "load"): grid for bus_id, grid in load_raw.items()}
    elif isinstance(load_raw, list):
        if len(load_raw) != len(buses):
            raise CaseError(f"dense load array has {len(load_raw)} bus entries, "
                            f"case has {len(buses)} buses")
        per_bus = {bus.id: grid for bus, grid in zip(buses, load_raw)}
    else:
        raise CaseError("'load' must be an object keyed by bus id or a dense array")
    for bus_id, grid in per_bus.items():
        if type(grid) is not list or len(grid) != horizon.n_seasons or any(
                type(row) is not list or len(row) != horizon.n_hours for row in grid):
            raise CaseError(f"load for bus '{bus_id}' must be a dense {horizon.n_seasons}x"
                            f"{horizon.n_hours} [season][hour] array")
        bad = [mw for row in grid for mw in row if type(mw) not in _JSON_TYPES[float][0]]
        if bad:
            raise CaseError(f"load for bus '{bus_id}' must hold numbers, got {bad[0]!r}")
        if any(_too_large(mw) for row in grid for mw in row):
            raise CaseError(f"load for bus '{bus_id}' holds an integer too large for a float")

    return Case(buses=buses, generators=generators, branches=branches,
                candidates=candidates, horizon=horizon,
                load_profile=LoadProfile.from_arrays(per_bus), **_read(Case, raw, "case"))


def render_case(case: Case) -> str:
    """Serialize a case back to its JSON document form.

    Every field is written, defaults included (``"switchable": true``,
    ``"p_min": 0.0``, ``"parallel_to": null``).  ``parse_case(render_case(c))
    == c`` for every valid case: floats are written with full round-trip
    precision and zero-only load buses are omitted on both sides.
    """
    h = case.horizon
    doc = _write(case)
    for key in ("buses", "generators", "branches", "candidates"):
        doc[key] = [_write(item) for item in getattr(case, key)]
    doc.update(horizon=_write(h), load=case.load_profile.to_arrays(h.n_hours, h.n_seasons))
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
    # Load only grows with the epoch: one pass over the base-year load gives the
    # system peak, and a bisection over the epochs finds the first inadequate one.
    if h.load_growth < 0 or not all(c >= 1 for c in (h.n_epochs, h.n_seasons, h.n_hours)):
        return report
    system: dict[tuple[int, int], float] = {}
    for (bus, t, s), mw in case.load_profile.base_load.items():
        if bus in known:
            system[t, s] = system.get((t, s), 0.0) + mw
    base_peak = max([0.0, *system.values()])
    capacity = sum(g.p_max for g in case.generators)

    def peak(e: int) -> float:
        return grow_load(base_peak, h.load_growth, h.years_per_epoch, e)

    try:
        if not peak(h.n_epochs) > capacity:
            return report
    except OverflowError:
        report.errors.append(f"load growth {h.load_growth} over {h.n_epochs} epochs of "
                             f"{h.years_per_epoch} years overflows a float")
        return report
    first, last = 1, h.n_epochs     # the first inadequate epoch is in [first, last]
    while first < last:
        mid = (first + last) // 2
        first, last = (first, mid) if peak(mid) > capacity else (mid + 1, last)
    report.warnings.append(f"inadequate generation from epoch {first} on: peak load "
                           f"{peak(first):.3f} MW exceeds total capacity {capacity:.3f} MW")
    return report
