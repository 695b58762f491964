"""Solver-agnostic mixed-integer linear program container.

Stores variables, linear constraints, and a linear objective exactly as
assembled, with no presolve or rescaling, so the model text can be audited
against the algebra that produced it.  Assignments are evaluated from the
stored data with compensated summation, making the evaluator a reliable
referee between solvers.

A model holds tens of thousands of row and column records, so both are
slotted, and the bulk passes over whole models (``build_milp``,
``write_mps``, ``parse_mps`` and ``read_solution``) run under ``nogc``:
they create hundreds of thousands of short-lived containers and no
reference cycles, so reference counting frees everything they drop and the
cyclic collector's passes over the live models are pure cost.
"""

from __future__ import annotations

import functools
import gc
import math
import operator
from dataclasses import dataclass, field

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
GE = ">="
EQ = "="

_SENSES = (LE, GE, EQ)

# largest violation of a row, bound or integrality a feasible assignment has
FEASIBILITY_TOL = 1e-6


def nogc(func):
    """Run ``func`` with the cyclic garbage collector paused.

    The collector is re-enabled afterwards only if it was enabled on entry,
    so nested calls, raising calls and callers that turned it off all leave
    its state as they found it.  Only for functions that create no
    reference cycles: reference counting still frees all they drop.
    """
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return wrapper


@dataclass(frozen=True, slots=True)
class Variable:
    column: int
    kind: str            # CONTINUOUS or BINARY
    lower: float
    upper: float
    name: str


@dataclass(frozen=True, slots=True)
class LinearConstraint:
    columns: tuple[int, ...]
    coefficients: tuple[float, ...]
    sense: str           # one of "<=", ">=", "="
    rhs: float

    def activity(self, x) -> float:
        return math.fsum(map(operator.mul, self.coefficients,
                             map(x.__getitem__, self.columns)))

    def violation(self, x) -> float:
        """Absolute constraint violation at ``x`` (0 when satisfied).

        Scaling a row and its rhs by a positive factor scales this value by
        the same factor; violations are never normalized.
        """
        a = self.activity(x)
        if self.sense == LE:
            return max(0.0, a - self.rhs)
        if self.sense == GE:
            return max(0.0, self.rhs - a)
        return abs(a - self.rhs)


@dataclass
class Milp:
    """Minimization MILP: typed bounded variables, rows, sparse objective."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    objective_offset: float = 0.0

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def binary_columns(self) -> list[int]:
        return [v.column for v in self.variables if v.kind == BINARY]

    def add_variable(self, kind: str, lower: float, upper: float, name: str = "") -> int:
        if kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown variable kind '{kind}'")
        if not lower <= upper:
            raise ValueError(f"variable '{name}': lower bound {lower} exceeds upper {upper}")
        if lower == math.inf or upper == -math.inf:
            raise ValueError(f"variable '{name}': bounds leave no finite value")
        if kind == BINARY and (lower < 0 or upper > 1):
            raise ValueError(f"binary variable '{name}' must have bounds within [0, 1]")
        column = len(self.variables)
        self.variables.append(Variable(column, kind, float(lower), float(upper), name))
        return column

    def add_constraint(self, terms, sense: str, rhs: float) -> int:
        """Append a row given ``terms`` as an iterable of (column, coefficient)."""
        if sense not in _SENSES:
            raise ValueError(f"unknown constraint sense '{sense}'")
        cols = []
        coefs = []
        seen = set()
        for col, coef in terms:
            if not 0 <= col < len(self.variables):
                raise ValueError(f"constraint references unknown column {col}")
            if col in seen:
                raise ValueError(f"duplicate column {col} in constraint terms")
            if not math.isfinite(coef):
                raise ValueError(f"non-finite coefficient {coef} for column {col}")
            seen.add(col)
            cols.append(col)
            coefs.append(float(coef))
        if not math.isfinite(rhs):
            raise ValueError(f"non-finite right-hand side {rhs}")
        self.constraints.append(
            LinearConstraint(tuple(cols), tuple(coefs), sense, float(rhs))
        )
        return len(self.constraints) - 1

    def set_objective_coefficient(self, column: int, coefficient: float) -> None:
        if not 0 <= column < len(self.variables):
            raise ValueError(f"objective references unknown column {column}")
        if not math.isfinite(coefficient):
            raise ValueError(f"non-finite objective coefficient {coefficient}")
        if coefficient == 0.0:
            self.objective.pop(column, None)
        else:
            self.objective[column] = float(coefficient)

    def objective_value(self, x) -> float:
        terms = sorted(self.objective.items())
        return math.fsum(c * x[j] for j, c in terms) + self.objective_offset

    def copy(self) -> "Milp":
        """Independent copy; rows and variables are immutable and shared."""
        model = Milp()
        model.variables = list(self.variables)
        model.constraints = list(self.constraints)
        model.objective = dict(self.objective)
        model.objective_offset = self.objective_offset
        return model

    def with_bounds(self, column: int, lower: float, upper: float) -> None:
        """Replace one variable's bounds in place (used to pin binaries)."""
        if not 0 <= column < len(self.variables):
            raise ValueError(f"bounds reference unknown column {column}")
        old = self.variables[column]
        if not lower <= upper:
            raise ValueError(f"lower bound {lower} exceeds upper {upper}")
        self.variables[column] = Variable(old.column, old.kind, float(lower), float(upper), old.name)


@dataclass(frozen=True)
class Evaluation:
    objective: float
    max_constraint_violation: float
    max_bound_violation: float
    max_integrality_violation: float
    feasible: bool


def evaluate_assignment(model: Milp, assignment) -> Evaluation:
    """Exact bookkeeping of how well ``assignment`` satisfies ``model``.

    Pure function of its inputs: identical inputs give bit-identical results.
    Feasible means every violation maximum is at most ``FEASIBILITY_TOL``;
    all violations are absolute.  A NaN or infinite entry violates its
    bounds by infinity, so it is never feasible.
    """
    if len(assignment) != model.n_variables:
        raise ValueError(
            f"assignment has {len(assignment)} entries, model has {model.n_variables} columns"
        )
    row_violation = 0.0
    for con in model.constraints:
        row_violation = max(row_violation, con.violation(assignment))
    bound_violation = 0.0
    integrality_violation = 0.0
    for v in model.variables:
        x = assignment[v.column]
        if not math.isfinite(x):
            bound_violation = math.inf  # max() would drop a NaN
        bound_violation = max(bound_violation, v.lower - x, x - v.upper)
    bound_violation = max(bound_violation, 0.0)
    for v in model.variables:
        if v.kind == BINARY:
            x = assignment[v.column]
            integrality_violation = max(integrality_violation, abs(x - round(x)))
    return Evaluation(
        objective=model.objective_value(assignment),
        max_constraint_violation=row_violation,
        max_bound_violation=bound_violation,
        max_integrality_violation=integrality_violation,
        feasible=(
            row_violation <= FEASIBILITY_TOL
            and bound_violation <= FEASIBILITY_TOL
            and integrality_violation <= FEASIBILITY_TOL
        ),
    )
