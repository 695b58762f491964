"""Solver-agnostic mixed-integer linear program container.

Stores variables, linear constraints, and a linear objective exactly as
assembled, with no presolve or rescaling, so the model text can be audited
against the algebra that produced it.  Assignments are evaluated from the
stored data with compensated summation, making the evaluator a reliable
referee between solvers.

A model holds tens of thousands of rows and columns, so it keeps them in
typed arrays, not one record each: per column a binary flag, bounds and a
name; per row, in compressed sparse row form, the end of its terms in the
column-id and coefficient arrays, a sense code (its index in ``SENSES``)
and a right-hand side.  A row keeps its terms in the order given.  The
append methods check their input and extend the arrays; ``parse_mps``
fills them in bulk.  ``variables`` and ``constraints`` build one slotted
record per column or row on each read, for tests and demos; no stage of
the package reads them.  A model is a dozen containers and its names
however large it is, so the cyclic garbage collector, which traverses
containers, has almost nothing in it to visit.
"""

from __future__ import annotations

import copy
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import compress, count

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"

LE = "<="
GE = ">="
EQ = "="

# a row's sense code is the index of its sense here
SENSES = (LE, GE, EQ)
_SENSE_CODES = {sense: code for code, sense in enumerate(SENSES)}
_KINDS = (CONTINUOUS, BINARY)      # indexed by the binary flag

# largest violation of a row, bound or integrality a feasible assignment has
FEASIBILITY_TOL = 1e-6


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


def _check_bounds(kind: str, lower: float, upper: float, name: str) -> None:
    if kind not in _KINDS:
        raise ValueError(f"unknown variable kind '{kind}'")
    if not lower <= upper:
        raise ValueError(f"variable '{name}': lower bound {lower} exceeds upper {upper}")
    if lower == math.inf or upper == -math.inf:
        raise ValueError(f"variable '{name}': bounds leave no finite value")
    if kind == BINARY and (lower < 0 or upper > 1):
        raise ValueError(f"binary variable '{name}' must have bounds within [0, 1]")


class Milp:
    """Minimization MILP: typed bounded variables, rows, sparse objective.

    The arrays below are the model: read them, change them only through the
    methods, which keep them checked and consistent."""

    def __init__(self):
        # columns
        self.is_binary = bytearray()          # 1 for a binary column
        self.lower = array("d")
        self.upper = array("d")
        self.names: list[str] = []
        # rows: row i's terms are row_col/row_coef[row_end[i - 1]:row_end[i]]
        self.row_end = array("q")
        self.row_col = array("q")
        self.row_coef = array("d")
        self.row_sense = bytearray()          # index into SENSES
        self.rhs = array("d")
        self.objective: dict[int, float] = {}
        self.objective_offset = 0.0

    @property
    def n_variables(self) -> int:
        return len(self.lower)

    @property
    def n_constraints(self) -> int:
        return len(self.rhs)

    @property
    def variables(self) -> list[Variable]:
        """One record per column, built on each read."""
        return list(map(Variable, count(), map(_KINDS.__getitem__, self.is_binary),
                        self.lower, self.upper, self.names))

    @property
    def constraints(self) -> list[LinearConstraint]:
        """One record per row, built on each read."""
        cols, coefs = self.row_col.tolist(), self.row_coef.tolist()
        starts = [0, *self.row_end[:-1]]
        return [LinearConstraint(tuple(cols[s:e]), tuple(coefs[s:e]), SENSES[code], rhs)
                for s, e, code, rhs in zip(starts, self.row_end, self.row_sense, self.rhs)]

    def entries(self):
        """(row, column, coefficient) of every term in row order, as new
        numpy arrays that do not pin the model's own."""
        ends = np.array(self.row_end, dtype=np.int64)
        rows = np.repeat(np.arange(ends.size), np.diff(ends, prepend=0))
        return rows, np.array(self.row_col, dtype=np.int64), np.array(self.row_coef)

    def binary_columns(self) -> list[int]:
        return list(compress(range(self.n_variables), self.is_binary))

    def add_variable(self, kind: str, lower: float, upper: float, name: str = "") -> int:
        _check_bounds(kind, lower, upper, name)
        lower, upper = float(lower), float(upper)
        self.lower.append(lower)
        self.upper.append(upper)
        self.is_binary.append(kind == BINARY)
        self.names.append(name)
        return len(self.names) - 1

    def add_constraint(self, terms, sense: str, rhs: float) -> int:
        """Append a row given ``terms`` as an iterable of (column, coefficient)."""
        code = _SENSE_CODES.get(sense)
        if code is None:
            raise ValueError(f"unknown constraint sense '{sense}'")
        n, isfinite = len(self.lower), math.isfinite
        cols, coefs, seen = [], [], set()
        for col, coef in terms:
            if not 0 <= col < n:
                raise ValueError(f"constraint references unknown column {col}")
            if col in seen:
                raise ValueError(f"duplicate column {col} in constraint terms")
            if not isfinite(coef):
                raise ValueError(f"non-finite coefficient {coef} for column {col}")
            seen.add(col)
            cols.append(col)
            coefs.append(coef)
        if not isfinite(rhs):
            raise ValueError(f"non-finite right-hand side {rhs}")
        self.row_col.fromlist(cols)     # all or nothing
        self.row_coef.fromlist(coefs)
        self.row_end.append(len(self.row_col))
        self.row_sense.append(code)
        self.rhs.append(rhs)
        return len(self.rhs) - 1

    def set_objective_coefficient(self, column: int, coefficient: float) -> None:
        if not 0 <= column < len(self.lower):
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
        """Independent copy."""
        return copy.deepcopy(self)

    def with_bounds(self, column: int, lower: float, upper: float) -> None:
        """Replace one variable's bounds in place (used to pin binaries);
        checked as ``add_variable`` checks them."""
        if not 0 <= column < len(self.lower):
            raise ValueError(f"bounds reference unknown column {column}")
        _check_bounds(_KINDS[self.is_binary[column]], lower, upper, self.names[column])
        self.lower[column] = float(lower)
        self.upper[column] = float(upper)


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
    bounds, and a binary's integrality, by infinity, so it is never feasible.  A row's activity is the
    correctly rounded sum (``math.fsum``) of its terms' products.
    """
    if len(assignment) != model.n_variables:
        raise ValueError(
            f"assignment has {len(assignment)} entries, model has {model.n_variables} columns"
        )
    products = list(map(operator.mul, model.row_coef,
                        map(assignment.__getitem__, model.row_col)))
    row_violation = 0.0     # a NaN violation never replaces it, as with max()
    start = 0
    for end, code, rhs in zip(model.row_end, model.row_sense, model.rhs):
        excess = math.fsum(products[start:end]) - rhs
        start = end
        violation = (excess, -excess, abs(excess))[code]      # LE, GE, EQ
        if violation > row_violation:
            row_violation = violation
    bound_violation = 0.0
    integrality_violation = 0.0
    for lower, upper, x in zip(model.lower, model.upper, assignment):
        if not math.isfinite(x):
            bound_violation = math.inf  # max() would drop a NaN
        bound_violation = max(bound_violation, lower - x, x - upper)
    bound_violation = max(bound_violation, 0.0)
    for x in compress(assignment, model.is_binary):
        integrality_violation = max(integrality_violation,
                                    abs(x - round(x)) if math.isfinite(x) else math.inf)
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
