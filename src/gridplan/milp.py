"""Solver-agnostic mixed-integer linear program container.

Stores variables, linear constraints, and a linear objective exactly as
assembled, with no presolve or rescaling, so the model text can be audited
against the algebra that produced it.  Assignments are evaluated from the
stored data with exactly rounded row sums, making the evaluator a reliable
referee between solvers.

A model holds tens of thousands of rows and columns, so it keeps them in
typed arrays, not one record each: per column a binary flag, bounds and a
name; per row, in compressed sparse row form, the end of its terms in the
column-id and coefficient arrays, a sense code (its index in ``SENSES``)
and a right-hand side.  A row keeps its terms in the order given.
``add_variables`` and ``add_constraints`` check a whole batch with numpy
and extend the arrays with all of it or none of it; ``add_variable`` and
``add_constraint`` are their one-item cases.  ``parse_mps`` fills the
arrays directly.  ``variables`` and ``constraints`` build one slotted
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
from functools import reduce
from itertools import accumulate, chain, compress, count, repeat

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


def _check_bounds(binary: bool, lower, upper, names) -> None:
    """Raise for the first column whose bounds ``add_variables`` refuses,
    given the columns' bounds as float arrays and their names."""
    refused = (
        (~(lower <= upper), "variable '{name}': lower bound {lo} exceeds upper {up}"),
        ((lower == math.inf) | (upper == -math.inf),
         "variable '{name}': bounds leave no finite value"),
        (binary & ((lower < 0) | (upper > 1)),
         "binary variable '{name}' must have bounds within [0, 1]"),
    )
    bad = refused[0][0] | refused[1][0] | refused[2][0]
    if bad.any():
        i = int(bad.argmax())
        why = next(message for mask, message in refused if mask[i])
        raise ValueError(why.format(name=names[i], lo=lower[i], up=upper[i]))


def _first_refused_row(rows, columns, coefficients, senses, rhs, codes, n):
    """Message for the first row ``add_constraints`` refuses, or None.

    A row is checked as a loop would check it: its sense, then each term in
    order (column range, repeat of an earlier column, finite coefficient),
    then its right-hand side."""
    bad_column = (columns < 0) | (columns >= n)
    # a term repeats an earlier one when a stable sort by (row, column)
    # puts it right after an equal key
    key = rows * (n + 1) + np.where(bad_column, n, columns)
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(columns.size, dtype=bool)
    repeated[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    bad_term = bad_column | repeated | ~np.isfinite(coefficients)
    bad_row = (codes == len(SENSES)) | ~np.isfinite(rhs)
    bad_row[rows[bad_term]] = True
    if not bad_row.any():
        return None
    i = int(bad_row.argmax())
    if codes[i] == len(SENSES):
        return f"unknown constraint sense '{senses[i]}'"
    terms = np.flatnonzero(bad_term & (rows == i))
    if terms.size:
        t = terms[0]
        col = columns[t]
        if bad_column[t]:
            return f"constraint references unknown column {col}"
        if repeated[t]:
            return f"duplicate column {col} in constraint terms"
        return f"non-finite coefficient {coefficients[t]} for column {col}"
    return f"non-finite right-hand side {rhs[i]}"


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

    def add_variables(self, kind: str, lower, upper, names, objective=None) -> int:
        """Append columns of one ``kind``, all or none; returns the first.

        ``lower``, ``upper``, ``names`` and the optional ``objective``
        coefficients give one entry per column."""
        if kind not in _KINDS:
            raise ValueError(f"unknown variable kind '{kind}'")
        lo, up = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        cost = np.zeros(len(names)) if objective is None else np.asarray(objective, dtype=float)
        if not lo.shape == up.shape == cost.shape == (len(names),):
            raise ValueError("bounds, names and objective must give one entry per column")
        _check_bounds(kind == BINARY, lo, up, names)
        if not np.isfinite(cost).all():
            raise ValueError(f"non-finite objective coefficient {cost[~np.isfinite(cost)][0]}")
        first = len(self.names)
        self.lower.frombytes(lo.tobytes())
        self.upper.frombytes(up.tobytes())
        self.is_binary.extend(bytes([kind == BINARY]) * len(names))
        self.names.extend(names)
        priced = np.flatnonzero(cost)
        self.objective.update(zip((priced + first).tolist(), cost[priced].tolist()))
        return first

    def add_variable(self, kind: str, lower: float, upper: float, name: str = "") -> int:
        return self.add_variables(kind, [lower], [upper], [name])

    def add_constraints(self, ends, columns, coefficients, senses, rhs) -> int:
        """Append rows, all or none; returns the first.

        The rows are given in compressed sparse row form: row i's terms are
        ``columns``/``coefficients[ends[i - 1]:ends[i]]`` (from 0 for the
        first row), and ``senses`` and ``rhs`` give one entry per row."""
        ends = np.asarray(ends, dtype=np.int64)
        columns = np.asarray(columns)
        if columns.size and columns.dtype.kind not in "iu":
            raise TypeError(f"column ids must be integers, got {columns.dtype}")
        columns = columns.astype(np.int64)
        coefficients = np.asarray(coefficients, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        shaped = ends.shape == rhs.shape == (len(senses),)
        sizes = ends.copy()
        if shaped:
            sizes[1:] -= ends[:-1]
        if (not shaped or (sizes < 0).any()
                or not columns.shape == coefficients.shape == (sizes.sum(),)):
            raise ValueError("ends, senses and rhs must give one entry per row, "
                             "ends the end of each row's terms")
        codes = np.fromiter(map(_SENSE_CODES.get, senses, repeat(len(SENSES))),
                            np.uint8, len(senses))
        rows = np.arange(ends.size).repeat(sizes)
        why = _first_refused_row(rows, columns, coefficients, senses, rhs, codes,
                                 len(self.lower))
        if why is not None:
            raise ValueError(why)
        first = len(self.rhs)
        self.row_end.frombytes((ends + len(self.row_col)).tobytes())
        self.row_col.frombytes(columns.tobytes())
        self.row_coef.frombytes(coefficients.tobytes())
        self.row_sense.extend(codes.tobytes())
        self.rhs.frombytes(rhs.tobytes())
        return first

    def add_constraint(self, terms, sense: str, rhs: float) -> int:
        """Append a row given ``terms`` as an iterable of (column, coefficient)."""
        terms = list(terms)
        return self.add_constraints([len(terms)], [col for col, _ in terms],
                                    [coef for _, coef in terms], [sense], [rhs])

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
        """Correctly rounded sum of the objective's products, plus the
        offset; where the products overflow that sum or meet as opposite
        infinities, their IEEE sum (±inf or NaN) instead."""
        products = [c * float(x[j]) for j, c in sorted(self.objective.items())]
        try:
            total = math.fsum(products)
        except (OverflowError, ValueError):
            total = reduce(operator.add, products)
        return total + self.objective_offset

    def copy(self) -> "Milp":
        """Independent copy."""
        return copy.deepcopy(self)

    def with_bounds(self, column: int, lower: float, upper: float) -> None:
        """Replace one variable's bounds in place (used to pin binaries);
        checked as ``add_variable`` checks them."""
        if not 0 <= column < len(self.lower):
            raise ValueError(f"bounds reference unknown column {column}")
        lo, up = np.array([lower], dtype=float), np.array([upper], dtype=float)
        _check_bounds(bool(self.is_binary[column]), lo, up, [self.names[column]])
        self.lower[column], self.upper[column] = lo[0], up[0]


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
    bounds, and a binary's integrality, by infinity, so it is never
    feasible.  A row's activity is the correctly rounded sum (``math.fsum``)
    of its terms' products; a row whose products overflow that sum or meet
    as opposite infinities has an infinite violation, and the objective is
    then the IEEE sum of its products, ±inf or NaN.

    Rows are summed with numpy, and with ``math.fsum`` only where that may
    change the maximum (the exact-max rule).  A finite vectorised sum of at
    most two nonzero products is correctly rounded already.  A sum of k
    nonzero products errs by at most γ(k-1)·Σ|p| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., §4.2), which brackets the
    row's exact violation; such a row is re-summed exactly unless its
    bracket lies at or below the largest exact violation, or below the
    least that another row is known to reach.  Rows whose sum is not finite
    are always re-summed.  So every field is the one a ``math.fsum`` of
    every row gives, bit for bit.
    """
    if len(assignment) != model.n_variables:
        raise ValueError(
            f"assignment has {len(assignment)} entries, model has {model.n_variables} columns"
        )
    x = np.array(assignment, dtype=float)
    finite = np.isfinite(x)
    binary = np.array(model.is_binary, dtype=bool)
    with np.errstate(all="ignore"):     # overflow and inf - inf end up as inf or NaN
        beyond = np.maximum(np.array(model.lower) - x, x - np.array(model.upper))
        fraction = np.abs(x[binary] - np.rint(x[binary]))
    bound_violation = _largest(beyond) if finite.all() else math.inf
    integrality_violation = _largest(fraction) if finite[binary].all() else math.inf
    row_violation = _max_row_violation(model, x)
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


def _largest(values) -> float:
    """The largest of 0.0 and ``values``, which only a larger value replaces
    (no -0.0, no NaN), as a max() loop from 0.0 keeps it."""
    above = values[values > 0.0]
    return float(above.max()) if above.size else 0.0


def _row_violation(products, code: int, rhs: float) -> float:
    """One row's violation from its products, summed exactly."""
    try:
        excess = math.fsum(products) - rhs
    except (OverflowError, ValueError):     # overflow, or opposite infinities
        return math.inf
    return (excess, -excess, abs(excess))[code]     # LE, GE, EQ


def _max_row_violation(model: Milp, x) -> float:
    """The largest row violation, by the exact-max rule of
    ``evaluate_assignment``."""
    ends = np.array(model.row_end, dtype=np.int64)
    sizes = ends.copy()
    sizes[1:] -= ends[:-1]
    rows = np.arange(ends.size).repeat(sizes)
    codes = np.array(model.row_sense, dtype=np.intp)
    rhs = np.array(model.rhs)
    inf = math.inf
    with np.errstate(all="ignore"):     # non-finite rows are summed exactly below
        products = np.array(model.row_coef) * x[np.array(model.row_col, dtype=np.int64)]
        total = np.bincount(rows, products, ends.size)
        excess = total - rhs
        violation = codes.choose((excess, -excess, np.abs(excess)))
        # adding a zero is exact, so with k nonzero products the error is at
        # most γ(k-1)·Σ|p| < 2(k-1)u times the computed Σ|p|; one ulp outward
        # after each rounded step keeps the bracket sure
        nonzero = np.bincount(rows, products != 0.0, ends.size)
        error = np.bincount(rows, np.abs(products), ends.size) * (nonzero - 1) * 2.0**-52
        low = np.nextafter(np.nextafter(total - error, -inf) - rhs, -inf)
        high = np.nextafter(np.nextafter(total + error, inf) - rhs, inf)
        lowest = codes.choose((low, -high, np.maximum(low, -high)))
        highest = codes.choose((high, -low, np.maximum(-low, high)))
    exact = (nonzero <= 2) & np.isfinite(total)
    known = _largest(violation[exact])
    bracketed = ~exact & np.isfinite(low) & np.isfinite(high)
    floor = max(known, lowest[bracketed].max(initial=0.0))
    # a row that can neither exceed the value reported already nor reach
    # what another row is known to reach is left out
    check = ~exact & ~(bracketed & ((highest <= known) | (highest < floor)))
    if not check.any():
        return known
    values = products[check[rows]].tolist()
    stops = list(accumulate(sizes[check].tolist()))
    terms = map(values.__getitem__, map(slice, chain([0], stops), stops))
    rest = map(_row_violation, terms, codes[check].tolist(), rhs[check].tolist())
    return max(known, _largest(np.fromiter(rest, float, len(stops))))
