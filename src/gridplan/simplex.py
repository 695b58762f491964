"""Bounded-variable simplex for the planning LPs.

Solves continuous relaxations and fixed-binary subproblems.  The method is a
tableau simplex over general variable bounds:

* every row gets a slack with a box of its own, giving an equality system
  ``[A | I] z = b`` with box bounds on ``z``.  ``DenseLp`` owns this
  standard form as ``A`` and the slack boxes (``I`` stays implicit), built
  with the scaled cost once per model and shared read-only by every solve,
  so LPs of one model differ only in the structural bounds a solve passes in.
  ``from_milp`` maps each row's sense to a box: ``<=`` rows take a
  nonnegative slack, ``>=`` rows a nonpositive one, ``=`` rows a slack fixed
  at zero.  ``presolve`` uses wider boxes, below;
* ``presolve`` makes the search's smaller LP.  Each column fixed by its
  bounds folds into ``b`` and the objective constant.  A zero-cost
  continuous column f with coefficient 1 in an ``=`` row r of three terms,
  whose other two columns could not leave this way themselves (a line's
  flow in its flow-law row), leaves too: row r keeps its other terms, its
  slack becomes f with f's box, and every other row that held f gets row
  r's terms in its place.  ``Postsolve`` maps x back: f is the slack,
  ``b_r`` minus the rest of row r times x (Andersen & Andersen, "Presolving
  in linear programming", Math. Programming 71(2), 1995);
* every solve is a bounded dual simplex from the first of three start
  bases whose attempt does not fail: the caller's (a branch and bound
  parent, whose child differs only in variable bounds), the crash basis,
  and the all-slack basis ``B = I``, the one start that always factors,
  whose outcome is final.  The crash basis is ``B = I`` with some columns
  that the slack basis marks free (below) made basic in ``=`` rows: a row
  and a column pair up when each is the other's largest |entry| among
  them, and when the pairs' block of A has no clean inverse, an
  elimination in row order drops the pairs whose pivot vanishes (Bixby,
  "Implementing the simplex method: the initial basis", ORSA J. Computing
  4(3), 1992).  Those columns cost 0, so the duals stay 0, and reduced
  costs and nonbasic placement are the slack basis's: only x_B differs.
  On a planning model the angles and gated flows start basic in the
  balance rows instead of entering them at ratio 0, one pivot each.
  The dual simplex is the only code that pivots: the leaving row r is
  the largest primal infeasibility, the entering column the smallest
  ratio |d_j / alpha_rj| (ties to the largest |alpha_rj|, then to the
  lowest column id) among the columns that, moved off their bound, move
  the leaving value toward its violated bound, and whose entry in row r
  exceeds ``_PIV_TOL * max(1, max_j |alpha_rj|)``: noise never pivots;
* each nonbasic column sits at the bound its reduced cost calls for, with
  one exception: a column whose reduced cost is zero (within
  ``_OPT_TOL``), whose box holds 0 strictly inside, and which its start
  marks free or which has no finite bound sits free at 0.  It enters at
  ratio 0 whichever way a row needs it, so that costs no dual
  feasibility.  The slack basis marks every zero-cost column with 0
  inside its box, the angles and flows of a planning model, so on such a
  model its start breaks only the loaded balance rows; a basis passes
  the marks of its columns still free on to the LPs that start from it.
  A column whose reduced cost pulls it toward an infinite bound (a
  one-sided or free column) gets an artificial bound a fixed width from
  its finite bound, or from 0 when free, so every start is dual feasible
  (Koberstein, "The dual simplex method", PhD thesis, Paderborn 2005, for
  both rules).  Outcomes are checked against the true bounds;
* a row that no column can repair proves the LP infeasible: that row of
  ``B^-1``, signed by the direction its basic value must move, is a Farkas
  ray.  An optimum resting on artificial bounds proves the LP unbounded
  when moving those columns further out improves the objective and moves
  no basic value toward a finite true bound;
* the tableau is condensed: it holds ``B^-1 [A | I]`` at the n nonbasic
  columns only (m x n), with ``nonbasic`` naming the column at each of its
  positions; basic columns are implicit unit vectors.  A pivot exchanges
  columns: the leaving column takes the entering one's position.  It costs
  the selection, a few vector operations over row r, and a rank-1 update
  of only the rows where the entering column is nonzero, done in place with
  the dense formula's operations on every entry it writes.  Positions
  permute as columns swap, so no rule reads a position's order;
* a basis is factored in one place, ``_Simplex._refresh``, which rebuilds
  the tableau from original data.  B is block triangular once the rows
  whose slack is basic come last, so only the k x k block of A under the k
  basic structural columns is inverted (none for the slack basis).
  ``B^-1`` is never formed: since the slack columns are the identity, its
  column for a row is the tableau column of that row's slack when the slack
  is nonbasic, and a unit vector when it is basic.  Duals, basic values and
  Farkas rows are read off it that way.  Only ``_Simplex.run`` refactors,
  and each refactor starts a round, which recomputes the basic values;
* a ``DenseLp`` keeps two tableaux, and no factor is repeated for either.
  One is that of its last certified optimum: a solve that starts from that
  very ``Basis`` (a plunge child, a polish LP) pivots on from it with no
  refactor, once its round has computed its reduced costs.  The refactor
  cadence counts pivots since the tableau was factored, across solves.
  The other is the fresh factor of the last start a solve refactored,
  the slack basis excepted, whose factor is free: a later start from the
  same columns (the sibling of a node whose parent basis was just
  factored, or another crash start) copies it.  A factor is a function of
  the basis columns and ``A`` alone, so the copy is exactly the refactor
  it saves;
* before any outcome is reported, it is checked against the original data
  with the tableau's duals: optimal claims must be dual feasible, meet
  every row and bound within half ``_FEAS_TOL``, and carry a weak-duality
  bound that matches the primal objective, and infeasible claims carry a
  row combination whose implied bound contradicts the variable box.  Both
  bounds hold for any duals, so their strength does not depend on where
  the duals come from.  One rule retries every verdict that is not
  certified, an optimum the artificial bounds may have caused included:
  refactor, then another round with wider artificial bounds.  A verdict
  still uncertified after ``_MAX_ROUNDS`` rounds is reported as
  ``failure``, never as a wrong ``optimal``.

The tableau is dense.  It is refactored from original data only between
rounds: after a verdict that fails its certificate, and after
``_REFRESH_EVERY`` pivots on one factor, which ends a round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .milp import GE, LE, SENSES, Milp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
FAILURE = "failure"

# nonbasic/basic markers
_BASIC = 0
_AT_LO = 1
_AT_UP = 2
_FREE = 3
_FIXED = 4
# per marker, the way a nonbasic column may leave its bound (_dual_loop)
_LEAN = np.array([0.0, 1.0, -1.0, 0.0, 0.0])
_LEAN.flags.writeable = False

_FEAS_TOL = 1e-7
_OPT_TOL = 1e-7
_PIV_TOL = 1e-10
_REFRESH_EVERY = 700
# a crash block's inverse residual, and its elimination's relative pivot
_CRASH_TOL = 1e-9

# artificial bounds: first width, growth per retry, and the number of rounds
# (dual simplex runs) one attempt may take before it gives up
_ART_WIDTH = 1e6
_ART_GROWTH = 1e3
_MAX_ROUNDS = 8

_LE_CODE, _GE_CODE = SENSES.index(LE), SENSES.index(GE)


@dataclass(frozen=True)
class Basis:
    """Start point for a dual simplex solve: the final basis of an optimal
    LP, or one of a model's shared starts, its crash basis
    (``DenseLp.crash_basis``) and its all-slack basis
    (``DenseLp.slack_basis``).

    ``columns`` lists the basic column of each row; ``status`` holds the
    basic/nonbasic marker of every structural and slack column.  A start
    whose columns do not fit the model is refused.
    """

    columns: np.ndarray
    status: np.ndarray


@dataclass
class LpOutcome:
    """Result of one LP solve.

    ``x`` and ``objective`` are set when ``status`` is ``optimal``;
    ``dual_bound`` is the certifying lower bound from the final duals, and
    ``basis`` the final basis, to warm-start LPs that differ only in bounds.
    ``iterations`` counts every pivot, including those of a dual simplex
    start that was given up for the next one.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    dual_bound: float | None = None
    iterations: int = 0
    message: str = ""
    basis: Basis | None = None


class DenseLp:
    """Dense row/bound arrays for a model, reusable across many solves.

    Integrality is dropped here: binary columns are carried as continuous
    columns with their [0, 1] (or pinned) bounds.  The standard form that
    every solve shares is built here once: ``A`` and the slack box of each
    row (``I`` stays implicit), the cost scaled by ``sigma`` with zero slack
    costs, and the two shared starts, the all-slack basis and the crash
    basis.  Solves read these arrays and never write into them; a solve
    varies only the structural bounds.

    A solve writes two fields.  ``_slot`` holds the ``Basis`` of the last
    solve that ended certified optimal, the column at each position of its
    m x n tableau, that tableau and the pivots made since it was factored.
    The next solve takes it and reuses the tableau only if it starts from
    that very ``Basis`` object; any other start, an equal copy included,
    drops it.  So a warm solve's rounding
    depends on whether it starts from the last basis returned.
    ``_factor`` holds the basis columns, the nonbasic columns and the
    tableau of the last start other than the slack basis that a solve
    refactored, as ``_refresh`` left them; a start with those columns copies
    them instead of refactoring, bit for bit the same.  So at most two
    tableaux are kept.
    """

    def __init__(self, a, b, slack_lo, slack_up, lo, up, c, c0=0.0):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.up = np.asarray(up, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.c0 = float(c0)

        m, n = self.a.shape
        self.slack_lo = np.array(slack_lo, dtype=float).reshape(m)
        self.slack_up = np.array(slack_up, dtype=float).reshape(m)
        # objective scaling keeps reduced-cost tolerances meaningful when
        # capital costs (1e6..1e9 dollars) share a model with MW quantities
        self.sigma = max(1.0, float(np.max(np.abs(self.c))) if n else 1.0)
        self.cost = np.concatenate([self.c / self.sigma, np.zeros(m)])
        # B = I, the last start of every solve; a zero-cost column with 0
        # inside its box may start free at zero
        slacks = np.arange(n, n + m, dtype=np.int64)
        status = np.full(n + m, _AT_LO, dtype=np.int8)
        status[:n][(self.c == 0.0) & (self.lo < 0.0) & (self.up > 0.0)] = _FREE
        status[n:] = _BASIC
        self.slack_basis = Basis(slacks, status)
        for shared in (self.slack_lo, self.slack_up, self.cost, slacks, status):
            shared.flags.writeable = False
        self.crash_basis = self._crash()
        self._slot = self._factor = None

    def _crash(self) -> Basis:
        """The slack basis with columns it marks ``_FREE`` basic in ``=``
        rows: a row and a column pair up when each is the other's largest
        |entry| among them, and when the pairs' block of ``A`` is not
        ``_invertible``, only those that ``_eliminate`` keeps stay.  With
        no pair left, it is the slack basis itself."""
        n = self.a.shape[1]
        status = self.slack_basis.status
        rows = ((self.slack_lo == 0.0) & (self.slack_up == 0.0)).nonzero()[0]
        cols = (status[:n] == _FREE).nonzero()[0]
        mag = np.abs(self.a[np.ix_(rows, cols)])
        if not mag.size:
            return self.slack_basis
        pick = mag.argmax(axis=1)
        each = np.arange(rows.size)
        mutual = (mag.argmax(axis=0)[pick] == each) & (mag[each, pick] > 0.0)
        rows, cols = rows[mutual], cols[pick[mutual]]
        block = self.a[np.ix_(rows, cols)]
        if not _invertible(block):
            keep = _eliminate(block)
            rows, cols = rows[keep], cols[keep]
            if not _invertible(self.a[np.ix_(rows, cols)]):
                return self.slack_basis
        if not rows.size:
            return self.slack_basis
        columns = self.slack_basis.columns.copy()
        columns[rows] = cols
        status = status.copy()
        status[cols], status[n + rows] = _BASIC, _FIXED
        columns.flags.writeable = status.flags.writeable = False
        return Basis(columns, status)

    @classmethod
    def from_milp(cls, model: Milp) -> "DenseLp":
        return cls(*_dense_form(model), model.objective_offset)

    def solve(self, lo=None, up=None, basis: Basis | None = None) -> LpOutcome:
        """Solve with bounds ``lo``/``up`` by dual simplex from ``basis`` when
        given, then from the crash basis, then from the slack basis, each
        start once: the first outcome that is not ``failure`` is final, and
        so is the slack basis's."""
        lo = self.lo if lo is None else np.asarray(lo, dtype=float)
        up = self.up if up is None else np.asarray(up, dtype=float)
        iterations, tried = 0, []
        for start in (basis, self.crash_basis, self.slack_basis):
            if start is None or any(start is seen for seen in tried):
                continue
            tried.append(start)
            attempt = _Simplex(self, lo, up)
            outcome = attempt.run(start)
            iterations += attempt.iterations
            outcome.iterations = iterations
            if outcome.status != FAILURE:
                break
        return outcome


def _invertible(block) -> bool:
    """Whether square ``block`` has an inverse that multiplies back to I
    within ``_CRASH_TOL``."""
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        return False
    return bool(np.abs(block @ inv - np.eye(len(block))).max(initial=0.0) <= _CRASH_TOL)


def _eliminate(block) -> np.ndarray:
    """Which diagonal pivots of square ``block`` Gaussian elimination in
    order keeps: a pivot within ``_CRASH_TOL`` of zero, relative to its
    entry in ``block``, is skipped with its row and column."""
    w = block.copy()
    keep = np.zeros(len(block), dtype=bool)
    for i in range(len(block)):
        if abs(w[i, i]) <= _CRASH_TOL * abs(block[i, i]):
            continue
        keep[i] = True
        w[i + 1:, i + 1:] -= np.outer(w[i + 1:, i] / w[i, i], w[i, i + 1:])
    return keep


def _dense_form(model: Milp):
    """``A``, ``b``, the slack boxes, the column bounds and the cost of
    ``model``, as new arrays.  A ``<=`` row takes a nonnegative slack, a
    ``>=`` row a nonpositive one, and an ``=`` row a slack fixed at zero."""
    rows, cols, coefs = model.entries()
    a = np.zeros((model.n_constraints, model.n_variables))
    a[rows, cols] = coefs
    c = np.zeros(model.n_variables)
    c[np.fromiter(model.objective, dtype=np.int64)] = list(model.objective.values())
    sense = np.frombuffer(bytes(model.row_sense), dtype=np.uint8)
    return (a, np.array(model.rhs), np.where(sense == _GE_CODE, -np.inf, 0.0),
            np.where(sense == _LE_CODE, np.inf, 0.0),
            np.array(model.lower), np.array(model.upper), c)


@dataclass(frozen=True)
class Postsolve:
    """Maps an x of a presolved LP to every column of its model.

    LP column i is model column ``kept[i]``; model columns ``fixed`` sit at
    ``value``; model column ``flows[k]`` is the slack of the LP row whose
    coefficients and right-hand side are ``law_a[k]`` and ``law_b[k]``.
    """

    kept: np.ndarray
    fixed: np.ndarray
    value: np.ndarray
    flows: np.ndarray
    law_a: np.ndarray
    law_b: np.ndarray

    def __call__(self, x) -> np.ndarray:
        full = np.empty(self.kept.size + self.fixed.size + self.flows.size)
        full[self.kept] = x
        full[self.fixed] = self.value
        full[self.flows] = self.law_b - self.law_a @ x
        return full


def presolve(model: Milp) -> tuple[DenseLp, Postsolve]:
    """The smaller LP of ``model`` that the search solves, and its postsolve.

    Fixed columns fold into ``b`` and the objective constant.  A zero-cost
    continuous column with coefficient 1 in an ``=`` row of three model
    terms (a fixed one counts) leaves when no other column of that row could
    leave this way, by its lowest such row: the row's slack takes the
    column's box, and every other row that held it subtracts its coefficient
    times that row, in row order.  The LP keeps every row, and the other
    columns in model order.
    """
    a, b, slack_lo, slack_up, lo, up, c = _dense_form(model)
    terms = a != 0.0
    law = (slack_lo == 0.0) & (slack_up == 0.0) & (terms.sum(axis=1) == 3)
    fixed = lo == up
    value = lo[fixed]
    # numpy sums, not BLAS products: b and c0 do not depend on the threads
    b -= (a[:, fixed] * value).sum(axis=1)
    c0 = model.objective_offset + float((c[fixed] * value).sum())
    a[:, fixed] = 0.0

    movable = (c == 0.0) & ~fixed & (np.frombuffer(bytes(model.is_binary), np.uint8) == 0)
    unit = law[:, None] & movable & (a == 1.0)
    # a row whose only term that could leave is its unit one
    rows = ((terms & unit.any(axis=0)).sum(axis=1) == 1) & unit.any(axis=1)
    rows = rows.nonzero()[0]
    flows, first = np.unique(unit[rows].nonzero()[1], return_index=True)
    rows = rows[first]

    held = a[:, flows]
    held[rows, np.arange(flows.size)] = 0.0
    at, k = held.nonzero()
    coef = held[at, k]
    np.subtract.at(a, at, coef[:, None] * a[rows[k]])
    np.subtract.at(b, at, coef * b[rows[k]])
    slack_lo[rows], slack_up[rows] = lo[flows], up[flows]

    kept = np.ones(model.n_variables, dtype=bool)
    kept[fixed] = kept[flows] = False
    kept = kept.nonzero()[0]
    a = a[:, kept]
    lp = DenseLp(a, b, slack_lo, slack_up, lo[kept], up[kept], c[kept], c0)
    return lp, Postsolve(kept, fixed.nonzero()[0], value, flows, a[rows], b[rows])


def solve_lp(model: Milp) -> LpOutcome:
    """Solve the continuous relaxation of ``model``.

    Deterministic for a fixed BLAS thread count: identical models give
    identical outcomes.  An ``optimal`` outcome satisfies every row and bound
    within 1e-7 and carries a certifying dual bound; uncertifiable situations
    come back as ``failure`` with a diagnostic message.
    """
    return DenseLp.from_milp(model).solve()


class _Simplex:
    """Per-solve state over a ``DenseLp``'s shared standard form."""

    def __init__(self, problem: DenseLp, lo, up):
        self.problem = problem
        self.m, self.n = problem.a.shape
        self.lo = np.concatenate([lo, problem.slack_lo])
        self.up = np.concatenate([up, problem.slack_up])
        # the bounds a Milp admits: NaN fails the test, and a column fixed
        # at an infinite value has no bound to start at
        if not ((self.lo <= self.up) & (self.lo < np.inf) & (self.up > -np.inf)).all():
            raise ValueError("crossed, NaN or infinite fixed variable bounds")
        # shared with the problem and never written
        self.a = problem.a
        self.b = problem.b
        self.cost = problem.cost
        # the bounds the dual simplex works in: the true ones, narrowed by a
        # round's artificial bounds; _start_round places x and status
        self.work_lo, self.work_up = self.lo, self.up
        self.iterations = 0

    # -- linear algebra helpers ---------------------------------------------

    def _refresh(self):
        """Refactor the basis: rebuild the tableau and its nonbasic columns
        in id order from original data.  This is the only factorization;
        it leaves the basic values to its caller.

        With S the rows whose slack is basic and R the others, B is
        ``[[A_RJ, 0], [A_SJ, I]]`` for the k basic structural columns J, so
        only the k x k block A_RJ is inverted: a nonbasic structural column
        N gets ``inv(A_RJ) A_RN`` in the J positions and ``A_SN - A_SJ``
        times that in the S positions, and the nonbasic slacks, those of the
        rows R, get ``inv(A_RJ)`` and ``-A_SJ inv(A_RJ)``.  Slack positions
        that repeat a row leave A_RJ non-square, and ``np.linalg.inv``
        refuses it as it refuses a singular one."""
        n = self.n
        struct = self.basis < n
        # basis positions of the structural columns J and of the slacks
        jpos, spos = struct.nonzero()[0], (~struct).nonzero()[0]
        cols, slack_rows = self.basis[jpos], self.basis[spos] - n
        nonbasic = np.ones(n + self.m, dtype=bool)
        nonbasic[self.basis] = False
        nonbasic = nonbasic.nonzero()[0]
        k = int(nonbasic.searchsorted(n))
        out, rows = nonbasic[:k], nonbasic[k:] - n
        # every block C-contiguous, as BLAS is given it
        a_r, a_s = self.a.take(rows, 0), self.a.take(slack_rows, 0)
        try:
            inv = np.linalg.inv(a_r.take(cols, 1))
        except np.linalg.LinAlgError:
            return False
        self.nonbasic = nonbasic
        a_sj = a_s.take(cols, 1)
        top = inv @ a_r.take(out, 1)
        self.tableau = tableau = np.empty((self.m, n))
        tableau[jpos, :k] = top
        low = a_sj @ top
        tableau[spos, :k] = np.subtract(a_s.take(out, 1), low, out=low)
        tableau[jpos, k:] = inv
        low = a_sj @ inv
        tableau[spos, k:] = np.negative(low, out=low)
        self.factor_age = 0
        return True

    def _binv_times(self, v):
        """``B^-1 v`` off the tableau: row i's column of B^-1 is the tableau
        column of its slack when that slack is nonbasic, and the unit vector
        of the slack's position when it is basic."""
        n = self.n
        # w: v at the slack positions, 0 at the structural ones
        w = np.concatenate([np.zeros(n), v])[self.nonbasic]
        out = self.tableau @ w
        basic = self.basis >= n
        out[basic] += v[self.basis[basic] - n]
        return out

    def _times_binv(self, u):
        """``u B^-1``, read off the tableau as in ``_binv_times``: the slack
        ids of a vector with ``u T`` at the nonbasic ids and ``u`` at the basic."""
        z = np.zeros(self.n + self.m)
        z[self.nonbasic] = u @ self.tableau
        z[self.basis] = u
        return z[self.n:].copy()

    def _basic_values(self):
        """x_B = B^-1 (b - N x_N), with B^-1 read off the tableau."""
        self.x[self.basis] = 0.0
        self.x[self.basis] = self._binv_times(self.b - self._activity(self.x))

    def _activity(self, z):
        """``[A | I] z``: row activities plus the slacks."""
        return self.a @ z[:self.n] + z[self.n:]

    def _combine(self, y):
        """``y [A | I]``: the row combination ``y`` of every column."""
        return np.concatenate([y @ self.a, y])

    def _exact_duals(self):
        """Duals y = c_B B^-1 off the tableau; reduced costs from original data."""
        y = self._times_binv(self.cost[self.basis])
        return y, self.cost - self._combine(y)

    def _dual_infeasibility(self, d):
        """Per column, how far its reduced cost pulls it off its bound."""
        stat = self.status
        down = np.where((stat == _AT_LO) | (stat == _FREE), -d, 0.0)
        upm = np.where((stat == _AT_UP) | (stat == _FREE), d, 0.0)
        return np.maximum(down, upm)

    def _primal_error(self):
        resid = self.b - self._activity(self.x)
        row_err = float(np.max(np.abs(resid), initial=0.0))
        bound_err = float(max(np.max(self.lo - self.x, initial=0.0),
                              np.max(self.x - self.up, initial=0.0), 0.0))
        return row_err, bound_err

    def _dual_bound(self, y, d):
        """Lagrangian bound from duals: valid for any y, tight at optimum.

        Each column contributes its worst case over the bound box.  For a
        column with an infinite bound on the relevant side, a reduced cost
        inside the optimality tolerance is paired with the current value
        instead (the exact worst case would be unbounded); a larger one keeps
        the honest minus-infinity answer.
        """
        mag = np.abs(d)
        big = mag > 1e-9
        side = np.where(d > 0, self.lo, self.up)
        finite = np.isfinite(side)
        if (big & ~finite & (mag > 1e-5)).any():
            return -np.inf
        value = np.where(finite, side, self.x)
        return float(y @ self.b) + float(d[big] @ value[big])

    # -- the pivot loop ------------------------------------------------------

    def _exchange(self, r, p):
        """Make the column at tableau position ``p`` basic in row ``r``, and
        put the column leaving row ``r`` at position ``p``: rank-1 tableau
        and drow update, in place, of only the rows where the entering column
        is nonzero.  The leaving column was the unit vector of row ``r``, so
        its new tableau column is ``col * -(1 / piv)``, ``1 / piv`` in row
        ``r``.  Returns a copy of the entering column, zero in row ``r``."""
        tableau = self.tableau
        col = tableau[:, p].copy()
        prow = tableau[r]
        piv = col[r]
        prow /= piv
        col[r] = 0.0
        rows = col.nonzero()[0]
        touched = tableau.take(rows, 0)
        touched -= col.take(rows)[:, None] * prow
        tableau[rows] = touched
        inv = 1.0 / piv
        np.multiply(col, -inv, out=tableau[:, p])
        prow[p] = inv
        dq = self.drow[p]
        self.drow -= dq * prow
        self.drow[p] = -dq * inv
        q = self.nonbasic[p]
        self.nonbasic[p] = self.basis[r]
        self.basis[r] = q
        self.status[q] = _BASIC
        return col

    def _dual_loop(self, max_iter):
        """Bounded dual simplex in the working bounds from a dual feasible basis.

        Returns ``(verdict, r, rise)``: ``OPTIMAL`` once the basic values
        are within their working bounds, ``FAILURE`` at the iteration limit
        or a NaN ratio, ``INFEASIBLE`` for a row ``r`` (no column can repair
        it), whose basic value must move up when ``rise`` and down
        otherwise, and no verdict, ``None``, once the factor is
        ``_REFRESH_EVERY`` pivots old.  It only pivots: the caller refactors.
        """
        if not self.m:
            return OPTIMAL, None, None
        lo, up = self.work_lo, self.work_up
        # per row: the basic value and its working bounds
        xb, blo, bup = self.x[self.basis], lo[self.basis], up[self.basis]
        below, above, infeas = np.empty((3, self.m))
        # per position: the way its column may leave its bound, or either way
        stat = self.status[self.nonbasic]
        lean, free = _LEAN[stat], stat == _FREE
        any_free = free.any()
        try:
            while True:
                np.subtract(blo, xb, out=below)
                np.subtract(xb, bup, out=above)
                np.maximum(below, above, out=infeas)
                r = int(infeas.argmax())
                if infeas[r] <= _FEAS_TOL:
                    return OPTIMAL, None, None
                if self.iterations >= max_iter:
                    return FAILURE, None, None
                rise = below[r] > above[r]      # leaving variable moves up to lo
                alpha = self.tableau[r]
                mag = np.abs(alpha)
                tol = _PIV_TOL * max(1.0, mag.item(mag.argmax()) if self.n else 0.0)
                # entering moves the leaving value toward its violated bound:
                # alpha * lean < 0 when it must rise, > 0 when it must fall
                slope = alpha * lean
                cand = slope < -tol if rise else slope > tol
                if any_free:
                    cand |= free & (mag > tol)
                cand = cand.nonzero()[0]
                if cand.size == 0:
                    return INFEASIBLE, r, rise
                mag = mag[cand]
                ratios = np.abs(self.drow[cand])
                ratios /= mag
                # |alpha| of the ratios within 1e-12 of the smallest, 0 elsewhere
                mag = np.where(ratios <= ratios[ratios.argmin()] + 1e-12, mag, 0.0)
                best = mag.argmax()
                if mag[best] == 0.0:            # no ratio compares: a NaN one
                    return FAILURE, None, None
                ties = (mag == mag[best]).nonzero()[0]
                if ties.size > 1:
                    best = ties[self.nonbasic[cand[ties]].argmin()]
                p = int(cand[best])

                q, leaving = int(self.nonbasic[p]), int(self.basis[r])
                target = blo[r] if rise else bup[r]
                theta = (xb[r] - target) / alpha[p]
                self.x[leaving] = target
                rest = _FIXED if blo[r] == bup[r] else _AT_LO if rise else _AT_UP
                self.status[leaving] = rest
                col = self._exchange(r, p)
                col *= theta
                xb -= col
                xb[r] = self.x[q] + theta
                blo[r], bup[r] = lo[q], up[q]
                lean[p], free[p] = _LEAN[rest], False
                self.iterations += 1
                self.factor_age += 1
                if self.factor_age >= _REFRESH_EVERY:
                    return None, None, None
        finally:
            self.x[self.basis] = xb

    def _start_round(self, d, side, width):
        """Start a round: put every nonbasic column at the working bound
        reduced costs ``d`` call for, boxed ties on their ``side``, then
        compute the basic values.  A column pulled toward an infinite bound
        gets an artificial one ``width`` from its finite bound (from 0 when
        free), and equal bounds make it fixed.  A tie (``|d|`` within
        ``_OPT_TOL``) whose box holds 0 strictly inside sits free at 0
        instead when its side is ``_FREE`` or it has no finite bound."""
        lo, up = self.lo, self.up
        has_lo, has_up = np.isfinite(lo), np.isfinite(up)
        wants_up = d < -_OPT_TOL
        art_up, art_lo = wants_up & ~has_up, (d > _OPT_TOL) & ~has_lo
        art_up[self.basis] = art_lo[self.basis] = False
        self.work_up = np.where(art_up, np.where(has_lo, lo, 0.0) + width, up)
        self.work_lo = np.where(art_lo, np.where(has_up, up, 0.0) - width, lo)
        boxed_up = wants_up | ((side == _AT_UP) & (d <= _OPT_TOL))
        at_up = np.isfinite(self.work_up) & (~np.isfinite(self.work_lo) | boxed_up)
        self.status = np.where(at_up, _AT_UP, _AT_LO).astype(np.int8)
        self.status[lo == up] = _FIXED
        self.x = np.where(at_up, self.work_up, self.work_lo)
        zero = ((np.abs(d) <= _OPT_TOL) & (lo < 0.0) & (up > 0.0)
                & ((side == _FREE) | ~(has_lo | has_up)))
        self.status[zero], self.x[zero] = _FREE, 0.0
        self.status[self.basis] = _BASIC
        self._basic_values()
        self.drow = d[self.nonbasic]

    def _improving_ray(self, step, d):
        """Whether moving the nonbasic columns by ``step`` is a ray of the
        true LP along which reduced costs ``d`` fall: no basic value it moves
        may head for a finite true bound."""
        moved = -self.tableau @ step[self.nonbasic]
        blocked = (((moved > _PIV_TOL) & np.isfinite(self.up[self.basis]))
                   | ((moved < -_PIV_TOL) & np.isfinite(self.lo[self.basis])))
        return float(d @ step) < -_OPT_TOL and not blocked.any()

    # -- orchestration -------------------------------------------------------

    def run(self, start: Basis) -> LpOutcome:
        """Solve from ``start`` in rounds of the dual simplex: on the
        problem's kept tableau when ``start`` is its basis, on a copy of its
        kept factor when ``start`` has those columns, and on a fresh factor
        otherwise.  Only this method refactors and starts rounds.

        Each round starts dual feasible through ``_start_round``, with the
        reduced costs of ``_exact_duals``.  A round cut at the refactor
        cadence has no verdict: refactor, and the next round keeps the
        artificial bounds and takes its sides from the current statuses.
        A verdict is certified against the true bounds: an infeasible row
        must certify a Farkas ray, an optimum with columns resting on
        artificial bounds is ``unbounded`` if moving them further out is an
        improving ray, and any other optimum must pass ``_finish_optimal``.
        One rule retries every verdict that is not certified: refactor,
        then another round with artificial bounds ``_ART_GROWTH`` times
        wider.  After ``_MAX_ROUNDS`` verdicts the attempt fails with the
        reason of its last failed check; ``max_iter`` bounds all rounds.
        """
        n, m = self.n, self.m
        cols = np.asarray(start.columns, dtype=np.int64)
        if (cols.shape != (m,) or start.status.shape != (n + m,)
                or np.any((cols < 0) | (cols >= n + m))):
            return LpOutcome(FAILURE, message="start basis does not fit the model")
        self.basis = cols.copy()
        problem = self.problem
        # the slot is taken whatever the start: a tableau is reused at most once
        slot, problem._slot = problem._slot, None
        if slot is not None and slot[0] is start:
            _basis, self.nonbasic, self.tableau, self.factor_age = slot
        elif problem._factor is not None and np.array_equal(problem._factor[0], cols):
            self.nonbasic, self.tableau = (a.copy() for a in problem._factor[1:])
            self.factor_age = 0
        elif not self._refresh():
            return LpOutcome(FAILURE, message="singular start basis")
        elif start is not problem.slack_basis:
            problem._factor = (self.basis.copy(), self.nonbasic.copy(), self.tableau.copy())

        max_iter = 50 * (n + 2 * m) + 10_000
        side, width, rounds = start.status, _ART_WIDTH, 0
        while True:
            self._start_round(self._exact_duals()[1], side, width)
            verdict, r, rise = self._dual_loop(max_iter)
            if verdict == FAILURE:
                return LpOutcome(FAILURE, iterations=self.iterations,
                                 message="dual: iteration limit or NaN ratio")
            if verdict == INFEASIBLE:
                # Farkas ray: row r of B^-1, negated when its value must rise
                unit = np.zeros(m)
                unit[r] = -1.0 if rise else 1.0
                outcome = self._certify_infeasible(self._times_binv(unit))
            elif verdict == OPTIMAL:
                y, d = self._exact_duals()
                # the columns resting on artificial bounds, moved further out
                step = np.where(
                    (self.status == _AT_UP) & (self.work_up != self.up), 1.0,
                    np.where((self.status == _AT_LO) & (self.work_lo != self.lo), -1.0, 0.0))
                if not step.any():
                    outcome = self._finish_optimal(y, d)
                elif self._improving_ray(step, d):
                    return LpOutcome(UNBOUNDED, iterations=self.iterations)
                else:
                    outcome = LpOutcome(FAILURE, iterations=self.iterations,
                                        message="optimum rests on artificial bounds")
            # a round cut by the refactor cadence is no retry
            if verdict is not None:
                if outcome.status != FAILURE:
                    return outcome
                rounds, width = rounds + 1, width * _ART_GROWTH
            if not self._refresh():
                return LpOutcome(FAILURE, iterations=self.iterations,
                                 message="singular basis during refresh")
            if rounds == _MAX_ROUNDS:
                return outcome
            side = self.status

    def _finish_optimal(self, y, d) -> LpOutcome:
        """Certify the optimum with duals ``y`` and reduced costs ``d`` of the
        current tableau, the optimum's only certificate: ``d`` must be dual
        feasible within ``10 * _OPT_TOL``, the primal residuals within
        ``0.5 * _FEAS_TOL``, and the weak-duality bound must match the
        objective."""
        opt_viol = float(self._dual_infeasibility(d).max(initial=0.0))
        if opt_viol > 10 * _OPT_TOL:
            return LpOutcome(FAILURE, iterations=self.iterations,
                             message=f"reduced costs not dual feasible ({opt_viol:.3e})")
        row_err, bound_err = self._primal_error()
        if max(row_err, bound_err) > 0.5 * _FEAS_TOL:
            return LpOutcome(FAILURE, iterations=self.iterations, message=(
                f"primal residuals too large ({row_err:.3e}, {bound_err:.3e})"))
        obj_scaled = float(self.cost @ self.x)
        bound_scaled = self._dual_bound(y, d)
        gap = abs(obj_scaled - bound_scaled)
        if not np.isfinite(bound_scaled) or gap > 1e-6 * (1.0 + abs(obj_scaled)):
            return LpOutcome(FAILURE, iterations=self.iterations,
                             message=f"weak duality check failed (gap {gap:.3e})")
        objective = obj_scaled * self.problem.sigma + self.problem.c0
        basis = Basis(self.basis.copy(), self.status.copy())
        # read-only, so the kept tableau stays the factor of this basis
        basis.columns.flags.writeable = basis.status.flags.writeable = False
        self.problem._slot = (basis, self.nonbasic, self.tableau, self.factor_age)
        return LpOutcome(OPTIMAL, x=self.x[:self.n].copy(), objective=objective,
                         dual_bound=bound_scaled * self.problem.sigma + self.problem.c0,
                         iterations=self.iterations, basis=basis)

    def _certify_infeasible(self, y) -> LpOutcome:
        # combination y of the rows bounds y.b from above by sup over the box;
        # a positive shortfall proves no point in the box satisfies the rows
        w = self._combine(y)
        side = np.where(w > 0, self.up, self.lo)
        big = np.abs(w) > 1e-11
        sup = float(w[big] @ side[big])
        shortfall = float(y @ self.b) - sup
        if not np.isfinite(sup) or shortfall <= 1e-9 * (1.0 + abs(float(y @ self.b))):
            return LpOutcome(FAILURE, iterations=self.iterations,
                             message="infeasibility could not be certified")
        return LpOutcome(INFEASIBLE, iterations=self.iterations,
                         message=f"certified infeasible (shortfall {shortfall:.6e})")
