"""Bounded-variable simplex for the planning LPs.

Solves continuous relaxations and fixed-binary subproblems.  The method is a
tableau simplex over general variable bounds:

* every row gets a slack (``<=`` rows a nonnegative one, ``>=`` rows a
  nonpositive one, ``=`` rows a slack fixed at zero), giving an equality
  system ``[A | I] z = b`` with box bounds on ``z``.  ``DenseLp`` owns this
  standard form as ``A`` and the slack box (``I`` stays implicit), built
  with the scaled cost once per model and shared read-only by every solve,
  so LPs of one model differ only in the structural bounds a solve passes in;
* every solve is a bounded dual simplex from a start basis: the caller's
  (a branch and bound parent, whose child differs only in variable bounds),
  and, only if that attempt fails, the all-slack basis ``B = I``, whose
  failure is final.  The dual simplex is the only code that pivots: the
  leaving row is the largest primal infeasibility, the entering column the
  smallest ratio |d_j / alpha_rj| (ties to the largest |alpha_rj|);
* each nonbasic column sits at the bound its reduced cost calls for.  A
  column whose reduced cost pulls it toward an infinite bound (a one-sided
  or free column) gets an artificial bound a fixed width from its finite
  bound, or from 0 when free, so every start is dual feasible (Koberstein's
  artificial-bounds dual phase 1).  Outcomes are checked against the true
  bounds, and a verdict that the artificial bounds may have caused is
  retried with wider ones;
* a row that no column can repair proves the LP infeasible: that row of
  ``B^-1``, signed by the direction its basic value must move, is a Farkas
  ray.  An optimum resting on artificial bounds proves the LP unbounded
  when moving those columns further out improves the objective and moves
  no basic value toward a finite true bound;
* a basis is factored in one place, ``_Simplex._refresh``, which rebuilds
  the tableau ``B^-1 [A | I]`` from original data.  B is block triangular
  once the rows whose slack is basic come last, so only the k x k block of
  A under the k basic structural columns is inverted (none for the slack
  basis), and only the structural block is a product.  Since the slack
  columns are the identity, the tableau's slack block is ``B^-1``, placed
  from that inverse, and duals and basic values are read off it.  A pivot
  updates only the tableau rows where the entering column is nonzero;
* a ``DenseLp`` keeps the tableau of its last certified optimum, and a
  solve that starts from that very ``Basis`` (a plunge child, a polish LP)
  pivots on from it with no refactor.  The refactor cadence counts pivots
  since the tableau was factored, across solves;
* before any outcome is reported, it is checked against the original data
  with the tableau's duals: optimal claims carry a weak-duality bound that
  must match the primal objective, and infeasible claims carry a row
  combination whose implied bound contradicts the variable box.  Both
  checks hold for any duals, so their strength does not depend on where the
  duals come from.  A check that fails is retried once after a refactor;
  anything that still fails is reported as ``failure``, never as a wrong
  ``optimal``.

The tableau is dense, and it is refactored from original data whenever drift
is detected and every ``_REFRESH_EVERY`` pivots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .milp import EQ, GE, LE, Milp

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

_FEAS_TOL = 1e-7
_OPT_TOL = 1e-7
_PIV_TOL = 1e-10
_REFRESH_EVERY = 700

# artificial bounds: first width, growth per retry, and the number of rounds
# (dual simplex runs) one attempt may take before it gives up
_ART_WIDTH = 1e6
_ART_GROWTH = 1e3
_MAX_ROUNDS = 8

# slack bounds per row sense: a <= row takes a nonnegative slack, a >= row a
# nonpositive one, and an = row a slack fixed at zero
_SLACK_BOX = {LE: (0.0, np.inf), GE: (-np.inf, 0.0), EQ: (0.0, 0.0)}


@dataclass(frozen=True)
class Basis:
    """Start point for a dual simplex solve: the final basis of an optimal
    LP, or a model's all-slack basis (``DenseLp.slack_basis``).

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
    costs, and the all-slack start basis.  Solves read these arrays and
    never write into them; a solve varies only the structural bounds.

    A solve writes one field, ``_slot``: the ``Basis`` and tableau of the
    last solve that ended certified optimal, with the pivots made since that
    tableau was factored.  The next solve takes it and reuses the tableau
    only if it starts from that very ``Basis`` object; any other start, an
    equal copy included, refactors.  So at most one tableau is kept, and a
    warm solve's rounding depends on whether it starts from the last basis
    returned.
    """

    def __init__(self, a, senses, b, lo, up, c, c0=0.0):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.up = np.asarray(up, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.c0 = float(c0)

        m, n = self.a.shape
        try:
            box = np.array([_SLACK_BOX[sense] for sense in senses]).reshape(m, 2)
        except KeyError as exc:
            raise ValueError(f"unknown sense {exc.args[0]!r}") from None
        self.slack_lo, self.slack_up = box[:, 0], box[:, 1]
        # objective scaling keeps reduced-cost tolerances meaningful when
        # capital costs (1e6..1e9 dollars) share a model with MW quantities
        self.sigma = max(1.0, float(np.max(np.abs(self.c))) if n else 1.0)
        self.cost = np.concatenate([self.c / self.sigma, np.zeros(m)])
        # B = I, the start of every solve that has no usable caller basis
        slacks = np.arange(n, n + m, dtype=np.int64)
        status = np.full(n + m, _AT_LO, dtype=np.int8)
        status[n:] = _BASIC
        self.slack_basis = Basis(slacks, status)
        for shared in (box, self.cost, slacks, status):
            shared.flags.writeable = False
        self._slot = None

    @classmethod
    def from_milp(cls, model: Milp) -> "DenseLp":
        n = model.n_variables
        m = model.n_constraints
        a = np.zeros((m, n))
        senses = []
        b = np.zeros(m)
        for i, con in enumerate(model.constraints):
            a[i, list(con.columns)] = con.coefficients
            senses.append(con.sense)
            b[i] = con.rhs
        lo = np.array([v.lower for v in model.variables], dtype=float)
        up = np.array([v.upper for v in model.variables], dtype=float)
        c = np.zeros(n)
        for col, coef in model.objective.items():
            c[col] = coef
        return cls(a, senses, b, lo, up, c, model.objective_offset)

    def solve(self, lo=None, up=None, basis: Basis | None = None) -> LpOutcome:
        """Solve with bounds ``lo``/``up`` by dual simplex from ``basis`` when
        given; if that attempt fails, from the slack basis, whose outcome is
        final."""
        lo = self.lo if lo is None else np.asarray(lo, dtype=float)
        up = self.up if up is None else np.asarray(up, dtype=float)
        iterations = 0
        for start in (basis, self.slack_basis):
            if start is None:
                continue
            attempt = _Simplex(self, lo, up)
            outcome = attempt.run(start)
            iterations += attempt.iterations
            outcome.iterations = iterations
            if outcome.status != FAILURE:
                break
        return outcome


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
        if np.any(self.lo > self.up):
            raise ValueError("crossed variable bounds")
        # shared with the problem and never written
        self.a = problem.a
        self.b = problem.b
        self.cost = problem.cost
        # the bounds the dual simplex works in: the true ones, narrowed by a
        # round's artificial bounds
        self.work_lo, self.work_up = self.lo, self.up

        self._place_nonbasic(np.isfinite(self.up) & ~np.isfinite(self.lo))
        self.iterations = 0

    def _place_nonbasic(self, at_up):
        """Put every column at a working bound: the upper one where
        ``at_up``, else the lower one, or zero when free; equal bounds make
        it fixed."""
        has_lo = np.isfinite(self.work_lo)
        status = np.where(at_up, _AT_UP, np.where(has_lo, _AT_LO, _FREE))
        status[self.lo == self.up] = _FIXED
        self.status = status.astype(np.int8)
        self.x = np.where(at_up, self.work_up, np.where(has_lo, self.work_lo, 0.0))

    # -- linear algebra helpers ---------------------------------------------

    def _refresh(self):
        """Refactor the basis: rebuild tableau and basic values from original
        data.  This is the only factorization.  With S the rows whose slack
        is basic and R the others, B is ``[[A_RJ, 0], [A_SJ, I]]`` for the k
        basic structural columns J, so only the k x k block A_RJ is
        inverted, and only the structural block is a product: B^-1's columns
        R are ``inv(A_RJ)`` in the J positions and ``-A_SJ inv(A_RJ)`` in
        the S positions, whose columns S are unit.  Slack positions that
        repeat a row leave A_RJ non-square, and ``np.linalg.inv`` refuses it
        as it refuses a singular one."""
        n = self.n
        struct = self.basis < n
        cols, slack_rows = self.basis[struct], self.basis[~struct] - n
        rows = np.ones(self.m, dtype=bool)
        rows[slack_rows] = False
        rows = np.flatnonzero(rows)
        a = self.a
        try:
            inv = np.linalg.inv(a[np.ix_(rows, cols)])
        except np.linalg.LinAlgError:
            return False
        a_sj = a[np.ix_(slack_rows, cols)]
        top = inv @ a[rows]
        self.tableau = tableau = np.zeros((self.m, n + self.m))
        tableau[struct, :n] = top
        tableau[~struct, :n] = a[slack_rows] - a_sj @ top
        tableau[np.ix_(struct, n + rows)] = inv
        tableau[np.ix_(~struct, n + rows)] = -(a_sj @ inv)
        tableau[~struct, n + slack_rows] = 1.0
        self.factor_age = 0
        self._basic_values()
        return True

    def _basic_values(self):
        """x_B = B^-1 (b - N x_N), with B^-1 taken from the tableau."""
        self.x[self.basis] = 0.0
        binv = self.tableau[:, self.n:self.n + self.m]
        self.x[self.basis] = binv @ (self.b - self._activity(self.x))

    def _activity(self, z):
        """``[A | I] z``: row activities plus the slacks."""
        return self.a @ z[:self.n] + z[self.n:]

    def _combine(self, y):
        """``y [A | I]``: the row combination ``y`` of every column."""
        return np.concatenate([y @ self.a, y])

    def _exact_duals(self):
        """Duals y = c_B B^-1 off the tableau; reduced costs from original data."""
        y = self.cost[self.basis] @ self.tableau[:, self.n:self.n + self.m]
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
        bound_err = float(
            max(
                np.max(self.lo - self.x, initial=0.0),
                np.max(self.x - self.up, initial=0.0),
                0.0,
            )
        )
        return row_err, bound_err

    def _dual_bound(self, y, d):
        """Lagrangian bound from duals: valid for any y, tight at optimum.

        Each column contributes its worst case over the bound box.  For a
        column with an infinite bound on the relevant side, a reduced cost
        inside the optimality tolerance is paired with the current value
        instead (the exact worst case would be unbounded); a larger one keeps
        the honest minus-infinity answer.
        """
        big = np.abs(d) > 1e-9
        side = np.where(d > 0, self.lo, self.up)
        finite = np.isfinite(side)
        if np.any(big & ~finite & (np.abs(d) > 1e-5)):
            return -np.inf
        value = np.where(finite, side, self.x)
        return float(y @ self.b) + float(d[big] @ value[big])

    # -- the pivot loop ------------------------------------------------------

    def _exchange(self, r, q):
        """Make column ``q`` basic in row ``r``: rank-1 tableau and drow
        update, over only the rows where column ``q`` is nonzero."""
        piv = self.tableau[r, q]
        self.tableau[r] /= piv
        col = self.tableau[:, q].copy()
        col[r] = 0.0
        rows = np.nonzero(col)[0]
        self.tableau[rows] -= np.outer(col[rows], self.tableau[r])
        self.tableau[:, q] = 0.0
        self.tableau[r, q] = 1.0
        dq = self.drow[q]
        self.drow -= dq * self.tableau[r]
        self.drow[q] = 0.0
        self.basis[r] = q
        self.status[q] = _BASIC

    def _dual_loop(self, max_iter):
        """Bounded dual simplex in the working bounds, from a dual feasible
        basis.

        Returns ``(verdict, r, rise)``: ``OPTIMAL`` once the basic values
        are within their working bounds, ``FAILURE`` at the iteration limit
        or a singular refactor, and ``INFEASIBLE`` for a dual-unbounded row
        ``r`` (no column can repair it), whose basic value must move up when
        ``rise`` and down otherwise.
        """
        lo, up = self.work_lo, self.work_up
        while True:
            xb = self.x[self.basis]
            below = lo[self.basis] - xb
            above = xb - up[self.basis]
            infeas = np.maximum(below, above)
            if not self.m or infeas.max() <= _FEAS_TOL:
                return OPTIMAL, None, None
            r = int(np.argmax(infeas))
            if self.iterations >= max_iter:
                return FAILURE, None, None
            rise = below[r] > above[r]      # leaving variable moves up to lo
            alpha = self.tableau[r]
            sa = alpha if rise else -alpha
            stat = self.status
            can_inc = (stat == _AT_LO) | (stat == _FREE)
            can_dec = (stat == _AT_UP) | (stat == _FREE)
            cand = np.nonzero((can_inc & (sa < -_PIV_TOL)) | (can_dec & (sa > _PIV_TOL)))[0]
            if cand.size == 0:
                return INFEASIBLE, r, rise
            ratios = np.abs(self.drow[cand]) / np.abs(alpha[cand])
            near = cand[ratios <= ratios.min() + 1e-12]
            q = int(near[np.argmax(np.abs(alpha[near]))])

            leaving = int(self.basis[r])
            target = lo[leaving] if rise else up[leaving]
            theta = (xb[r] - target) / alpha[q]
            self.x[self.basis] -= theta * self.tableau[:, q]
            self.x[q] += theta
            self.x[leaving] = target
            if lo[leaving] == up[leaving]:
                self.status[leaving] = _FIXED
            else:
                self.status[leaving] = _AT_LO if rise else _AT_UP
            self._exchange(r, q)
            self.iterations += 1
            self.factor_age += 1
            if self.factor_age >= _REFRESH_EVERY:
                if not self._refresh():
                    return FAILURE, None, None
                self.drow = self.cost - self.cost[self.basis] @ self.tableau

    def _start_round(self, d, side, width):
        """Put every nonbasic column at the bound reduced costs ``d`` call
        for, boxed ties on their ``side``; a column pulled toward an infinite
        bound gets an artificial one ``width`` from its finite bound (from 0
        when free).  Returns whether any bound is artificial."""
        nonbasic = np.ones(self.n + self.m, dtype=bool)
        nonbasic[self.basis] = False
        art_up = nonbasic & (d < -_OPT_TOL) & ~np.isfinite(self.up)
        art_lo = nonbasic & (d > _OPT_TOL) & ~np.isfinite(self.lo)
        self.work_up = np.where(art_up, np.where(np.isfinite(self.lo), self.lo, 0.0) + width,
                                self.up)
        self.work_lo = np.where(art_lo, np.where(np.isfinite(self.up), self.up, 0.0) - width,
                                self.lo)
        boxed_up = (d < -_OPT_TOL) | ((side == _AT_UP) & (d <= _OPT_TOL))
        self._place_nonbasic(np.isfinite(self.work_up)
                             & (~np.isfinite(self.work_lo) | boxed_up))
        self.status[self.basis] = _BASIC
        self._basic_values()
        self.drow = d
        return bool(art_up.any() or art_lo.any())

    def _improving_ray(self, step, d):
        """Whether moving the nonbasic columns by ``step`` is a ray of the
        true LP along which reduced costs ``d`` fall: no basic value it moves
        may head for a finite true bound."""
        moved = -self.tableau @ step
        blocked = (((moved > _PIV_TOL) & np.isfinite(self.up[self.basis]))
                   | ((moved < -_PIV_TOL) & np.isfinite(self.lo[self.basis])))
        return float(d @ step) < -_OPT_TOL and not blocked.any()

    # -- orchestration -------------------------------------------------------

    def run(self, start: Basis) -> LpOutcome:
        """Solve from ``start`` in rounds of the dual simplex, at most
        ``_MAX_ROUNDS``, on the problem's kept tableau when ``start`` is its
        basis and on a fresh factor otherwise.

        Each round starts dual feasible: every nonbasic column sits at the
        bound its exact reduced cost calls for (boxed ties keep their side),
        an artificial one where that bound is infinite.  Its verdict is then
        checked against the true bounds.  An infeasible row must certify a
        Farkas ray.  An optimum with columns resting on artificial bounds is
        ``unbounded`` if moving them further out is an improving ray.  Any
        other optimum must be dual feasible within ``10 * _OPT_TOL`` with
        basic values that have not drifted.  A verdict the artificial bounds
        may have caused is retried with bounds ``_ART_GROWTH`` times wider,
        and a drifted optimum after a refactor.
        """
        n, m = self.n, self.m
        cols = np.asarray(start.columns, dtype=np.int64)
        if (cols.shape != (m,) or start.status.shape != (n + m,)
                or np.any((cols < 0) | (cols >= n + m))):
            return LpOutcome(FAILURE, message="start basis does not fit the model")
        self.basis = cols.copy()
        # the slot is taken whatever the start: a tableau is reused at most once
        slot, self.problem._slot = self.problem._slot, None
        if slot is not None and slot[0] is start:
            _basis, self.tableau, self.factor_age = slot
        elif not self._refresh():
            return LpOutcome(FAILURE, message="singular start basis")

        max_iter = 50 * (n + 2 * m) + 10_000
        side, width = start.status, _ART_WIDTH
        for _ in range(_MAX_ROUNDS):
            artificial = self._start_round(self._exact_duals()[1], side, width)
            verdict, r, rise = self._dual_loop(max_iter)
            if verdict == FAILURE:
                return LpOutcome(FAILURE, iterations=self.iterations,
                                 message="dual: iteration limit or singular basis")
            if verdict == INFEASIBLE:
                # Farkas ray: row r of B^-1, negated when its value must rise
                sign = -1.0 if rise else 1.0
                outcome = self._certified(
                    lambda: self._certify_infeasible(sign * self.tableau[r, n:]))
                if outcome.status != FAILURE or not artificial:
                    return outcome
            else:
                _y, d = self._exact_duals()
                step = np.where((self.status == _AT_UP) & (self.work_up != self.up), 1.0,
                                np.where((self.status == _AT_LO) & (self.work_lo != self.lo),
                                         -1.0, 0.0))
                if step.any():
                    if self._improving_ray(step, d):
                        return LpOutcome(UNBOUNDED, iterations=self.iterations)
                else:
                    opt_viol = float(self._dual_infeasibility(d).max(initial=0.0))
                    row_err, bound_err = self._primal_error()
                    drift = max(row_err, bound_err) > 0.5 * _FEAS_TOL
                    if opt_viol <= 10 * _OPT_TOL and not drift:
                        return self._certified(self._finish_optimal)
                    if not self._refresh():
                        return LpOutcome(FAILURE, iterations=self.iterations,
                                         message="singular basis during refresh")
            side, width = self.status, width * _ART_GROWTH
        return LpOutcome(FAILURE, iterations=self.iterations,
                         message=f"no certified outcome in {_MAX_ROUNDS} rounds")

    def _certified(self, check) -> LpOutcome:
        """Run a certificate ``check`` on the tableau's duals; if it fails,
        refactor once and run it again.  A second failure is final."""
        outcome = check()
        if outcome.status == FAILURE and self._refresh():
            outcome = check()
        return outcome

    def _finish_optimal(self) -> LpOutcome:
        y, d = self._exact_duals()
        obj_scaled = float(self.cost @ self.x)
        bound_scaled = self._dual_bound(y, d)
        gap = abs(obj_scaled - bound_scaled)
        if not np.isfinite(bound_scaled) or gap > 1e-6 * (1.0 + abs(obj_scaled)):
            return LpOutcome(
                FAILURE, iterations=self.iterations,
                message=f"weak duality check failed (gap {gap:.3e})",
            )
        row_err, bound_err = self._primal_error()
        if max(row_err, bound_err) > _FEAS_TOL:
            return LpOutcome(
                FAILURE, iterations=self.iterations,
                message=f"primal residuals too large ({row_err:.3e}, {bound_err:.3e})",
            )
        objective = obj_scaled * self.problem.sigma + self.problem.c0
        basis = Basis(self.basis.copy(), self.status.copy())
        # read-only, so the kept tableau stays the factor of this basis
        basis.columns.flags.writeable = basis.status.flags.writeable = False
        self.problem._slot = (basis, self.tableau, self.factor_age)
        return LpOutcome(
            OPTIMAL,
            x=self.x[: self.n].copy(),
            objective=objective,
            dual_bound=bound_scaled * self.problem.sigma + self.problem.c0,
            iterations=self.iterations,
            basis=basis,
        )

    def _certify_infeasible(self, y) -> LpOutcome:
        # combination y of the rows bounds y.b from above by sup over the box;
        # a positive shortfall proves no point in the box satisfies the rows
        w = self._combine(y)
        side = np.where(w > 0, self.up, self.lo)
        big = np.abs(w) > 1e-11
        sup = float(w[big] @ side[big])
        shortfall = float(y @ self.b) - sup
        if not np.isfinite(sup) or shortfall <= 1e-9 * (1.0 + abs(float(y @ self.b))):
            return LpOutcome(
                FAILURE, iterations=self.iterations,
                message="infeasibility could not be certified",
            )
        return LpOutcome(
            INFEASIBLE, iterations=self.iterations,
            message=f"certified infeasible (shortfall {shortfall:.6e})",
        )
