"""Bounded-variable simplex for the planning LPs.

Solves continuous relaxations and fixed-binary subproblems.  The method is a
tableau simplex over general variable bounds:

* every row gets a slack (``<=`` rows a nonnegative one, ``>=`` rows a
  nonpositive one, ``=`` rows a slack fixed at zero), giving an equality
  system ``[A | I] z = b`` with box bounds on ``z``.  ``DenseLp`` owns this
  standard form: it builds ``[A | I]``, the slack box and the scaled cost
  once per model, and every solve shares them read-only, so LPs of one model
  differ only in the structural bounds a solve passes in;
* every solve is a bounded dual simplex from a start basis: the caller's
  (a branch and bound parent, whose child differs only in variable bounds),
  and, only if that attempt fails, the all-slack basis ``B = I``, whose
  failure is final.  Each nonbasic column sits at the bound its reduced cost
  points to.  A column whose reduced cost pulls it toward an infinite bound
  (a one-sided or free column) has its cost shifted until that reduced cost
  is 0 (Koberstein's cost shifting), so every start is dual feasible.  The
  dual simplex re-optimises the start: the leaving row is the largest
  primal infeasibility, the entering column the smallest ratio
  |d_j / alpha_rj| (ties to the largest |alpha_rj|);
* a row that no column can repair proves the LP infeasible: that row of
  ``B^-1``, signed by the direction its basic value must move, is a Farkas
  ray;
* a primal simplex with the true costs then cleans up what the shift left
  (and reports ``unbounded`` where that is the answer).  Its pricing is
  Dantzig's rule with ties broken by lowest column index, and a Bland
  fallback kicks in after a stall, so runs are deterministic and
  cycling-free;
* the primal ratio test is Harris's two-pass rule: the step may leave basic
  values up to the feasibility tolerance outside their bounds, which frees
  it to pick the largest pivot among near-ties instead of a tiny one that
  would make the basis numerically singular;
* a basis is factored in one place, ``_Simplex._refresh``, which rebuilds
  the tableau ``B^-1 [A | I]`` from original data; since the slack columns
  are the identity, the tableau's slack block is ``B^-1``, and duals and
  basic values are read off it;
* before any outcome is reported, it is checked against the original data
  with the tableau's duals: optimal claims carry a weak-duality bound that
  must match the primal objective, and infeasible claims carry a row
  combination whose implied bound contradicts the variable box.  Both
  checks hold for any duals, so their strength does not depend on where the
  duals come from.  A check that fails is retried once after a refactor;
  anything that still fails is reported as ``failure``, never as a wrong
  ``optimal``.

Robustness is favored over speed; the target problems are small, and the
tableau is refactored from original data whenever drift is detected.
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
_STALL_LIMIT = 200
_REFRESH_EVERY = 700

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
    ``iterations`` counts every pivot and bound flip, including those of a
    dual simplex start that was given up for the next one.
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
    every solve shares is built here once: ``a_all = [A | I]``, the slack box
    of each row, the cost scaled by ``sigma`` with zero slack costs, and the
    all-slack start basis.  Solves read these arrays and never write into
    them; a solve varies only the structural bounds.
    """

    def __init__(self, a, senses, b, lo, up, c, c0=0.0):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 2:
            self.a = self.a.reshape(len(b), -1)
        self.senses = list(senses)
        self.b = np.asarray(b, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.up = np.asarray(up, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.c0 = float(c0)

        m, n = self.a.shape
        try:
            box = np.array([_SLACK_BOX[sense] for sense in self.senses]).reshape(m, 2)
        except KeyError as exc:
            raise ValueError(f"unknown sense {exc.args[0]!r}") from None
        self.slack_lo, self.slack_up = box[:, 0], box[:, 1]
        self.a_all = np.hstack([self.a, np.eye(m)])
        # objective scaling keeps reduced-cost tolerances meaningful when
        # capital costs (1e6..1e9 dollars) share a model with MW quantities
        self.sigma = max(1.0, float(np.max(np.abs(self.c))) if n else 1.0)
        self.cost = np.concatenate([self.c / self.sigma, np.zeros(m)])
        # B = I, the start of every solve that has no usable caller basis
        slacks = np.arange(n, n + m, dtype=np.int64)
        status = np.full(n + m, _AT_LO, dtype=np.int8)
        status[n:] = _BASIC
        self.slack_basis = Basis(slacks, status)
        for shared in (box, self.a_all, self.cost, slacks, status):
            shared.flags.writeable = False

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

    Deterministic: identical models give identical outcomes.  An ``optimal``
    outcome satisfies every row and bound within 1e-7 and carries a
    certifying dual bound; uncertifiable situations come back as ``failure``
    with a diagnostic message.
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
        # shared with the problem and never written; a cost shift copies cost
        self.a_all = problem.a_all
        self.b = problem.b
        self.cost = problem.cost

        self._place_nonbasic(np.isfinite(self.up) & ~np.isfinite(self.lo))
        self.iterations = 0

    def _place_nonbasic(self, at_up):
        """Put every column at a bound: the upper one where ``at_up``, else
        the lower one, or zero when free; equal bounds make it fixed."""
        has_lo = np.isfinite(self.lo)
        status = np.where(at_up, _AT_UP, np.where(has_lo, _AT_LO, _FREE))
        status[self.lo == self.up] = _FIXED
        self.status = status.astype(np.int8)
        self.x = np.where(at_up, self.up, np.where(has_lo, self.lo, 0.0))

    # -- linear algebra helpers ---------------------------------------------

    def _refresh(self):
        """Refactor the basis: rebuild tableau and basic values from original
        data.  This is the only factorization; everything else reads B^-1 off
        the tableau's slack block (the slack columns of ``a_all`` are I)."""
        try:
            self.tableau = np.linalg.solve(self.a_all[:, self.basis], self.a_all)
        except np.linalg.LinAlgError:
            return False
        self._basic_values()
        return True

    def _basic_values(self):
        """x_B = B^-1 (b - N x_N), with B^-1 taken from the tableau."""
        self.x[self.basis] = 0.0
        binv = self.tableau[:, self.n:self.n + self.m]
        self.x[self.basis] = binv @ (self.b - self.a_all @ self.x)

    def _exact_duals(self, cost):
        """Duals y = c_B B^-1 off the tableau; reduced costs from original data."""
        y = cost[self.basis] @ self.tableau[:, self.n:self.n + self.m]
        return y, cost - y @ self.a_all

    def _dual_infeasibility(self, d):
        """Per column, how far its reduced cost pulls it off its bound."""
        stat = self.status
        down = np.where((stat == _AT_LO) | (stat == _FREE), -d, 0.0)
        upm = np.where((stat == _AT_UP) | (stat == _FREE), d, 0.0)
        return np.maximum(down, upm)

    def _primal_error(self):
        resid = self.b - self.a_all @ self.x if self.m else np.zeros(0)
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

    def _price(self, bland):
        d = self.drow
        stat = self.status
        can_inc = (stat == _AT_LO) | (stat == _FREE)
        can_dec = (stat == _AT_UP) | (stat == _FREE)
        score = np.maximum(np.where(can_inc, -d, 0.0), np.where(can_dec, d, 0.0))
        if bland:
            idx = np.nonzero(score > _OPT_TOL)[0]
            if idx.size == 0:
                return -1, 0
            q = int(idx[0])
        else:
            q = int(np.argmax(score))
            if score[q] <= _OPT_TOL:
                return -1, 0
        if can_inc[q] and (-d[q] >= d[q] or not can_dec[q]):
            return q, 1
        return q, -1

    def _ratio_test(self, q, direction, bland):
        """Step and leaving row for entering column ``q``: row -1 is a bound
        flip of ``q``, (None, None) an unbounded ray.

        Harris's two passes: the longest step that keeps every basic value
        within its bounds relaxed by ``_FEAS_TOL``, then, among the rows whose
        exact ratio fits in that step, the largest |pivot|.  Under Bland's rule
        the lowest basic column among the exact minimum ratios leaves instead.
        """
        delta = -direction * self.tableau[:, q]     # basic change rate per unit step
        t_flip = self.up[q] - self.lo[q]
        target = np.where(delta > 0, self.up[self.basis], self.lo[self.basis])
        moving = np.abs(delta) > _PIV_TOL
        raw = np.full(self.m, np.inf)
        raw[moving] = (target[moving] - self.x[self.basis][moving]) / delta[moving]
        ratios = np.maximum(raw, 0.0)
        if bland:
            t_max = float(np.min(ratios, initial=np.inf)) + 1e-12
        else:
            relaxed = raw[moving] + _FEAS_TOL / np.abs(delta[moving])
            t_max = max(float(np.min(relaxed, initial=np.inf)), 0.0)
        if t_max == np.inf:
            return (None, None) if t_flip == np.inf else (t_flip, -1)
        near = np.nonzero(ratios <= t_max)[0]
        if bland:
            r = int(near[np.argmin(self.basis[near])])
        else:
            r = int(near[np.argmax(np.abs(delta[near]))])
        if t_flip <= ratios[r]:
            return t_flip, -1
        return float(ratios[r]), r

    def _apply_flip(self, q, direction):
        t = self.up[q] - self.lo[q]
        if self.m:
            self.x[self.basis] -= direction * t * self.tableau[:, q]
        if direction > 0:
            self.x[q] = self.up[q]
            self.status[q] = _AT_UP
        else:
            self.x[q] = self.lo[q]
            self.status[q] = _AT_LO

    def _apply_pivot(self, q, direction, t, r):
        w = self.tableau[:, q]
        delta = -direction * w
        self.x[self.basis] += delta * t
        self.x[q] += direction * t
        leaving = int(self.basis[r])
        # snap the leaving variable onto the bound it reached
        if self.lo[leaving] == self.up[leaving]:
            self.status[leaving] = _FIXED
            self.x[leaving] = self.lo[leaving]
        elif delta[r] > 0:
            self.status[leaving] = _AT_UP
            self.x[leaving] = self.up[leaving]
        else:
            self.status[leaving] = _AT_LO
            self.x[leaving] = self.lo[leaving]
        self._exchange(r, q)

    def _exchange(self, r, q):
        """Make column ``q`` basic in row ``r``: rank-1 tableau and drow update."""
        piv = self.tableau[r, q]
        self.tableau[r] /= piv
        col = self.tableau[:, q].copy()
        col[r] = 0.0
        self.tableau -= np.outer(col, self.tableau[r])
        self.tableau[:, q] = 0.0
        self.tableau[r, q] = 1.0
        dq = self.drow[q]
        self.drow -= dq * self.tableau[r]
        self.drow[q] = 0.0
        self.basis[r] = q
        self.status[q] = _BASIC

    def _loop(self, max_iter):
        cost = self.cost
        self.drow = cost - cost[self.basis] @ self.tableau
        bland = False
        stall = 0
        best = np.inf
        while True:
            if self.iterations >= max_iter:
                return FAILURE
            q, direction = self._price(bland)
            if q < 0:
                return OPTIMAL
            t, r = self._ratio_test(q, direction, bland)
            if t is None:
                return UNBOUNDED
            self.iterations += 1
            if r == -1:
                self._apply_flip(q, direction)
            else:
                self._apply_pivot(q, direction, t, r)
            if self.iterations % _REFRESH_EVERY == 0:
                self._refresh()
                self.drow = cost - cost[self.basis] @ self.tableau
            z = float(cost @ self.x)
            if z < best - 1e-11 * (1.0 + abs(best)):
                best = z
                stall = 0
                bland = False
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True

    def _dual_loop(self, cost, max_iter):
        """Bounded dual simplex under ``cost``, from a basis dual feasible
        for it.

        Returns ``(verdict, r, rise)``: ``OPTIMAL`` once the basic values
        are within their bounds, ``FAILURE`` at the iteration limit or a
        singular refactor, and ``INFEASIBLE`` for a dual-unbounded row ``r``
        (no column can repair it), whose basic value must move up when
        ``rise`` and down otherwise.
        """
        while True:
            xb = self.x[self.basis]
            below = self.lo[self.basis] - xb
            above = xb - self.up[self.basis]
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
            target = self.lo[leaving] if rise else self.up[leaving]
            theta = (xb[r] - target) / alpha[q]
            self.x[self.basis] -= theta * self.tableau[:, q]
            self.x[q] += theta
            self.x[leaving] = target
            if self.lo[leaving] == self.up[leaving]:
                self.status[leaving] = _FIXED
            else:
                self.status[leaving] = _AT_LO if rise else _AT_UP
            self._exchange(r, q)
            self.iterations += 1
            if self.iterations % _REFRESH_EVERY == 0:
                if not self._refresh():
                    return FAILURE, None, None
                self.drow = cost - cost[self.basis] @ self.tableau

    # -- orchestration -------------------------------------------------------

    def run(self, start: Basis) -> LpOutcome:
        """Solve from ``start``: dual simplex, then primal clean-up.

        Nonbasic columns sit at the bound their reduced cost calls for
        (boxed ties keep the start's side).  Where a reduced cost still
        pulls a column toward an infinite bound, the dual runs on a cost
        shifted to make that reduced cost 0; the primal clean-up restores
        the true cost.
        """
        n, m = self.n, self.m
        cols = np.asarray(start.columns, dtype=np.int64)
        if (cols.shape != (m,) or start.status.shape != (n + m,)
                or np.any((cols < 0) | (cols >= n + m))):
            return LpOutcome(FAILURE, message="start basis does not fit the model")
        self.basis = cols.copy()
        if start is self.problem.slack_basis:
            self.tableau = self.a_all.copy()        # B = I needs no factoring
        elif not self._refresh():
            return LpOutcome(FAILURE, message="singular start basis")
        _y, d = self._exact_duals(self.cost)

        boxed_up = (d < -_OPT_TOL) | ((start.status == _AT_UP) & (d <= _OPT_TOL))
        self._place_nonbasic(np.isfinite(self.up) & (~np.isfinite(self.lo) | boxed_up))
        self.status[cols] = _BASIC
        self._basic_values()
        shift = self._dual_infeasibility(d) > _OPT_TOL
        cost = self.cost - np.where(shift, d, 0.0)
        self.drow = np.where(shift, 0.0, d)

        max_iter = 50 * (n + 2 * m) + 10_000
        verdict, r, rise = self._dual_loop(cost, max_iter)
        if verdict == INFEASIBLE:
            # Farkas ray: row r of B^-1, negated when its value must rise
            sign = -1.0 if rise else 1.0
            return self._certified(
                lambda: self._certify_infeasible(sign * self.tableau[r, n:]))
        if verdict == FAILURE:
            return LpOutcome(FAILURE, iterations=self.iterations,
                             message="dual: iteration limit or singular basis")
        return self._primal(max_iter) or self._certified(self._finish_optimal)

    def _primal(self, max_iter):
        """Primal simplex with the true cost to verified optimality; None
        means it finished."""
        for _ in range(8):
            verdict = self._loop(max_iter)
            if verdict == FAILURE:
                return LpOutcome(
                    FAILURE, iterations=self.iterations,
                    message="primal: iteration limit or numerical stall",
                )
            if verdict == UNBOUNDED:
                return LpOutcome(UNBOUNDED, iterations=self.iterations)
            _y, d = self._exact_duals(self.cost)
            opt_viol = float(self._dual_infeasibility(d).max(initial=0.0))
            row_err, bound_err = self._primal_error()
            drift = max(row_err, bound_err) > 0.5 * _FEAS_TOL
            if opt_viol <= 10 * _OPT_TOL and not drift:
                return None
            # drift or stale reduced costs: rebuild state and keep pivoting
            if not self._refresh():
                return LpOutcome(FAILURE, iterations=self.iterations,
                                 message="singular basis during refresh")
        return LpOutcome(FAILURE, iterations=self.iterations,
                         message="primal: could not verify optimality")

    def _certified(self, check) -> LpOutcome:
        """Run a certificate ``check`` on the tableau's duals; if it fails,
        refactor once and run it again.  A second failure is final."""
        outcome = check()
        if outcome.status == FAILURE and self._refresh():
            outcome = check()
        return outcome

    def _finish_optimal(self) -> LpOutcome:
        y, d = self._exact_duals(self.cost)
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
        return LpOutcome(
            OPTIMAL,
            x=self.x[: self.n].copy(),
            objective=objective,
            dual_bound=bound_scaled * self.problem.sigma + self.problem.c0,
            iterations=self.iterations,
            basis=Basis(self.basis.copy(), self.status[: self.n + self.m].copy()),
        )

    def _certify_infeasible(self, y) -> LpOutcome:
        # combination y of the rows bounds y.b from above by sup over the box;
        # a positive shortfall proves no point in the box satisfies the rows
        w = y @ self.a_all
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
