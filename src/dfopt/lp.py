"""Dense bounded-variable dual simplex.

Solves  max c'x  s.t.  A x {<=,=} b,  lb <= x <= ub.  Geared to the
desk-scale problems this package builds (hundreds of rows/columns):
matrices are dense numpy arrays.

Every row i owns a slack ("logical") column at n + i: bounds [0, inf) for
an inequality row, [0, 0] for an equality row, so internally every row is
an equality, A x + s = b.  The slack basis, with every structural column at
its lower bound, exists for every program, and every optimal solution
carries a basis that restarts a solve.

The simplex reaches its basis only through ftran (B^-1 a), btran
(c_B' B^-1) and one row of B^-1, and behind them factorizes only the basis
kernel: the rows whose slack is nonbasic against the basic structural
columns, a square block of order k <= min(rows, cols).  A basic slack
covers its own row, so the kernel stores A[rows], A[:, cols]' and the
inverse, never the slack identity.  This fits the cut masters, which have
far more rows than basic structural columns.  The dense kernel inverse is
updated at every pivot (rank-1, or bordered when a slack leaves or enters
the basis) and refactorized periodically.  A pivot also updates what the
next one reads: the bounds of each basic position, each column's entering
direction, and the reduced costs, which move by the pivot row
(d <- d - (d_q / alpha_q) alpha) and are recomputed at every
factorization.  The program's own ``A`` is the only copy of its
constraint matrix: the simplex and its kernel read their rows and columns
from it, and ``with_bounds``, the one derivation (branch-and-bound nodes,
and product-oracle LPs, whose x columns are fixed by their bounds), shares
it.

``solve_lp(lp, warm=None)`` is the one entry point, and every solve takes
one path from a start basis.  The start is a given start basis
(``LpSolution.basis`` of an earlier solve) extended by the slacks of any
rows appended after its own rows, or the slack basis, which is the empty
start extended the same way.  An optimal solution carries the point, its
objective, the row duals and the final basis.  Every structural column is
boxed, so each nonbasic structural column can go to the bound its reduced
cost prefers; only an inequality row's slack has no upper bound.  That
makes the slack basis, where every slack is basic, dual feasible, and the
bounded dual simplex, the only simplex, runs from it or from a given start
once placing the columns makes that start dual feasible.  It ends optimal
or proves the program infeasible: with every column boxed, no program
runs off to infinity, and there is no dual phase 1.

A given start basis that does not fit the program, is singular, leaves a
slack priced out, or fails numerically on the way falls back to the slack
basis; ``LpSolution.warm`` tells whether the given basis served.  This
covers the re-solves of the decomposition: a master after its cuts are
appended, a product-oracle LP at new levels x, and a branch-and-bound child
after one bound change.  ``solve_lp_multi`` tries several start bases in
turn.

Pivoting is deterministic: the most infeasible row leaves and, among tied
ratios, the largest pivot enters, switching to Bland's rule (smallest
column indices) after 3*(rows+cols) degenerate steps.  The ratio test
ignores pivot-row entries below ``max(ETA_TOL, 1e-9 * max|entry|)``, so no
pivot below that is ever committed, and infeasibility is never declared
before refactorizing.  A column that prices out on the final factorization
starts the dual simplex again, at most ``RESTARTS`` times.
Tolerances: primal feasibility 1e-7, reduced-cost optimality 1e-9.  A
reported Optimal is re-verified against the original rows before return;
numerical failures raise SolverError instead of returning a wrong status.

``verify_solution_exact`` refactorizes a returned basis in exact rational
arithmetic, for regression fixtures whose optima are known exactly.

Costs, coefficients, right-hand sides and both bounds of every column
must be finite; a program is checked once, when it is made, and raises
ValidationError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import IterationLimitError, SolverError, ValidationError

LE, EQ = "<=", "="
_SENSES = frozenset((LE, EQ))

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
LEAVE_TOL = 1e-9  # dual simplex: a basic value this far outside its bounds leaves
ETA_TOL = 1e-7  # smallest pivot element ever committed
DEGEN_TOL = 1e-12
REFACTOR_EVERY = 64
RESTARTS = 2  # dual simplex runs after the first whose optimum priced out

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LinearProgram:
    """max c'x subject to row constraints and finite variable bounds.

    A program checks itself once, when it is made (``__post_init__``), so a
    solve does not check it again; ``with_bounds`` checks only the bounds it
    changes.
    """

    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @classmethod
    def build(cls, c, A, senses, b, lb=None, *, ub) -> "LinearProgram":
        """The program from array-likes.  ``lb`` defaults to 0; ``ub`` has no
        default, since every bound must be finite."""
        c = np.asarray(c, dtype=float)
        try:
            A = np.asarray(A, dtype=float)
        except ValueError as exc:  # ragged rows
            raise ValidationError(f"inconsistent LP dimensions: {exc}") from None
        b = np.asarray(b, dtype=float)
        n = len(c)
        lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        return cls(c=c, A=A, senses=tuple(senses), b=b, lb=lb, ub=ub)

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]

    def __post_init__(self) -> None:
        shape = np.shape(self.A)
        if (
            len(shape) != 2
            or np.shape(self.c) != shape[1:]
            or np.shape(self.b) != shape[:1]
            or len(self.senses) != shape[0]
        ):
            raise ValidationError("inconsistent LP dimensions")
        if not (np.isfinite(self.c).all() and np.isfinite(self.A).all()):
            raise ValidationError("costs and row coefficients must be finite")
        if not np.isfinite(self.b).all():
            raise ValidationError("right-hand sides must be finite")
        _check_bounds(self.lb, self.ub, shape[1])
        if not _SENSES.issuperset(self.senses):
            bad = next(s for s in self.senses if s not in _SENSES)
            raise ValidationError(f"unknown row sense {bad!r}")

    @cached_property
    def _slack_ub(self) -> np.ndarray:
        """Each row's slack upper bound: 0 on an equality row, inf otherwise."""
        return np.where(np.array(self.senses, dtype=str) == EQ, 0.0, np.inf)

    def with_bounds(self, lb, ub) -> "LinearProgram":
        """This program with bounds ``lb`` and ``ub``, sharing its ``A``.

        Only the bounds are checked: the copy is not made through the
        constructor, which would check A again at every branch-and-bound node.
        """
        lb, ub = np.asarray(lb, dtype=float), np.asarray(ub, dtype=float)
        _check_bounds(lb, ub, self.num_cols)
        lp = object.__new__(LinearProgram)
        lp.__dict__.update(self.__dict__, lb=lb, ub=ub)
        return lp


def _check_bounds(lb: np.ndarray, ub: np.ndarray, n: int) -> None:
    """Every bound finite (neither inf nor NaN), and lb <= ub."""
    if np.shape(lb) != (n,) or np.shape(ub) != (n,):
        raise ValidationError("inconsistent bound dimensions")
    if not (np.isfinite(lb).all() and np.isfinite(ub).all()):
        raise ValidationError("bounds must be finite")
    if (lb > ub).any():
        raise ValidationError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class WarmBasis:
    """Opaque restart point: canonical basic columns plus nonbasic-at-upper set.

    A basis taken with m rows also starts a program that has rows of any
    sense appended after those m: their slacks join the basis.
    """

    basic: tuple[int, ...]
    at_upper: tuple[int, ...]


@dataclass
class LpSolution:
    """Result of one solve.

    ``basis`` is set exactly when the status is optimal.  ``pivots`` and
    ``refactorizations`` (basis kernels factorized from scratch, the first
    one included, also when the kernel is empty) count the work of the solve
    that produced the result; ``warm`` is true when that solve started from
    the given start basis, false for a solve from the slack basis.
    """

    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    basis: WarmBasis | None = None
    pivots: int = 0
    refactorizations: int = 0
    warm: bool = False


def _pivot_tol(v: np.ndarray) -> float:
    """Entries of a pivot column or row below this are treated as zero."""
    return max(ETA_TOL, 1e-9 * float(np.abs(v).max(initial=0.0)))


class _Kernel:
    """The part of a basis of [A | I] that its slacks do not cover, inverted.

    The kernel is K = A[rows, cols]: ``cols`` are the basic structural
    columns and ``rows`` the rows whose slack is nonbasic, so K is square,
    of order k.  A basic slack covers its own row, so the rest of the basis
    B stays implicit: B^-1 a holds K^-1 a[rows] at the kernel positions and
    a_i - A[i, cols] K^-1 a[rows] at the position of row i's slack.  Stored
    are A[rows], A[:, cols]' and ``inv`` = K^-1, never the slack identity,
    so nothing m x m or n + m wide is formed; the rows and columns are
    gathered from the program's own ``A``.

    ``replace`` keeps rows and columns up to date at every pivot and updates
    ``inv`` in place of a refactorization.  Kernel rows and columns live in
    buffers of min(m, n) entries; one that leaves the kernel is overwritten
    by the last.
    """

    def __init__(self, A: np.ndarray, basis: np.ndarray, rows):
        """The kernel of ``basis``, whose basic slacks leave ``rows`` uncovered."""
        m, n = A.shape
        self.A, self.m, self.n = A, m, n
        cap = min(m, n)
        # ftran's w[p] is z[at[p]] for z = [a - A[:, cols] x, x]: the slack
        # row i at a slack position, m + (kernel index) at a kernel one
        self.at = basis - n
        pos = (self.at < 0).nonzero()[0]
        k = len(pos)
        slots = np.arange(k)
        self.at[pos] = m + slots
        self.row_slot = np.full(m, -1)  # kernel index of each kernel row
        self.row_slot[rows] = slots
        # basis position, column and row of each kernel index
        self._pos, self._cols, self._rows = index = np.empty((3, cap), dtype=int)
        index[:, :k] = pos, basis[pos], rows
        self._A_rows = np.empty((cap, n))  # A[rows]
        self._A_rows[:k] = A[rows]
        self._A_cols = np.empty((cap, m))  # A[:, cols] transposed
        self._A_cols[:k] = A[:, self._cols[:k]].T
        self._resize(k)

    def _resize(self, k: int):
        self.k = k
        self.pos = self._pos[:k]
        self.cols = self._cols[:k]
        self.rows = self._rows[:k]
        self.A_rows = self._A_rows[:k]
        self.A_cols = self._A_cols[:k]

    def factorize(self):
        """K^-1 afresh; raises LinAlgError when K is singular."""
        K = self.A_rows[:, self.cols]
        self.inv = np.linalg.inv(K) if self.k else K

    def ftran(self, a: np.ndarray) -> np.ndarray:
        """B^-1 a, by basis position."""
        x = self.inv.dot(a[self.rows])
        return np.concatenate((a - x.dot(self.A_cols), x))[self.at]

    def btran(self, c: np.ndarray) -> np.ndarray:
        """Duals y of ``rows`` with y'K = c[cols]: y'B = c_B' when slacks cost 0.

        Every other row's dual is 0.
        """
        return c[self.cols].dot(self.inv)

    def times(self, y: np.ndarray) -> np.ndarray:
        """y'[A | I][rows]: y.A[rows], and y at the kernel rows' slacks."""
        out = np.zeros(self.n + self.m)
        out[: self.n] = y.dot(self.A_rows)
        out[self.n :][self.rows] = y
        return out

    def row(self, p: int) -> np.ndarray:
        """Row p of B^-1 times [A | I]: every column's entry in pivot row p."""
        i = self.at[p]
        if i >= self.m:
            return self.times(self.inv[i - self.m])
        alpha = self.times(-self.A_cols[:, i].dot(self.inv))
        alpha[: self.n] += self.A[i]
        alpha[self.n + i] += 1.0
        return alpha

    def replace(self, p: int, j: int, w: np.ndarray, update: bool):
        """Column j (w = B^-1 [A | I]_j) takes basis position p.

        A structural column for a structural one is a rank-1 update of K^-1.
        A structural column for the slack of row i borders K^-1 with row i
        and column j; the slack of row l for a structural column removes
        row l and that column (Schur complement); a slack for a slack
        replaces one kernel row (Sherman-Morrison).  With ``update`` false
        ``inv`` is left stale, for a refactorization.
        """
        m, n, k, M = self.m, self.n, self.k, self.inv
        at = int(self.at[p])
        if j < n and at >= m:
            t = at - m
            if update:
                u = w[self.pos]
                row = M[t] / u[t]
                M -= u[:, None] * row
                M[t] = row
            self._cols[t] = j
            self._A_cols[t] = self.A[:, j]
        elif j < n:
            i = at
            if update:
                u, s = w[self.pos], w[p]
                v = self.A_cols[:, i].dot(M) / s
                grown = np.empty((k + 1, k + 1))
                grown[:k, :k] = M + u[:, None] * v
                grown[:k, k] = -u / s
                grown[k, :k] = -v
                grown[k, k] = 1.0 / s
                self.inv = grown
            self._pos[k], self._cols[k] = p, j
            self._A_cols[k] = self.A[:, j]
            self._rows[k], self._A_rows[k] = i, self.A[i]
            self.at[p], self.row_slot[i] = m + k, k
            self._resize(k + 1)
        elif at >= m:
            t, a, last = at - m, self.row_slot[j - n], k - 1
            if update:
                col = M[:, a] / M[t, a]
                row = M[t].copy()
                col[t], row[a] = col[last], row[last]
                M[t] = M[last]
                M[:, a] = M[:, last]
                self.inv = M[:last, :last] - col[:last, None] * row[:last]
            q, r = self._pos[last], self._rows[last]
            self._pos[t], self._cols[t] = q, self._cols[last]
            self._A_cols[t] = self._A_cols[last]
            self._rows[a] = r
            self._A_rows[a] = self._A_rows[last]
            self.at[q], self.row_slot[r] = m + t, a
            self.at[p], self.row_slot[j - n] = j - n, -1
            self._resize(last)
        else:
            i, a = at, self.row_slot[j - n]
            if update:
                g = self.A_cols[:, i].dot(M)
                col = M[:, a] / g[a]
                M -= col[:, None] * g
                M[:, a] = col
            self._rows[a], self._A_rows[a] = i, self.A[i]
            self.at[p], self.row_slot[j - n], self.row_slot[i] = j - n, -1, a


class _Simplex:
    """Simplex state of ``lp`` at a start basis, factorized on construction.

    ``basis`` lists the basic columns of the first rows; the slacks of the
    rows after them fill the rest, so ``()`` gives the slack basis.
    Nonbasic columns sit at their lower bound except those in ``at_upper``;
    ``x_b`` holds the basic values.  The basis is reached only through its
    ``kernel``: ftran, btran and one row of B^-1.  Kept up to date at every
    pivot: ``lb_b`` and ``ub_b``, the bounds of each basic position; ``dir``,
    the way each column may enter (+1 at its lower bound, -1 at its upper,
    0 when basic or fixed); and ``d``, the reduced costs for the costs ``c``,
    computed at every factorization and updated by the pivot row between.
    The costs and bounds never change within a solve.

    The loops here and in the kernel call ndarray methods (``dot``,
    ``nonzero``, ``argmax``) rather than ``@`` and the numpy functions: on
    arrays of a few dozen entries each saves a microsecond or more per call.
    """

    def __init__(self, lp: LinearProgram, basis=(), at_upper=()):
        """Raises SolverError when the start does not fit ``lp`` or is singular."""
        self.A = lp.A
        self.m, self.n = m, n = self.A.shape
        ncols = n + m
        self.c = np.concatenate((-lp.c, np.zeros(m)))  # to minimize; slacks cost 0
        given = np.asarray(basis, dtype=int)
        self.basis = np.concatenate((given, np.arange(n + len(given), ncols)))
        at_upper = np.asarray(at_upper, dtype=int)
        ub = np.concatenate((lp.ub, lp._slack_ub))
        if (
            len(self.basis) != m
            or any(((v < 0) | (v >= ncols)).any() for v in (self.basis, at_upper))
            or np.bincount(self.basis, minlength=ncols).max(initial=0) > 1
            or not np.isfinite(ub[at_upper]).all()
        ):
            raise SolverError("start basis does not fit the program", {})
        self.pivots = 0
        self.refactorizations = 0
        self.is_basic = np.zeros(ncols, dtype=bool)
        self.is_basic[self.basis] = True
        self.at_upper = np.zeros(ncols, dtype=bool)
        self.at_upper[at_upper] = True
        self.b, self.ub = lp.b, ub
        self.lb = lb = np.concatenate((lp.lb, np.zeros(m)))
        self.lb_b, self.ub_b = lb[self.basis], ub[self.basis]
        self.dir = np.where(self.at_upper, -1.0, 1.0)
        self.dir[self.is_basic | (lb == ub)] = 0.0
        rows = (~self.is_basic[n:]).nonzero()[0]
        self.kernel = _Kernel(self.A, self.basis, rows)
        self._refactor()

    # -- state helpers ----------------------------------------------------

    def _refactor(self):
        """Factorize the basis afresh, and recompute ``x_b`` and ``d``."""
        try:
            self.kernel.factorize()
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular basis during refactorization",
                {"basis": [int(j) for j in self.basis]},
            ) from exc
        self.refactorizations += 1
        self.since_refactor = 0
        self.x_b = self._basic_values()
        self.d = self._reduced_costs(self.c)

    def _column(self, j: int) -> np.ndarray:
        """Column j of [A | I]."""
        if j < self.n:
            return self.A[:, j]
        e = np.zeros(self.m)
        e[j - self.n] = 1.0
        return e

    def _nonbasic_values(self):
        vals = np.where(self.at_upper, self.ub, self.lb)
        vals[self.is_basic] = 0.0
        return vals

    def _basic_values(self):
        xn = self._nonbasic_values()
        return self.kernel.ftran(self.b - self.A.dot(xn[: self.n]) - xn[self.n :])

    def _reduced_costs(self, c: np.ndarray) -> np.ndarray:
        d = c - self.kernel.times(self.kernel.btran(c))
        d[self.is_basic] = 0.0
        return d

    def _priced_out(self, d: np.ndarray) -> np.ndarray:
        """Columns whose reduced cost says they should enter (dual infeasible)."""
        return (self.dir * d < -OPT_TOL).nonzero()[0]

    def _pivot(self, pos: int, j: int, w: np.ndarray, leave_to_upper: bool):
        """Column ``j`` (with ``w = B^-1 A_j``) replaces the basic column at ``pos``.

        The caller updates ``x_b`` and ``d``; every REFACTOR_EVERY pivots the
        kernel is refactorized instead of updated, and they are recomputed.
        """
        leaving = int(self.basis[pos])
        self.basis[pos] = j
        self.is_basic[leaving] = False
        self.is_basic[j] = True
        self.at_upper[leaving] = leave_to_upper
        self.at_upper[j] = False
        self.lb_b[pos], self.ub_b[pos] = self.lb[j], self.ub[j]
        self.dir[j] = 0.0
        if self.lb[leaving] != self.ub[leaving]:
            self.dir[leaving] = -1.0 if leave_to_upper else 1.0
        self.pivots += 1
        self.since_refactor += 1
        update = self.since_refactor < REFACTOR_EVERY
        self.kernel.replace(pos, j, w, update)
        if not update:
            self._refactor()

    # -- dual simplex ------------------------------------------------------

    def place(self) -> np.ndarray:
        """Put each nonbasic boxed column at the bound its reduced cost prefers.

        Only a column priced out by more than OPT_TOL moves, so a start
        basis keeps its ``at_upper`` otherwise.  Returns the columns that
        still price out: nonbasic slacks of inequality rows, the only
        columns with no upper bound.  From the slack basis there are none.
        """
        out = self._priced_out(self.d)
        boxed = np.isfinite(self.ub[out])
        if boxed.any():
            flip = out[boxed]
            self.at_upper[flip] ^= True
            self.dir[flip] *= -1.0
            self.x_b = self._basic_values()
        return out[~boxed]

    def dual(self) -> str:
        """Bounded dual simplex from a dual feasible basis.

        Returns OPTIMAL once every basic value is within LEAVE_TOL of its
        bounds (on a fresh factorization), INFEASIBLE when a row shows that
        no point satisfies the bounds.  Raises SolverError when that row's
        proof does not hold up without the pivot tolerance, and
        IterationLimitError after ``max_iter`` pivots.
        """
        m, ncols = self.m, self.n + self.m
        max_iter = 50 * (m + ncols) + 10_000
        degen_limit = 3 * (m + ncols)
        degen_count = 0
        bland = False
        if m == 0:
            return OPTIMAL

        for _ in range(max_iter):
            x_b, d = self.x_b, self.d
            infeas = np.maximum(self.lb_b - x_b, x_b - self.ub_b)
            r = int(infeas.argmax())
            if infeas[r] <= LEAVE_TOL:
                if self.since_refactor > 0:
                    self._refactor()
                    continue
                return OPTIMAL
            if bland:
                rows = (infeas > LEAVE_TOL).nonzero()[0]
                r = int(rows[self.basis[rows].argmin()])
            to_upper = bool(x_b[r] - self.ub_b[r] > LEAVE_TOL)

            # the leaving value must rise (fall when above its upper bound):
            # at-lower columns with a < 0 and at-upper columns with a > 0 can
            # move it there
            alpha = self.kernel.row(r)
            a = -alpha if to_upper else alpha
            ptol = _pivot_tol(alpha)
            moves = self.dir * a
            cand = (moves < -ptol).nonzero()[0]
            if cand.size == 0:
                if self.since_refactor > 0:
                    self._refactor()
                    continue
                # every column that could move the row, however small its
                # entry, over its whole range: not enough means infeasible
                helps = moves < -DEGEN_TOL
                span = self.ub[helps] - self.lb[helps]
                room = float(np.sum(np.abs(a[helps]) * span))
                if room >= infeas[r] - LEAVE_TOL:
                    raise SolverError(
                        "dual ratio test found no pivot", {"row": r}
                    )
                return INFEASIBLE

            ratios = np.maximum(d[cand] / -a[cand], 0.0)
            t_min = float(ratios.min())
            tied = cand[ratios <= t_min + DEGEN_TOL]
            if bland:
                q = int(tied[0])
            else:
                q = int(tied[abs(a[tied]).argmax()])

            # w[r] is alpha[q] computed through the column: judged by the
            # row's tolerance, a disagreement means the kernel drifted
            w = self.kernel.ftran(self._column(q))
            if abs(w[r]) < ptol:
                if self.since_refactor == 0:
                    raise SolverError("dual pivot below tolerance", {"row": r})
                self._refactor()
                continue

            if t_min <= DEGEN_TOL:
                degen_count += 1
                if degen_count > degen_limit:
                    bland = True
            else:
                degen_count = 0

            # primal step: the entering column moves until row r meets its bound
            bound = self.ub_b[r] if to_upper else self.lb_b[r]
            step = (x_b[r] - bound) / w[r]
            start = self.ub[q] if self.at_upper[q] else self.lb[q]
            x_b -= step * w
            x_b[r] = start + step
            # dual step: the reduced costs move by the pivot row
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0
            self._pivot(r, q, w, to_upper)

        raise IterationLimitError(
            "dual simplex iteration limit exceeded", {"pivots": self.pivots}
        )


def _extract(lp: LinearProgram, sim: _Simplex, warm: bool) -> LpSolution:
    point = sim._nonbasic_values()
    point[sim.basis] = sim.x_b
    x = point[: sim.n].copy()
    y_min = np.zeros(sim.m)
    y_min[sim.kernel.rows] = sim.kernel.btran(sim.c)
    duals = -y_min

    obj = float(lp.c @ x)

    # never report a wrong Optimal: re-verify the original rows and bounds
    # (a row's residual is <= 0 when it holds; an equality's is 0)
    resid = lp.A @ x - lp.b
    equality = sim.ub[sim.n :] == 0.0
    bad = ((resid > FEAS_TOL) | (equality & (resid < -FEAS_TOL))).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        raise SolverError(
            "optimal basis fails primal feasibility check",
            {"row": i, "residual": float(resid[i])},
        )
    if (x < lp.lb - FEAS_TOL).any() or (x > lp.ub + FEAS_TOL).any():
        raise SolverError("optimal point violates variable bounds", {})
    if not np.isfinite(obj):
        raise SolverError("optimal point is not finite", {})

    basis = WarmBasis(
        basic=tuple(sim.basis.tolist()),
        at_upper=tuple(sim.at_upper.nonzero()[0].tolist()),
    )
    return LpSolution(
        status=OPTIMAL,
        objective=obj,
        x=x,
        duals=duals,
        basis=basis,
        pivots=sim.pivots,
        refactorizations=sim.refactorizations,
        warm=warm,
    )


def _solve_from(lp: LinearProgram, warm: WarmBasis | None) -> LpSolution | None:
    """Optimize ``lp`` by the dual simplex from ``warm``, or from the slack
    basis when ``warm`` is None.

    A pass places the boxed columns and runs the dual simplex; a column that
    prices out on its final factorization starts another pass.  A slack that
    still prices out after placing is a start that is not dual feasible.
    Such a start, or a given one that does not fit the program, is singular
    or fails numerically, gives None, which sends the caller to the slack
    basis; from the slack basis the SolverError is raised.
    """
    start = () if warm is None else (warm.basic, warm.at_upper)
    try:
        sim = _Simplex(lp, *start)
        for _ in range(1 + RESTARTS):
            if sim.place().size:
                raise SolverError("a slack prices out after placing the columns", {})
            if sim.dual() == INFEASIBLE:
                return LpSolution(
                    status=INFEASIBLE,
                    pivots=sim.pivots,
                    refactorizations=sim.refactorizations,
                    warm=warm is not None,
                )
            if sim._priced_out(sim.d).size == 0:
                return _extract(lp, sim, warm is not None)
        raise SolverError(
            "reduced costs still price out after the dual simplex",
            {"pivots": sim.pivots},
        )
    except SolverError:
        if warm is None:
            raise
        return None


def solve_lp(lp: LinearProgram, warm: WarmBasis | None = None) -> LpSolution:
    """Solve ``lp``, from the start basis ``warm`` when it is usable.

    An unusable start basis (it does not fit, is singular, or the warm solve
    fails numerically) falls back to the slack basis; ``LpSolution.warm``
    tells which one served.
    """
    if warm is not None:
        sol = _solve_from(lp, warm)
        if sol is not None:
            return sol
    return _solve_from(lp, None)


def solve_lp_multi(lp: LinearProgram, bases) -> LpSolution:
    """Try candidate start bases in order; cold start when none is usable.

    The cold fallback goes through ``solve_lp``, so a caller watching that
    name sees which calls the start bases did not serve.
    """
    for warm in bases:
        sol = None if warm is None else _solve_from(lp, warm)
        if sol is not None:
            return sol
    return solve_lp(lp)


def solve_lp_with_basis(lp: LinearProgram, warm: WarmBasis | None) -> LpSolution:
    """``solve_lp(lp, warm)``, under the name older callers use."""
    return solve_lp(lp, warm)


# ---------------------------------------------------------------------------
# Exact rational verification of a returned basis
# ---------------------------------------------------------------------------


def _rational_solve(M: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with partial (first nonzero) pivoting, exact."""
    n = len(M)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise SolverError("singular basis in exact refactorization", {})
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * bb for a, bb in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def verify_solution_exact(lp: LinearProgram, sol: LpSolution) -> dict:
    """Refactorize ``sol.basis`` in exact rational arithmetic.

    Returns the exact objective of the basis point plus feasibility and
    reduced-cost optimality flags; used to pin regression fixtures whose
    optima are exact decimals.
    """
    if sol.status != OPTIMAL or sol.basis is None:
        raise SolverError("exact verification needs an optimal basis", {})
    m, n = lp.A.shape
    ncols = n + m
    A = [
        [Fraction(v) for v in lp.A[i]] + [Fraction(int(i == s)) for s in range(m)]
        for i in range(m)
    ]
    b = [Fraction(v) for v in lp.b]
    lbs = [Fraction(v) for v in np.concatenate((lp.lb, np.zeros(m)))]
    ubs = [
        Fraction(v) if np.isfinite(v) else None
        for v in np.concatenate((lp.ub, lp._slack_ub))
    ]
    basic = list(sol.basis.basic)
    at_upper = set(sol.basis.at_upper)

    xn = [Fraction(0)] * ncols
    for j in range(ncols):
        if j in basic:
            continue
        xn[j] = ubs[j] if j in at_upper else lbs[j]
    rhs = [b[i] - sum(A[i][j] * xn[j] for j in range(ncols) if xn[j] != 0) for i in range(m)]
    B = [[A[i][basic[k]] for k in range(m)] for i in range(m)]
    xb = _rational_solve(B, rhs)

    point = xn[:]
    for k, j in enumerate(basic):
        point[j] = xb[k]

    feasible = True
    for j in range(ncols):
        if point[j] < lbs[j]:
            feasible = False
        if ubs[j] is not None and point[j] > ubs[j]:
            feasible = False

    c_min = [-Fraction(v) for v in lp.c] + [Fraction(0)] * m
    Bt = [[A[i][basic[k]] for i in range(m)] for k in range(m)]
    y = _rational_solve(Bt, [c_min[j] for j in basic])
    optimal = True
    for j in range(ncols):
        if j in basic or lbs[j] == ubs[j]:
            continue
        dj = c_min[j] - sum(y[i] * A[i][j] for i in range(m))
        if dj > 0 if j in at_upper else dj < 0:
            optimal = False
    objective = sum(Fraction(lp.c[j]) * point[j] for j in range(n))
    return {
        "objective": objective,
        "feasible": feasible,
        "optimal": feasible and optimal,
        "x": point[:n],
    }

