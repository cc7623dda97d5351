"""Dense bounded-variable primal simplex.

Solves  max c'x  s.t.  A x {<=,=,>=} b,  lb <= x <= ub  with a two-phase
primal simplex over an explicit basis inverse.  Geared to the desk-scale
problems this package builds (hundreds of rows/columns): matrices are dense
numpy arrays, the basis inverse is updated by elementary row operations and
refactorized periodically.

Pivoting is deterministic: Dantzig pricing with smallest-index tie breaks,
switching to Bland's rule after 3*(rows+cols) degenerate steps.  Tolerances:
primal feasibility 1e-7, reduced-cost optimality 1e-9.  A reported Optimal is
re-verified against the original rows before return; numerical failures raise
SolverError instead of returning a wrong status.

``verify_solution_exact`` refactorizes a returned basis in exact rational
arithmetic, for regression fixtures whose optima are known exactly.

Every variable must have a finite lower bound (upper bounds may be +inf);
all programs built by this package satisfy that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SolverError, ValidationError

LE, EQ, GE = "<=", "=", ">="

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
ETA_TOL = 1e-7  # pivots smaller than this trigger refactorization
DEGEN_TOL = 1e-12
REFACTOR_EVERY = 64

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max c'x subject to row constraints and variable bounds."""

    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    @classmethod
    def build(cls, c, A, senses, b, lb=None, ub=None) -> "LinearProgram":
        c = np.asarray(c, dtype=float)
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            A = A.reshape(len(b), len(c))
        b = np.asarray(b, dtype=float)
        n = len(c)
        lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
        ub = np.full(n, np.inf) if ub is None else np.asarray(ub, dtype=float)
        lp = cls(c=c, A=A, senses=tuple(senses), b=b, lb=lb, ub=ub)
        lp.validate()
        return lp

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]

    def validate(self) -> None:
        m, n = self.A.shape
        if len(self.c) != n or len(self.b) != m or len(self.senses) != m:
            raise ValidationError("inconsistent LP dimensions")
        if len(self.lb) != n or len(self.ub) != n:
            raise ValidationError("inconsistent bound dimensions")
        if not np.all(np.isfinite(self.b)):
            raise ValidationError("right-hand sides must be finite")
        if not np.all(np.isfinite(self.lb)):
            raise ValidationError("lower bounds must be finite")
        if np.any(self.lb > self.ub):
            raise ValidationError("lower bound exceeds upper bound")
        for s in self.senses:
            if s not in (LE, EQ, GE):
                raise ValidationError(f"unknown row sense {s!r}")

    def with_bounds(self, lb, ub) -> "LinearProgram":
        return LinearProgram(
            c=self.c,
            A=self.A,
            senses=self.senses,
            b=self.b,
            lb=np.asarray(lb, dtype=float),
            ub=np.asarray(ub, dtype=float),
        )


@dataclass(frozen=True)
class WarmBasis:
    """Opaque restart point: canonical basic columns plus nonbasic-at-upper set."""

    basic: tuple[int, ...]
    at_upper: tuple[int, ...]


@dataclass
class LpSolution:
    status: str
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    basis: WarmBasis | None = None
    pivots: int = 0

    def dual_objective(self, lp: LinearProgram) -> float:
        """b'y plus reduced-cost terms for nonbasic variables at their bounds."""
        val = float(np.dot(self.duals, lp.b))
        val += float(np.dot(self.reduced_costs, self.x))
        return val


class _Canonical:
    """Internal minimization form: A z = b, all rows equalities via slacks.

    Columns: structural variables first, then one slack per inequality row
    (>= rows are negated to <= first).  Artificial columns are appended only
    for a cold start.  ``row_sign`` maps internal duals back to the original
    row orientation.
    """

    def __init__(self, lp: LinearProgram):
        m, n = lp.A.shape
        self.lp = lp
        self.n_struct = n
        self.row_sign = np.ones(m)
        A = lp.A.copy()
        b = lp.b.copy()
        for i, s in enumerate(lp.senses):
            if s == GE:
                A[i, :] *= -1.0
                b[i] *= -1.0
                self.row_sign[i] = -1.0
        self.ineq_rows = [i for i, s in enumerate(lp.senses) if s != EQ]
        n_slack = len(self.ineq_rows)
        full = np.zeros((m, n + n_slack))
        full[:, :n] = A
        for k, i in enumerate(self.ineq_rows):
            full[i, n + k] = 1.0
        self.A = full
        self.b = b
        self.lb = np.concatenate([lp.lb, np.zeros(n_slack)])
        self.ub = np.concatenate([lp.ub, np.full(n_slack, np.inf)])
        self.c_min = np.concatenate([-lp.c, np.zeros(n_slack)])
        self.slack_col = {i: n + k for k, i in enumerate(self.ineq_rows)}


class _Simplex:
    def __init__(self, can: _Canonical):
        self.can = can
        self.A = can.A
        self.b = can.b
        self.lb = can.lb.copy()
        self.ub = can.ub.copy()
        self.m = can.A.shape[0]
        self.pivots = 0

    # -- state helpers ----------------------------------------------------

    def _setup(self, basis: list[int], at_upper: set[int]):
        self.basis = list(basis)
        ncols = self.A.shape[1]
        self.is_basic = np.zeros(ncols, dtype=bool)
        self.is_basic[self.basis] = True
        self.at_upper = np.zeros(ncols, dtype=bool)
        for j in at_upper:
            self.at_upper[j] = True
        self._factorize()

    def _factorize(self):
        B = self.A[:, self.basis]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                "singular basis during refactorization",
                {"basis": list(self.basis)},
            ) from exc

    def _nonbasic_values(self):
        vals = np.where(self.at_upper, self.ub, self.lb)
        vals[self.is_basic] = 0.0
        return vals

    def _basic_values(self):
        xn = self._nonbasic_values()
        rhs = self.b - self.A @ xn
        return self.Binv @ rhs

    # -- core loop ---------------------------------------------------------

    def run(self, c: np.ndarray, phase_one: bool) -> str:
        m, ncols = self.A.shape
        max_iter = 50 * (m + ncols) + 10_000
        degen_limit = 3 * (m + ncols)
        degen_count = 0
        bland = False
        since_refactor = 0
        basis_arr = np.asarray(self.basis, dtype=int)
        x_b = self._basic_values()

        for _ in range(max_iter):
            y = c[basis_arr] @ self.Binv
            d = c - y @ self.A
            d[self.is_basic] = 0.0

            free = ~self.is_basic & (self.lb != self.ub)
            viol_low = free & ~self.at_upper & (d < -OPT_TOL)
            viol_up = free & self.at_upper & (d > OPT_TOL)
            eligible = np.flatnonzero(viol_low | viol_up)
            if eligible.size == 0:
                self.basis = [int(v) for v in basis_arr]
                if since_refactor > 0:
                    # confirm optimality against a freshly factorized basis
                    self._factorize()
                    x_b = self._basic_values()
                    since_refactor = 0
                    continue
                return OPTIMAL
            if bland:
                j = int(eligible[0])
            else:
                j = int(eligible[int(np.argmax(np.abs(d[eligible])))])

            sigma = -1.0 if self.at_upper[j] else 1.0
            w = self.Binv @ self.A[:, j]
            dec = sigma * w  # basic values move by -t * dec

            if m:
                lbs_b = self.lb[basis_arr]
                ubs_b = self.ub[basis_arr]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t_low = np.where(
                        dec > PIVOT_TOL, (x_b - lbs_b) / dec, np.inf
                    )
                    t_up = np.where(
                        (dec < -PIVOT_TOL) & np.isfinite(ubs_b),
                        (x_b - ubs_b) / dec,
                        np.inf,
                    )
                t_basic = np.maximum(np.minimum(t_low, t_up), 0.0)
                min_basic = float(t_basic.min())
            else:
                min_basic = np.inf

            t_flip = self.ub[j] - self.lb[j]
            if not np.isfinite(min(t_flip, min_basic)):
                self.basis = [int(v) for v in basis_arr]
                return UNBOUNDED

            if t_flip <= min_basic + DEGEN_TOL:
                # entering variable runs to its opposite bound: no pivot
                self.at_upper[j] = not self.at_upper[j]
                x_b = x_b - dec * t_flip
                if t_flip <= DEGEN_TOL:
                    degen_count += 1
                    if degen_count > degen_limit:
                        bland = True
                else:
                    degen_count = 0
                continue

            # leaving row: among tied minima prefer the numerically largest
            # pivot element, then the smallest basic column index
            cand = np.flatnonzero(t_basic <= min_basic + DEGEN_TOL)
            piv_mag = np.abs(dec[cand])
            best_mag = float(piv_mag.max())
            stable = cand[piv_mag >= 0.5 * best_mag]
            leave_pos = int(stable[int(np.argmin(basis_arr[stable]))])
            t_star = float(t_basic[leave_pos])
            leave_to_upper = t_up[leave_pos] < t_low[leave_pos]

            if t_star <= DEGEN_TOL:
                degen_count += 1
                if degen_count > degen_limit:
                    bland = True
            else:
                degen_count = 0

            leaving = int(basis_arr[leave_pos])
            x_b = x_b - dec * t_star
            start = self.ub[j] if self.at_upper[j] else self.lb[j]
            x_b[leave_pos] = start + sigma * t_star
            basis_arr[leave_pos] = j
            self.is_basic[leaving] = False
            self.is_basic[j] = True
            self.at_upper[leaving] = leave_to_upper
            self.at_upper[j] = False
            self.pivots += 1
            since_refactor += 1

            piv = w[leave_pos]
            if abs(piv) < ETA_TOL or since_refactor >= REFACTOR_EVERY:
                self.basis = [int(v) for v in basis_arr]
                self._factorize()
                x_b = self._basic_values()
                since_refactor = 0
            else:
                row = self.Binv[leave_pos, :] / piv
                self.Binv -= np.outer(w, row)
                self.Binv[leave_pos, :] = row

        raise SolverError(
            "simplex iteration limit exceeded",
            {"phase_one": phase_one, "pivots": self.pivots},
        )


def _cold_start(can: _Canonical, sim: _Simplex) -> str:
    """Phase 1: artificial columns cover rows infeasible at the lower-bound point."""
    m = sim.m
    ncols = can.A.shape[1]
    x0 = np.where(np.isfinite(can.lb), can.lb, 0.0)
    resid = can.b - can.A @ x0

    basis: list[int] = [-1] * m
    art_cols: list[np.ndarray] = []
    art_meta: list[int] = []
    for i in range(m):
        slack = can.slack_col.get(i)
        if slack is not None and resid[i] >= 0.0:
            basis[i] = slack
        else:
            col = np.zeros(m)
            col[i] = 1.0 if resid[i] >= 0 else -1.0
            art_cols.append(col)
            art_meta.append(i)
            basis[i] = ncols + len(art_cols) - 1

    n_art = len(art_cols)
    if n_art:
        sim.A = np.column_stack([can.A] + art_cols)
        sim.lb = np.concatenate([sim.lb, np.zeros(n_art)])
        sim.ub = np.concatenate([sim.ub, np.full(n_art, np.inf)])
    sim._setup(basis, set())

    if n_art:
        c1 = np.zeros(sim.A.shape[1])
        c1[ncols:] = 1.0
        status = sim.run(c1, phase_one=True)
        if status != OPTIMAL:
            raise SolverError("phase 1 did not terminate at an optimum", {})
        infeas = float(c1 @ _full_point(sim))
        if infeas > FEAS_TOL:
            return INFEASIBLE
        # pin artificials at zero for phase 2
        sim.lb[ncols:] = 0.0
        sim.ub[ncols:] = 0.0
        _pivot_out_artificials(sim, ncols)
    return OPTIMAL


def _pivot_out_artificials(sim: _Simplex, ncols: int) -> None:
    """Swap zero-valued basic artificials for real columns when possible.

    Keeps the same (degenerate) basic point but makes the final basis
    reusable as a warm start.  Rows where no real column has a nonzero
    tableau entry are redundant; their artificial stays, pinned at zero.
    """
    for pos in range(sim.m):
        art = sim.basis[pos]
        if art < ncols:
            continue
        row = sim.Binv[pos, :] @ sim.A[:, :ncols]
        candidates = np.flatnonzero(np.abs(row) > 1e-7)
        for j in candidates:
            j = int(j)
            if sim.is_basic[j]:
                continue
            w = sim.Binv @ sim.A[:, j]
            piv = w[pos]
            if abs(piv) < 1e-7:
                continue
            new_row = sim.Binv[pos, :] / piv
            sim.Binv -= np.outer(w, new_row)
            sim.Binv[pos, :] = new_row
            sim.basis[pos] = j
            sim.is_basic[art] = False
            sim.is_basic[j] = True
            sim.at_upper[j] = False
            break


def _full_point(sim: _Simplex) -> np.ndarray:
    vals = sim._nonbasic_values()
    x_b = sim._basic_values()
    for pos, col in enumerate(sim.basis):
        vals[col] = x_b[pos]
    return vals


def _extract(lp: LinearProgram, can: _Canonical, sim: _Simplex) -> LpSolution:
    n = can.n_struct
    ncols = can.A.shape[1]
    full = _full_point(sim)
    x = full[:n].copy()

    c_min = np.zeros(sim.A.shape[1])
    c_min[:ncols] = can.c_min
    y_min = c_min[sim.basis] @ sim.Binv
    duals = -(y_min * can.row_sign)
    reduced = lp.c - duals @ lp.A

    obj = float(lp.c @ x)

    # never report a wrong Optimal: re-verify the original rows and bounds
    resid = lp.A @ x - lp.b
    for i, s in enumerate(lp.senses):
        bad = (
            (s == LE and resid[i] > FEAS_TOL)
            or (s == GE and resid[i] < -FEAS_TOL)
            or (s == EQ and abs(resid[i]) > FEAS_TOL)
        )
        if bad:
            raise SolverError(
                "optimal basis fails primal feasibility check",
                {"row": i, "residual": float(resid[i])},
            )
    if np.any(x < lp.lb - FEAS_TOL) or np.any(x > lp.ub + FEAS_TOL):
        raise SolverError("optimal point violates variable bounds", {})

    basic = tuple(int(j) for j in sim.basis)
    uppers = tuple(int(j) for j in np.flatnonzero(sim.at_upper) if j < ncols)
    if any(j >= ncols for j in basic):
        # an artificial stayed basic (degenerately, at value 0); such a basis
        # is not reusable across resolves
        warm = None
    else:
        warm = WarmBasis(basic=basic, at_upper=uppers)
    return LpSolution(
        status=OPTIMAL,
        objective=obj,
        x=x,
        duals=duals,
        reduced_costs=reduced,
        basis=warm,
        pivots=sim.pivots,
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase cold solve."""
    lp.validate()
    can = _Canonical(lp)
    sim = _Simplex(can)
    status = _cold_start(can, sim)
    if status == INFEASIBLE:
        return LpSolution(status=INFEASIBLE, pivots=sim.pivots)
    ncols = can.A.shape[1]
    c2 = np.zeros(sim.A.shape[1])
    c2[:ncols] = can.c_min
    status = sim.run(c2, phase_one=False)
    if status == UNBOUNDED:
        return LpSolution(status=UNBOUNDED, pivots=sim.pivots)
    return _extract(lp, can, sim)


def slack_columns(lp: LinearProgram) -> dict[int, int]:
    """Canonical column index of each inequality row's slack variable.

    Lets callers assemble analytic warm bases without re-deriving the
    canonical layout (structural columns first, then one slack per
    inequality row in row order).
    """
    return dict(_Canonical(lp).slack_col)


def _try_warm(can: _Canonical, warm: WarmBasis) -> "_Simplex | None":
    ncols = can.A.shape[1]
    if (
        len(warm.basic) != can.A.shape[0]
        or len(set(warm.basic)) != len(warm.basic)
        or any(not 0 <= j < ncols for j in warm.basic)
        or any(not 0 <= j < ncols for j in warm.at_upper)
        or any(not np.isfinite(can.ub[j]) for j in warm.at_upper)
    ):
        return None
    sim = _Simplex(can)
    try:
        sim._setup(list(warm.basic), set(warm.at_upper))
    except SolverError:
        return None
    x_b = sim._basic_values()
    lo = can.lb[list(warm.basic)]
    hi = can.ub[list(warm.basic)]
    if np.any(x_b < lo - FEAS_TOL) or np.any(x_b > hi + FEAS_TOL):
        return None
    return sim


def solve_lp_multi(lp: LinearProgram, bases) -> LpSolution:
    """Try candidate warm bases in order; cold start when none is usable.

    Warm attempts are best-effort: a numerical failure inside one falls
    through to the next candidate (and finally to the cold start) instead of
    propagating.
    """
    bases = [warm for warm in bases if warm is not None]
    if not bases:
        return solve_lp(lp)
    lp.validate()
    can = _Canonical(lp)
    for warm in bases:
        try:
            sim = _try_warm(can, warm)
            if sim is None:
                continue
            status = sim.run(can.c_min.copy(), phase_one=False)
            if status == UNBOUNDED:
                return LpSolution(status=UNBOUNDED, pivots=sim.pivots)
            return _extract(lp, can, sim)
        except SolverError:
            continue
    return solve_lp(lp)


def solve_lp_with_basis(lp: LinearProgram, warm: WarmBasis | None) -> LpSolution:
    """Warm-started solve; silently falls back to a cold start when the basis
    is dimensionally wrong, singular, or primal infeasible under the bounds."""
    return solve_lp_multi(lp, [warm])


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
    can = _Canonical(lp)
    m = can.A.shape[0]
    ncols = can.A.shape[1]
    A = [[Fraction(can.A[i, j]) for j in range(ncols)] for i in range(m)]
    b = [Fraction(v) for v in can.b]
    lbs = [Fraction(v) if np.isfinite(v) else None for v in can.lb]
    ubs = [Fraction(v) if np.isfinite(v) else None for v in can.ub]
    basic = list(sol.basis.basic)
    at_upper = set(sol.basis.at_upper)

    xn = [Fraction(0)] * ncols
    for j in range(ncols):
        if j in basic:
            continue
        xn[j] = ubs[j] if j in at_upper else (lbs[j] if lbs[j] is not None else Fraction(0))
    rhs = [b[i] - sum(A[i][j] * xn[j] for j in range(ncols) if xn[j] != 0) for i in range(m)]
    B = [[A[i][basic[k]] for k in range(m)] for i in range(m)]
    xb = _rational_solve(B, rhs)

    point = xn[:]
    for k, j in enumerate(basic):
        point[j] = xb[k]

    feasible = True
    for j in range(ncols):
        if lbs[j] is not None and point[j] < lbs[j]:
            feasible = False
        if ubs[j] is not None and point[j] > ubs[j]:
            feasible = False

    c_min = [Fraction(v) for v in can.c_min]
    Bt = [[A[i][basic[k]] for i in range(m)] for k in range(m)]
    y = _rational_solve(Bt, [c_min[j] for j in basic])
    optimal = True
    for j in range(ncols):
        if j in basic:
            continue
        dj = c_min[j] - sum(y[i] * A[i][j] for i in range(m))
        if j in at_upper:
            if dj < 0:
                optimal = False
        elif lbs[j] is not None and (ubs[j] is None or lbs[j] != ubs[j]):
            if dj < 0:
                optimal = False
    objective = sum(Fraction(lp.c[j]) * point[j] for j in range(can.n_struct))
    return {
        "objective": objective,
        "feasible": feasible,
        "optimal": feasible and optimal,
        "x": point[: can.n_struct],
    }


def lp_to_text(lp: LinearProgram) -> str:
    """Plain-text debug dump.

    Grammar: one line ``max: <coef>*x<j> ...``, then per row
    ``r<i>: <coef>*x<j> ... <sense> <rhs>``, then per variable
    ``x<j> in [<lb>, <ub>]``.  Zero coefficients are omitted.
    """
    parts = []
    obj = " ".join(
        f"{lp.c[j]:+g}*x{j}" for j in range(lp.num_cols) if lp.c[j] != 0
    )
    parts.append(f"max: {obj or '0'}")
    for i in range(lp.num_rows):
        terms = " ".join(
            f"{lp.A[i, j]:+g}*x{j}" for j in range(lp.num_cols) if lp.A[i, j] != 0
        )
        parts.append(f"r{i}: {terms or '0'} {lp.senses[i]} {lp.b[i]:g}")
    for j in range(lp.num_cols):
        ub = "inf" if not np.isfinite(lp.ub[j]) else f"{lp.ub[j]:g}"
        parts.append(f"x{j} in [{lp.lb[j]:g}, {ub}]")
    return "\n".join(parts) + "\n"
